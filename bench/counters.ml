(* The benchmark's simulated counters at quick size, to the last digit:

     dune exec bench/counters.exe

   For each workload of benchmark/, one iteration at seed 1 in
   [Profiled] mode, printed as "WORKLOAD NAME VALUE" lines: its
   operations, its simulation events, the verdict of each correctness
   check, and every simulated counter with %.17g. A rule in bench/dune
   diffs the output against baselines/counters.txt, so a change that
   moves any benchmark counter fails the build. Host metrics (time,
   heap, allocation) stay with full-size runs of benchmark/run.sh. *)

module W = Bench_workloads

let () =
  List.iter
    (fun (w : W.t) ->
      let it = w.W.prepare ~seed:1 ~quick:true W.Profiled in
      let line name value = Printf.printf "%s %s %s\n" w.W.name name value in
      line "ops" (string_of_int it.W.ops);
      line "events" (string_of_int it.W.events);
      List.iter
        (fun (c : W.check) ->
          line
            (Printf.sprintf "check[%s]" c.W.what)
            (if c.W.ok then "pass" else Printf.sprintf "FAIL(%d)" c.W.failed_ops))
        it.W.checks;
      List.iter (fun (k, v) -> line k (Printf.sprintf "%.17g" v)) it.W.counters)
    W.all
