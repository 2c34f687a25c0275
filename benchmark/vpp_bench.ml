(* The benchmark command:

     vpp_bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                   [--trace-file FILE]

   Prints every metric by name with its unit, then, as the last line of
   standard output, one JSON object {correct, attempted, failed, metrics}.
   Untraced runs report the end-to-end metrics; --trace 1 runs one more
   iteration with spans on, reports the per-layer metrics and writes the
   Chrome trace to FILE (default .vpp_bench/W.trace.json). Exits 1 when a
   correctness check fails and 2 on bad arguments. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and trace_file = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W  one of "
        ^ String.concat ", " (List.map (fun w -> w.Bench_workloads.name) Bench_workloads.all) );
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  host seconds of timed iterations (default 20; 0 = one iteration, no warm-up)" );
      ("--trace", Arg.Set_int trace, "0|1  also run one traced iteration (default 0)");
      ("--trace-file", Arg.Set_string trace_file, "FILE  where the Chrome trace goes");
    ]
  in
  let usage = "vpp_bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  let bad msg =
    prerr_endline ("vpp_bench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  Arg.parse spec (fun a -> bad ("unexpected argument " ^ a)) usage;
  let w =
    match Bench_workloads.find !workload with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if not (!seconds >= 0.0 && !seconds <= 3600.0) then bad "--seconds must lie in [0, 3600]";
  let trace_file =
    if !trace = 0 then None
    else if !trace_file <> "" then Some !trace_file
    else Some (Filename.concat ".vpp_bench" (w.Bench_workloads.name ^ ".trace.json"))
  in
  let report =
    Bench_run.run w ~seed:!seed ~seconds:!seconds ~quick:false ~trace_file
  in
  print_string (Bench_run.render report);
  print_endline (Bench_run.json_line report);
  exit (if report.Bench_run.correct then 0 else 1)
