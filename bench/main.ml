(* Benchmark harness.

   Two jobs, one executable:

   1. Regenerate every table and figure of the paper and print the same
      rows the paper reports (paper value alongside the measured one) —
      the reproduction itself.

   2. A Bechamel microbenchmark group with one Test.make per table (and
      one for the figures): how long the simulator takes, in wall-clock
      time, to regenerate each artifact. Useful for tracking simulator
      performance regressions.

   Run with: dune exec bench/main.exe [-- --jobs N]
   --jobs N runs the independent experiments on N OCaml domains (default:
   the recommended domain count; joined in fixed order, so the printed
   report is byte-identical to a sequential run). Set VPP_BENCH_FAST=1 to
   skip the Bechamel pass (used by CI smoke runs). *)

open Bechamel
open Toolkit

let line () = print_endline (String.make 78 '=')

let reproduce ~jobs =
  line ();
  print_endline "Reproduction: Harty & Cheriton, ASPLOS 1992 — all tables and figures";
  line ();
  print_string (Exp_par.concat ~jobs ~sep:"\n" (Exp_record.paper ~quick:false));
  print_newline ();
  line ();
  print_endline "Ablations of the design choices";
  line ();
  print_string (Exp_par.concat ~jobs ~sep:"" Exp_record.ablations);
  print_string (Exp_substrate.render (Exp_substrate.run ()));
  print_newline ();
  line ();
  print_endline "Fault injection: seeded chaos storms on the disk paths";
  line ();
  print_string (Exp_chaos.render (Exp_chaos.run ()));
  print_newline ();
  (* Every versioned record, in full, written to its BENCH_*.json file. *)
  List.iter
    (fun (Exp_record.Record e) ->
      line ();
      print_endline e.title;
      line ();
      let r = e.run ~quick:false ~jobs:(Some jobs) in
      print_string (e.render r);
      Out_channel.with_open_text e.out (fun oc -> output_string oc (Exp_codec.print e.codec r));
      Printf.printf "(machine-readable record written to %s)\n" e.out)
    Exp_record.all

(* One Test.make per table/figure. Table 4 runs in its quick (60 s
   simulated) configuration here so a Bechamel sample stays subsecond. *)
let tests =
  Test.make_grouped ~name:"paper"
    [
      Test.make ~name:"table1.primitives" (Staged.stage (fun () -> ignore (Exp_table1.run ())));
      Test.make ~name:"table2.applications" (Staged.stage (fun () -> ignore (Exp_table2.run ())));
      Test.make ~name:"table3.vm-activity" (Staged.stage (fun () -> ignore (Exp_table3.run ())));
      Test.make ~name:"table4.dbms-quick"
        (Staged.stage (fun () -> ignore (Exp_table4.run ~quick:true ())));
      Test.make ~name:"figures.protocol" (Staged.stage (fun () -> ignore (Exp_figures.run ())));
      Test.make ~name:"chaos.storms" (Staged.stage (fun () -> ignore (Exp_chaos.run ())));
      Test.make ~name:"market.small"
        (Staged.stage (fun () -> ignore (Exp_market.run ~quick:true ())));
      Test.make ~name:"tier.placement"
        (Staged.stage (fun () -> ignore (Exp_tier.run ~quick:true ())));
      Test.make ~name:"cache.coloring"
        (Staged.stage (fun () -> ignore (Exp_cache.run ~quick:true ())));
      Test.make ~name:"shard.two-phase"
        (Staged.stage (fun () -> ignore (Exp_shard.run ~quick:true ())));
    ]

let benchmark () =
  line ();
  print_endline "Bechamel: wall-clock cost of regenerating each artifact";
  line ();
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
        in
        let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Printf.printf "%-28s %16s %8s\n" "benchmark" "time/run" "r^2";
  print_endline (String.make 54 '-');
  List.iter
    (fun (name, ns, r2) ->
      let time_str =
        if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-28s %16s %8.3f\n" name time_str r2)
    rows

let main jobs =
  reproduce ~jobs:(Option.value jobs ~default:(Exp_par.default_jobs ()));
  print_newline ();
  if Sys.getenv_opt "VPP_BENCH_FAST" = None then benchmark ()
  else print_endline "(VPP_BENCH_FAST set: skipping the Bechamel pass)"

(* Bechamel owns no CLI, so the harness takes just --jobs N, parsed like
   vpp_repro's; without it, fan out over the detected domain count. *)
let () =
  let open Cmdliner in
  let jobs =
    Arg.(
      value
      & opt (some (conv' (Exp_par.jobs_of_string, Format.pp_print_int))) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Run independent experiments on $(docv) OCaml domains (default: all of them).")
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main" ~doc:"Reproduce every table, figure and record, then time each artifact")
          Term.(const main $ jobs)))
