(* Command-line driver: regenerate each table and figure of the paper. *)

open Cmdliner

let run_table1 () = print_string (Exp_table1.render (Exp_table1.run ()))
let run_table2 () = print_string (Exp_table2.render (Exp_table2.run ()))
let run_table3 () = print_string (Exp_table3.render (Exp_table3.run ()))

let run_table4 quick () = print_string (Exp_table4.render (Exp_table4.run ~quick ()))

let run_figures () = print_string (Exp_figures.render (Exp_figures.run ()))

let run_stats () = print_string (Exp_substrate.render (Exp_substrate.run ()))

let run_chaos seed () = print_string (Exp_chaos.render (Exp_chaos.run ?seed ()))

let run_profile json () =
  let r = Exp_profile.run () in
  if json then print_string (Exp_profile.render_json r) else print_string (Exp_profile.render r)

(* The ablations and the [all] group are independent deterministic
   experiments; with --jobs they fan out over domains via Exp_par, whose
   in-order join keeps the printed bytes identical to a sequential run. *)

let run_ablations jobs () =
  print_string
    (Exp_par.concat ~jobs ~sep:""
       (List.map
          (fun run () -> Exp_ablations.render (run ()) ^ "\n")
          [
            Exp_ablations.append_batch;
            Exp_ablations.delivery_mode;
            Exp_ablations.reprotect_batch;
            Exp_ablations.regeneration_crossover;
            Exp_ablations.eviction_destination;
          ]))

let run_all quick jobs () =
  print_string
    (Exp_par.concat ~jobs ~sep:"\n"
       [
         (fun () -> Exp_table1.render (Exp_table1.run ()));
         (fun () -> Exp_table2.render (Exp_table2.run ()));
         (fun () -> Exp_table3.render (Exp_table3.run ()));
         (fun () -> Exp_table4.render (Exp_table4.run ~quick ()));
         (fun () -> Exp_figures.render (Exp_figures.run ()));
       ])

let run_perf quick json jobs out () =
  let r = Exp_scale.run ~quick ?jobs () in
  let record = Exp_scale.render_json r in
  let oc = open_out out in
  output_string oc record;
  close_out oc;
  if json then print_string record
  else begin
    print_string (Exp_scale.render r);
    Printf.printf "(machine-readable record written to %s)\n" out
  end;
  if not (Exp_report.all_pass r.Exp_scale.checks) then exit 1

(* Schema dispatch lives in Exp_validate (one validator per record
   schema, keyed by the record's own "schema" tag); this is just the
   file-and-exit-status shell around it. *)
let run_validate file () =
  let contents =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e ->
      Printf.eprintf "%s\n" e;
      exit 1
  in
  match Exp_validate.validate_string contents with
  | Ok tag -> Printf.printf "%s: valid %s record\n" file tag
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1

let run_market quick json jobs out () =
  let r = Exp_market.run ~quick ?jobs () in
  let record = Exp_market.render_json r in
  let oc = open_out out in
  output_string oc record;
  close_out oc;
  if json then print_string record
  else begin
    print_string (Exp_market.render r);
    Printf.printf "(machine-readable record written to %s)\n" out
  end;
  if not (Exp_report.all_pass r.Exp_market.checks) then exit 1

let run_tier quick json jobs out () =
  let r = Exp_tier.run ~quick ~jobs () in
  let record = Exp_tier.render_json r in
  let oc = open_out out in
  output_string oc record;
  close_out oc;
  if json then print_string record
  else begin
    print_string (Exp_tier.render r);
    Printf.printf "(machine-readable record written to %s)\n" out
  end;
  if not (Exp_report.all_pass r.Exp_tier.checks) then exit 1

let run_cache quick json jobs out () =
  let r = Exp_cache.run ~quick ~jobs () in
  let record = Exp_cache.render_json r in
  let oc = open_out out in
  output_string oc record;
  close_out oc;
  if json then print_string record
  else begin
    print_string (Exp_cache.render r);
    Printf.printf "(machine-readable record written to %s)\n" out
  end;
  if not (Exp_report.all_pass r.Exp_cache.checks) then exit 1

let run_shard quick json jobs out () =
  let r = Exp_shard.run ~quick ~jobs () in
  let record = Exp_shard.render_json r in
  let oc = open_out out in
  output_string oc record;
  close_out oc;
  if json then print_string record
  else begin
    print_string (Exp_shard.render r);
    Printf.printf "(machine-readable record written to %s)\n" out
  end;
  if not (Exp_report.all_pass r.Exp_shard.checks) then exit 1

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shorten the Table 4 simulation (60s instead of 300s).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the versioned machine-readable record instead of the text rendering.")

let seed_opt =
  Arg.(
    value
    & opt (some int64) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed (same seed, same storm).")

let jobs_opt =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run independent experiments on $(docv) OCaml domains. Output is joined in fixed \
           order, so it is byte-identical to a sequential run.")

let perf_jobs_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domain count for the perf record's driver leg (default: the recommended domain \
           count).")

let out_opt =
  Arg.(
    value & opt string "BENCH_perf.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the vpp-perf/2 record.")

let market_out_opt =
  Arg.(
    value & opt string "BENCH_market.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the vpp-market/1 record.")

let tier_out_opt =
  Arg.(
    value & opt string "BENCH_tier.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the vpp-tier/1 record.")

let cache_out_opt =
  Arg.(
    value & opt string "BENCH_cache.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the vpp-cache/1 record.")

let shard_out_opt =
  Arg.(
    value & opt string "BENCH_shard.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the vpp-shard/2 record.")

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Record to validate.")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let () =
  let cmds =
    [
      cmd "table1" "System primitive times (Table 1)" Term.(const run_table1 $ const ());
      cmd "table2" "Application elapsed times (Table 2)" Term.(const run_table2 $ const ());
      cmd "table3" "VM system activity and costs (Table 3)" Term.(const run_table3 $ const ());
      cmd "table4" "DBMS transaction response times (Table 4)"
        Term.(const run_table4 $ quick_flag $ const ());
      cmd "figures" "Figures 1 and 2 as live kernel-state dumps"
        Term.(const run_figures $ const ());
      cmd "ablate" "Ablations of the design choices (batching, delivery mode, crossover)"
        Term.(const run_ablations $ jobs_opt $ const ());
      cmd "stats" "Translation-substrate statistics (mapping hash, TLB) for the Table 2 runs"
        Term.(const run_stats $ const ());
      cmd "chaos" "Seeded fault-injection storms on the disk/manager paths (not a paper table)"
        Term.(const run_chaos $ seed_opt $ const ());
      cmd "profile"
        "Cost attribution for the Table 1 paths plus latency histograms (not a paper table)"
        Term.(const run_profile $ json_flag $ const ());
      cmd "perf"
        "Simulator throughput at 8 MB/512 MB/4 GB machine sizes, the 4 KB-vs-superpage \
         streaming legs and the parallel-driver timing (the vpp-perf/2 record; not a paper \
         table)"
        Term.(const run_perf $ quick_flag $ json_flag $ perf_jobs_opt $ out_opt $ const ());
      cmd "perf-validate" "Deprecated alias for $(b,validate)"
        Term.(const run_validate $ file_arg $ const ());
      cmd "market"
        "Multi-tenant memory market at production scale: admission control, lazy settlement \
         and per-class SLOs (the vpp-market/1 record; not a paper table)"
        Term.(const run_market $ quick_flag $ json_flag $ perf_jobs_opt $ market_out_opt $ const ());
      cmd "market-validate" "Deprecated alias for $(b,validate)"
        Term.(const run_validate $ file_arg $ const ());
      cmd "tier"
        "Single-tier vs tiered frame placement: a tier-oblivious pager against Mgr_tiered's \
         hot/cold migration on the same traces (the vpp-tier/1 record; not a paper table)"
        Term.(const run_tier $ quick_flag $ json_flag $ jobs_opt $ tier_out_opt $ const ());
      cmd "cache"
        "Frame placement vs a physically-indexed cache: the same trace under sequential, random \
         and page-colored placement (the vpp-cache/1 record; not a paper table)"
        Term.(const run_cache $ quick_flag $ json_flag $ jobs_opt $ cache_out_opt $ const ());
      cmd "shard"
        "Sharded DBMS throughput: the same transactions over 1/4/8 parallel shards with \
         two-phase commit on the cross-shard fraction, plus group commit against per-commit \
         log forcing on one shard (the vpp-shard/2 record; not a paper table)"
        Term.(const run_shard $ quick_flag $ json_flag $ jobs_opt $ shard_out_opt $ const ());
      cmd "validate"
        "Validate any versioned record (vpp-perf/2, vpp-perf/1, vpp-market/1, vpp-profile/1, \
         vpp-tier/1, vpp-cache/1, vpp-shard/2), dispatching on its embedded schema tag"
        Term.(const run_validate $ file_arg $ const ());
      cmd "all" "Every table and figure" Term.(const run_all $ quick_flag $ jobs_opt $ const ());
    ]
  in
  let info =
    Cmd.info "vpp_repro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Application-Controlled Physical Memory using External Page-Cache \
         Management' (Harty & Cheriton, ASPLOS 1992)"
  in
  exit
    (Cmd.eval (Cmd.group info ~default:Term.(const run_all $ quick_flag $ jobs_opt $ const ()) cmds))
