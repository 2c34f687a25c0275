(* Tests for the Tables 2-3 application traces and the dual-kernel
   runner. *)

module T = Wl_trace
module K = Epcm_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Trace accounting                                                   *)
(* ------------------------------------------------------------------ *)

let test_trace_static_accounting () =
  (* The traces are calibrated against Table 3; their static expectations
     must match the paper's counts exactly. *)
  let expect name calls migrates =
    let trace = List.find (fun t -> t.T.name = name) Wl_apps.all in
    check_int (name ^ " manager calls") calls (Wl_apps.expected_manager_calls trace);
    check_int (name ^ " migrates") migrates (Wl_apps.expected_migrate_calls trace)
  in
  expect "diff" 379 372;
  expect "uncompress" 197 195;
  expect "latex" 250 238

let test_trace_paper_file_sizes () =
  check_int "diff reads 400KB" 400 (T.total_read_kb Wl_apps.diff);
  check_int "diff writes 240KB" 240 (T.total_append_kb Wl_apps.diff);
  check_int "uncompress reads 800KB" 800 (T.total_read_kb Wl_apps.uncompress);
  check_int "uncompress writes 2MB" 2048 (T.total_append_kb Wl_apps.uncompress);
  check_bool "latex output modest" true (T.total_append_kb Wl_apps.latex < 200)

let test_trace_heap_within_segment () =
  List.iter
    (fun t ->
      check_bool
        (t.T.name ^ ": heap touches fit the heap segment")
        true
        (T.total_heap_touches t <= t.T.heap_pages))
    Wl_apps.all

(* ------------------------------------------------------------------ *)
(* V++ runs                                                           *)
(* ------------------------------------------------------------------ *)

let test_vpp_diff_matches_table3 () =
  let r = Wl_run.run_vpp Wl_apps.diff in
  check_int "manager calls" 379 r.Wl_run.v_manager_calls;
  check_int "migrate calls" 372 r.Wl_run.v_migrate_calls;
  (* Overhead formula: calls x (379-175)us = 77 ms. *)
  check_bool "overhead near the paper's 76ms" true
    (Float.abs (r.Wl_run.v_manager_overhead_ms -. 77.3) < 1.0)

let test_vpp_uncompress_matches_table3 () =
  let r = Wl_run.run_vpp Wl_apps.uncompress in
  check_int "manager calls" 197 r.Wl_run.v_manager_calls;
  check_int "migrate calls" 195 r.Wl_run.v_migrate_calls

let test_vpp_latex_matches_table3 () =
  let r = Wl_run.run_vpp Wl_apps.latex in
  check_int "manager calls" 250 r.Wl_run.v_manager_calls;
  check_int "migrate calls" 238 r.Wl_run.v_migrate_calls

let test_vpp_reads_are_4kb_units () =
  let r = Wl_run.run_vpp Wl_apps.diff in
  (* 400KB at 4KB per kernel call. *)
  check_int "100 uio reads" 100 r.Wl_run.v_uio_reads;
  check_int "60 uio writes" 60 r.Wl_run.v_uio_writes

let test_vpp_deterministic () =
  let a = Wl_run.run_vpp Wl_apps.diff in
  let b = Wl_run.run_vpp Wl_apps.diff in
  check_bool "same elapsed" true (a.Wl_run.v_elapsed_s = b.Wl_run.v_elapsed_s);
  check_int "same calls" a.Wl_run.v_manager_calls b.Wl_run.v_manager_calls

(* Table 3 pin: the paper's counts for all three applications, asserted
   together as the single invariant they are. The Tables 2-3 runs use a
   memory backing store and never attach a chaos plan to any device —
   fault injection is strictly per-device opt-in — so these counts are
   structurally immune to the injection subsystem. This test is the
   tripwire should that ever change. *)
let test_table3_counts_pinned () =
  List.iter
    (fun (trace, calls, migrates) ->
      let r = Wl_run.run_vpp trace in
      check_int (trace.T.name ^ ": Table 3 manager calls") calls r.Wl_run.v_manager_calls;
      check_int (trace.T.name ^ ": Table 3 migrate calls") migrates r.Wl_run.v_migrate_calls)
    [ (Wl_apps.diff, 379, 372); (Wl_apps.uncompress, 197, 195); (Wl_apps.latex, 250, 238) ]

(* ------------------------------------------------------------------ *)
(* Ultrix runs                                                        *)
(* ------------------------------------------------------------------ *)

let test_ultrix_diff_faults () =
  let r = Wl_run.run_ultrix Wl_apps.diff in
  (* Heap first-touches fault and zero-fill; file appends do not fault
     (the write path allocates in-kernel). *)
  check_int "faults = heap touches" (Wl_trace.total_heap_touches Wl_apps.diff)
    r.Wl_run.u_faults;
  check_int "all were zero fills" r.Wl_run.u_faults r.Wl_run.u_zero_fills

let test_ultrix_io_calls_half_of_vpp () =
  let u = Wl_run.run_ultrix Wl_apps.diff in
  let v = Wl_run.run_vpp Wl_apps.diff in
  (* The paper: V++ moves 4KB per call, Ultrix 8KB — twice the calls. *)
  check_int "read calls halved" (v.Wl_run.v_uio_reads / 2) u.Wl_run.u_read_calls;
  check_int "write calls halved" (v.Wl_run.v_uio_writes / 2) u.Wl_run.u_write_calls

let test_elapsed_times_sane () =
  List.iter
    (fun trace ->
      let v = Wl_run.run_vpp trace in
      let u = Wl_run.run_ultrix trace in
      check_bool (trace.T.name ^ " vpp positive") true (v.Wl_run.v_elapsed_s > 0.0);
      check_bool (trace.T.name ^ " within 10% of each other") true
        (Float.abs (v.Wl_run.v_elapsed_s -. u.Wl_run.u_elapsed_s) /. u.Wl_run.u_elapsed_s < 0.10))
    Wl_apps.all

(* ------------------------------------------------------------------ *)
(* Wl_scale: the perf record's synthetic workload                     *)
(* ------------------------------------------------------------------ *)

(* The whole record rests on the workload being deterministic: rerunning a
   config must reproduce every field, simulated clock and engine event
   count included, so only the host wall-clock differs between perf runs. *)
let test_scale_deterministic () =
  let a = Wl_scale.run Wl_scale.size_8mb in
  let b = Wl_scale.run Wl_scale.size_8mb in
  check_bool "same config, same result record" true (a = b)

(* Pin the 8 MB deterministic counts: the phases are sized by arithmetic
   on the frame count (half cold-paged, quarter ping-ponged, churn over
   budget), so a drift here means the workload's shape changed and
   cross-PR throughput numbers stop being comparable. Wl_scale builds
   one-tier machines without [?cache], so the same counts also pin the
   tier and cache zero-delta rules on this workload. The engine event
   count is deliberately not pinned — it tracks charge structure, which
   the Table 1 goldens already own. *)
let test_scale_counts_pinned () =
  let o = (Wl_scale.run Wl_scale.size_8mb).Wl_scale.r_obs in
  check_int "frames" 2048 o.K.o_frames;
  check_int "touches" 3584 o.K.o_touches;
  check_int "faults" 1344 o.K.o_faults;
  check_int "migrate calls" 2696 o.K.o_migrate_calls;
  check_int "migrated pages" 3200 o.K.o_migrated_pages;
  check_bool "conserved (K.audit)" true o.K.o_conserved;
  check_bool "events counted" true (o.K.o_events > 0);
  check_bool "simulated clock advanced" true (o.K.o_sim_us > 0.0)

(* The perf record's own legs are fanned over domains by [~jobs]; the
   in-order join must keep every deterministic field identical to a
   sequential run — only the self-timed wall clocks (and the driver
   leg's timings) may differ. A drift here means a scale or stream leg
   picked up hidden cross-leg state. *)
let test_perf_record_jobs_invariant () =
  let a = Exp_scale.run ~quick:true ~jobs:1 () in
  let b = Exp_scale.run ~quick:true ~jobs:2 () in
  check_bool "scale legs identical across jobs" true
    (List.map (fun s -> s.Exp_scale.s_result) a.Exp_scale.scales
    = List.map (fun s -> s.Exp_scale.s_result) b.Exp_scale.scales);
  check_bool "stream legs identical across jobs" true
    (List.map (fun s -> s.Exp_scale.t_result) a.Exp_scale.stream
    = List.map (fun s -> s.Exp_scale.t_result) b.Exp_scale.stream);
  check_bool "driver output identical in both runs" true
    (a.Exp_scale.driver.Exp_scale.d_identical && b.Exp_scale.driver.Exp_scale.d_identical)

let () =
  Alcotest.run "workloads"
    [
      ( "traces",
        [
          Alcotest.test_case "static accounting" `Quick test_trace_static_accounting;
          Alcotest.test_case "paper file sizes" `Quick test_trace_paper_file_sizes;
          Alcotest.test_case "heap fits segment" `Quick test_trace_heap_within_segment;
        ] );
      ( "vpp",
        [
          Alcotest.test_case "diff Table 3" `Quick test_vpp_diff_matches_table3;
          Alcotest.test_case "uncompress Table 3" `Quick test_vpp_uncompress_matches_table3;
          Alcotest.test_case "latex Table 3" `Quick test_vpp_latex_matches_table3;
          Alcotest.test_case "4KB I/O units" `Quick test_vpp_reads_are_4kb_units;
          Alcotest.test_case "deterministic" `Quick test_vpp_deterministic;
          Alcotest.test_case "Table 3 counts pinned" `Quick test_table3_counts_pinned;
        ] );
      ( "scale",
        [
          Alcotest.test_case "deterministic" `Quick test_scale_deterministic;
          Alcotest.test_case "8 MB counts pinned" `Quick test_scale_counts_pinned;
          Alcotest.test_case "perf record identical across --jobs" `Slow
            test_perf_record_jobs_invariant;
        ] );
      ( "ultrix",
        [
          Alcotest.test_case "diff faults" `Quick test_ultrix_diff_faults;
          Alcotest.test_case "8KB halves the calls" `Quick test_ultrix_io_calls_half_of_vpp;
          Alcotest.test_case "elapsed sane" `Quick test_elapsed_times_sane;
        ] );
    ]
