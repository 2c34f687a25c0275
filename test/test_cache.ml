(* Zero-delta pins for the cache wiring: a machine built without [?cache]
   must be bit-identical to the pre-cache model (the Table 1 span
   attribution re-pinned here, from a suite that exists only because the
   cache does; the 8 MB perf counts are pinned in test_workloads.ml), a
   cache that never misses must charge nothing, and the vpp-cache/1
   record must replay bit-identically — colored and random legs
   seed-for-seed. *)

module K = Epcm_kernel
module Mgr = Epcm_manager
module Flags = Epcm_flags
module Machine = Hw_machine
module Engine = Sim_engine
module Cache = Hw_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_exact = Alcotest.(check (float 0.0))
let check_string = Alcotest.(check string)

let page_size = 4096

(* ------------------------------------------------------------------ *)
(* Cache-off: the pre-cache goldens hold                               *)
(* ------------------------------------------------------------------ *)

(* The Table 1 span decompositions: measured = pinned on every row and
   each row's span charges sum back to the pinned total. A stray
   kernel/cache_miss charge on a cache-less machine would break both. *)
let test_profile_attribution_cacheless () =
  let r = Exp_profile.run () in
  List.iter
    (fun row ->
      check_float_exact
        (row.Exp_profile.p_label ^ ": measured = pinned")
        row.Exp_profile.p_pinned_us row.Exp_profile.p_measured_us;
      let sum = List.fold_left (fun acc (_, _, us) -> acc +. us) 0.0 row.Exp_profile.p_spans in
      check_float_exact (row.Exp_profile.p_label ^ ": spans sum to pinned")
        row.Exp_profile.p_pinned_us sum;
      check_bool
        (row.Exp_profile.p_label ^ ": no cache_miss span on a cache-less machine")
        false
        (List.exists (fun (path, _, _) -> path = "kernel/cache_miss") row.Exp_profile.p_spans))
    r.Exp_profile.rows;
  check_bool "profile checks all pass" true (Exp_report.all_pass r.Exp_profile.checks)

let test_cacheless_machine_has_no_cache () =
  let machine = Machine.create ~page_size ~memory_bytes:(64 * page_size) () in
  check_int "no caches without ?cache" 0 (Machine.n_caches machine);
  check_bool "no color geometry without ?cache" true (Machine.cache_colors machine = None);
  let accesses, hits, misses = Machine.cache_stats machine in
  check_int "no accesses" 0 accesses;
  check_int "no hits" 0 hits;
  check_int "no misses" 0 misses

(* ------------------------------------------------------------------ *)
(* Cache-on: only misses are charged                                   *)
(* ------------------------------------------------------------------ *)

let naive_pager kernel =
  let source = K.initial_source kernel in
  let on_fault (fault : Mgr.fault) =
    match fault.Mgr.f_kind with
    | Mgr.Missing | Mgr.Cow_write ->
        ignore (source ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1)
    | Mgr.Protection ->
        K.modify_page_flags kernel ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:1
          ~clear_flags:(Flags.of_list [ Flags.no_access; Flags.read_only ])
          ()
  in
  K.register_manager kernel ~name:"pager" ~mode:`In_process ~on_fault ()

let frames = 64
let pages = 48

(* 256 KB at 64-byte lines = 4096 sets: each of the 64 frames' base lines
   maps to a distinct set, so a pre-warmed cache never misses. *)
let big_cache = Machine.l2_cache ~size_bytes:(256 * 1024) ()

let run_trace ~cache ~warm () =
  let machine =
    match cache with
    | false -> Machine.create ~page_size ~memory_bytes:(frames * page_size) ()
    | true -> Machine.create ~page_size ~memory_bytes:(frames * page_size) ~cache:big_cache ()
  in
  let kernel = K.create machine in
  if warm then begin
    (* Direct model access outside the engine: charges are no-ops, so
       warming is free — exactly the Hw_machine.charge discipline. *)
    let c = machine.Machine.caches.(0) in
    for f = 0 to frames - 1 do
      ignore (Cache.access c ~phys_addr:(f * page_size))
    done;
    Cache.reset_stats c
  end;
  let mid = naive_pager kernel in
  let seg = K.create_segment kernel ~name:"ws" ~pages () in
  K.set_segment_manager kernel seg mid;
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to pages - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      for _ = 1 to 3 do
        for page = 0 to pages - 1 do
          K.touch kernel ~space:seg ~page ~access:Mgr.Read
        done
      done);
  Engine.run machine.Machine.engine;
  (machine, kernel)

(* A cache that never misses charges nothing: the run is bit-identical —
   same counts, same events, same simulated time — to the cache-less
   machine. This is the zero-delta guard measured from the other side. *)
let test_warm_cache_charges_nothing () =
  let m_off, k_off = run_trace ~cache:false ~warm:false () in
  let m_warm, k_warm = run_trace ~cache:true ~warm:true () in
  check_bool "kernel stats identical" true (K.stats k_off = K.stats k_warm);
  check_int "events identical"
    (Engine.events_executed m_off.Machine.engine)
    (Engine.events_executed m_warm.Machine.engine);
  check_float_exact "simulated time identical" (Machine.now m_off) (Machine.now m_warm);
  let accesses, _, misses = Machine.cache_stats m_warm in
  check_int "pre-warmed cache never missed" 0 misses;
  let stats = K.stats k_warm in
  check_int "every touch fed the cache" stats.K.touches accesses

(* And a cold cache charges exactly misses * cache_miss_penalty on top. *)
let test_cold_cache_charges_misses () =
  let m_off, _ = run_trace ~cache:false ~warm:false () in
  let m_cold, k_cold = run_trace ~cache:true ~warm:false () in
  let _, _, misses = Machine.cache_stats m_cold in
  check_bool "the cold cache missed" true (misses > 0);
  check_bool "kernel stats unchanged by the cache" true
    (K.stats k_cold = K.stats (snd (run_trace ~cache:false ~warm:false ())));
  let penalty = m_cold.Machine.cost.Hw_cost.cache_miss_penalty in
  Alcotest.(check (float 1e-6))
    "cold run = cache-less run + misses * penalty"
    (Machine.now m_off +. (float_of_int misses *. penalty))
    (Machine.now m_cold)

(* ------------------------------------------------------------------ *)
(* The record replays bit-identically                                  *)
(* ------------------------------------------------------------------ *)

let test_record_replays () =
  let a = Exp_cache.run ~quick:true () in
  let b = Exp_cache.run ~quick:true () in
  check_string "vpp-cache/1 record replays byte-identically"
    (Exp_codec.print Exp_cache.codec a) (Exp_codec.print Exp_cache.codec b);
  check_bool "all embedded checks pass" true (Exp_report.all_pass a.Exp_cache.checks);
  check_bool "replay flag (random + colored legs seed-for-seed)" true a.Exp_cache.replay_identical;
  match Exp_record.validate (Exp_codec.enc Exp_cache.codec a) with
  | Ok tag -> check_string "validates under the dispatcher" Exp_cache.schema_version tag
  | Error e -> Alcotest.fail ("vpp-cache/1 record failed validation: " ^ e)

let () =
  Alcotest.run "cache"
    [
      ( "zero-delta",
        [
          Alcotest.test_case "no cache state without ?cache" `Quick
            test_cacheless_machine_has_no_cache;
          Alcotest.test_case "Table 1 attribution holds (cache-less)" `Quick
            test_profile_attribution_cacheless;
          Alcotest.test_case "warm cache charges nothing" `Quick test_warm_cache_charges_nothing;
          Alcotest.test_case "cold cache charges misses * penalty" `Quick
            test_cold_cache_charges_misses;
        ] );
      ( "record",
        [ Alcotest.test_case "quick record replays bit-identically" `Quick test_record_replays ]
      );
    ]
