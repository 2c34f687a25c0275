(* Superpage (2 MB mapping) tests: promotion on batched migrates and on
   incremental assembly (never across a tier boundary), every demotion
   trigger (protection change, partial eviction, partial migrate,
   opt-out, teardown), the manager opt-ins (Mgr_generic aligned-run
   fills, Mgr_tiered fast-tier grants with demotion auto-split), opting
   in without promoting as a zero-delta, and qcheck churn pinning the
   incremental frame-conservation audits against their scan references —
   flat and tiered — at 4 KB granularity throughout.

   Machines here use ~super_pages:8 so a "2 MB" region is 8 pages and the
   interesting alignment/splitting cases fit in tens of frames. *)

module Phys = Hw_phys_mem
module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module G = Mgr_generic
module T = Mgr_tiered
module Machine = Hw_machine
module Engine = Sim_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let page_size = 4096
let run = 8 (* base pages per superpage in every machine below *)

let flat_kernel ~frames =
  let machine =
    Machine.create ~memory_bytes:(frames * page_size) ~page_size ~super_pages:run ()
  in
  (machine, K.create machine)

let tiered_kernel ~fast ~slow =
  let machine =
    Machine.create ~page_size ~super_pages:run
      ~tiers:
        [
          Phys.dram_tier ~bytes:(fast * page_size);
          Phys.slow_dram_tier ~bytes:(slow * page_size);
        ]
      ()
  in
  (machine, K.create machine)

let audits_agree kernel =
  K.frame_owner_audit kernel = K.frame_owner_audit_scan kernel
  && K.frame_owner_audit_tiered kernel = K.frame_owner_audit_tiered_scan kernel

let conserved machine kernel =
  audits_agree kernel && K.frame_owner_total kernel = Machine.n_frames machine

(* Summing tier column [k] of the per-tier audit over all segments must
   give tier [k]'s frame count. *)
let tier_columns_conserved kernel machine =
  let mem = machine.Machine.mem in
  let totals = Array.make (Phys.n_tiers mem) 0 in
  List.iter
    (fun (_, by_tier) -> Array.iteri (fun k n -> totals.(k) <- totals.(k) + n) by_tier)
    (K.frame_owner_audit_tiered kernel);
  Array.for_all Fun.id
    (Array.init (Phys.n_tiers mem) (fun k ->
         let _, count = Phys.tier_bounds mem k in
         totals.(k) = count))

let ro = Flags.of_list [ Flags.read_only ]

(* A Mgr_generic frame source: grants initial-segment frames one
   MigratePages each, scanning the boot slots upward from [first] and
   never revisiting one. *)
let initial_source kernel ~first =
  let init = K.initial_segment kernel in
  let next = ref first in
  fun ~dst ~dst_page ~count ->
    let init_seg = K.segment kernel init in
    let granted = ref 0 in
    while !granted < count && !next < Seg.length init_seg do
      (if (Seg.page init_seg !next).Seg.frame <> None then begin
         K.migrate_pages kernel ~src:init ~dst ~src_page:!next ~dst_page:(dst_page + !granted)
           ~count:1 ();
         incr granted
       end);
      incr next
    done;
    !granted

(* ------------------------------------------------------------------ *)
(* Promotion                                                           *)
(* ------------------------------------------------------------------ *)

(* One grant_superpage_run = one contiguous MigratePages that promotes as
   part of the call; a second grant resumes from the returned cursor. *)
let test_promote_via_grant () =
  let machine, kernel = flat_kernel ~frames:32 in
  let seg = K.create_segment kernel ~name:"sp" ~pages:16 () in
  K.set_superpages kernel ~seg ~enabled:true;
  (match K.grant_superpage_run kernel ~dst:seg ~dst_page:0 ~start:0 with
  | Some base -> check_int "first run at frame 0" 0 base
  | None -> Alcotest.fail "no run found in a boot-fresh machine");
  let s = K.segment kernel seg in
  check_int "one region promoted" 1 (List.length (Seg.superpage_regions s));
  check_bool "region 0 backed by frame 0" true (Seg.superpage_regions s = [ (0, 0) ]);
  check_int "promotion counted" 1 (K.stats kernel).K.sp_promotions;
  check_int "run resident" run (Seg.resident_pages s);
  (match K.grant_superpage_run kernel ~dst:seg ~dst_page:run ~start:run with
  | Some base -> check_int "second run follows the cursor" run base
  | None -> Alcotest.fail "second run not found");
  check_bool "two regions" true (Seg.superpage_regions (K.segment kernel seg) = [ (0, 0); (1, run) ]);
  check_bool "conserved" true (conserved machine kernel)

(* Assembling an aligned identity run one single-page MigratePages at a
   time promotes on the call that completes the run — the batched install
   pass checks every region a migrate touches. *)
let test_promote_incremental_assembly () =
  let machine, kernel = flat_kernel ~frames:32 in
  let init = K.initial_segment kernel in
  let seg = K.create_segment kernel ~name:"sp" ~pages:16 () in
  K.set_superpages kernel ~seg ~enabled:true;
  for p = 0 to run - 1 do
    check_int
      (Printf.sprintf "no promotion before page %d arrives" p)
      0
      (K.stats kernel).K.sp_promotions;
    (* Boot slot p holds frame p, so this builds frames 0..7 at pages
       0..7: an aligned identity run. *)
    K.migrate_pages kernel ~src:init ~dst:seg ~src_page:p ~dst_page:p ~count:1 ()
  done;
  check_int "promoted when the run completed" 1 (K.stats kernel).K.sp_promotions;
  check_bool "region recorded" true
    (Seg.superpage_regions (K.segment kernel seg) = [ (0, 0) ]);
  check_bool "conserved" true (conserved machine kernel)

(* A misaligned or non-contiguous run must not promote. *)
let test_no_promotion_without_alignment () =
  let machine, kernel = flat_kernel ~frames:32 in
  let init = K.initial_segment kernel in
  let seg = K.create_segment kernel ~name:"sp" ~pages:16 () in
  K.set_superpages kernel ~seg ~enabled:true;
  (* Frames 4..11 are contiguous but 4 mod 8 <> 0: never promotable. *)
  K.migrate_pages kernel ~src:init ~dst:seg ~src_page:4 ~dst_page:0 ~count:run ();
  check_int "misaligned run not promoted" 0 (K.stats kernel).K.sp_promotions;
  check_bool "no region" true (Seg.superpage_regions (K.segment kernel seg) = []);
  check_bool "conserved" true (conserved machine kernel)

(* An aligned identity run that straddles a tier boundary never promotes:
   one 2 MB mapping must stay tier-pure. The fast tier ends at frame 12,
   inside the run of frames 8..15. *)
let test_no_promotion_across_tiers () =
  let machine, kernel = tiered_kernel ~fast:12 ~slow:20 in
  let init = K.initial_segment kernel in
  let seg = K.create_segment kernel ~name:"sp" ~pages:(3 * run) () in
  K.set_superpages kernel ~seg ~enabled:true;
  K.migrate_pages kernel ~src:init ~dst:seg ~src_page:run ~dst_page:run ~count:run ();
  check_int "straddling run not promoted by the migrate" 0 (K.stats kernel).K.sp_promotions;
  (* A direct reference tries again on the fault path. *)
  for page = run to (2 * run) - 1 do
    K.touch kernel ~space:seg ~page ~access:Mgr.Read
  done;
  check_int "nor by a reference" 0 (K.stats kernel).K.sp_promotions;
  check_bool "no region" true (Seg.superpage_regions (K.segment kernel seg) = []);
  check_bool "audits = scans" true (audits_agree kernel);
  check_bool "tier columns conserved" true (tier_columns_conserved kernel machine);
  (* The same migrate of a run inside the slow tier does promote. *)
  K.migrate_pages kernel ~src:init ~dst:seg ~src_page:(2 * run) ~dst_page:(2 * run) ~count:run ();
  check_int "tier-pure run promoted" 1 (K.stats kernel).K.sp_promotions;
  check_bool "audits = scans after" true (audits_agree kernel)

(* ------------------------------------------------------------------ *)
(* Demotion triggers                                                   *)
(* ------------------------------------------------------------------ *)

let promoted_segment kernel =
  let seg = K.create_segment kernel ~name:"sp" ~pages:16 () in
  K.set_superpages kernel ~seg ~enabled:true;
  (match K.grant_superpage_run kernel ~dst:seg ~dst_page:0 ~start:0 with
  | Some _ -> ()
  | None -> Alcotest.fail "no run found");
  seg

let test_demote_on_protection_change () =
  let machine, kernel = flat_kernel ~frames:32 in
  let seg = promoted_segment kernel in
  K.modify_page_flags kernel ~seg ~page:3 ~count:1 ~set_flags:ro ();
  check_int "split on protection change" 1 (K.stats kernel).K.sp_demotions;
  check_bool "region gone" true (Seg.superpage_regions (K.segment kernel seg) = []);
  check_int "pages still resident at 4 KB" run (Seg.resident_pages (K.segment kernel seg));
  check_bool "conserved" true (conserved machine kernel)

let test_demote_on_partial_eviction () =
  let machine, kernel = flat_kernel ~frames:32 in
  let seg = promoted_segment kernel in
  K.release_frames kernel ~seg ~page:2 ~count:2;
  check_int "split on partial eviction" 1 (K.stats kernel).K.sp_demotions;
  check_bool "region gone" true (Seg.superpage_regions (K.segment kernel seg) = []);
  check_int "only the released pages left" (run - 2)
    (Seg.resident_pages (K.segment kernel seg));
  check_bool "conserved" true (conserved machine kernel)

let test_demote_on_partial_migrate () =
  let machine, kernel = flat_kernel ~frames:32 in
  let seg = promoted_segment kernel in
  let other = K.create_segment kernel ~name:"other" ~pages:4 () in
  K.migrate_pages kernel ~src:seg ~dst:other ~src_page:5 ~dst_page:0 ~count:1 ();
  check_int "split on partial migrate" 1 (K.stats kernel).K.sp_demotions;
  check_bool "region gone" true (Seg.superpage_regions (K.segment kernel seg) = []);
  check_int "source lost one page" (run - 1) (Seg.resident_pages (K.segment kernel seg));
  check_int "destination gained it" 1 (Seg.resident_pages (K.segment kernel other));
  check_bool "conserved" true (conserved machine kernel)

let test_opt_out_demotes_all () =
  let machine, kernel = flat_kernel ~frames:32 in
  let seg = promoted_segment kernel in
  ignore (K.grant_superpage_run kernel ~dst:seg ~dst_page:run ~start:run);
  check_int "two regions promoted" 2 (K.stats kernel).K.sp_promotions;
  K.set_superpages kernel ~seg ~enabled:false;
  check_int "opt-out split both" 2 (K.stats kernel).K.sp_demotions;
  check_bool "no regions" true (Seg.superpage_regions (K.segment kernel seg) = []);
  check_int "all pages still resident" (2 * run) (Seg.resident_pages (K.segment kernel seg));
  check_bool "conserved" true (conserved machine kernel)

let test_destroy_promoted_segment () =
  let machine, kernel = flat_kernel ~frames:32 in
  let seg = promoted_segment kernel in
  K.destroy_segment kernel seg;
  check_bool "every frame back with the initial segment" true (conserved machine kernel);
  check_int "initial segment holds all frames" (Machine.n_frames machine)
    (Seg.resident_pages (K.segment kernel (K.initial_segment kernel)))

(* ------------------------------------------------------------------ *)
(* Manager opt-in: Mgr_generic streaming                               *)
(* ------------------------------------------------------------------ *)

(* A 2-region streaming segment under Mgr_generic with an sp_source: one
   missing fault per region on the cold pass, none on the warm rescan,
   and a partial eviction splits back to per-page 4 KB faults. *)
let test_generic_superpage_stream () =
  let machine, kernel = flat_kernel ~frames:64 in
  let backing = Mgr_backing.memory () in
  let sp_cursor = ref 0 in
  let sp_source ~dst ~dst_page =
    match K.grant_superpage_run kernel ~dst ~dst_page ~start:!sp_cursor with
    | Some base ->
        sp_cursor := base + run;
        run
    | None -> 0
  in
  let source = initial_source kernel ~first:0 in
  let pager =
    G.create kernel ~name:"stream" ~mode:`In_process ~backing ~source ~sp_source
      ~pool_capacity:32 ~refill_batch:8 ()
  in
  let seg = G.create_segment pager ~name:"heap" ~pages:(2 * run) ~kind:G.Anon ~superpages:true () in
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to (2 * run) - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      for page = 0 to (2 * run) - 1 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Read
      done);
  Engine.run machine.Machine.engine;
  let stats = K.stats kernel in
  check_int "one missing fault per region" 2 stats.K.faults_missing;
  check_int "both regions promoted" 2 stats.K.sp_promotions;
  check_int "no splits yet" 0 stats.K.sp_demotions;
  check_bool "conserved after the stream" true (conserved machine kernel);
  (* Evict part of region 0: the split is charged once, and re-touching
     the hole faults page by page through the ordinary 4 KB path. *)
  Engine.spawn machine.Machine.engine (fun () ->
      K.release_frames kernel ~seg ~page:0 ~count:2;
      for page = 0 to 2 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done);
  Engine.run machine.Machine.engine;
  check_int "partial eviction split the region" 1 (K.stats kernel).K.sp_demotions;
  check_int "refaults are per page" 4 (K.stats kernel).K.faults_missing;
  check_bool "conserved after the split" true (conserved machine kernel)

(* ------------------------------------------------------------------ *)
(* Manager opt-in: Mgr_tiered fast-tier grants                         *)
(* ------------------------------------------------------------------ *)

(* A superpage-opted segment bigger than the fast tier under Mgr_tiered:
   region fills grant whole fast-tier runs, tier pressure then demotes
   cold pages — auto-splitting promoted runs — and the per-tier audits
   stay exact throughout. *)
let test_tiered_superpage_fill_and_split () =
  let machine, kernel = tiered_kernel ~fast:16 ~slow:32 in
  let mgr =
    T.create kernel ~fast_pool_capacity:4 ~slow_pool_capacity:4 ~refill_batch:4 ~reclaim_batch:2
      ()
  in
  let seg = T.create_segment mgr ~name:"hot" ~pages:24 ~superpages:true () in
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to 23 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Write
      done;
      for page = 0 to 23 do
        K.touch kernel ~space:seg ~page ~access:Mgr.Read
      done);
  Engine.run machine.Machine.engine;
  let stats = K.stats kernel in
  check_bool "at least one region fill" true ((T.stats mgr).T.sp_fills >= 1);
  check_bool "promotions happened" true (stats.K.sp_promotions >= 1);
  check_bool "tier pressure split a promoted run" true (stats.K.sp_demotions >= 1);
  check_bool "audits = scans" true (audits_agree kernel);
  check_bool "tier columns conserved" true (tier_columns_conserved kernel machine);
  check_int "no frame lost" (Machine.n_frames machine) (K.frame_owner_total kernel)

(* ------------------------------------------------------------------ *)
(* Zero-delta: opting in alone changes nothing                         *)
(* ------------------------------------------------------------------ *)

type opt_in =
  | Never
  | Kernel  (** [K.set_superpages] on a segment whose regions never promote *)
  | Generic  (** [Mgr_generic ~superpages:true] with no [sp_source] *)
  | In_then_out  (** opted in, then out again *)

(* One trace under Mgr_generic on a flat machine — cold write faults,
   warm rescans, protection-sampling faults, a partial release and its
   refaults — with the segment opted in as [opt_in] says before the
   simulation starts (a control call outside a process charges nothing).
   No region promotes: the source starts at frame 1 and the pool hands
   frames out last in, first out, so no region holds an aligned
   ascending run (the comparison with [Never] pins sp_promotions at 0).
   Returns whether the segment ended up opted in, every kernel, TLB and
   page-table counter, the event count and the simulated time. *)
let opt_in_trace opt_in =
  let machine, kernel = flat_kernel ~frames:64 in
  let pages = 3 * run in
  let pager =
    G.create kernel ~name:"pager" ~mode:`In_process ~backing:(Mgr_backing.memory ())
      ~source:(initial_source kernel ~first:1) ~pool_capacity:8 ~refill_batch:4 ()
  in
  let seg =
    G.create_segment pager ~name:"heap" ~pages ~kind:G.Anon ~superpages:(opt_in = Generic) ()
  in
  (match opt_in with
  | Kernel -> K.set_superpages kernel ~seg ~enabled:true
  | In_then_out ->
      K.set_superpages kernel ~seg ~enabled:true;
      K.set_superpages kernel ~seg ~enabled:false
  | Never | Generic -> ());
  let scan access =
    for page = 0 to pages - 1 do
      K.touch kernel ~space:seg ~page ~access
    done
  in
  let engine = machine.Machine.engine in
  Engine.spawn engine (fun () ->
      scan Mgr.Write;
      scan Mgr.Read;
      scan Mgr.Read;
      G.protect_for_sampling pager ~seg;
      scan Mgr.Read;
      K.release_frames kernel ~seg ~page:(run - 1) ~count:3;
      scan Mgr.Write);
  Engine.run engine;
  let s = K.stats kernel and tlb = machine.Machine.tlb and pt = machine.Machine.page_table in
  let counters =
    [
      ("faults missing", s.K.faults_missing);
      ("faults protection", s.K.faults_protection);
      ("faults cow", s.K.faults_cow);
      ("manager calls", s.K.manager_calls);
      ("migrate calls", s.K.migrate_calls);
      ("migrated pages", s.K.migrated_pages);
      ("modify flag calls", s.K.modify_flag_calls);
      ("get attribute calls", s.K.get_attribute_calls);
      ("uio reads", s.K.uio_reads);
      ("uio writes", s.K.uio_writes);
      ("page copies", s.K.page_copies);
      ("page zeros", s.K.page_zeros);
      ("touches", s.K.touches);
      ("sp promotions", s.K.sp_promotions);
      ("sp demotions", s.K.sp_demotions);
      ("tlb hits", Hw_tlb.hits tlb);
      ("tlb misses", Hw_tlb.misses tlb);
      ("tlb super hits", Hw_tlb.super_hits tlb);
      ("pt hits", Hw_page_table.hits pt);
      ("pt misses", Hw_page_table.misses pt);
      ("pt collisions", Hw_page_table.collisions pt);
      ("pt super hits", Hw_page_table.super_hits pt);
      ("pt super collisions", Hw_page_table.super_collisions pt);
      ("pt super resident", Hw_page_table.super_resident pt);
      ("pt resident", Hw_page_table.resident pt);
      ("events", Engine.events_executed engine);
    ]
  in
  ((K.segment kernel seg).Seg.sp_enabled, counters, Machine.now machine)

(* A segment that opts in but never promotes runs exactly like one that
   never opted in: every superpage pass reads the segment's own opt-in
   and promoted regions, and finds nothing to do. *)
let test_opt_in_alone_is_zero_delta () =
  let _, base, base_us = opt_in_trace Never in
  check_bool "the trace faults" true (List.assoc "faults missing" base > 3 * run);
  check_bool "and samples" true (List.assoc "faults protection" base > 0);
  List.iter
    (fun (name, opt_in, enabled) ->
      let sp_enabled, counters, us = opt_in_trace opt_in in
      check_bool (name ^ ": opt-in state") enabled sp_enabled;
      Alcotest.(check (list (pair string int))) (name ^ ": counters") base counters;
      Alcotest.(check (float 0.0)) (name ^ ": simulated time (exact)") base_us us)
    [
      ("set_superpages", Kernel, true);
      ("Mgr_generic ~superpages", Generic, true);
      ("opted in then out", In_then_out, false);
    ]

(* ------------------------------------------------------------------ *)
(* qcheck churn: conservation through promote/split storms             *)
(* ------------------------------------------------------------------ *)

type churn_op =
  | C_grant of int  (** region index: grant a run at that region if empty *)
  | C_release of int * int  (** page, count *)
  | C_protect of int
  | C_unprotect of int
  | C_migrate_out of int  (** move one resident page to the side segment *)
  | C_toggle  (** opt the segment out and back in (splits everything) *)

let churn_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun r -> C_grant r) (int_bound 1));
        (3, map (fun (p, c) -> C_release (p, c)) (pair (int_bound 15) (int_range 1 4)));
        (2, map (fun p -> C_protect p) (int_bound 15));
        (2, map (fun p -> C_unprotect p) (int_bound 15));
        (2, map (fun p -> C_migrate_out p) (int_bound 15));
        (1, return C_toggle);
      ])

(* Flat churn: every op keeps the incremental audit equal to the scan and
   the frame total exact — promotion and splitting never disturb 4 KB
   residency bookkeeping. *)
let prop_flat_churn_conserves =
  QCheck.Test.make ~name:"superpage churn conserves frames (flat)" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) churn_op_gen))
    (fun ops ->
      let machine, kernel = flat_kernel ~frames:32 in
      let seg = K.create_segment kernel ~name:"churn" ~pages:16 () in
      let side = K.create_segment kernel ~name:"side" ~pages:16 () in
      K.set_superpages kernel ~seg ~enabled:true;
      let enabled = ref true in
      let s () = K.segment kernel seg in
      let region_empty r =
        let ok = ref true in
        for p = r * run to ((r + 1) * run) - 1 do
          if (Seg.page (s ()) p).Seg.frame <> None then ok := false
        done;
        !ok
      in
      let apply = function
        | C_grant r ->
            if region_empty r then
              ignore (K.grant_superpage_run kernel ~dst:seg ~dst_page:(r * run) ~start:0)
        | C_release (page, count) ->
            let count = min count (16 - page) in
            K.release_frames kernel ~seg ~page ~count
        | C_protect page -> K.modify_page_flags kernel ~seg ~page ~count:1 ~set_flags:ro ()
        | C_unprotect page -> K.modify_page_flags kernel ~seg ~page ~count:1 ~clear_flags:ro ()
        | C_migrate_out page ->
            if
              (Seg.page (s ()) page).Seg.frame <> None
              && (Seg.page (K.segment kernel side) page).Seg.frame = None
            then
              K.migrate_pages kernel ~src:seg ~dst:side ~src_page:page ~dst_page:page ~count:1 ()
        | C_toggle ->
            enabled := not !enabled;
            K.set_superpages kernel ~seg ~enabled:!enabled
      in
      List.for_all (fun op -> apply op; conserved machine kernel) ops)

(* Tiered churn: random touch storms on a superpage-opted segment under
   Mgr_tiered (region grants, clock demotion splitting runs across the
   tier boundary, compressed-store refetches) keep both per-tier audits
   equal to their scans and every tier column exact. *)
let prop_tiered_churn_conserves =
  QCheck.Test.make ~name:"superpage churn conserves frames (tiered)" ~count:25
    (QCheck.make QCheck.Gen.(list_size (int_range 20 120) (int_bound 23)))
    (fun pages ->
      let machine, kernel = tiered_kernel ~fast:16 ~slow:32 in
      let mgr =
        T.create kernel ~fast_pool_capacity:4 ~slow_pool_capacity:4 ~refill_batch:4
          ~reclaim_batch:2 ()
      in
      let seg = T.create_segment mgr ~name:"churn" ~pages:24 ~superpages:true () in
      let ok = ref true in
      Engine.spawn machine.Machine.engine (fun () ->
          List.iteri
            (fun i page ->
              let access = if i mod 3 = 0 then Mgr.Write else Mgr.Read in
              K.touch kernel ~space:seg ~page ~access;
              if not (audits_agree kernel) then ok := false)
            pages);
      Engine.run machine.Machine.engine;
      !ok && audits_agree kernel
      && tier_columns_conserved kernel machine
      && K.frame_owner_total kernel = Machine.n_frames machine)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_flat_churn_conserves; prop_tiered_churn_conserves ]

let () =
  Alcotest.run "superpage"
    [
      ( "promotion",
        [
          Alcotest.test_case "grant promotes an aligned run" `Quick test_promote_via_grant;
          Alcotest.test_case "incremental assembly promotes on completion" `Quick
            test_promote_incremental_assembly;
          Alcotest.test_case "misaligned runs never promote" `Quick
            test_no_promotion_without_alignment;
          Alcotest.test_case "runs straddling a tier boundary never promote" `Quick
            test_no_promotion_across_tiers;
        ] );
      ( "demotion",
        [
          Alcotest.test_case "protection change splits" `Quick test_demote_on_protection_change;
          Alcotest.test_case "partial eviction splits" `Quick test_demote_on_partial_eviction;
          Alcotest.test_case "partial migrate splits" `Quick test_demote_on_partial_migrate;
          Alcotest.test_case "opt-out splits everything" `Quick test_opt_out_demotes_all;
          Alcotest.test_case "teardown returns every frame" `Quick test_destroy_promoted_segment;
        ] );
      ( "managers",
        [
          Alcotest.test_case "generic streaming: one fault per region" `Quick
            test_generic_superpage_stream;
          Alcotest.test_case "tiered: region fills and pressure splits" `Quick
            test_tiered_superpage_fill_and_split;
        ] );
      ( "zero-delta",
        [
          Alcotest.test_case "opting in alone changes nothing" `Quick
            test_opt_in_alone_is_zero_delta;
        ] );
      ("properties", qcheck_cases);
    ]
