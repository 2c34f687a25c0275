(* Tests for the tiered-memory layer: per-tier frame-conservation audits,
   Mgr_tiered's hot/cold migration, the compressed-store round trip, and
   the zero-delta rule for single-tier machines. *)

module Phys = Hw_phys_mem
module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module T = Mgr_tiered
module Engine = Sim_engine
module Data = Hw_page_data

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let page_size = 4096

let tiered_kernel ~fast ~slow =
  let machine =
    Hw_machine.create ~page_size
      ~tiers:
        [
          Phys.dram_tier ~bytes:(fast * page_size);
          Phys.slow_dram_tier ~bytes:(slow * page_size);
        ]
      ()
  in
  (machine, K.create machine)

(* Both conservation audits — flat and per-tier — against their
   O(segments × pages) scan references. *)
let audits_agree kernel =
  K.frame_owner_audit kernel = K.frame_owner_audit_scan kernel
  && K.frame_owner_audit_tiered kernel = K.frame_owner_audit_tiered_scan kernel

(* Summing tier column [k] of the per-tier audit over all segments must
   give tier [k]'s frame count. *)
let tier_columns_conserved kernel machine =
  let mem = machine.Hw_machine.mem in
  let totals = Array.make (Phys.n_tiers mem) 0 in
  List.iter
    (fun (_, by_tier) ->
      Array.iteri (fun k n -> totals.(k) <- totals.(k) + n) by_tier)
    (K.frame_owner_audit_tiered kernel);
  Array.for_all Fun.id
    (Array.init (Phys.n_tiers mem) (fun k ->
         let _, count = Phys.tier_bounds mem k in
         totals.(k) = count))

(* ------------------------------------------------------------------ *)
(* Per-tier audit vs the scan reference                               *)
(* ------------------------------------------------------------------ *)

(* Churn a segment bigger than the fast tier through Mgr_tiered so pages
   demote and promote across tiers, checking the incremental per-tier
   audit against the scan (and the column sums) mid-storm and after. *)
let test_tiered_audit_matches_scan () =
  (* Slow tier big enough to hold the overflow: demoted pages wait there
     and their next touch is a promotion, so churn crosses the tier
     boundary in both directions. *)
  let machine, kernel = tiered_kernel ~fast:12 ~slow:48 in
  let mgr =
    T.create kernel ~fast_pool_capacity:4 ~slow_pool_capacity:4 ~refill_batch:4 ~reclaim_batch:2
      ()
  in
  let seg = T.create_segment mgr ~name:"churn" ~pages:40 () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for round = 0 to 3 do
        for i = 0 to 39 do
          let page = (i + (round * 7)) mod 40 in
          let access = if i mod 3 = 0 then Mgr.Write else Mgr.Read in
          K.touch kernel ~space:seg ~page ~access
        done;
        check_bool
          (Printf.sprintf "audit = scan after round %d" round)
          true (audits_agree kernel)
      done);
  Engine.run machine.Hw_machine.engine;
  check_bool "audit = scan after churn" true (audits_agree kernel);
  check_bool "tier columns sum to tier sizes" true (tier_columns_conserved kernel machine);
  check_int "no frame lost" (Hw_machine.n_frames machine) (K.frame_owner_total kernel);
  let stats = T.stats mgr in
  check_bool "churn demoted pages" true (stats.T.demotions_slow > 0);
  check_bool "churn promoted pages" true (stats.T.promotions > 0);
  (* The segment's own per-tier counters agree with their scan too. *)
  let s = K.segment kernel seg in
  check_bool "segment per-tier counters = scan" true
    (Seg.resident_pages_by_tier s = Seg.resident_pages_by_tier_scan s)

(* Destroying a tiered segment returns every frame — in both tiers — to
   the initial segment, visible through the per-tier audit. *)
let test_tiered_audit_after_destroy () =
  let machine, kernel = tiered_kernel ~fast:8 ~slow:8 in
  let mgr = T.create kernel ~fast_pool_capacity:2 ~slow_pool_capacity:2 () in
  let seg = T.create_segment mgr ~name:"doomed" ~pages:12 () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for p = 0 to 11 do
        K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
      done;
      K.destroy_segment kernel seg);
  Engine.run machine.Hw_machine.engine;
  check_bool "audit = scan after destroy" true (audits_agree kernel);
  check_bool "tier columns sum to tier sizes" true (tier_columns_conserved kernel machine);
  check_int "no frame lost" (Hw_machine.n_frames machine) (K.frame_owner_total kernel)

(* K.audit states frame conservation once. Break each of its terms
   behind the kernel's back on a 4 fast + 4 slow machine: the audit must
   fail, and pass again once the corruption is undone. (Any slot write a
   test can make also moves the per-tier scan, so the flat scan term is
   covered by the audit-vs-scan tests above, not isolated here.) *)
let test_audit_catches_each_term () =
  let machine, kernel = tiered_kernel ~fast:4 ~slow:4 in
  let engine = machine.Hw_machine.engine in
  let init = K.segment kernel (K.initial_segment kernel) in
  let slot0 = Seg.page init 0 in
  check_bool "boot passes" true (K.audit kernel);
  let corrupt what ~break ~undo =
    break ();
    check_bool (what ^ ": audit fails") false (K.audit kernel);
    undo ();
    check_bool (what ^ ": audit passes once undone") true (K.audit kernel)
  in
  (* Through set_frame the counters stay exact: only the total sees it. *)
  corrupt "frame owned by no segment"
    ~break:(fun () -> Seg.set_frame init 0 None)
    ~undo:(fun () -> Seg.set_frame init 0 (Some 0));
  corrupt "slot cleared behind the counter"
    ~break:(fun () -> slot0.Seg.frame <- None)
    ~undo:(fun () -> slot0.Seg.frame <- Some 0);
  (* Same resident count and total, so only the per-tier scan sees it. *)
  corrupt "fast frame swapped for a slow one"
    ~break:(fun () -> slot0.Seg.frame <- Some 4)
    ~undo:(fun () -> slot0.Seg.frame <- Some 0);
  let parked = ref ignore in
  corrupt "process parked forever"
    ~break:(fun () ->
      Engine.spawn engine (fun () -> Engine.park (fun resume -> parked := resume));
      Engine.run engine)
    ~undo:(fun () ->
      Engine.spawn engine (fun () -> !parked ());
      Engine.run engine)

(* ------------------------------------------------------------------ *)
(* Compressed-store round trip                                        *)
(* ------------------------------------------------------------------ *)

(* A working set larger than fast + slow - pool holdings forces the full
   cascade: fast -> slow -> compressed store -> refetch. Every page must
   come back with the contents it was written with. *)
let test_compressed_round_trip () =
  let pages = 30 in
  let machine, kernel = tiered_kernel ~fast:8 ~slow:9 in
  let mgr =
    T.create kernel ~fast_pool_capacity:2 ~slow_pool_capacity:2 ~refill_batch:4 ~reclaim_batch:2
      ()
  in
  let seg = T.create_segment mgr ~name:"cascade" ~pages () in
  let payload p = Data.of_string (Printf.sprintf "tier-page-%d" p) in
  let intact = ref true in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for p = 0 to pages - 1 do
        K.uio_write kernel ~seg ~page:p (payload p)
      done;
      for p = 0 to pages - 1 do
        if not (Data.equal (K.uio_read kernel ~seg ~page:p) (payload p)) then intact := false
      done);
  Engine.run machine.Hw_machine.engine;
  check_bool "contents intact across the cascade" true !intact;
  let stats = T.stats mgr in
  check_bool "pages reached the compressed store" true (stats.T.demotions_compressed > 0);
  check_bool "pages were refetched from it" true (stats.T.refetches > 0);
  check_bool "audit = scan after cascade" true (audits_agree kernel);
  check_int "no frame lost" (Hw_machine.n_frames machine) (K.frame_owner_total kernel)

(* ------------------------------------------------------------------ *)
(* Zero-delta: a single-DRAM-tier machine is the flat machine          *)
(* ------------------------------------------------------------------ *)

(* The naive demand pager from Exp_tier, in miniature: one initial-segment
   frame per missing fault, monotone address order. *)
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
  K.register_manager kernel ~name:"naive" ~mode:`In_process ~on_fault ()

(* Run a deterministic fault + warm-scan trace and observe every counter
   that could betray a tier-induced difference. *)
let trace_observation machine =
  let kernel = K.create machine in
  let mid = naive_pager kernel in
  let seg = K.create_segment kernel ~name:"heap" ~pages:24 () in
  K.set_segment_manager kernel seg mid;
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for p = 0 to 23 do
        K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
      done;
      for _ = 1 to 5 do
        for p = 0 to 23 do
          K.touch kernel ~space:seg ~page:p ~access:Mgr.Read
        done
      done);
  Engine.run machine.Hw_machine.engine;
  K.observe kernel

(* An explicit one-dram-tier machine must be indistinguishable — same
   counts, same events, same simulated time to the last bit — from the
   flat [create] machine (which is itself now a one-tier machine). *)
let test_single_tier_zero_delta () =
  let flat = Hw_machine.create ~page_size ~memory_bytes:(32 * page_size) () in
  let one_tier =
    Hw_machine.create ~page_size ~tiers:[ Phys.dram_tier ~bytes:(32 * page_size) ] ()
  in
  let a = trace_observation flat and b = trace_observation one_tier in
  check_int "touches" a.K.o_touches b.K.o_touches;
  check_int "faults" a.K.o_faults b.K.o_faults;
  check_int "migrate calls" a.K.o_migrate_calls b.K.o_migrate_calls;
  check_int "migrated pages" a.K.o_migrated_pages b.K.o_migrated_pages;
  check_int "events" a.K.o_events b.K.o_events;
  Alcotest.(check (float 0.0)) "simulated time (exact)" a.K.o_sim_us b.K.o_sim_us;
  check_bool "both conserved" true (a.K.o_conserved && b.K.o_conserved)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random churn through the tiered manager never corrupts a page or
   loses a frame: whatever was written last is what reads back, no
   matter how many times the page moved between tiers or through the
   compressed store in between. *)
let prop_churn_preserves_contents_and_ownership =
  QCheck.Test.make
    ~name:"tiered manager: churn preserves page contents and frame ownership" ~count:25
    QCheck.(pair small_nat (int_range 16 40))
    (fun (seed, pages) ->
      let machine, kernel = tiered_kernel ~fast:8 ~slow:8 in
      let mgr =
        T.create kernel ~fast_pool_capacity:3 ~slow_pool_capacity:3 ~refill_batch:3
          ~reclaim_batch:2 ()
      in
      let seg = T.create_segment mgr ~name:"prop" ~pages () in
      let rng = Sim_rng.create (Int64.of_int (seed + 1)) in
      let payload p step = Data.of_string (Printf.sprintf "p%d-s%d" p step) in
      let written = Array.init pages (fun p -> payload p (-1)) in
      let ok = ref true in
      Engine.spawn machine.Hw_machine.engine (fun () ->
          (* Seed every page with a known payload (V++ does not zero on
             allocation, so an unwritten page has no defined contents). *)
          for p = 0 to pages - 1 do
            K.uio_write kernel ~seg ~page:p written.(p)
          done;
          for step = 0 to 199 do
            let p = Sim_rng.int rng pages in
            if Sim_rng.bool rng then begin
              written.(p) <- payload p step;
              K.uio_write kernel ~seg ~page:p written.(p)
            end
            else if not (Data.equal (K.uio_read kernel ~seg ~page:p) written.(p)) then
              ok := false
          done;
          for p = 0 to pages - 1 do
            if not (Data.equal (K.uio_read kernel ~seg ~page:p) written.(p)) then ok := false
          done);
      Engine.run machine.Hw_machine.engine;
      !ok && audits_agree kernel
      && tier_columns_conserved kernel machine
      && K.frame_owner_total kernel = Hw_machine.n_frames machine)

(* The free-frame walk ([K.initial_slots]) against the scan it replaced:
   every initial-segment slot in ascending order, keeping those whose
   frame is in scope, up to the limit. The walk stops at the initial
   segment's resident counters instead of the segment's end. *)
let scan_initial_slots kernel ~in_scope ~limit =
  let init = K.segment kernel (K.initial_segment kernel) in
  let acc = ref [] and found = ref 0 in
  for slot = 0 to Seg.length init - 1 do
    match (Seg.page init slot).Seg.frame with
    | Some f when !found < limit && in_scope f ->
        acc := slot :: !acc;
        incr found
    | Some _ | None -> ()
  done;
  List.rev !acc

(* Random grant / release / destroy / migrate sequences on machines of
   one to three tiers (one to twelve frames each, four colors). After
   every operation each scope — no filter, every tier, two unknown tier
   ids (which answer [[]]), each color, a physical range, a tier with a
   color — at limits 1, 3 and all must answer exactly what the scan
   does. Grants go through the walk itself; [release_frames] and
   [destroy_segment] put frames back at arbitrary initial slots, and
   migrates move frames between segments and back into empty initial
   slots, so the free frames end up scattered across the segment. *)
let prop_walk_matches_scan =
  QCheck.Test.make ~name:"free-frame walk matches a full scan of the initial segment" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 3) (int_range 1 12))
        (list_of_size Gen.(int_range 0 40) (triple (int_bound 4) small_nat small_nat)))
    (fun (sizes, ops) ->
      let machine =
        Hw_machine.create ~page_size ~n_colors:4
          ~tiers:
            (List.mapi
               (fun i frames ->
                 if i = 0 then Phys.dram_tier ~bytes:(frames * page_size)
                 else Phys.slow_dram_tier ~bytes:(frames * page_size))
               sizes)
          ()
      in
      let kernel = K.create machine in
      let mem = machine.Hw_machine.mem in
      let n = Phys.n_frames mem and n_tiers = Phys.n_tiers mem in
      let init = K.initial_segment kernel in
      let fresh i = K.create_segment kernel ~name:(Printf.sprintf "s%d" i) ~pages:n () in
      let segs = Array.init 3 fresh in
      let in_tier k f =
        let first, count = Phys.tier_bounds mem k in
        f >= first && f < first + count
      in
      let in_range f =
        let a = Phys.addr mem f in
        a >= 2 * page_size && a < (n - 1) * page_size
      in
      let scopes =
        (None, None, fun _ -> true)
        :: List.init (n_tiers + 2) (fun i ->
               let k = i - 1 in
               (Some k, None, fun f -> k >= 0 && k < n_tiers && in_tier k f))
        @ List.init 4 (fun c ->
              let keep f = Phys.color mem f = c in
              (None, Some keep, keep))
        @ [
            (None, Some in_range, in_range);
            ( Some 0,
              Some (fun f -> Phys.color mem f = 1),
              fun f -> in_tier 0 f && Phys.color mem f = 1 );
          ]
      in
      let agree () =
        List.for_all
          (fun (tier, filter, in_scope) ->
            List.for_all
              (fun limit ->
                K.initial_slots ?tier ?filter kernel ~limit
                = scan_initial_slots kernel ~in_scope ~limit)
              [ 1; 3; max_int ])
          scopes
      in
      let frame_at seg page = (Seg.page (K.segment kernel seg) page).Seg.frame in
      (* The first page at or cyclically after [from] whose frame presence
         is [full], if any. *)
      let find seg ~from ~full =
        let rec go i =
          if i = n then None
          else
            let p = (from + i) mod n in
            if (frame_at seg p <> None) = full then Some p else go (i + 1)
        in
        go 0
      in
      let move ~src ~src_page ~dst ~from =
        match find dst ~from ~full:false with
        | Some dst_page -> K.migrate_pages kernel ~src ~dst ~src_page ~dst_page ~count:1 ()
        | None -> ()
      in
      let step (op, a, b) =
        let s = a mod 3 in
        match op with
        | 0 ->
            let tier, filter, _ = List.nth scopes (a mod List.length scopes) in
            List.iter
              (fun slot -> move ~src:init ~src_page:slot ~dst:segs.(s) ~from:0)
              (K.initial_slots ?tier ?filter kernel ~limit:(1 + (b mod 4)))
        | 1 ->
            let page = b mod n in
            K.release_frames kernel ~seg:segs.(s) ~page ~count:(min 3 (n - page))
        | 2 ->
            K.destroy_segment kernel segs.(s);
            segs.(s) <- fresh s
        | 3 -> (
            match find segs.(s) ~from:(b mod n) ~full:true with
            | Some src_page -> move ~src:segs.(s) ~src_page ~dst:segs.((s + 1) mod 3) ~from:0
            | None -> ())
        | _ -> (
            match find segs.(s) ~from:(b mod n) ~full:true with
            | Some src_page -> move ~src:segs.(s) ~src_page ~dst:init ~from:(b mod n)
            | None -> ())
      in
      agree ()
      && List.for_all
           (fun op ->
             step op;
             agree ())
           ops)


(* ------------------------------------------------------------------ *)
(* The shared clock against the two loops it replaced                 *)
(* ------------------------------------------------------------------ *)

(* The clock as Mgr_generic.reclaim and Mgr_tiered.sweep_clock wrote it
   before Mgr_clock, copied verbatim but for the steps that were
   manager-specific: the pool-full test is [full ()], eviction is
   [evict] (Mgr_generic: true when the page's frame went, false when its
   writeback failed) and demotion is [demote] (Mgr_tiered: false ends
   the sweep). *)
module Ref_clock = struct
  type clock_entry = { ce_seg : Seg.id; ce_page : int; mutable ce_dead : bool }

  type clock = {
    kern : K.t;
    mutable ring : clock_entry list;
    mutable hand : clock_entry list;
    mutable ring_len : int;
    mutable ring_dead : int;
  }

  let create kern = { kern; ring = []; hand = []; ring_len = 0; ring_dead = 0 }

  let track clock seg page =
    clock.ring <- { ce_seg = seg; ce_page = page; ce_dead = false } :: clock.ring;
    clock.ring_len <- clock.ring_len + 1

  let tombstone clock entry =
    entry.ce_dead <- true;
    clock.ring_dead <- clock.ring_dead + 1;
    if clock.ring_dead * 2 > clock.ring_len then begin
      clock.ring <- List.filter (fun e -> not e.ce_dead) clock.ring;
      clock.ring_len <- List.length clock.ring;
      clock.ring_dead <- 0
    end

  let purge_segment clock seg =
    clock.ring <- List.filter (fun e -> (not e.ce_dead) && e.ce_seg <> seg) clock.ring;
    clock.ring_len <- List.length clock.ring;
    clock.ring_dead <- 0;
    clock.hand <- List.filter (fun e -> e.ce_seg <> seg) clock.hand

  let slot_state kern seg page =
    if not (K.segment_exists kern seg) then None
    else
      let s = K.segment kern seg in
      if not (Seg.in_range s page) then None
      else
        let slot = Seg.page s page in
        Option.map (fun frame -> (slot, frame)) slot.Seg.frame

  (* Mgr_generic.evict_one + reclaim *)
  let evict_one t entry ~evict =
    match slot_state t.kern entry.ce_seg entry.ce_page with
    | None -> `Gone
    | Some (slot, frame) ->
        let flags = slot.Seg.flags in
        if Flags.mem flags Flags.pinned || Flags.mem flags Flags.io_busy then `Skip
        else if Flags.mem flags Flags.referenced then begin
          K.modify_page_flags t.kern ~seg:entry.ce_seg ~page:entry.ce_page ~count:1
            ~clear_flags:Flags.referenced ();
          `Skip
        end
        else if evict entry.ce_seg entry.ce_page slot frame then `Evicted
        else `Skip

  let reclaim t ~count ~full ~evict =
    let reclaimed = ref 0 in
    let passes = ref 0 in
    let stop = ref false in
    while (not !stop) && !reclaimed < count && (!passes < 2 || t.hand <> []) do
      if t.hand = [] then begin
        t.hand <- t.ring;
        incr passes;
        if t.hand = [] then stop := true
      end;
      match t.hand with
      | [] -> stop := true
      | entry :: rest -> (
          t.hand <- rest;
          if full () then stop := true
          else if entry.ce_dead then ()
          else
            match evict_one t entry ~evict with
            | `Evicted -> incr reclaimed
            | `Skip -> ()
            | `Gone ->
                entry.ce_dead <- true;
                t.ring_dead <- t.ring_dead + 1;
                if t.ring_dead * 2 > t.ring_len then begin
                  t.ring <- List.filter (fun e -> not e.ce_dead) t.ring;
                  t.ring_len <- List.length t.ring;
                  t.ring_dead <- 0
                end)
    done;
    !reclaimed

  (* Mgr_tiered.victim + sweep_clock *)
  let victim t ~tier entry =
    match slot_state t.kern entry.ce_seg entry.ce_page with
    | None -> `Gone
    | Some (slot, frame) ->
        if Phys.tier_of_frame (K.machine t.kern).Hw_machine.mem frame <> tier then `Gone
        else
          let flags = slot.Seg.flags in
          if Flags.mem flags Flags.pinned || Flags.mem flags Flags.io_busy then `Skip
          else if Flags.mem flags Flags.referenced then begin
            K.modify_page_flags t.kern ~seg:entry.ce_seg ~page:entry.ce_page ~count:1
              ~clear_flags:Flags.referenced ();
            `Skip
          end
          else `Victim (slot, frame)

  let sweep_clock clock ~tier ~count ~demote =
    let reclaimed = ref 0 in
    let passes = ref 0 in
    let stop = ref false in
    while (not !stop) && !reclaimed < count && (!passes < 2 || clock.hand <> []) do
      if clock.hand = [] then begin
        clock.hand <- clock.ring;
        incr passes;
        if clock.hand = [] then stop := true
      end;
      match clock.hand with
      | [] -> stop := true
      | entry :: rest -> (
          clock.hand <- rest;
          if entry.ce_dead then ()
          else
            match victim clock ~tier entry with
            | `Gone -> tombstone clock entry
            | `Skip -> ()
            | `Victim (slot, frame) ->
                if demote entry.ce_seg entry.ce_page slot frame then incr reclaimed
                else stop := true)
    done;
    !reclaimed
end

(* One world per clock implementation: two tiers of [clock_tier_frames]
   frames under two six-page segments that no manager serves, the
   operations acting on frames and flags directly. [clocks.(k)] is tier
   k's clock in tiered mode; generic mode uses [clocks.(0)] unscoped. *)
type 'c clock_world = {
  kern : K.t;
  segs : Seg.id array;
  clocks : 'c array;
  track : 'c -> Seg.id -> int -> unit;
  log : Buffer.t;  (* '.' per pool-full test, then every victim *)
  mutable taken : int;  (* pages evicted in the current sweep *)
  mutable limit : int;  (* generic: the pool is full; tiered: demotion fails *)
}

let clock_tier_frames = 5
let clock_pages = 6

let clock_world ~tiered ~create ~track =
  let _, kern = tiered_kernel ~fast:clock_tier_frames ~slow:clock_tier_frames in
  let segs =
    Array.init 2 (fun i ->
        K.create_segment kern ~name:(Printf.sprintf "s%d" i) ~pages:clock_pages ())
  in
  let clocks =
    if tiered then [| create kern (Some 0); create kern (Some 1) |] else [| create kern None |]
  in
  { kern; segs; clocks; track; log = Buffer.create 256; taken = 0; limit = 0 }

let frame_of w seg page = (Seg.page (K.segment w.kern seg) page).Seg.frame

let tier_of w frame = Phys.tier_of_frame (K.machine w.kern).Hw_machine.mem frame

(* Fill an empty page from tier [k], else from the other tier. *)
let fill w seg page k =
  let init = K.initial_segment w.kern in
  match K.initial_slots ~tier:k w.kern ~limit:1 @ K.initial_slots ~tier:(1 - k) w.kern ~limit:1 with
  | src_page :: _ -> K.migrate_pages w.kern ~src:init ~dst:seg ~src_page ~dst_page:page ~count:1 ()
  | [] -> ()

(* The generic victim: a page whose (seg + page) is a multiple of 4 fails
   its writeback and stays; any other goes back to the initial segment. *)
let clock_evict w seg page _slot _frame =
  Buffer.add_string w.log (Printf.sprintf "v%d.%d " seg page);
  if (seg + page) mod 4 = 0 then Mgr_clock.Kept
  else begin
    K.release_frames w.kern ~seg ~page ~count:1;
    w.taken <- w.taken + 1;
    Mgr_clock.Evicted
  end

let clock_full w =
  Buffer.add_char w.log '.';
  w.taken >= w.limit

(* The tiered victim: tier 0 demotes onto a free tier-1 frame (tracked by
   tier 1's clock) and fails once tier 1 is full or [limit] pages moved;
   tier 1 demotes out of memory. *)
let clock_demote k w seg page _slot _frame =
  Buffer.add_string w.log (Printf.sprintf "d%d:%d.%d " k seg page);
  if w.taken >= w.limit then Mgr_clock.Stop
  else if k = 1 then begin
    K.release_frames w.kern ~seg ~page ~count:1;
    w.taken <- w.taken + 1;
    Mgr_clock.Evicted
  end
  else
    match K.initial_slots ~tier:1 w.kern ~limit:1 with
    | [] -> Mgr_clock.Stop
    | src_page :: _ ->
        K.release_frames w.kern ~seg ~page ~count:1;
        K.migrate_pages w.kern ~src:(K.initial_segment w.kern) ~dst:seg ~src_page ~dst_page:page
          ~count:1 ();
        w.track w.clocks.(1) seg page;
        w.taken <- w.taken + 1;
        Mgr_clock.Evicted

type clock_op =
  | Track of int * int * int  (* seg, page, tier to fill from *)
  | Reference of int * int
  | Pin of int * int  (* toggles *)
  | Release of int * int  (* the frame goes behind the clock's back *)
  | Move of int * int  (* onto a frame of the other tier *)
  | Forget of int
  | Sweep of int * int * int  (* clock, count, limit *)

(* One operation on a world; [sweep w clock k ~count] runs the
   implementation's sweep of [clock] (tier [k] in tiered mode). *)
let clock_step ~tiered ~forget ~sweep w op =
  let seg i = w.segs.(i) in
  match op with
  | Track (s, p, k) -> (
      if frame_of w (seg s) p = None then fill w (seg s) p k;
      match frame_of w (seg s) p with
      | Some f -> w.track w.clocks.(if tiered then tier_of w f else 0) (seg s) p
      | None -> w.track w.clocks.(0) (seg s) p)
  | Reference (s, p) ->
      if frame_of w (seg s) p <> None then
        K.modify_page_flags w.kern ~seg:(seg s) ~page:p ~count:1 ~set_flags:Flags.referenced ()
  | Pin (s, p) ->
      if frame_of w (seg s) p <> None then
        let pinned = Flags.mem (Seg.page (K.segment w.kern (seg s)) p).Seg.flags Flags.pinned in
        if pinned then
          K.modify_page_flags w.kern ~seg:(seg s) ~page:p ~count:1 ~clear_flags:Flags.pinned ()
        else K.modify_page_flags w.kern ~seg:(seg s) ~page:p ~count:1 ~set_flags:Flags.pinned ()
  | Release (s, p) ->
      if frame_of w (seg s) p <> None then K.release_frames w.kern ~seg:(seg s) ~page:p ~count:1
  | Move (s, p) -> (
      match frame_of w (seg s) p with
      | Some f -> (
          match K.initial_slots ~tier:(1 - tier_of w f) w.kern ~limit:1 with
          | src_page :: _ ->
              K.release_frames w.kern ~seg:(seg s) ~page:p ~count:1;
              K.migrate_pages w.kern ~src:(K.initial_segment w.kern) ~dst:(seg s) ~src_page
                ~dst_page:p ~count:1 ()
          | [] -> ())
      | None -> ())
  | Forget s -> Array.iter (fun c -> forget c (seg s)) w.clocks
  | Sweep (c, count, limit) ->
      let k = if tiered then c else 0 in
      w.taken <- 0;
      w.limit <- limit;
      let n = sweep w w.clocks.(k) k ~count in
      Buffer.add_string w.log (Printf.sprintf "=%d | " n)

(* Everything the two worlds can disagree on: each page's frame and
   flags (reference bits cleared, victims gone or moved) and the log. *)
let clock_state w =
  ( Buffer.contents w.log,
    Array.to_list
      (Array.map
         (fun seg ->
           List.init clock_pages (fun p ->
               let slot = Seg.page (K.segment w.kern seg) p in
               (slot.Seg.frame, (slot.Seg.flags :> int))))
         w.segs) )

let clock_op_gen =
  QCheck.Gen.(
    let sp = pair (int_bound 1) (int_bound (clock_pages - 1)) in
    frequency
      [
        (8, map2 (fun (s, p) k -> Track (s, p, k)) sp (int_bound 1));
        (4, map (fun (s, p) -> Reference (s, p)) sp);
        (2, map (fun (s, p) -> Pin (s, p)) sp);
        (2, map (fun (s, p) -> Release (s, p)) sp);
        (2, map (fun (s, p) -> Move (s, p)) sp);
        (1, map (fun s -> Forget s) (int_bound 1));
        (7, map3 (fun c n l -> Sweep (c, n, l)) (int_bound 1) (int_range 1 6) (int_bound 4));
      ])

let show_clock_op = function
  | Track (s, p, k) -> Printf.sprintf "track %d.%d@%d" s p k
  | Reference (s, p) -> Printf.sprintf "ref %d.%d" s p
  | Pin (s, p) -> Printf.sprintf "pin %d.%d" s p
  | Release (s, p) -> Printf.sprintf "release %d.%d" s p
  | Move (s, p) -> Printf.sprintf "move %d.%d" s p
  | Forget s -> Printf.sprintf "forget %d" s
  | Sweep (c, n, l) -> Printf.sprintf "sweep %d count %d limit %d" c n l

(* Random track / reference / pin / release / tier-move / forget
   sequences with sweeps that stop on a full pool (generic mode) or a
   failed demotion (tiered mode, one clock per tier): Mgr_clock and the
   copied loops pick the same victims in the same order, clear the same
   reference bits, test the pool the same number of times, and leave
   their hands where the next sweeps — a final draining sweep of every
   clock included — find the same victims. *)
let prop_clock_matches_parent_loops =
  QCheck.Test.make ~name:"the shared clock matches the generic and tiered loops it replaced"
    ~count:300
    QCheck.(
      pair bool
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_clock_op ops))
           Gen.(list_size (int_bound 60) clock_op_gen)))
    (fun (tiered, ops) ->
      let mine =
        clock_world ~tiered
          ~create:(fun kern tier -> Mgr_clock.create kern ?tier ())
          ~track:Mgr_clock.track
      in
      let theirs =
        clock_world ~tiered ~create:(fun kern _ -> Ref_clock.create kern) ~track:Ref_clock.track
      in
      let sweep_mine w c k ~count =
        if tiered then
          Mgr_clock.sweep c ~count ~full:(fun _ -> false) ~evict:(clock_demote k) w
        else Mgr_clock.sweep c ~count ~full:clock_full ~evict:clock_evict w
      in
      let sweep_theirs w c k ~count =
        let went outcome = outcome = Mgr_clock.Evicted in
        if tiered then
          Ref_clock.sweep_clock c ~tier:k ~count ~demote:(fun seg page slot frame ->
              went (clock_demote k w seg page slot frame))
        else
          Ref_clock.reclaim c ~count
            ~full:(fun () -> clock_full w)
            ~evict:(fun seg page slot frame -> went (clock_evict w seg page slot frame))
      in
      let step op =
        clock_step ~tiered ~forget:Mgr_clock.forget ~sweep:sweep_mine mine op;
        clock_step ~tiered ~forget:Ref_clock.purge_segment ~sweep:sweep_theirs theirs op;
        clock_state mine = clock_state theirs
      in
      List.for_all step ops
      && List.for_all step
           (List.init (Array.length mine.clocks) (fun c -> Sweep (c, 1000, 1000))))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_churn_preserves_contents_and_ownership;
      prop_walk_matches_scan;
      prop_clock_matches_parent_loops;
    ]

let () =
  Alcotest.run "tier"
    [
      ( "conservation",
        [
          Alcotest.test_case "per-tier audit matches scan under churn" `Quick
            test_tiered_audit_matches_scan;
          Alcotest.test_case "per-tier audit after segment destroy" `Quick
            test_tiered_audit_after_destroy;
          Alcotest.test_case "audit catches each term" `Quick test_audit_catches_each_term;
        ] );
      ( "cascade",
        [ Alcotest.test_case "compressed-store round trip" `Quick test_compressed_round_trip ] );
      ( "zero-delta",
        [
          Alcotest.test_case "one dram tier = flat machine" `Quick test_single_tier_zero_delta;
        ] );
      ("properties", qcheck_cases);
    ]
