module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module Phys = Hw_phys_mem

type stats = {
  mutable fills : int;
  mutable refetches : int;
  mutable promotions : int;
  mutable demotions_slow : int;
  mutable demotions_compressed : int;
  mutable protection_clears : int;
  mutable cow_fills : int;
  mutable sp_fills : int;
}

let fresh_stats () =
  {
    fills = 0;
    refetches = 0;
    promotions = 0;
    demotions_slow = 0;
    demotions_compressed = 0;
    protection_clears = 0;
    cow_fills = 0;
    sp_fills = 0;
  }

type clock_entry = { ce_seg : Seg.id; ce_page : int; mutable ce_dead : bool }

(* One second-chance clock per tier, with the same tombstone + amortised
   compaction discipline as Mgr_generic's ring: entries whose page lost
   its frame — or whose frame is no longer of this clock's tier, which is
   what a promotion or demotion looks like from the other ring — are
   marked dead and swept out once they outnumber the live entries. *)
type clock = {
  mutable ring : clock_entry list;  (* newest first *)
  mutable hand : clock_entry list;  (* suffix of the scan order *)
  mutable ring_len : int;
  mutable ring_dead : int;
}

let fresh_clock () = { ring = []; hand = []; ring_len = 0; ring_dead = 0 }

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

type t = {
  kern : K.t;
  name : string;
  mutable mid : Mgr.id;
  fast_tier : int;
  slow_tier : int;
  fast_pool : Mgr_free_pages.t;  (* tier-pure: fast frames only *)
  slow_pool : Mgr_free_pages.t;  (* tier-pure: slow frames only *)
  compressed : Mgr_compressed.t;  (* the coldest tier, via stash/fetch *)
  fast_clock : clock;
  slow_clock : clock;
  refill_batch : int;
  reclaim_batch : int;
  mutable sp_cursor : int;  (* next start frame for aligned-run searches *)
  stats : stats;
  (* Same discipline as Mgr_generic: one fault at a time — tier moves are
     multi-step (read data, put_from, set_next_data, take_to) and would
     interleave across processes otherwise. *)
  serving : Sim_sync.Semaphore.t;
}

let stats t = t.stats

let charge_logic t =
  Hw_machine.charge ~label:"mgr/fault_logic" (K.machine t.kern)
    (K.machine t.kern).Hw_machine.cost.Hw_cost.manager_fault_logic

let frame_data t frame =
  Phys.data (K.machine t.kern).Hw_machine.mem frame

let slot_state t seg page =
  if not (K.segment_exists t.kern seg) then None
  else
    let s = K.segment t.kern seg in
    if not (Seg.in_range s page) then None
    else
      let slot = Seg.page s page in
      Option.map (fun frame -> (slot, frame)) slot.Seg.frame

(* ------------------------------------------------------------------ *)
(* Frame supply                                                       *)
(* ------------------------------------------------------------------ *)

(* Pull free frames of [tier] straight from the kernel's initial segment.
   Unlike an SPCM source the slots need not be contiguous, so this is one
   single-page MigratePages per frame. *)
let refill t pool ~tier ~want =
  match Mgr_free_pages.grant_slot pool with
  | None -> 0
  | Some slot0 ->
      let want = min want (Mgr_free_pages.room pool) in
      let init = K.initial_segment t.kern in
      let slots = K.initial_slots ~tier t.kern ~limit:want in
      let got = ref 0 in
      List.iter
        (fun src_page ->
          K.migrate_pages t.kern ~src:init ~dst:(Mgr_free_pages.segment pool) ~src_page
            ~dst_page:(slot0 + !got) ~count:1 ~tier ();
          incr got)
        slots;
      Mgr_free_pages.note_granted pool !got;
      !got

let victim t ~tier entry =
  match slot_state t entry.ce_seg entry.ce_page with
  | None -> `Gone
  | Some (slot, frame) ->
      if Phys.tier_of_frame (K.machine t.kern).Hw_machine.mem frame <> tier then `Gone
      else
        let flags = slot.Seg.flags in
        if Flags.mem flags Flags.pinned || Flags.mem flags Flags.io_busy then `Skip
        else if Flags.mem flags Flags.referenced then begin
          (* Second chance. *)
          K.modify_page_flags t.kern ~seg:entry.ce_seg ~page:entry.ce_page ~count:1
            ~clear_flags:Flags.referenced ();
          `Skip
        end
        else `Victim (slot, frame)

(* Clock sweep over one tier's ring; [demote] moves a victim down a level
   and reports success. Two full passes at most, like Mgr_generic. *)
let sweep_clock t clock ~tier ~count ~demote =
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
          match victim t ~tier entry with
          | `Gone -> tombstone clock entry
          | `Skip -> ()
          | `Victim (slot, frame) ->
              if demote entry slot frame then incr reclaimed else stop := true)
  done;
  !reclaimed

(* Migration masks that carry the page's dirtiness across the frame
   change (the data moved with set_next_data, not with the frame, so the
   pool frame's leftover flags must not leak in). *)
let move_masks ~extra_set flags =
  let dirty = Flags.mem flags Flags.dirty in
  let set_flags = if dirty then Flags.of_list (Flags.dirty :: extra_set) else
    (match extra_set with [] -> Flags.empty | _ -> Flags.of_list extra_set)
  in
  let clear_flags =
    if dirty then Flags.referenced else Flags.of_list [ Flags.referenced; Flags.dirty ]
  in
  (set_flags, clear_flags)

(* Slow -> compressed store: page contents leave physical memory. *)
let demote_to_compressed t entry _slot frame =
  Mgr_compressed.stash t.compressed ~seg:entry.ce_seg ~page:entry.ce_page (frame_data t frame);
  (if Mgr_free_pages.room t.slow_pool = 0 then
     ignore (Mgr_free_pages.release_to_initial t.slow_pool ~count:16));
  Mgr_free_pages.put_from t.slow_pool ~src:entry.ce_seg ~src_page:entry.ce_page;
  t.stats.demotions_compressed <- t.stats.demotions_compressed + 1;
  true

let ensure_slow t n =
  if Mgr_free_pages.available t.slow_pool < n then begin
    let missing = n - Mgr_free_pages.available t.slow_pool in
    ignore (refill t t.slow_pool ~tier:t.slow_tier ~want:(max missing t.refill_batch));
    if Mgr_free_pages.available t.slow_pool < n then
      ignore
        (sweep_clock t t.slow_clock ~tier:t.slow_tier
           ~count:(max (n - Mgr_free_pages.available t.slow_pool) t.reclaim_batch)
           ~demote:(demote_to_compressed t))
  end;
  Mgr_free_pages.available t.slow_pool >= n

(* Fast -> slow: land the page on a slow frame, contents intact, and
   protect it so the next touch raises the promotion fault. *)
let demote_to_slow t entry slot frame =
  ensure_slow t 1
  && begin
       let data = frame_data t frame in
       let set_flags, clear_flags = move_masks ~extra_set:[ Flags.no_access ] slot.Seg.flags in
       (if Mgr_free_pages.room t.fast_pool = 0 then
          ignore (Mgr_free_pages.release_to_initial t.fast_pool ~count:16));
       Mgr_free_pages.put_from t.fast_pool ~src:entry.ce_seg ~src_page:entry.ce_page;
       Mgr_free_pages.set_next_data t.slow_pool data;
       let moved =
         Mgr_free_pages.take_to t.slow_pool ~dst:entry.ce_seg ~dst_page:entry.ce_page ~count:1
           ~tier:t.slow_tier ~set_flags ~clear_flags ()
       in
       assert (moved = 1);
       track t.slow_clock entry.ce_seg entry.ce_page;
       t.stats.demotions_slow <- t.stats.demotions_slow + 1;
       true
     end

let ensure_fast t n =
  if Mgr_free_pages.available t.fast_pool < n then begin
    let missing = n - Mgr_free_pages.available t.fast_pool in
    ignore (refill t t.fast_pool ~tier:t.fast_tier ~want:(max missing t.refill_batch));
    if Mgr_free_pages.available t.fast_pool < n then
      ignore
        (sweep_clock t t.fast_clock ~tier:t.fast_tier
           ~count:(max (n - Mgr_free_pages.available t.fast_pool) t.reclaim_batch)
           ~demote:(demote_to_slow t))
  end;
  Mgr_free_pages.available t.fast_pool >= n

exception Out_of_frames of string

let need_fast t n =
  if not (ensure_fast t n) then
    raise
      (Out_of_frames
         (Printf.sprintf "%s: need %d fast frames, have %d after refill and demotion" t.name n
            (Mgr_free_pages.available t.fast_pool)))

(* ------------------------------------------------------------------ *)
(* Fault handling                                                     *)
(* ------------------------------------------------------------------ *)

(* A missing fault on an opted-in segment whose whole aligned region is
   empty (and not hiding in the compressed store) is served by one
   contiguous run grant from the fast tier; the kernel promotes the
   region as part of the migrate. Falls back to the 4 KB path when no
   aligned identity run is free. *)
let try_superpage_fill t ~seg ~page =
  let s = K.segment t.kern seg in
  s.Seg.sp_enabled
  &&
  let run = K.super_pages t.kern in
  let sbase = page / run * run in
  sbase + run <= Seg.length s
  && (let ok = ref true in
      let i = ref sbase in
      while !ok && !i < sbase + run do
        if
          (Seg.page s !i).Seg.frame <> None
          || Mgr_compressed.has t.compressed ~seg ~page:!i
        then ok := false;
        incr i
      done;
      !ok)
  &&
  let grant start = K.grant_superpage_run ~tier:t.fast_tier t.kern ~dst:seg ~dst_page:sbase ~start in
  let granted =
    match grant t.sp_cursor with
    | Some base -> Some base
    | None -> if t.sp_cursor > 0 then grant 0 else None
  in
  match granted with
  | None -> false
  | Some base ->
      t.sp_cursor <- base + run;
      for p = sbase to sbase + run - 1 do
        track t.fast_clock seg p
      done;
      t.stats.sp_fills <- t.stats.sp_fills + 1;
      t.stats.fills <- t.stats.fills + run;
      true

let handle_missing t ~seg ~page =
  if try_superpage_fill t ~seg ~page then ()
  else begin
  need_fast t 1;
  (* Fetch only once a frame is secured — fetch removes the store entry,
     and an Out_of_frames after that would lose the page. *)
  (match Mgr_compressed.fetch t.compressed ~seg ~page with
  | Some data ->
      Mgr_free_pages.set_next_data t.fast_pool data;
      t.stats.refetches <- t.stats.refetches + 1
  | None -> t.stats.fills <- t.stats.fills + 1);
  let moved =
    Mgr_free_pages.take_to t.fast_pool ~dst:seg ~dst_page:page ~count:1 ~tier:t.fast_tier
      ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
      ()
  in
  assert (moved = 1);
  track t.fast_clock seg page
  end

let promote t ~seg ~page =
  if ensure_fast t 1 then begin
    (* Re-read the slot: securing the fast frame may itself have demoted
       this very page into the compressed store (demote_to_slow ->
       ensure_slow -> demote_to_compressed), or another queued fault may
       have moved it. *)
    match slot_state t seg page with
    | Some (slot, frame)
      when Phys.tier_of_frame (K.machine t.kern).Hw_machine.mem frame = t.slow_tier ->
        let data = frame_data t frame in
        let set_flags, clear_flags = move_masks ~extra_set:[] slot.Seg.flags in
        let clear_flags = Flags.union clear_flags Flags.no_access in
        (if Mgr_free_pages.room t.slow_pool = 0 then
           ignore (Mgr_free_pages.release_to_initial t.slow_pool ~count:16));
        Mgr_free_pages.put_from t.slow_pool ~src:seg ~src_page:page;
        Mgr_free_pages.set_next_data t.fast_pool data;
        let moved =
          Mgr_free_pages.take_to t.fast_pool ~dst:seg ~dst_page:page ~count:1 ~tier:t.fast_tier
            ~set_flags ~clear_flags ()
        in
        assert (moved = 1);
        track t.fast_clock seg page;
        t.stats.promotions <- t.stats.promotions + 1
    | Some _ -> ()  (* already landed on a fast frame *)
    | None -> handle_missing t ~seg ~page
  end
  else begin
    (* No fast frame to be had — unprotect in place; the page stays slow
       and every touch pays the tier access surcharge. *)
    K.modify_page_flags t.kern ~seg ~page ~count:1 ~clear_flags:Flags.no_access ();
    t.stats.protection_clears <- t.stats.protection_clears + 1
  end

let handle_protection t (fault : Mgr.fault) =
  match slot_state t fault.Mgr.f_seg fault.Mgr.f_page with
  | Some (_, frame)
    when Phys.tier_of_frame (K.machine t.kern).Hw_machine.mem frame = t.slow_tier ->
      promote t ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page
  | _ ->
      K.modify_page_flags t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:1
        ~clear_flags:(Flags.of_list [ Flags.no_access; Flags.read_only ])
        ();
      t.stats.protection_clears <- t.stats.protection_clears + 1

let handle_cow t (fault : Mgr.fault) =
  need_fast t 1;
  let moved =
    Mgr_free_pages.take_to t.fast_pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
      ~tier:t.fast_tier
      ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
      ()
  in
  assert (moved = 1);
  track t.fast_clock fault.Mgr.f_seg fault.Mgr.f_page;
  t.stats.cow_fills <- t.stats.cow_fills + 1

let serve_fault t (fault : Mgr.fault) =
  match fault.Mgr.f_kind with
  | Mgr.Missing ->
      (* Another fault on the same page may have been served while we
         waited in the queue. *)
      if slot_state t fault.Mgr.f_seg fault.Mgr.f_page = None then
        handle_missing t ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page
  | Mgr.Protection -> handle_protection t fault
  | Mgr.Cow_write -> handle_cow t fault

let on_fault t (fault : Mgr.fault) =
  charge_logic t;
  Sim_sync.Semaphore.acquire t.serving;
  match serve_fault t fault with
  | () -> Sim_sync.Semaphore.release t.serving
  | exception e -> Sim_sync.Semaphore.release_reraise t.serving e

let on_close t seg =
  purge_segment t.fast_clock seg;
  purge_segment t.slow_clock seg

let return_to_system_unlocked t ~pages =
  let from_slow = Mgr_free_pages.release_to_initial t.slow_pool ~count:pages in
  let from_fast =
    if from_slow < pages then
      Mgr_free_pages.release_to_initial t.fast_pool ~count:(pages - from_slow)
    else 0
  in
  from_slow + from_fast

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create kern ?(name = "tiered-manager") ?(fast_tier = 0) ?(slow_tier = 1) ?compressed_config
    ?(fast_pool_capacity = 128) ?(slow_pool_capacity = 128) ?(refill_batch = 16)
    ?(reclaim_batch = 8) () =
  let mem = (K.machine kern).Hw_machine.mem in
  let nt = Phys.n_tiers mem in
  if fast_tier < 0 || fast_tier >= nt || slow_tier < 0 || slow_tier >= nt then
    invalid_arg "Mgr_tiered.create: tier out of range";
  if fast_tier = slow_tier then invalid_arg "Mgr_tiered.create: fast and slow tiers must differ";
  let compressed =
    (* Backend only: its own fault handler and pool are never exercised —
       segments managed here route faults to this manager, and stash/fetch
       do not touch the frame pool. *)
    Mgr_compressed.create kern ?config:compressed_config
      ~source:(fun ~dst:_ ~dst_page:_ ~count:_ -> 0)
      ~pool_capacity:1 ()
  in
  let t =
    {
      kern;
      name;
      mid = -1;
      fast_tier;
      slow_tier;
      fast_pool =
        Mgr_free_pages.create kern ~name:(name ^ ".fast-pool") ~capacity:fast_pool_capacity;
      slow_pool =
        Mgr_free_pages.create kern ~name:(name ^ ".slow-pool") ~capacity:slow_pool_capacity;
      compressed;
      fast_clock = fresh_clock ();
      slow_clock = fresh_clock ();
      refill_batch;
      reclaim_batch;
      sp_cursor = 0;
      stats = fresh_stats ();
      serving = Sim_sync.Semaphore.create 1;
    }
  in
  t.mid <-
    K.register_manager kern ~name ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f)
      ~on_close:(fun s -> on_close t s)
      ~on_pressure:(fun ~pages ->
        (* Never block (see Mgr_generic): decline when mid-fault. *)
        if Sim_sync.Semaphore.try_acquire t.serving then
          match return_to_system_unlocked t ~pages with
          | n ->
              Sim_sync.Semaphore.release t.serving;
              n
          | exception e -> Sim_sync.Semaphore.release_reraise t.serving e
        else 0)
      ();
  t

let create_segment t ~name ~pages ?(superpages = false) () =
  let seg = K.create_segment t.kern ~name ~pages () in
  K.set_segment_manager t.kern seg t.mid;
  if superpages then K.set_superpages t.kern ~seg ~enabled:true;
  seg
