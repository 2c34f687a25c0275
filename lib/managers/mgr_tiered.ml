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

type t = {
  kern : K.t;
  name : string;
  mutable mid : Mgr.id;
  fast_tier : int;
  slow_tier : int;
  fast_pool : Mgr_free_pages.t;  (* tier-pure: fast frames only *)
  slow_pool : Mgr_free_pages.t;  (* tier-pure: slow frames only *)
  fast_source : Mgr_free_pages.source;  (* the fast tier's free frames *)
  slow_source : Mgr_free_pages.source;  (* the slow tier's free frames *)
  compressed : Mgr_compressed.t;  (* the coldest tier, via stash/fetch *)
  fast_clock : Mgr_clock.t;  (* scoped to the fast tier *)
  slow_clock : Mgr_clock.t;  (* scoped to the slow tier *)
  refill_batch : int;
  reclaim_batch : int;
  mutable sp_cursor : int;  (* next start frame for aligned-run searches *)
  stats : stats;
  (* Same discipline as Mgr_generic: one fault at a time — tier moves are
     multi-step (read data, put the old frame, hand out the new one) and
     would interleave across processes otherwise. *)
  serving : Sim_sync.Semaphore.t;
}

let stats t = t.stats

let frame_data t frame = Phys.data (K.machine t.kern).Hw_machine.mem frame
let tier_of t frame = Phys.tier_of_frame (K.machine t.kern).Hw_machine.mem frame

(* ------------------------------------------------------------------ *)
(* Frame supply                                                       *)
(* ------------------------------------------------------------------ *)

(* Free frames of [tier] straight from the kernel's initial segment,
   through the tier-scoped free-frame walk. Unlike an SPCM source the
   slots need not be contiguous, so this is one single-page MigratePages
   per frame. *)
let tier_source kern ~tier ~dst ~dst_page ~count =
  let init = K.initial_segment kern in
  let got = ref 0 in
  List.iter
    (fun src_page ->
      K.migrate_pages kern ~src:init ~dst ~src_page ~dst_page:(dst_page + !got) ~count:1 ~tier ();
      incr got)
    (K.initial_slots ~tier kern ~limit:count);
  !got

(* The flags a tier move sets or clears on the new frame. *)
let moved_flags = Flags.of_list [ Flags.referenced; Flags.dirty; Flags.no_access ]

(* Move a resident page onto a frame of [into]'s tier, contents and
   dirtiness intact (the data moves with the hand-out, not with the
   frame, so the pool frame's leftover flags must not leak in); the old
   frame goes to [from] and [clock] tracks the page. A demotion
   [protect]s the page so its next touch raises the promotion fault; a
   promotion lifts that. *)
let move t ~seg ~page (slot : Seg.page_state) frame ~from ~into ~tier ~clock ~protect =
  let data = frame_data t frame in
  let set_flags =
    Flags.union
      (if Flags.mem slot.Seg.flags Flags.dirty then Flags.dirty else Flags.empty)
      (if protect then Flags.no_access else Flags.empty)
  in
  Mgr_free_pages.put_spill from ~spill:16 ~src:seg ~src_page:page;
  Mgr_free_pages.hand_out into ~data ~dst:seg ~dst_page:page ~count:1 ~tier ~set_flags
    ~clear_flags:(Flags.diff moved_flags set_flags) ();
  Mgr_clock.track clock seg page

(* Slow -> compressed store: page contents leave physical memory. *)
let demote_to_compressed t seg page _slot frame =
  Mgr_compressed.stash t.compressed ~seg ~page (frame_data t frame);
  Mgr_free_pages.put_spill t.slow_pool ~spill:16 ~src:seg ~src_page:page;
  t.stats.demotions_compressed <- t.stats.demotions_compressed + 1;
  Mgr_clock.Evicted

let never_full _ = false

(* Secure one frame in [pool]: refill it from its tier's free frames,
   then have the tier's clock push cold pages a level down ([demote]). *)
let ensure t pool source clock demote =
  if Mgr_free_pages.available pool = 0 then begin
    ignore (Mgr_free_pages.refill pool ~source ~count:(max 1 t.refill_batch));
    if Mgr_free_pages.available pool = 0 then
      ignore
        (Mgr_clock.sweep clock ~count:(max 1 t.reclaim_batch) ~full:never_full ~evict:demote t)
  end;
  Mgr_free_pages.available pool > 0

let ensure_slow t = ensure t t.slow_pool t.slow_source t.slow_clock demote_to_compressed

(* Fast -> slow, protected; a full slow tier ends the sweep. *)
let demote_to_slow t seg page slot frame =
  if ensure_slow t then begin
    move t ~seg ~page slot frame ~from:t.fast_pool ~into:t.slow_pool ~tier:t.slow_tier
      ~clock:t.slow_clock ~protect:true;
    t.stats.demotions_slow <- t.stats.demotions_slow + 1;
    Mgr_clock.Evicted
  end
  else Mgr_clock.Stop

let ensure_fast t = ensure t t.fast_pool t.fast_source t.fast_clock demote_to_slow

let need_fast t =
  if not (ensure_fast t) then
    raise
      (Mgr_generic.Out_of_frames
         (t.name ^ ": no fast frame after refill and demotion"))

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
        Mgr_clock.track t.fast_clock seg p
      done;
      t.stats.sp_fills <- t.stats.sp_fills + 1;
      t.stats.fills <- t.stats.fills + run;
      true

let handle_missing t ~seg ~page =
  if not (try_superpage_fill t ~seg ~page) then begin
    need_fast t;
    (* Fetch only once a frame is secured — fetch removes the store entry,
       and an Out_of_frames after that would lose the page. *)
    let data = Mgr_compressed.fetch t.compressed ~seg ~page in
    (match data with
    | Some _ -> t.stats.refetches <- t.stats.refetches + 1
    | None -> t.stats.fills <- t.stats.fills + 1);
    Mgr_free_pages.hand_out t.fast_pool ?data ~dst:seg ~dst_page:page ~count:1 ~tier:t.fast_tier
      ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
      ();
    Mgr_clock.track t.fast_clock seg page
  end

let promote t ~seg ~page =
  if ensure_fast t then begin
    (* Re-read the slot: securing the fast frame may itself have demoted
       this very page into the compressed store (demote_to_slow ->
       ensure_slow -> demote_to_compressed), or another queued fault may
       have moved it. *)
    match Mgr_clock.resident t.kern seg page with
    | Some (slot, frame) when tier_of t frame = t.slow_tier ->
        move t ~seg ~page slot frame ~from:t.slow_pool ~into:t.fast_pool ~tier:t.fast_tier
          ~clock:t.fast_clock ~protect:false;
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
  match Mgr_clock.resident t.kern fault.Mgr.f_seg fault.Mgr.f_page with
  | Some (_, frame) when tier_of t frame = t.slow_tier ->
      promote t ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page
  | _ ->
      Mgr_generic.unprotect t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page;
      t.stats.protection_clears <- t.stats.protection_clears + 1

let handle_cow t (fault : Mgr.fault) =
  need_fast t;
  Mgr_free_pages.hand_out t.fast_pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
    ~tier:t.fast_tier
    ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
    ();
  Mgr_clock.track t.fast_clock fault.Mgr.f_seg fault.Mgr.f_page;
  t.stats.cow_fills <- t.stats.cow_fills + 1

let serve_fault t (fault : Mgr.fault) =
  match fault.Mgr.f_kind with
  | Mgr.Missing ->
      (* Another fault on the same page may have been served while we
         waited in the queue. *)
      if Mgr_clock.resident t.kern fault.Mgr.f_seg fault.Mgr.f_page = None then
        handle_missing t ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page
  | Mgr.Protection -> handle_protection t fault
  | Mgr.Cow_write -> handle_cow t fault

let on_close t seg =
  Mgr_clock.forget t.fast_clock seg;
  Mgr_clock.forget t.slow_clock seg

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
      fast_source = tier_source kern ~tier:fast_tier;
      slow_source = tier_source kern ~tier:slow_tier;
      compressed;
      fast_clock = Mgr_clock.create kern ~tier:fast_tier ();
      slow_clock = Mgr_clock.create kern ~tier:slow_tier ();
      refill_batch;
      reclaim_batch;
      sp_cursor = 0;
      stats = fresh_stats ();
      serving = Sim_sync.Semaphore.create 1;
    }
  in
  t.mid <-
    Mgr_generic.register_serialised kern ~name ~mode:`In_process ~serving:t.serving
      ~serve:serve_fault ~on_close ~on_pressure:return_to_system_unlocked t;
  t

let create_segment t ~name ~pages ?(superpages = false) () =
  let seg = K.create_segment t.kern ~name ~pages () in
  K.set_segment_manager t.kern seg t.mid;
  if superpages then K.set_superpages t.kern ~seg ~enabled:true;
  seg
