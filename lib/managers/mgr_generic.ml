module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags

type seg_kind = Anon | File of { file_id : int }

type hooks = {
  fill :
    seg:Epcm_segment.id -> page:int -> kind:seg_kind -> high_water:int -> Hw_page_data.t option;
  batch_of : seg:Epcm_segment.id -> page:int -> kind:seg_kind -> high_water:int -> int;
  on_eviction : seg:Epcm_segment.id -> page:int -> dirty:bool -> [ `Writeback | `Discard ];
  reprotect_batch : int;
}

let default_hooks ~backing =
  {
    fill =
      (fun ~seg ~page ~kind ~high_water ->
        match kind with
        | Anon ->
            (* Fresh anonymous pages need no data; pages that were evicted
               to the swap area (keyed by negated segment id) must come
               back from it. *)
            if Mgr_backing.has_block backing ~file:(-seg) ~block:page then
              Some (Mgr_backing.read_block backing ~file:(-seg) ~block:page)
            else None
        | File { file_id } ->
            if page < high_water then Some (Mgr_backing.read_block backing ~file:file_id ~block:page)
            else None);
    batch_of = (fun ~seg:_ ~page:_ ~kind:_ ~high_water:_ -> 1);
    on_eviction = (fun ~seg:_ ~page:_ ~dirty -> if dirty then `Writeback else `Discard);
    reprotect_batch = 8;
  }

type source = dst:Epcm_segment.id -> dst_page:int -> count:int -> int

type sp_source = dst:Epcm_segment.id -> dst_page:int -> int

exception Out_of_frames of string

type stats = {
  mutable fills : int;
  mutable cow_fills : int;
  mutable protection_clears : int;
  mutable reclaimed : int;
  mutable writebacks : int;
  mutable discards : int;
  mutable refill_requests : int;
  mutable frames_from_source : int;
  mutable closes : int;
  mutable fill_failures : int;
  mutable writeback_failures : int;
}

type seg_info = { kind : seg_kind; mutable high_water : int }

type clock_entry = { ce_seg : Seg.id; ce_page : int; mutable ce_dead : bool }

type t = {
  kern : K.t;
  name : string;
  mutable mid : Mgr.id;
  pool : Mgr_free_pages.t;
  backing : Mgr_backing.t;
  source : source option;
  sp_source : sp_source option;
  hooks : hooks;
  refill_batch : int;
  reclaim_batch : int;
  segs : (Seg.id, seg_info) Hashtbl.t;
  mutable ring : clock_entry list;  (* newest first; rebuilt lazily *)
  mutable hand : clock_entry list;  (* suffix of the scan order *)
  (* Entries whose page lost its frame are tombstoned (ce_dead) rather
     than filtered out on the spot — an eager List.filter per stale entry
     is O(ring), which goes quadratic under churn. The ring compacts once
     tombstones outnumber live entries, so removal is amortised O(1). *)
  mutable ring_len : int;  (* entries in [ring], live and dead *)
  mutable ring_dead : int;  (* tombstones still in [ring] *)
  counters : Sim_stats.Counters.t option;
  stats : stats;
  (* A manager serves one fault at a time, like the request loop of a real
     manager process: fills that suspend (disk reads) must not interleave
     with another fault's pool manipulation. *)
  serving : Sim_sync.Semaphore.t;
}

let fresh_stats () =
  {
    fills = 0;
    cow_fills = 0;
    protection_clears = 0;
    reclaimed = 0;
    writebacks = 0;
    discards = 0;
    refill_requests = 0;
    frames_from_source = 0;
    closes = 0;
    fill_failures = 0;
    writeback_failures = 0;
  }

let bump t name = Option.iter (fun c -> Sim_stats.Counters.incr c (t.name ^ "." ^ name)) t.counters

let kernel t = t.kern
let manager_id t = t.mid
let pool t = t.pool
let backing t = t.backing
let stats t = t.stats

let info t seg =
  match Hashtbl.find_opt t.segs seg with
  | Some i -> i
  | None -> raise (Out_of_frames (Printf.sprintf "%s: fault on unmanaged segment %d" t.name seg))

let segment_kind t seg = Option.map (fun i -> i.kind) (Hashtbl.find_opt t.segs seg)

let charge_logic t =
  Hw_machine.charge ~label:"mgr/fault_logic" (K.machine t.kern)
    (K.machine t.kern).Hw_machine.cost.Hw_cost.manager_fault_logic

(* Pool operations are multi-step and charge simulated time as they go,
   so any two of them interleave if run from different processes. Fault
   handling already serialises on [serving]; the batch entry points
   (swap_out, swap_in, return_to_system) take the same lock. *)
let with_serving t f = Sim_sync.Semaphore.use t.serving f

(* ------------------------------------------------------------------ *)
(* Pool refill and reclamation                                        *)
(* ------------------------------------------------------------------ *)

let request_from_source t count =
  match t.source with
  | None -> 0
  | Some source -> (
      match Mgr_free_pages.grant_slot t.pool with
      | None -> 0
      | Some slot ->
          t.stats.refill_requests <- t.stats.refill_requests + 1;
          let want = min count (Mgr_free_pages.room t.pool) in
          let got = source ~dst:(Mgr_free_pages.segment t.pool) ~dst_page:slot ~count:want in
          Mgr_free_pages.note_granted t.pool got;
          t.stats.frames_from_source <- t.stats.frames_from_source + got;
          got)

let slot_state t seg page =
  if not (K.segment_exists t.kern seg) then None
  else
    let s = K.segment t.kern seg in
    if not (Seg.in_range s page) then None
    else
      let slot = Seg.page s page in
      Option.map (fun frame -> (slot, frame)) slot.Seg.frame

let evict_one t entry =
  match slot_state t entry.ce_seg entry.ce_page with
  | None -> `Gone
  | Some (slot, frame) ->
      let flags = slot.Seg.flags in
      if Flags.mem flags Flags.pinned || Flags.mem flags Flags.io_busy then `Skip
      else if Flags.mem flags Flags.referenced then begin
        (* Second chance: clear the reference bit and move on. *)
        K.modify_page_flags t.kern ~seg:entry.ce_seg ~page:entry.ce_page ~count:1
          ~clear_flags:Flags.referenced ();
        `Skip
      end
      else begin
        let dirty = Flags.mem flags Flags.dirty in
        let released =
          (* The hook itself may fail too (a WAL hook that cannot flush its
             log raises Backing_failed to veto the writeback). Either way
             the degradation is the same: the page stays resident and
             dirty, still owned by its segment, and the clock moves on to
             a cleaner victim. A later pass retries it. *)
          try
            match t.hooks.on_eviction ~seg:entry.ce_seg ~page:entry.ce_page ~dirty with
            | `Writeback ->
                let data = Hw_phys_mem.data (K.machine t.kern).Hw_machine.mem frame in
                (* Anonymous pages write to a swap area modelled by the same
                   backing store under the negated segment id. *)
                let file =
                  match Hashtbl.find_opt t.segs entry.ce_seg with
                  | Some { kind = File { file_id }; _ } -> file_id
                  | Some { kind = Anon; _ } | None -> -entry.ce_seg
                in
                Mgr_backing.write_block t.backing ~file ~block:entry.ce_page data;
                t.stats.writebacks <- t.stats.writebacks + 1;
                true
            | `Discard ->
                t.stats.discards <- t.stats.discards + 1;
                true
          with Mgr_backing.Backing_failed _ ->
            t.stats.writeback_failures <- t.stats.writeback_failures + 1;
            bump t "writeback_skipped";
            false
        in
        if not released then `Skip
        else begin
          Mgr_free_pages.put_from t.pool ~src:entry.ce_seg ~src_page:entry.ce_page;
          t.stats.reclaimed <- t.stats.reclaimed + 1;
          `Evicted
        end
      end

let reclaim t ~count =
  let reclaimed = ref 0 in
  let passes = ref 0 in
  let stop = ref false in
  (* Two full sweeps at most: the first typically clears reference bits,
     the second finds victims. A sweep in progress runs to completion. *)
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
        if Mgr_free_pages.room t.pool = 0 then stop := true
        else if entry.ce_dead then ()
        else
          match evict_one t entry with
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

let ensure_pool t ~count =
  if Mgr_free_pages.available t.pool < count then begin
    let missing = count - Mgr_free_pages.available t.pool in
    let got = request_from_source t (max missing t.refill_batch) in
    if got < missing then ignore (reclaim t ~count:(max (missing - got) t.reclaim_batch));
    if Mgr_free_pages.available t.pool < count then
      raise
        (Out_of_frames
           (Printf.sprintf "%s: need %d frames, have %d after refill and reclaim" t.name count
              (Mgr_free_pages.available t.pool)))
  end

(* ------------------------------------------------------------------ *)
(* Fault handling                                                     *)
(* ------------------------------------------------------------------ *)

let track t seg page =
  t.ring <- { ce_seg = seg; ce_page = page; ce_dead = false } :: t.ring;
  t.ring_len <- t.ring_len + 1

(* Superpage grant: when the faulting segment opted in and the whole
   covering region is still empty, ask the run source for one aligned
   frame run — a single contiguous MigratePages the kernel promotes to a
   2 MB mapping. Returns false (caller takes the 4 KB path) when no run
   is available, the region straddles the segment end, or part of it is
   already resident. *)
let try_superpage_fill t (fault : Mgr.fault) inf seg =
  match t.sp_source with
  | None -> false
  | Some grant ->
      let run = K.super_pages t.kern in
      let sbase = fault.Mgr.f_page / run * run in
      if sbase + run > Seg.length seg then false
      else begin
        let empty = ref true and i = ref 0 in
        while !empty && !i < run do
          if (Seg.page seg (sbase + !i)).Seg.frame <> None then empty := false;
          incr i
        done;
        !empty
        &&
        let got = grant ~dst:fault.Mgr.f_seg ~dst_page:sbase in
        got > 0
        && begin
             t.stats.refill_requests <- t.stats.refill_requests + 1;
             t.stats.frames_from_source <- t.stats.frames_from_source + got;
             inf.high_water <- max inf.high_water (sbase + got);
             for i = 0 to got - 1 do
               track t fault.Mgr.f_seg (sbase + i)
             done;
             t.stats.fills <- t.stats.fills + 1;
             if Hw_machine.tracing (K.machine t.kern) then
               Hw_machine.trace_emit (K.machine t.kern) ~tag:"step2-3.superpage_fill"
                 (Printf.sprintf "seg %d pages %d..%d (aligned run)" fault.Mgr.f_seg sbase
                    (sbase + got - 1));
             true
           end
      end

let handle_missing_base t (fault : Mgr.fault) inf seg =
  let machine = K.machine t.kern in
  let batch =
    max 1
      (t.hooks.batch_of ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~kind:inf.kind
         ~high_water:inf.high_water)
  in
  (* Clamp the batch to the segment end and to pages that are still empty. *)
  let rec free_run p n =
    if n >= batch || not (Seg.in_range seg p) then n
    else if (Seg.page seg p).Seg.frame <> None then n
    else free_run (p + 1) (n + 1)
  in
  let batch = max 1 (free_run fault.Mgr.f_page 0) in
  ensure_pool t ~count:batch;
  if batch = 1 then begin
    let filled =
      (* No frame has left the pool yet, so a failed fill leaves every
         frame accounted for; the fault stays unresolved and the caller
         sees the backing failure. *)
      try
        t.hooks.fill ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~kind:inf.kind
          ~high_water:inf.high_water
      with Mgr_backing.Backing_failed _ as e ->
        t.stats.fill_failures <- t.stats.fill_failures + 1;
        bump t "fill_failed";
        raise e
    in
    match filled with
    | Some data ->
        if Hw_machine.tracing machine then
          Hw_machine.trace_emit machine ~tag:"step2.request_data"
            (Printf.sprintf "seg %d page %d" fault.Mgr.f_seg fault.Mgr.f_page);
        Mgr_free_pages.set_next_data t.pool data;
        if Hw_machine.tracing machine then
          Hw_machine.trace_emit machine ~tag:"step3.data_reply"
            (Printf.sprintf "seg %d page %d" fault.Mgr.f_seg fault.Mgr.f_page);
        (* Copying the arrived data into the allocated frame. *)
        Hw_machine.charge ~label:"mgr/copy_page" machine
          machine.Hw_machine.cost.Hw_cost.copy_page
    | None ->
        if Hw_machine.tracing machine then
          Hw_machine.trace_emit machine ~tag:"step2-3.local_fill"
            (Printf.sprintf "seg %d page %d" fault.Mgr.f_seg fault.Mgr.f_page)
  end
  else if Hw_machine.tracing machine then
    Hw_machine.trace_emit machine ~tag:"step2-3.local_fill"
      (Printf.sprintf "seg %d pages %d..%d (append batch)" fault.Mgr.f_seg fault.Mgr.f_page
         (fault.Mgr.f_page + batch - 1));
  let moved =
    Mgr_free_pages.take_to t.pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:batch
      ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
      ()
  in
  assert (moved = batch);
  inf.high_water <- max inf.high_water (fault.Mgr.f_page + batch);
  for i = 0 to batch - 1 do
    track t fault.Mgr.f_seg (fault.Mgr.f_page + i)
  done;
  t.stats.fills <- t.stats.fills + 1

let handle_missing t (fault : Mgr.fault) seg =
  let inf = info t fault.Mgr.f_seg in
  if seg.Seg.sp_enabled && try_superpage_fill t fault inf seg then ()
  else handle_missing_base t fault inf seg

let handle_protection t (fault : Mgr.fault) seg =
  (* Clock sampling: re-enable a run of contiguous protected pages at once
     to amortise the fault cost. *)
  let rec run p n =
    if n >= t.hooks.reprotect_batch || not (Seg.in_range seg p) then n
    else
      let slot = Seg.page seg p in
      if slot.Seg.frame <> None && Flags.mem slot.Seg.flags Flags.no_access then run (p + 1) (n + 1)
      else n
  in
  let n = max 1 (run fault.Mgr.f_page 0) in
  K.modify_page_flags t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:n
    ~clear_flags:Flags.no_access ();
  t.stats.protection_clears <- t.stats.protection_clears + 1

let handle_cow t (fault : Mgr.fault) =
  ensure_pool t ~count:1;
  let moved =
    Mgr_free_pages.take_to t.pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
      ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
      ()
  in
  assert (moved = 1);
  track t fault.Mgr.f_seg fault.Mgr.f_page;
  t.stats.cow_fills <- t.stats.cow_fills + 1

let serve_fault t (fault : Mgr.fault) =
  (* Another fault on the same page may have been served while we
     waited in the queue. *)
  let s = K.segment t.kern fault.Mgr.f_seg in
  let already_resolved =
    fault.Mgr.f_kind = Mgr.Missing
    && Seg.in_range s fault.Mgr.f_page
    && (Seg.page s fault.Mgr.f_page).Seg.frame <> None
  in
  if not already_resolved then
    match fault.Mgr.f_kind with
    | Mgr.Missing -> handle_missing t fault s
    | Mgr.Protection -> handle_protection t fault s
    | Mgr.Cow_write -> handle_cow t fault

let on_fault t (fault : Mgr.fault) =
  charge_logic t;
  Sim_sync.Semaphore.acquire t.serving;
  match serve_fault t fault with
  | () -> Sim_sync.Semaphore.release t.serving
  | exception e -> Sim_sync.Semaphore.release_reraise t.serving e

let on_close t seg =
  t.stats.closes <- t.stats.closes + 1;
  (match Hashtbl.find_opt t.segs seg with
  | None -> ()
  | Some inf ->
      (* Reclaim every resident frame into the pool, honouring writeback. *)
      let s = K.segment t.kern seg in
      for page = 0 to Seg.length s - 1 do
        let slot = Seg.page s page in
        match slot.Seg.frame with
        | None -> ()
        | Some frame ->
            if Mgr_free_pages.room t.pool > 0 then begin
              (if Flags.mem slot.Seg.flags Flags.dirty then
                 match inf.kind with
                 | File { file_id } -> (
                     let data = Hw_phys_mem.data (K.machine t.kern).Hw_machine.mem frame in
                     (* The segment is going away regardless; an exhausted
                        retry budget here is explicit, counted data loss,
                        not a reason to wedge the close. *)
                     try
                       Mgr_backing.write_block t.backing ~file:file_id ~block:page data;
                       t.stats.writebacks <- t.stats.writebacks + 1
                     with Mgr_backing.Backing_failed _ ->
                       t.stats.writeback_failures <- t.stats.writeback_failures + 1;
                       bump t "close_writeback_lost")
                 | Anon -> t.stats.discards <- t.stats.discards + 1);
              Mgr_free_pages.put_from t.pool ~src:seg ~src_page:page
            end
      done);
  Hashtbl.remove t.segs seg;
  t.ring <- List.filter (fun e -> (not e.ce_dead) && e.ce_seg <> seg) t.ring;
  t.ring_len <- List.length t.ring;
  t.ring_dead <- 0;
  t.hand <- List.filter (fun e -> e.ce_seg <> seg) t.hand

let return_to_system_unlocked t ~pages =
  if Mgr_free_pages.available t.pool < pages then
    ignore (reclaim t ~count:(pages - Mgr_free_pages.available t.pool));
  Mgr_free_pages.release_to_initial t.pool ~count:pages

let return_to_system t ~pages = with_serving t (fun () -> return_to_system_unlocked t ~pages)

(* The 2.2 batch-swap protocol: page everything out (unpinned pages are
   written back per the eviction policy) and hand the frames back to the
   system. The manager's own pinned code/data pages stay; the caller is
   expected to unpin and release those through the default manager before
   suspending, and lock_in_memory re-establishes them on resumption. *)
let swap_out t =
  with_serving t @@ fun () ->
  let released = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let got = reclaim t ~count:64 in
    released := !released + Mgr_free_pages.release_to_initial t.pool ~count:(Mgr_free_pages.available t.pool);
    if got = 0 then continue_ := false
  done;
  !released

(* Resumption: fault every page of the managed segments back in. Lazy
   resumption (waiting for demand faults) also works; this is the eager
   variant for predictable restart latency. *)
let swap_in t =
  List.iter
    (fun seg ->
      let s = K.segment t.kern seg in
      for page = 0 to Seg.length s - 1 do
        if
          (Seg.page s page).Seg.frame = None
          && Mgr_backing.has_block t.backing ~file:(-seg) ~block:page
        then K.touch t.kern ~space:seg ~page ~access:Mgr.Read
      done)
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.segs [])

let create kern ~name ~mode ~backing ?source ?sp_source ?hooks ?(pool_capacity = 1024)
    ?(refill_batch = 32) ?(reclaim_batch = 16) ?counters () =
  let hooks = match hooks with Some h -> h | None -> default_hooks ~backing in
  let pool = Mgr_free_pages.create kern ~name:(name ^ ".free-pages") ~capacity:pool_capacity in
  let t =
    {
      kern;
      name;
      mid = -1;
      pool;
      backing;
      source;
      sp_source;
      hooks;
      refill_batch;
      reclaim_batch;
      segs = Hashtbl.create 16;
      ring = [];
      hand = [];
      ring_len = 0;
      ring_dead = 0;
      counters;
      stats = fresh_stats ();
      serving = Sim_sync.Semaphore.create 1;
    }
  in
  t.mid <-
    K.register_manager kern ~name ~mode
      ~on_fault:(fun f -> on_fault t f)
      ~on_close:(fun s -> on_close t s)
      ~on_pressure:(fun ~pages ->
        (* Never block here: the caller (SPCM) holds its own serving lock
           while a fault handler holding ours may be blocked on an SPCM
           request — waiting would deadlock. A busy manager's pool is in
           flux anyway; declining is the honest answer. *)
        if Sim_sync.Semaphore.try_acquire t.serving then
          match return_to_system_unlocked t ~pages with
          | n ->
              Sim_sync.Semaphore.release t.serving;
              n
          | exception e -> Sim_sync.Semaphore.release_reraise t.serving e
        else 0)
      ();
  t

let create_segment t ~name ~pages ~kind ?(high_water = 0) ?(superpages = false) () =
  let seg = K.create_segment t.kern ~name ~pages () in
  Hashtbl.replace t.segs seg { kind; high_water };
  K.set_segment_manager t.kern seg t.mid;
  if superpages then K.set_superpages t.kern ~seg ~enabled:true;
  seg

let close_segment t seg = K.destroy_segment t.kern seg

let pin t ~seg ~page ~count =
  K.modify_page_flags t.kern ~seg ~page ~count ~set_flags:Flags.pinned ()

let unpin t ~seg ~page ~count =
  K.modify_page_flags t.kern ~seg ~page ~count ~clear_flags:Flags.pinned ()

let resident t ~seg = Seg.resident_pages (K.segment t.kern seg)

let lock_in_memory t ~seg =
  let s = K.segment t.kern seg in
  let n = Seg.length s in
  let max_rounds = 8 in
  let rec attempt round =
    if round > max_rounds then raise (Out_of_frames (t.name ^ ": cannot lock segment in memory"));
    (* Force everything in. *)
    for page = 0 to n - 1 do
      K.touch t.kern ~space:seg ~page ~access:Mgr.Read
    done;
    pin t ~seg ~page:0 ~count:n;
    (* Re-verify: a fault here means something was reclaimed between the
       touch and the pin; retry (the paper's retry-until-success). *)
    let before = (K.stats t.kern).K.faults_missing in
    for page = 0 to n - 1 do
      K.touch t.kern ~space:seg ~page ~access:Mgr.Read
    done;
    if (K.stats t.kern).K.faults_missing > before then begin
      unpin t ~seg ~page:0 ~count:n;
      attempt (round + 1)
    end
  in
  attempt 1

let protect_for_sampling t ~seg =
  let s = K.segment t.kern seg in
  for page = 0 to Seg.length s - 1 do
    let slot = Seg.page s page in
    if slot.Seg.frame <> None && not (Flags.mem slot.Seg.flags Flags.pinned) then
      K.modify_page_flags t.kern ~seg ~page ~count:1 ~set_flags:Flags.no_access ()
  done
