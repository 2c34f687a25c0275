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

type source = Mgr_free_pages.source

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
  mutable close_writeback_losses : int;
}

type seg_info = { kind : seg_kind; mutable high_water : int }

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
  clock : Mgr_clock.t;
  stats : stats;
  (* One fault at a time ({!register_serialised}): fills that suspend
     (disk reads) must not interleave with another fault's pool
     manipulation. *)
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
    close_writeback_losses = 0;
  }

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

(* ------------------------------------------------------------------ *)
(* Mechanism every manager shares                                     *)
(* ------------------------------------------------------------------ *)

let charge_fault_logic kern =
  let machine = K.machine kern in
  Hw_machine.charge ~label:"mgr/fault_logic" machine
    machine.Hw_machine.cost.Hw_cost.manager_fault_logic

let unprotect kern ~seg ~page =
  K.modify_page_flags kern ~seg ~page ~count:1
    ~clear_flags:(Flags.of_list [ Flags.no_access; Flags.read_only ])
    ()

let need_frame pool ~source ~who =
  if Mgr_free_pages.available pool = 0 then
    ignore (Mgr_free_pages.refill pool ~source ~count:32);
  if Mgr_free_pages.available pool = 0 then raise (Out_of_frames (who ^ ": no frames"))

let pager kern ~name source =
  K.register_manager kern ~name ~mode:`In_process
    ~on_fault:(fun (fault : Mgr.fault) ->
      charge_fault_logic kern;
      match fault.Mgr.f_kind with
      | Mgr.Missing | Mgr.Cow_write ->
          if source ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1 = 0 then
            raise (Out_of_frames (name ^ ": out of frames"))
      | Mgr.Protection -> unprotect kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page)
    ()

(* A manager serves one fault at a time, like the request loop of a real
   manager process. The pressure callback never blocks: the caller (SPCM)
   holds its own serving lock while a fault handler holding ours may be
   blocked on an SPCM request — waiting would deadlock. A busy manager's
   pool is in flux anyway; declining is the honest answer. *)
let register_serialised kern ~name ~mode ~serving ~serve ~on_close ~on_pressure st =
  K.register_manager kern ~name ~mode
    ~on_fault:(fun fault ->
      charge_fault_logic kern;
      Sim_sync.Semaphore.acquire serving;
      match serve st fault with
      | () -> Sim_sync.Semaphore.release serving
      | exception e -> Sim_sync.Semaphore.release_reraise serving e)
    ~on_close:(fun seg -> on_close st seg)
    ~on_pressure:(fun ~pages ->
      if Sim_sync.Semaphore.try_acquire serving then
        match on_pressure st ~pages with
        | n ->
            Sim_sync.Semaphore.release serving;
            n
        | exception e -> Sim_sync.Semaphore.release_reraise serving e
      else 0)
    ()

(* Pool operations are multi-step and charge simulated time as they go,
   so any two of them interleave if run from different processes. Fault
   handling already serialises on [serving]; the batch entry points
   (swap_out, return_to_system) take the same lock. swap_in must not: its
   faults re-enter the handler, which takes [serving] itself. *)
let with_serving t f = Sim_sync.Semaphore.use t.serving f

(* ------------------------------------------------------------------ *)
(* Pool refill and reclamation                                        *)
(* ------------------------------------------------------------------ *)

let request_from_source t count =
  match t.source with
  | None -> 0
  | Some source ->
      if Mgr_free_pages.room t.pool > 0 then
        t.stats.refill_requests <- t.stats.refill_requests + 1;
      let got = Mgr_free_pages.refill t.pool ~source ~count in
      t.stats.frames_from_source <- t.stats.frames_from_source + got;
      got

(* Write a page out per the eviction hook before its frame goes. False
   when the write exhausted its retry budget or the hook itself failed (a
   WAL hook that cannot flush its log raises Backing_failed to veto the
   writeback); the caller counts it. *)
let write_out t ~seg ~page ~dirty frame =
  try
    (match t.hooks.on_eviction ~seg ~page ~dirty with
    | `Writeback ->
        let data = Hw_phys_mem.data (K.machine t.kern).Hw_machine.mem frame in
        (* Anonymous pages write to a swap area modelled by the same
           backing store under the negated segment id. *)
        let file =
          match Hashtbl.find_opt t.segs seg with
          | Some { kind = File { file_id }; _ } -> file_id
          | Some { kind = Anon; _ } | None -> -seg
        in
        Mgr_backing.write_block t.backing ~file ~block:page data;
        t.stats.writebacks <- t.stats.writebacks + 1
    | `Discard -> t.stats.discards <- t.stats.discards + 1);
    true
  with Mgr_backing.Backing_failed _ -> false

(* The clock's victim: written out per the hook, its frame reclaimed into
   the pool. A failed writeback leaves the page resident and dirty, still
   owned by its segment, and the clock moves on to a cleaner victim; a
   later pass retries it. *)
let evict_one t seg page (slot : Seg.page_state) frame =
  if write_out t ~seg ~page ~dirty:(Flags.mem slot.Seg.flags Flags.dirty) frame then begin
    Mgr_free_pages.put_from t.pool ~src:seg ~src_page:page;
    t.stats.reclaimed <- t.stats.reclaimed + 1;
    Mgr_clock.Evicted
  end
  else begin
    t.stats.writeback_failures <- t.stats.writeback_failures + 1;
    Mgr_clock.Kept
  end

let pool_full t = Mgr_free_pages.room t.pool = 0

(* Two full sweeps at most: the first typically clears reference bits,
   the second finds victims. A sweep in progress runs to completion. *)
let reclaim t ~count = Mgr_clock.sweep t.clock ~count ~full:pool_full ~evict:evict_one t

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
               Mgr_clock.track t.clock fault.Mgr.f_seg (sbase + i)
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
  let data =
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
          raise e
      in
      (match filled with
      | Some _ ->
          if Hw_machine.tracing machine then begin
            Hw_machine.trace_emit machine ~tag:"step2.request_data"
              (Printf.sprintf "seg %d page %d" fault.Mgr.f_seg fault.Mgr.f_page);
            Hw_machine.trace_emit machine ~tag:"step3.data_reply"
              (Printf.sprintf "seg %d page %d" fault.Mgr.f_seg fault.Mgr.f_page)
          end;
          (* Copying the arrived data into the allocated frame. *)
          Hw_machine.charge ~label:"mgr/copy_page" machine
            machine.Hw_machine.cost.Hw_cost.copy_page
      | None ->
          if Hw_machine.tracing machine then
            Hw_machine.trace_emit machine ~tag:"step2-3.local_fill"
              (Printf.sprintf "seg %d page %d" fault.Mgr.f_seg fault.Mgr.f_page));
      filled
    end
    else begin
      if Hw_machine.tracing machine then
        Hw_machine.trace_emit machine ~tag:"step2-3.local_fill"
          (Printf.sprintf "seg %d pages %d..%d (append batch)" fault.Mgr.f_seg fault.Mgr.f_page
             (fault.Mgr.f_page + batch - 1));
      None
    end
  in
  Mgr_free_pages.hand_out t.pool ?data ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page
    ~count:batch
    ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
    ();
  inf.high_water <- max inf.high_water (fault.Mgr.f_page + batch);
  for i = 0 to batch - 1 do
    Mgr_clock.track t.clock fault.Mgr.f_seg (fault.Mgr.f_page + i)
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
  Mgr_free_pages.hand_out t.pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
    ~clear_flags:(Flags.of_list [ Flags.dirty; Flags.no_access; Flags.read_only ])
    ();
  Mgr_clock.track t.clock fault.Mgr.f_seg fault.Mgr.f_page;
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

let on_close t seg =
  t.stats.closes <- t.stats.closes + 1;
  (match Hashtbl.find_opt t.segs seg with
  | None -> ()
  | Some inf ->
      (* Every dirty file page goes out per the eviction hook; anonymous
         data dies with the segment. Frames come into the pool while it
         has room, and the kernel returns the rest to the initial
         segment. The segment is going away regardless, so an exhausted
         retry budget here is explicit, counted data loss, not a reason
         to wedge the close. *)
      let s = K.segment t.kern seg in
      for page = 0 to Seg.length s - 1 do
        let slot = Seg.page s page in
        match slot.Seg.frame with
        | None -> ()
        | Some frame ->
            (if Flags.mem slot.Seg.flags Flags.dirty then
               match inf.kind with
               | File _ ->
                   if not (write_out t ~seg ~page ~dirty:true frame) then
                     t.stats.close_writeback_losses <- t.stats.close_writeback_losses + 1
               | Anon -> t.stats.discards <- t.stats.discards + 1);
            if Mgr_free_pages.room t.pool > 0 then
              Mgr_free_pages.put_from t.pool ~src:seg ~src_page:page
      done);
  Hashtbl.remove t.segs seg;
  Mgr_clock.forget t.clock seg

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
    ?(refill_batch = 32) ?(reclaim_batch = 16) () =
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
      clock = Mgr_clock.create kern ();
      stats = fresh_stats ();
      serving = Sim_sync.Semaphore.create 1;
    }
  in
  t.mid <-
    register_serialised kern ~name ~mode ~serving:t.serving ~serve:serve_fault ~on_close
      ~on_pressure:return_to_system_unlocked t;
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
