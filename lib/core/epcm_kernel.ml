module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module Machine = Hw_machine
module Phys = Hw_phys_mem
module Pt = Hw_page_table
module Tlb = Hw_tlb

type error =
  | No_such_segment of int
  | Dead_segment of int
  | Page_out_of_range of { seg : int; page : int; length : int }
  | Frame_present of { seg : int; page : int }
  | No_frame of { seg : int; page : int }
  | No_manager of int
  | No_such_manager of int
  | Binding_overlap of { seg : int; at : int; len : int }
  | Binding_out_of_range of { seg : int; at : int; len : int }
  | Page_size_mismatch of { src : int; dst : int }
  | Fault_recursion of { manager : int; depth : int }
  | Unresolved_fault of { seg : int; page : int }
  | Initial_segment_operation
  | Tier_mismatch of { seg : int; page : int; frame : int; want : int; got : int }

exception Error of error

let error_to_string = function
  | No_such_segment s -> Printf.sprintf "no such segment %d" s
  | Dead_segment s -> Printf.sprintf "segment %d has been destroyed" s
  | Page_out_of_range { seg; page; length } ->
      Printf.sprintf "page %d out of range of segment %d (length %d)" page seg length
  | Frame_present { seg; page } ->
      Printf.sprintf "segment %d page %d already holds a frame" seg page
  | No_frame { seg; page } -> Printf.sprintf "segment %d page %d holds no frame" seg page
  | No_manager s -> Printf.sprintf "segment %d has no manager" s
  | No_such_manager m -> Printf.sprintf "no such manager %d" m
  | Binding_overlap { seg; at; len } ->
      Printf.sprintf "binding [%d,%d) overlaps an existing binding in segment %d" at (at + len)
        seg
  | Binding_out_of_range { seg; at; len } ->
      Printf.sprintf "binding [%d,%d) exceeds a segment range (space or target %d)" at (at + len)
        seg
  | Page_size_mismatch { src; dst } ->
      Printf.sprintf "page size mismatch between segments %d and %d" src dst
  | Fault_recursion { manager; depth } ->
      Printf.sprintf "fault recursion limit hit in manager %d at depth %d" manager depth
  | Unresolved_fault { seg; page } ->
      Printf.sprintf "manager returned without resolving fault at segment %d page %d" seg page
  | Initial_segment_operation -> "operation not permitted on the initial segment"
  | Tier_mismatch { seg; page; frame; want; got } ->
      Printf.sprintf "segment %d page %d holds frame %d of tier %d, not the requested tier %d"
        seg page frame got want

let fail e = raise (Error e)

type page_attributes = {
  pa_flags : Flags.t;
  pa_frame : int option;
  pa_phys_addr : int option;
}

type stats = {
  mutable faults_missing : int;
  mutable faults_protection : int;
  mutable faults_cow : int;
  mutable manager_calls : int;
  mutable migrate_calls : int;
  mutable migrated_pages : int;
  mutable modify_flag_calls : int;
  mutable get_attribute_calls : int;
  mutable uio_reads : int;
  mutable uio_writes : int;
  mutable page_copies : int;
  mutable page_zeros : int;
  mutable touches : int;
  mutable sp_promotions : int;
  mutable sp_demotions : int;
}

(* Translation-cache keys pointing at one resolved slot. *)
type keyset =
  | Single of int * int  (* space, vpn *)
  | Many of (int * int, unit) Hashtbl.t

type t = {
  machine : Machine.t;
  (* Segments and managers indexed by id. Ids are handed out in order
     (segments from 0, managers from 1) and never reused, so a lookup is
     an array read; a slot no segment or manager took holds
     [no_segment] / [no_manager]. *)
  mutable segments : Seg.t array;
  mutable managers : Mgr.t array;
  mutable next_seg : int;
  mutable next_mgr : int;
  init_seg : int;
  stats : stats;
  mutable per_manager_calls : int array;  (* by manager id *)
  (* Reverse index: resolved slot -> the translation-cache keys of the
     other spaces that reach it through a bound region, so migrating or
     reprotecting a slot can invalidate precisely. A slot's own key
     (space = its segment, vpn = its page) is never recorded:
     [invalidate_slot] drops that one unconditionally. A slot reached from
     one other space holds an immediate pair; one shared by several
     spaces upgrades to a small hash set, keeping recording O(1) rather
     than a linear membership scan. *)
  cached_keys : (int * int, keyset) Hashtbl.t;
  mutable fault_depth : int;
  max_fault_depth : int;
}

let fresh_stats () =
  {
    faults_missing = 0;
    faults_protection = 0;
    faults_cow = 0;
    manager_calls = 0;
    migrate_calls = 0;
    migrated_pages = 0;
    modify_flag_calls = 0;
    get_attribute_calls = 0;
    uio_reads = 0;
    uio_writes = 0;
    page_copies = 0;
    page_zeros = 0;
    touches = 0;
    sp_promotions = 0;
    sp_demotions = 0;
  }

let charge ?label t us = Machine.charge ?label t.machine us
let cost t = t.machine.Machine.cost

(* One data reference to a resident frame, on both [touch] paths: the
   far-memory premium of the frame's tier, then the line at its base
   address through the cache of its tier (a node-local L2). A one-tier
   machine has no premium to charge and a machine built without [?cache]
   has no line to look up, so each part reads the state it charges for
   and a flat machine is bit-identical to the pre-tier, pre-cache model. *)
let reference t frame_idx =
  let mem = t.machine.Machine.mem in
  if Phys.n_tiers mem > 1 then
    charge ~label:"kernel/tier_access" t
      (Phys.tier_access_us mem (Phys.tier_of_frame mem frame_idx));
  let caches = t.machine.Machine.caches in
  if Array.length caches > 0 then begin
    let cache = caches.(Phys.tier_of_frame mem frame_idx) in
    if not (Hw_cache.access cache ~phys_addr:(Phys.addr mem frame_idx)) then
      charge ~label:"kernel/cache_miss" t (cost t).Hw_cost.cache_miss_penalty
  end

(* A whole-page data transfer (UIO copy): sweep every line. *)
let cache_sweep t frame_idx =
  let caches = t.machine.Machine.caches in
  if Array.length caches > 0 then begin
    let mem = t.machine.Machine.mem in
    let cache = caches.(Phys.tier_of_frame mem frame_idx) in
    let before = Hw_cache.misses cache in
    Hw_cache.touch_page cache ~phys_addr:(Phys.addr mem frame_idx)
      ~page_bytes:(Phys.page_size mem);
    let missed = Hw_cache.misses cache - before in
    if missed > 0 then
      charge ~label:"kernel/cache_miss" t
        (float_of_int missed *. (cost t).Hw_cost.cache_miss_penalty)
  end

(* Every segment's per-tier resident counters follow the machine's real
   tier layout. *)
let make_segment machine ~sid ~name ~page_size ~pages =
  let mem = machine.Machine.mem in
  Seg.make ~n_tiers:(Phys.n_tiers mem) ~tier_of:(Phys.tier_of_frame mem) ~sid ~name ~page_size
    ~pages ()

(* Filler for the id tables' untaken slots, never handed out: [segment]
   reports [No_such_segment] for [no_segment] (a segment id is taken
   even when building its segment fails), and [manager] checks the id
   range. *)
let no_segment =
  let s = Seg.make ~sid:(-1) ~name:"no segment" ~page_size:1 ~pages:0 () in
  s.Seg.alive <- false;
  s

let no_manager =
  {
    Mgr.mid = 0;
    mname = "";
    mmode = `In_process;
    on_fault = ignore;
    on_close = ignore;
    on_pressure = (fun ~pages:_ -> 0);
  }

(* [arr] with room for index [i], the next id to hand out: doubled when
   full. *)
let with_room arr i filler =
  if i < Array.length arr then arr
  else begin
    let bigger = Array.make (2 * Array.length arr) filler in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let create machine =
  let n = Machine.n_frames machine in
  let mem = machine.Machine.mem in
  let init =
    Seg.make_identity ~n_tiers:(Phys.n_tiers mem) ~tier_of:(Phys.tier_of_frame mem) ~sid:0
      ~name:"initial-frame-segment" ~page_size:(Machine.page_size machine) ~pages:n ()
  in
  for i = 0 to n - 1 do
    Phys.set_owner mem i 0
  done;
  let segments = Array.make 64 no_segment in
  segments.(0) <- init;
  {
    machine;
    segments;
    managers = Array.make 16 no_manager;
    next_seg = 1;
    next_mgr = 1;
    init_seg = 0;
    stats = fresh_stats ();
    per_manager_calls = Array.make 16 0;
    cached_keys = Hashtbl.create 1024;
    fault_depth = 0;
    max_fault_depth = 16;
  }

let machine t = t.machine
let stats t = t.stats
let initial_segment t = t.init_seg

let manager_calls_of t mid = if mid > 0 && mid < t.next_mgr then t.per_manager_calls.(mid) else 0

(* [mid] is a registered manager's: callers looked it up first. *)
let count_manager_call t mid = t.per_manager_calls.(mid) <- t.per_manager_calls.(mid) + 1

let segment t sid =
  let s = if sid >= 0 && sid < t.next_seg then t.segments.(sid) else no_segment in
  if s == no_segment then fail (No_such_segment sid);
  if not s.Seg.alive then fail (Dead_segment sid);
  s

let segment_exists t sid = sid >= 0 && sid < t.next_seg && t.segments.(sid).Seg.alive

let check_range seg page count =
  if count < 0 || page < 0 || page + count > Seg.length seg then
    fail (Page_out_of_range { seg = seg.Seg.sid; page; length = Seg.length seg })

(* ------------------------------------------------------------------ *)
(* Managers                                                           *)
(* ------------------------------------------------------------------ *)

let register_manager t ~name ~mode ~on_fault ?(on_close = fun _ -> ())
    ?(on_pressure = fun ~pages:_ -> 0) () =
  let mid = t.next_mgr in
  t.managers <- with_room t.managers mid no_manager;
  t.per_manager_calls <- with_room t.per_manager_calls mid 0;
  t.managers.(mid) <- { Mgr.mid; mname = name; mmode = mode; on_fault; on_close; on_pressure };
  t.next_mgr <- mid + 1;
  mid

let manager t mid =
  if mid <= 0 || mid >= t.next_mgr then fail (No_such_manager mid);
  t.managers.(mid)

let set_segment_manager t sid mid =
  let seg = segment t sid in
  ignore (manager t mid);
  charge ~label:"kernel/set_manager" t (cost t).Hw_cost.set_manager;
  seg.Seg.manager <- Some mid

(* ------------------------------------------------------------------ *)
(* Segment lifecycle                                                  *)
(* ------------------------------------------------------------------ *)

let create_segment t ?page_size ?manager:mgr ~name ~pages () =
  let page_size = Option.value page_size ~default:(Machine.page_size t.machine) in
  (match mgr with Some m -> ignore (manager t m) | None -> ());
  let sid = t.next_seg in
  t.next_seg <- sid + 1;
  t.segments <- with_room t.segments sid no_segment;
  let seg = make_segment t.machine ~sid ~name ~page_size ~pages in
  seg.Seg.manager <- mgr;
  t.segments.(sid) <- seg;
  charge ~label:"kernel/segment_ctl" t (cost t).Hw_cost.syscall_base;
  sid

let grow_segment t sid ~pages =
  if pages < 0 then invalid_arg "Epcm_kernel.grow_segment: negative growth";
  let seg = segment t sid in
  let old = seg.Seg.pages in
  seg.Seg.pages <-
    Array.init
      (Array.length old + pages)
      (fun i ->
        if i < Array.length old then old.(i) else { Seg.frame = None; flags = Flags.empty });
  charge ~label:"kernel/segment_ctl" t (cost t).Hw_cost.syscall_base

(* ------------------------------------------------------------------ *)
(* Translation-cache bookkeeping                                      *)
(* ------------------------------------------------------------------ *)

(* Record that the translation (kspace, kvpn) resolves to slot (sseg,
   spage); a slot's own key needs no record (see [cached_keys]). *)
let record_cached_key t ~sseg ~spage ~kspace ~kvpn =
  if kspace <> sseg || kvpn <> spage then
    match Hashtbl.find_opt t.cached_keys (sseg, spage) with
    | None -> Hashtbl.replace t.cached_keys (sseg, spage) (Single (kspace, kvpn))
    | Some (Single (s, v)) ->
        if s <> kspace || v <> kvpn then begin
          let keys = Hashtbl.create 4 in
          Hashtbl.replace keys (s, v) ();
          Hashtbl.replace keys (kspace, kvpn) ();
          Hashtbl.replace t.cached_keys (sseg, spage) (Many keys)
        end
    | Some (Many keys) ->
        if not (Hashtbl.mem keys (kspace, kvpn)) then Hashtbl.replace keys (kspace, kvpn) ()

(* ------------------------------------------------------------------ *)
(* Superpage promotion / demotion                                     *)
(* ------------------------------------------------------------------ *)

let super_pages t = Machine.super_pages t.machine

(* Split one promoted region back to 4 KB granularity: drop the region
   record and its 2 MB translations. The covered pages stay resident —
   residency bookkeeping never left 4 KB granularity — and rebuild their
   base mappings lazily through segment walks on the next touch. *)
let demote_superpage t seg sindex =
  if Hashtbl.mem seg.Seg.sp_regions sindex then begin
    Hashtbl.remove seg.Seg.sp_regions sindex;
    t.stats.sp_demotions <- t.stats.sp_demotions + 1;
    Pt.remove_super t.machine.Machine.page_table ~space:seg.Seg.sid ~svpn:sindex;
    Tlb.invalidate_super t.machine.Machine.tlb ~space:seg.Seg.sid ~svpn:sindex;
    charge ~label:"kernel/superpage_demote" t (cost t).Hw_cost.superpage_demote;
    if Machine.tracing t.machine then
      Machine.trace_emit t.machine ~tag:"superpage.demote"
        (Printf.sprintf "seg %d region %d" seg.Seg.sid sindex)
  end

(* Fold an aligned, fully resident, protection-uniform run of 4 KB pages
   into one 2 MB mapping. The quick endpoint checks reject non-candidates
   in O(1); only runs that look promotable pay the full verify scan. *)
let try_promote_region t seg sindex =
  let sp = super_pages t in
  let p0 = sindex * sp in
  if p0 < 0 || p0 + sp > Seg.length seg || Hashtbl.mem seg.Seg.sp_regions sindex then false
  else begin
    let first = Seg.page seg p0 and last = Seg.page seg (p0 + sp - 1) in
    match (first.Seg.frame, last.Seg.frame) with
    | Some base, Some lf
      when base mod sp = 0 && lf = base + sp - 1
           && not (Flags.mem first.Seg.flags Flags.no_access) ->
        let ro0 = Flags.mem first.Seg.flags Flags.read_only in
        let ok = ref true and i = ref 0 in
        while !ok && !i < sp do
          let s = Seg.page seg (p0 + !i) in
          (match s.Seg.frame with
          | Some f
            when f = base + !i
                 && (not (Flags.mem s.Seg.flags Flags.no_access))
                 && Flags.mem s.Seg.flags Flags.read_only = ro0 -> ()
          | Some _ | None -> ok := false);
          incr i
        done;
        (* A contiguous run can still straddle a tier boundary; one 2 MB
           mapping must stay tier-pure so the per-tier audits and access
           surcharges remain exact. Tiers are contiguous intervals, so
           checking the endpoints pins the whole run. *)
        let mem = t.machine.Machine.mem in
        if !ok && Phys.tier_of_frame mem base <> Phys.tier_of_frame mem (base + sp - 1) then
          ok := false;
        if !ok then begin
          Hashtbl.replace seg.Seg.sp_regions sindex base;
          t.stats.sp_promotions <- t.stats.sp_promotions + 1;
          let prot = { Pt.readable = true; writable = not ro0 } in
          Pt.insert_super t.machine.Machine.page_table ~space:seg.Seg.sid ~svpn:sindex
            ~frame:base ~prot;
          Tlb.fill_super t.machine.Machine.tlb ~space:seg.Seg.sid ~svpn:sindex ~frame:base;
          let c = cost t in
          charge ~label:"kernel/superpage_promote" t
            (c.Hw_cost.superpage_promote +. c.Hw_cost.pte_update_super);
          if Machine.tracing t.machine then
            Machine.trace_emit t.machine ~tag:"superpage.promote"
              (Printf.sprintf "seg %d region %d frames [%d..%d]" seg.Seg.sid sindex base
                 (base + sp - 1))
        end;
        !ok
    | _ -> false
  end

let invalidate_slot t s ~page =
  (* Any translation change inside a promoted region splits it first —
     protection change, partial eviction, partial migrate, teardown all
     funnel through here. A segment with no promoted region has nothing
     to split. *)
  if Hashtbl.length s.Seg.sp_regions > 0 then demote_superpage t s (page / super_pages t);
  let seg = s.Seg.sid in
  (* Translations of other spaces bound to the slot; most machines bind
     nothing, and then the index is empty. *)
  if Hashtbl.length t.cached_keys > 0 then begin
    match Hashtbl.find_opt t.cached_keys (seg, page) with
    | None -> ()
    | Some (Single (space, vpn)) ->
        Tlb.invalidate t.machine.Machine.tlb ~space ~vpn;
        Pt.remove t.machine.Machine.page_table ~space ~vpn;
        Hashtbl.remove t.cached_keys (seg, page)
    | Some (Many keys) ->
        Hashtbl.iter
          (fun (space, vpn) () ->
            Tlb.invalidate t.machine.Machine.tlb ~space ~vpn;
            Pt.remove t.machine.Machine.page_table ~space ~vpn)
          keys;
        Hashtbl.remove t.cached_keys (seg, page)
  end;
  (* The slot's own (seg, page) translation. *)
  Tlb.invalidate t.machine.Machine.tlb ~space:seg ~vpn:page;
  Pt.remove t.machine.Machine.page_table ~space:seg ~vpn:page

(* ------------------------------------------------------------------ *)
(* Bindings and resolution                                            *)
(* ------------------------------------------------------------------ *)

let bind_region t ~space ~at ~len ~target ~target_page ~cow =
  if space = t.init_seg || target = t.init_seg then fail Initial_segment_operation;
  let sp = segment t space and tg = segment t target in
  if len <= 0 || at < 0 || at + len > Seg.length sp then
    fail (Binding_out_of_range { seg = space; at; len });
  if target_page < 0 || target_page + len > Seg.length tg then
    fail (Binding_out_of_range { seg = target; at = target_page; len });
  if sp.Seg.seg_page_size <> tg.Seg.seg_page_size then
    fail (Page_size_mismatch { src = space; dst = target });
  if Seg.bindings_overlap sp ~at ~len then fail (Binding_overlap { seg = space; at; len });
  Seg.add_binding sp { Seg.at; len; target; target_page; cow };
  charge ~label:"kernel/bind_region" t (cost t).Hw_cost.bind_region

(* Follow bindings to the slot that holds (or should hold) the frame for a
   reference to [page] of [space]. Returns the owning segment, the page
   index within it, and whether the path traversed a copy-on-write binding
   (meaning writes need a private copy in the original space). *)
let rec resolve_chain t ~space ~page ~depth =
  if depth > 8 then fail (Binding_out_of_range { seg = space; at = page; len = 0 });
  let seg = segment t space in
  check_range seg page 0;
  if page >= Seg.length seg then fail (Page_out_of_range { seg = space; page; length = Seg.length seg });
  let slot = Seg.page seg page in
  if slot.Seg.frame <> None then (space, page, false)
  else
    match Seg.binding_covering seg page with
    | None -> (space, page, false)
    | Some b ->
        let tpage = b.Seg.target_page + (page - b.Seg.at) in
        let oseg, opage, deeper_cow = resolve_chain t ~space:b.Seg.target ~page:tpage ~depth:(depth + 1) in
        (oseg, opage, b.Seg.cow || deeper_cow)

let resolve_slot t ~space ~page =
  match resolve_chain t ~space ~page ~depth:0 with
  | seg, pg, _ -> Some (seg, pg)
  | exception Error _ -> None

(* ------------------------------------------------------------------ *)
(* MigratePages and friends                                           *)
(* ------------------------------------------------------------------ *)

(* The source slot's [Some frame] box moves into the destination as is. *)
let migrate_one t ~src_seg ~dst_seg ~src_page ~dst_page =
  let s_slot = Seg.page src_seg src_page and d_slot = Seg.page dst_seg dst_page in
  let frame = s_slot.Seg.frame in
  let frame_idx =
    match frame with
    | Some f -> f
    | None -> fail (No_frame { seg = src_seg.Seg.sid; page = src_page })
  in
  (match d_slot.Seg.frame with
  | Some _ -> fail (Frame_present { seg = dst_seg.Seg.sid; page = dst_page })
  | None -> ());
  Seg.set_frame dst_seg dst_page frame;
  d_slot.Seg.flags <- s_slot.Seg.flags;
  Seg.set_frame src_seg src_page None;
  s_slot.Seg.flags <- Flags.empty;
  Phys.set_owner t.machine.Machine.mem frame_idx dst_seg.Seg.sid;
  invalidate_slot t src_seg ~page:src_page;
  invalidate_slot t dst_seg ~page:dst_page;
  d_slot

let migrate_pages t ~src ~dst ~src_page ~dst_page ~count ?tier:want_tier
    ?(set_flags = Flags.empty) ?(clear_flags = Flags.empty) () =
  let src_seg = segment t src and dst_seg = segment t dst in
  if src_seg.Seg.seg_page_size <> dst_seg.Seg.seg_page_size then
    fail (Page_size_mismatch { src; dst });
  check_range src_seg src_page count;
  check_range dst_seg dst_page count;
  let mem = t.machine.Machine.mem in
  (match want_tier with
  | Some k when k < 0 || k >= Phys.n_tiers mem ->
      invalid_arg (Printf.sprintf "Epcm_kernel.migrate_pages: tier %d out of range" k)
  | _ -> ());
  (* Tier pass: validate the requested placement tier and total the
     per-page tier surcharges. A single-tier machine skips it entirely —
     every frame is tier 0 with zero surcharge — keeping the flat-machine
     hot path untouched. *)
  if Phys.n_tiers mem > 1 then begin
    let extra = ref 0.0 in
    for i = 0 to count - 1 do
      match (Seg.page src_seg (src_page + i)).Seg.frame with
      | None -> ()  (* migrate_one reports No_frame below *)
      | Some f ->
          let got = Phys.tier_of_frame mem f in
          (match want_tier with
          | Some want when got <> want ->
              fail (Tier_mismatch { seg = src; page = src_page + i; frame = f; want; got })
          | _ -> ());
          extra := !extra +. Phys.tier_migrate_us mem got
    done;
    charge ~label:"kernel/tier_migrate" t !extra
  end;
  let c = cost t in
  charge ~label:"kernel/migrate" t
    (c.Hw_cost.syscall_base +. c.Hw_cost.migrate_base
    +. (float_of_int count *. c.Hw_cost.migrate_per_page));
  for i = 0 to count - 1 do
    let d_slot = migrate_one t ~src_seg ~dst_seg ~src_page:(src_page + i) ~dst_page:(dst_page + i) in
    d_slot.Seg.flags <- Flags.diff (Flags.union d_slot.Seg.flags set_flags) clear_flags
  done;
  (* Batched superpage install: when the destination opted in, any region
     this call (fully or partially) filled that now holds a complete
     aligned run collapses into one 2 MB mapping. Segments that never opt
     in skip the pass on one boolean. *)
  if count > 0 && dst_seg.Seg.sp_enabled then begin
    let sp = super_pages t in
    for sindex = dst_page / sp to (dst_page + count - 1) / sp do
      ignore (try_promote_region t dst_seg sindex)
    done
  end;
  t.stats.migrate_calls <- t.stats.migrate_calls + 1;
  t.stats.migrated_pages <- t.stats.migrated_pages + count;
  if Machine.tracing t.machine then
    Machine.trace_emit t.machine ~tag:"step4.migrate"
      (Printf.sprintf "%d page(s) seg %d[%d..] -> seg %d[%d..]" count src src_page dst dst_page)

let modify_page_flags t ~seg ~page ~count ?(set_flags = Flags.empty)
    ?(clear_flags = Flags.empty) () =
  let s = segment t seg in
  check_range s page count;
  let c = cost t in
  charge ~label:"kernel/modify_flags" t
    (c.Hw_cost.syscall_base +. c.Hw_cost.modify_flags_base
    +. (float_of_int count *. c.Hw_cost.modify_flags_per_page));
  let protection = Flags.union Flags.no_access Flags.read_only in
  for i = 0 to count - 1 do
    let slot = Seg.page s (page + i) in
    let before = slot.Seg.flags in
    slot.Seg.flags <- Flags.diff (Flags.union before set_flags) clear_flags;
    if Flags.intersects (Flags.union set_flags clear_flags) protection then begin
      invalidate_slot t s ~page:(page + i);
      charge ~label:"kernel/tlb_flush" t c.Hw_cost.tlb_flush_page
    end
  done;
  t.stats.modify_flag_calls <- t.stats.modify_flag_calls + 1

let get_page_attributes t ~seg ~page ~count =
  let s = segment t seg in
  check_range s page count;
  let c = cost t in
  charge ~label:"kernel/get_attributes" t
    (c.Hw_cost.syscall_base +. c.Hw_cost.get_attributes_base
    +. (float_of_int count *. c.Hw_cost.get_attributes_per_page));
  t.stats.get_attribute_calls <- t.stats.get_attribute_calls + 1;
  Array.init count (fun i ->
      let slot = Seg.page s (page + i) in
      {
        pa_flags = slot.Seg.flags;
        pa_frame = slot.Seg.frame;
        pa_phys_addr =
          Option.map (Phys.addr t.machine.Machine.mem) slot.Seg.frame;
      })

(* Return a frame to the initial segment: slot = first free initial slot at
   or cyclically after the frame's own index (identity at boot, best-effort
   afterwards). [frame] is the [Some f] its last slot held, moved in as
   is; [None] returns nothing. *)
let return_frame_to_initial t frame =
  match frame with
  | None -> ()
  | Some frame_idx ->
      let init = segment t t.init_seg in
      let n = Seg.length init in
      let rec find i tried =
        if tried >= n then fail (Frame_present { seg = t.init_seg; page = frame_idx })
        else
          match (Seg.page init i).Seg.frame with
          | None -> i
          | Some _ -> find ((i + 1) mod n) (tried + 1)
      in
      let slot_idx = find (frame_idx mod n) 0 in
      let slot = Seg.page init slot_idx in
      Seg.set_frame init slot_idx frame;
      slot.Seg.flags <- Flags.empty;
      Phys.set_owner t.machine.Machine.mem frame_idx t.init_seg

let release_frames t ~seg ~page ~count =
  if seg = t.init_seg then fail Initial_segment_operation;
  let s = segment t seg in
  check_range s page count;
  let c = cost t in
  charge ~label:"kernel/release_frames" t
    (c.Hw_cost.syscall_base +. c.Hw_cost.migrate_base
    +. (float_of_int count *. c.Hw_cost.migrate_per_page));
  let moved = ref 0 in
  for i = 0 to count - 1 do
    let slot = Seg.page s (page + i) in
    match slot.Seg.frame with
    | None -> ()
    | Some _ as frame ->
        Seg.set_frame s (page + i) None;
        slot.Seg.flags <- Flags.empty;
        invalidate_slot t s ~page:(page + i);
        return_frame_to_initial t frame;
        incr moved
  done;
  t.stats.migrate_calls <- t.stats.migrate_calls + 1;
  t.stats.migrated_pages <- t.stats.migrated_pages + !moved

let zero_pages t ~seg ~page ~count =
  let s = segment t seg in
  check_range s page count;
  let c = cost t in
  charge ~label:"kernel/zero_pages" t
    (c.Hw_cost.syscall_base +. (float_of_int count *. c.Hw_cost.zero_page));
  for i = 0 to count - 1 do
    let slot = Seg.page s (page + i) in
    match slot.Seg.frame with
    | None -> fail (No_frame { seg; page = page + i })
    | Some f ->
        Phys.zero_frame t.machine.Machine.mem f;
        t.stats.page_zeros <- t.stats.page_zeros + 1
  done

let destroy_segment t sid =
  if sid = t.init_seg then fail Initial_segment_operation;
  let s = segment t sid in
  (match s.Seg.manager with
  | Some mid ->
      let m = manager t mid in
      t.stats.manager_calls <- t.stats.manager_calls + 1;
      count_manager_call t mid;
      m.Mgr.on_close sid
  | None -> ());
  (* Frames the manager did not reclaim go back to the initial segment so
     no frame is ever lost. *)
  Array.iteri
    (fun i slot ->
      match slot.Seg.frame with
      | None -> ()
      | Some _ as frame ->
          Seg.set_frame s i None;
          slot.Seg.flags <- Flags.empty;
          invalidate_slot t s ~page:i;
          return_frame_to_initial t frame)
    s.Seg.pages;
  (* Every promoted region covered resident pages, so the loop above
     demoted them all through invalidate_slot. *)
  s.Seg.sp_enabled <- false;
  s.Seg.alive <- false;
  Tlb.invalidate_space t.machine.Machine.tlb ~space:sid;
  Pt.remove_space t.machine.Machine.page_table ~space:sid;
  charge ~label:"kernel/segment_ctl" t (cost t).Hw_cost.syscall_base

(* ------------------------------------------------------------------ *)
(* Superpage control operations                                       *)
(* ------------------------------------------------------------------ *)

let set_superpages t ~seg ~enabled =
  if seg = t.init_seg then fail Initial_segment_operation;
  let s = segment t seg in
  if not enabled then begin
    let regions = Hashtbl.fold (fun k _ acc -> k :: acc) s.Seg.sp_regions [] in
    List.iter (fun sindex -> demote_superpage t s sindex) regions
  end;
  s.Seg.sp_enabled <- enabled;
  charge ~label:"kernel/segment_ctl" t (cost t).Hw_cost.syscall_base

(* An "identity run" of the initial segment: [run] aligned consecutive
   frames still sitting in their boot slots (slot i holds frame i), so one
   contiguous MigratePages moves the whole physical run. The owner tags
   prefilter candidates without touching segment state; the slot check
   confirms identity (true for every free frame at boot, best-effort after
   churn since return_frame_to_initial prefers the identity slot). *)
let find_superpage_run ?tier t ~start =
  let mem = t.machine.Machine.mem in
  let run = super_pages t in
  let init = segment t t.init_seg in
  let rec search s =
    match Phys.find_aligned_run ?tier mem ~start:s ~run ~owned_by:t.init_seg with
    | None -> None
    | Some base ->
        let ok = ref true and i = ref 0 in
        while !ok && !i < run do
          if (Seg.page init (base + !i)).Seg.frame <> Some (base + !i) then ok := false;
          incr i
        done;
        if !ok then Some base else search (base + run)
  in
  search (max 0 start)

let grant_superpage_run ?tier t ~dst ~dst_page ~start =
  let run = super_pages t in
  if dst_page mod run <> 0 then
    invalid_arg "Epcm_kernel.grant_superpage_run: dst_page must be superpage-aligned";
  match find_superpage_run ?tier t ~start with
  | None -> None
  | Some base ->
      migrate_pages t ~src:t.init_seg ~dst ~src_page:base ~dst_page ~count:run ?tier ();
      Some base

(* ------------------------------------------------------------------ *)
(* Fault delivery (Figure 2)                                          *)
(* ------------------------------------------------------------------ *)

let count_fault t (kind : Mgr.fault_kind) =
  match kind with
  | Mgr.Missing -> t.stats.faults_missing <- t.stats.faults_missing + 1
  | Mgr.Protection -> t.stats.faults_protection <- t.stats.faults_protection + 1
  | Mgr.Cow_write -> t.stats.faults_cow <- t.stats.faults_cow + 1

(* One delivery, from the trap to the resume; [deliver_fault] brackets it
   with the fault depth and, only when the sink is on, the fault's span. *)
let serve_fault t (fault : Mgr.fault) mid (m : Mgr.t) =
  count_fault t fault.Mgr.f_kind;
  t.stats.manager_calls <- t.stats.manager_calls + 1;
  count_manager_call t mid;
  let c = cost t in
  charge ~label:"kernel/trap" t (c.Hw_cost.trap_entry +. c.Hw_cost.fault_decode);
  if Machine.tracing t.machine then
    Machine.trace_emit t.machine ~tag:"step1.fault_to_manager"
      (Printf.sprintf "%s -> manager %S" (Format.asprintf "%a" Mgr.pp_fault fault) m.Mgr.mname);
  (match m.Mgr.mmode with
  | `In_process ->
      charge ~label:"kernel/upcall" t c.Hw_cost.upcall_deliver;
      m.Mgr.on_fault fault;
      charge ~label:"kernel/resume" t c.Hw_cost.resume_direct
  | `Separate_process ->
      charge ~label:"kernel/ipc_call" t
        (c.Hw_cost.ipc_send +. c.Hw_cost.context_switch +. c.Hw_cost.manager_server_dispatch);
      m.Mgr.on_fault fault;
      charge ~label:"kernel/ipc_return" t
        (c.Hw_cost.ipc_reply +. c.Hw_cost.context_switch +. c.Hw_cost.resume_via_kernel
       +. c.Hw_cost.trap_exit));
  if Machine.tracing t.machine then
    Machine.trace_emit t.machine ~tag:"step5.resume"
      (Printf.sprintf "seg %d page %d" fault.Mgr.f_seg fault.Mgr.f_page)

let deliver_fault t (fault : Mgr.fault) =
  let seg = segment t fault.Mgr.f_seg in
  let mid = match seg.Seg.manager with Some m -> m | None -> fail (No_manager fault.Mgr.f_seg) in
  let m = manager t mid in
  if t.fault_depth >= t.max_fault_depth then
    fail (Fault_recursion { manager = mid; depth = t.fault_depth });
  t.fault_depth <- t.fault_depth + 1;
  match
    if Sim_metrics.enabled t.machine.Machine.metrics then
      let span =
        match fault.Mgr.f_kind with
        | Mgr.Missing -> "fault/missing"
        | Mgr.Protection -> "fault/protection"
        | Mgr.Cow_write -> "fault/cow"
      in
      Machine.with_span t.machine span (fun () -> serve_fault t fault mid m)
    else serve_fault t fault mid m
  with
  | () -> t.fault_depth <- t.fault_depth - 1
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.fault_depth <- t.fault_depth - 1;
      Printexc.raise_with_backtrace e bt

let prot_none = { Pt.readable = false; writable = false }
let prot_read = { Pt.readable = true; writable = false }
let prot_read_write = { Pt.readable = true; writable = true }

(* Ensure a frame with suitable protection is present at the slot that
   backs ([space], [page]); fault to managers as many times as needed
   (missing, then protection, then cow can each fire once). Returns the
   frame, the owning segment and page, the slot's flags and whether the
   path went through a copy-on-write binding. *)
let rec ensure_resident t ~space ~page ~(access : Mgr.access) ~attempts =
  if attempts > 6 then fail (Unresolved_fault { seg = space; page });
  let oseg_id, opage, via_cow = resolve_chain t ~space ~page ~depth:0 in
  let oseg = segment t oseg_id in
  let slot = Seg.page oseg opage in
  match slot.Seg.frame with
  | None ->
      (* Missing: fault to the manager of the owning segment. *)
      deliver_fault t
        { Mgr.f_seg = oseg_id; f_page = opage; f_access = access; f_kind = Mgr.Missing;
          f_space = space };
      let slot' = Seg.page (segment t oseg_id) opage in
      if slot'.Seg.frame = None then fail (Unresolved_fault { seg = oseg_id; page = opage });
      ensure_resident t ~space ~page ~access ~attempts:(attempts + 1)
  | Some frame_idx ->
      let flags = slot.Seg.flags in
      if Flags.mem flags Flags.no_access then begin
        deliver_fault t
          { Mgr.f_seg = oseg_id; f_page = opage; f_access = access; f_kind = Mgr.Protection;
            f_space = space };
        let slot' = Seg.page (segment t oseg_id) opage in
        if Flags.mem slot'.Seg.flags Flags.no_access then
          fail (Unresolved_fault { seg = oseg_id; page = opage });
        ensure_resident t ~space ~page ~access ~attempts:(attempts + 1)
      end
      else if access = Mgr.Write && via_cow && oseg_id <> space then begin
        (* Copy-on-write: the space's manager allocates a private page at
           ([space], [page]); the kernel then copies the source data. *)
        deliver_fault t
          { Mgr.f_seg = space; f_page = page; f_access = access; f_kind = Mgr.Cow_write;
            f_space = space };
        let sp_slot = Seg.page (segment t space) page in
        (match sp_slot.Seg.frame with
        | None -> fail (Unresolved_fault { seg = space; page })
        | Some private_frame ->
            Phys.copy_frame t.machine.Machine.mem ~src:frame_idx ~dst:private_frame;
            t.stats.page_copies <- t.stats.page_copies + 1;
            charge ~label:"kernel/copy_page" t (cost t).Hw_cost.copy_page;
            sp_slot.Seg.flags <- Flags.union sp_slot.Seg.flags Flags.dirty);
        ensure_resident t ~space ~page ~access ~attempts:(attempts + 1)
      end
      else if access = Mgr.Write && Flags.mem flags Flags.read_only then begin
        deliver_fault t
          { Mgr.f_seg = oseg_id; f_page = opage; f_access = access; f_kind = Mgr.Protection;
            f_space = space };
        let slot' = Seg.page (segment t oseg_id) opage in
        if Flags.mem slot'.Seg.flags Flags.read_only then
          fail (Unresolved_fault { seg = oseg_id; page = opage });
        ensure_resident t ~space ~page ~access ~attempts:(attempts + 1)
      end
      else begin
        (* Mark referenced / dirty as the hardware would. *)
        slot.Seg.flags <- Flags.union slot.Seg.flags Flags.referenced;
        if access = Mgr.Write then slot.Seg.flags <- Flags.union slot.Seg.flags Flags.dirty;
        (frame_idx, oseg, opage, flags, via_cow)
      end

(* One of the three protections a translation can carry, shared rather
   than built per mapping. *)
and resolved_prot ~flags ~via_cow =
  if Flags.mem flags Flags.no_access then prot_none
  else if Flags.mem flags Flags.read_only || via_cow then prot_read
  else prot_read_write

(* The slow half of [touch]: resolve the reference through the segments
   (faulting to managers as needed), complete it like a warm one and
   install the translation. *)
let walk_and_map t ~space ~page ~access =
  let c = cost t in
  let tlb = t.machine.Machine.tlb and pt = t.machine.Machine.page_table in
  charge ~label:"kernel/segment_walk" t c.Hw_cost.segment_walk;
  let frame, oseg, opage, flags, via_cow = ensure_resident t ~space ~page ~access ~attempts:0 in
  (* The faulting reference completes like a warm one. *)
  reference t frame;
  let prot = resolved_prot ~flags ~via_cow in
  (* Superpage install: a direct reference into an opted-in segment
     lands on its 2 MB mapping when the covering region is (or just
     became) promoted — e.g. the manager granted an aligned run during
     the Missing fault above. Any other reference takes the 4 KB
     branch. *)
  let installed_super =
    oseg.Seg.sp_enabled && space = oseg.Seg.sid && not via_cow
    &&
    let sindex = opage / super_pages t in
    match Hashtbl.find_opt oseg.Seg.sp_regions sindex with
    | Some base ->
        (* Promoted already; the 2 MB entry was displaced from (or
           never reached) the translation caches — reinstall it. *)
        Pt.insert_super pt ~space ~svpn:sindex ~frame:base ~prot;
        Tlb.fill_super tlb ~space ~svpn:sindex ~frame:base;
        charge ~label:"kernel/pte_update_super" t c.Hw_cost.pte_update_super;
        true
    | None -> try_promote_region t oseg sindex
  in
  if not installed_super then begin
    Pt.insert pt ~space ~vpn:page ~frame ~prot;
    Tlb.fill tlb ~space ~vpn:page ~frame;
    record_cached_key t ~sseg:oseg.Seg.sid ~spage:opage ~kspace:space ~kvpn:page;
    charge ~label:"kernel/pte_update" t c.Hw_cost.pte_update
  end

let touch t ~space ~page ~access =
  t.stats.touches <- t.stats.touches + 1;
  let c = cost t in
  let tlb = t.machine.Machine.tlb and pt = t.machine.Machine.page_table in
  let e = Pt.find pt ~space ~vpn:page in
  (* A miss returns [Pt.vacant], which grants no access. *)
  if match access with Mgr.Read -> e.Pt.prot.Pt.readable | Mgr.Write -> e.Pt.prot.Pt.writable
  then begin
    let frame = e.Pt.frame in
    (* Model TLB behaviour on the side: hit is free, miss costs a software
       refill from the mapping hash — at the granularity the mapping hash
       resolved (a superpage hit refills one 2 MB entry covering the whole
       run). Flat machines only ever see Base here. *)
    (if Tlb.probe tlb ~space ~vpn:page < 0 then
       match e.Pt.size with
       | Pt.Base ->
           charge ~label:"kernel/tlb_refill" t c.Hw_cost.tlb_refill;
           Tlb.fill tlb ~space ~vpn:page ~frame
       | Pt.Super ->
           let sp = super_pages t in
           let svpn = page / sp in
           charge ~label:"kernel/tlb_refill_super" t c.Hw_cost.tlb_refill_super;
           Tlb.fill_super tlb ~space ~svpn ~frame:(frame - (page - (svpn * sp))));
    (* The reference itself, however translation resolved. *)
    reference t frame
  end
  else begin
    (* Mapping-hash miss (or insufficient protection): walk segments.
       The kernel.fault latency sample is taken only when the sink is
       on. *)
    if Sim_metrics.enabled t.machine.Machine.metrics then begin
      let t0 = Machine.now t.machine in
      walk_and_map t ~space ~page ~access;
      Machine.observe t.machine ~kind:"kernel.fault" (Machine.now t.machine -. t0)
    end
    else walk_and_map t ~space ~page ~access
  end

(* ------------------------------------------------------------------ *)
(* UIO block interface                                                *)
(* ------------------------------------------------------------------ *)

let uio_page_data t seg page =
  let s = segment t seg in
  let slot = Seg.page s page in
  match slot.Seg.frame with
  | Some f -> (f, slot)
  | None -> fail (No_frame { seg; page })

let uio_ensure t ~seg ~page ~(access : Mgr.access) =
  let s = segment t seg in
  check_range s page 1;
  let slot = Seg.page s page in
  if slot.Seg.frame = None then
    deliver_fault t
      { Mgr.f_seg = seg; f_page = page; f_access = access; f_kind = Mgr.Missing; f_space = seg };
  let slot = Seg.page (segment t seg) page in
  if slot.Seg.frame = None then fail (Unresolved_fault { seg; page })

let uio_read t ~seg ~page =
  let c = cost t in
  charge ~label:"kernel/uio_read" t (c.Hw_cost.syscall_base +. c.Hw_cost.uio_read_overhead);
  uio_ensure t ~seg ~page ~access:Mgr.Read;
  charge ~label:"kernel/copy_page" t c.Hw_cost.copy_page;
  t.stats.uio_reads <- t.stats.uio_reads + 1;
  t.stats.page_copies <- t.stats.page_copies + 1;
  let frame, slot = uio_page_data t seg page in
  (* The copy reads every line of the page through the cache. *)
  cache_sweep t frame;
  slot.Seg.flags <- Flags.union slot.Seg.flags Flags.referenced;
  Phys.data t.machine.Machine.mem frame

let uio_write t ~seg ~page data =
  let c = cost t in
  charge ~label:"kernel/uio_write" t (c.Hw_cost.syscall_base +. c.Hw_cost.uio_write_overhead);
  uio_ensure t ~seg ~page ~access:Mgr.Write;
  charge ~label:"kernel/copy_page" t c.Hw_cost.copy_page;
  t.stats.uio_writes <- t.stats.uio_writes + 1;
  t.stats.page_copies <- t.stats.page_copies + 1;
  let frame, slot = uio_page_data t seg page in
  (* The copy writes every line of the page through the cache. *)
  cache_sweep t frame;
  Phys.set_data t.machine.Machine.mem frame data;
  slot.Seg.flags <- Flags.union slot.Seg.flags (Flags.union Flags.dirty Flags.referenced)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

(* Live segments in id order. *)
let audit_with resident t =
  let acc = ref [] in
  for sid = t.next_seg - 1 downto 0 do
    let seg = t.segments.(sid) in
    if seg.Seg.alive then acc := (sid, resident seg) :: !acc
  done;
  !acc

let frame_owner_audit t = audit_with Seg.resident_pages t
let frame_owner_audit_scan t = audit_with Seg.resident_pages_scan t
let frame_owner_audit_tiered t = audit_with Seg.resident_pages_by_tier t
let frame_owner_audit_tiered_scan t = audit_with Seg.resident_pages_by_tier_scan t

let frame_owner_total t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (frame_owner_audit t)

(* One pass over the live segments, building no lists: each segment's
   counters against its page array (one walk counts both the flat and the
   per-tier scan), the owned total against the machine, and no process
   left parked. *)
let audit t =
  let scan = Array.make (Phys.n_tiers t.machine.Machine.mem) 0 in
  let owned = ref 0 and agree = ref true in
  for sid = 0 to t.next_seg - 1 do
    let seg = t.segments.(sid) in
    if seg.Seg.alive then begin
      owned := !owned + seg.Seg.resident;
      Array.fill scan 0 (Array.length scan) 0;
      let resident = ref 0 in
      Array.iter
        (fun slot ->
          match slot.Seg.frame with
          | None -> ()
          | Some f ->
              incr resident;
              let k = seg.Seg.tier_of f in
              scan.(k) <- scan.(k) + 1)
        seg.Seg.pages;
      if !resident <> seg.Seg.resident || scan <> seg.Seg.resident_by_tier then agree := false
    end
  done;
  !agree
  && !owned = Machine.n_frames t.machine
  && Sim_engine.live_processes t.machine.Machine.engine = 0

type observation = {
  o_frames : int;
  o_touches : int;
  o_faults : int;
  o_migrate_calls : int;
  o_migrated_pages : int;
  o_events : int;
  o_sim_us : float;
  o_conserved : bool;
}

let observe t =
  let s = t.stats in
  {
    o_frames = Machine.n_frames t.machine;
    o_touches = s.touches;
    o_faults = s.faults_missing + s.faults_protection + s.faults_cow;
    o_migrate_calls = s.migrate_calls;
    o_migrated_pages = s.migrated_pages;
    o_events = Sim_engine.events_executed t.machine.Machine.engine;
    o_sim_us = Machine.now t.machine;
    o_conserved = audit t;
  }

(* The cursor is advanced before the migrate: its charge can block, and a
   second manager filling from the same source meanwhile must not pick
   the same slot. *)
let initial_source ?(budget = max_int) t =
  let next = ref 0 and granted_total = ref 0 in
  fun ~dst ~dst_page ~count ->
    let init = segment t t.init_seg in
    let count = min count (budget - !granted_total) in
    let granted = ref 0 in
    while !granted < count && !next < Seg.length init do
      let slot = !next in
      incr next;
      if (Seg.page init slot).Seg.frame <> None then begin
        migrate_pages t ~src:t.init_seg ~dst ~src_page:slot ~dst_page:(dst_page + !granted)
          ~count:1 ();
        incr granted
      end
    done;
    granted_total := !granted_total + !granted;
    !granted

(* The one free-frame walk. It counts the frames it passes (of [tier])
   and stops at the initial segment's resident counter for that scope:
   past it no free frame is left, so a tier with none answers without
   visiting a slot. The counters are exact ([audit]). *)
let initial_slots ?tier ?filter t ~limit =
  let init = segment t t.init_seg in
  let mem = t.machine.Machine.mem in
  let present =
    match tier with
    | None -> init.Seg.resident
    | Some k when k >= 0 && k < Array.length init.Seg.resident_by_tier ->
        init.Seg.resident_by_tier.(k)
    | Some _ -> 0
  in
  let acc = ref [] and found = ref 0 and seen = ref 0 and i = ref 0 in
  while !found < limit && !seen < present do
    (match (Seg.page init !i).Seg.frame with
    | Some f when (match tier with None -> true | Some k -> Phys.tier_of_frame mem f = k) ->
        incr seen;
        if match filter with None -> true | Some keep -> keep f then begin
          acc := !i :: !acc;
          incr found
        end
    | Some _ | None -> ());
    incr i
  done;
  List.rev !acc

let render_address_space t sid =
  let seg = segment t sid in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "Virtual Address Space Segment %d (%S), %d pages\n" sid seg.Seg.sname
       (Seg.length seg));
  let bindings = Seg.bindings_list seg in
  List.iter
    (fun b ->
      let tgt = segment t b.Seg.target in
      Buffer.add_string buf
        (Printf.sprintf "  pages [%5d..%5d) --%s--> segment %d (%S) pages [%d..%d)\n" b.Seg.at
           (b.Seg.at + b.Seg.len)
           (if b.Seg.cow then "cow" else "bind")
           b.Seg.target tgt.Seg.sname b.Seg.target_page
           (b.Seg.target_page + b.Seg.len)))
    bindings;
  Buffer.add_string buf
    (Printf.sprintf "  private resident pages: %d\n" (Seg.resident_pages seg));
  Buffer.contents buf
