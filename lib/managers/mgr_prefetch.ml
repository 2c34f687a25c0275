module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module Engine = Sim_engine
module Gate = Sim_sync.Gate
module Semaphore = Sim_sync.Semaphore

type seg_info = { file_id : int }

type t = {
  kern : K.t;
  mutable mid : Mgr.id;
  pool : Mgr_free_pages.t;
  backing : Mgr_backing.t;
  source : Mgr_generic.source;
  (* The pool is touched from the faulting process and from prefetch
     processes; its multi-step operations must not interleave. *)
  pool_lock : Semaphore.t;
  segs : (Seg.id, seg_info) Hashtbl.t;
  pending : (Seg.id * int, Gate.t) Hashtbl.t;
  mutable prefetches : int;
  mutable demand_fills : int;
  mutable absorbed : int;
  mutable discards : int;
  mutable prefetch_failures : int;
  mutable degraded : int;
}

let info t seg =
  match Hashtbl.find_opt t.segs seg with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Mgr_prefetch: unmanaged segment %d" seg)

let page_absent t seg page =
  let s = K.segment t.kern seg in
  Seg.in_range s page && (Seg.page s page).Seg.frame = None

let with_pool t f = Semaphore.use t.pool_lock f

(* Fill one page: read the block (disk latency), then take a pooled frame
   carrying the data into the slot. The pool lock covers only the pool
   manipulation, not the disk wait. *)
let fill_page t seg page =
  let { file_id } = info t seg in
  let data = Mgr_backing.read_block t.backing ~file:file_id ~block:page in
  with_pool t (fun () ->
      if page_absent t seg page then begin
        Mgr_generic.need_frame t.pool ~source:t.source ~who:"Mgr_prefetch";
        Mgr_free_pages.hand_out t.pool ~data ~dst:seg ~dst_page:page ~count:1
          ~clear_flags:Flags.dirty ()
      end)

let on_fault t (fault : Mgr.fault) =
  Mgr_generic.charge_fault_logic t.kern;
  match fault.Mgr.f_kind with
  | Mgr.Missing -> (
      let key = (fault.Mgr.f_seg, fault.Mgr.f_page) in
      match Hashtbl.find_opt t.pending key with
      | Some gate ->
          (* Read-ahead already in flight: just wait for it. *)
          t.absorbed <- t.absorbed + 1;
          Gate.wait gate;
          (* The prefetch may have died on an injected disk error; the gate
             opens either way. Returning with the page still absent would
             leave the fault unresolved, so degrade to a demand fill. *)
          if page_absent t fault.Mgr.f_seg fault.Mgr.f_page then begin
            t.degraded <- t.degraded + 1;
            fill_page t fault.Mgr.f_seg fault.Mgr.f_page
          end
      | None ->
          t.demand_fills <- t.demand_fills + 1;
          fill_page t fault.Mgr.f_seg fault.Mgr.f_page)
  | Mgr.Protection | Mgr.Cow_write ->
      Mgr_generic.unprotect t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page

let create kern ?disk ?retry ~source ~pool_capacity () =
  let disk = Option.value disk ~default:(K.machine kern).Hw_machine.disk in
  let backing =
    Mgr_backing.disk ?retry disk ~page_bytes:(Hw_machine.page_size (K.machine kern))
  in
  let t =
    {
      kern;
      mid = -1;
      pool = Mgr_free_pages.create kern ~name:"prefetch.free-pages" ~capacity:pool_capacity;
      backing;
      source;
      pool_lock = Semaphore.create 1;
      segs = Hashtbl.create 8;
      pending = Hashtbl.create 64;
      prefetches = 0;
      demand_fills = 0;
      absorbed = 0;
      discards = 0;
      prefetch_failures = 0;
      degraded = 0;
    }
  in
  t.mid <- K.register_manager kern ~name:"prefetch-manager" ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f) ();
  t

let create_file_segment t ~name ~file_id ~pages =
  let seg = K.create_segment t.kern ~name ~pages () in
  Hashtbl.replace t.segs seg { file_id };
  K.set_segment_manager t.kern seg t.mid;
  seg

let finish_prefetch t key gate =
  Hashtbl.remove t.pending key;
  Gate.open_ gate

(* One read-ahead, run as its own process. A forked process has no caller
   to unwind to — an escaped exception would abort the whole simulation —
   so a failed fill is absorbed: the page stays absent and any waiter
   degrades to a demand fill. The gate opens on every exit. *)
let prefetch_one t ~seg ~page key gate =
  match fill_page t seg page with
  | () -> finish_prefetch t key gate
  | exception (Mgr_backing.Backing_failed _ | Mgr_generic.Out_of_frames _) ->
      t.prefetch_failures <- t.prefetch_failures + 1;
      finish_prefetch t key gate
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish_prefetch t key gate;
      Printexc.raise_with_backtrace e bt

let prefetch t ~seg ~page ~count =
  for p = page to page + count - 1 do
    let key = (seg, p) in
    if page_absent t seg p && not (Hashtbl.mem t.pending key) then begin
      let gate = Gate.create () in
      Hashtbl.replace t.pending key gate;
      t.prefetches <- t.prefetches + 1;
      Engine.fork ~name:"prefetch" (fun () -> prefetch_one t ~seg ~page:p key gate)
    end
  done

let discard t ~seg ~page ~count =
  with_pool t (fun () ->
      let s = K.segment t.kern seg in
      for p = page to page + count - 1 do
        if Seg.in_range s p && (Seg.page s p).Seg.frame <> None then begin
          (* Dead data: reclaim the frame with no writeback, even if
             dirty. *)
          Mgr_free_pages.put_spill t.pool ~spill:32 ~src:seg ~src_page:p;
          t.discards <- t.discards + 1
        end
      done)

let resident t ~seg = Seg.resident_pages (K.segment t.kern seg)
let backing t = t.backing
let prefetches_started t = t.prefetches
let demand_fills t = t.demand_fills
let absorbed_faults t = t.absorbed
let discards t = t.discards
let prefetch_failures t = t.prefetch_failures
let degraded_to_demand t = t.degraded
