module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags

type t = {
  kern : K.t;
  mutable mid : Mgr.id;
  pool : Mgr_free_pages.t;
  source : Mgr_generic.source;
  backing : Mgr_backing.t;
  garbage : (Seg.id * int, unit) Hashtbl.t;
  mutable avoided_writebacks : int;
}

let on_fault t (fault : Mgr.fault) =
  Mgr_generic.charge_fault_logic t.kern;
  match fault.Mgr.f_kind with
  | Mgr.Missing | Mgr.Cow_write ->
      let key = (fault.Mgr.f_seg, fault.Mgr.f_page) in
      Mgr_generic.need_frame t.pool ~source:t.source ~who:"Mgr_gc";
      (* A page that was evicted conventionally comes back from swap;
         garbage pages never do (the collector reallocates them fresh —
         and, within one protection domain, without zero-fill). *)
      let data =
        if
          (not (Hashtbl.mem t.garbage key))
          && Mgr_backing.has_block t.backing ~file:(-fault.Mgr.f_seg) ~block:fault.Mgr.f_page
        then
          Some (Mgr_backing.read_block t.backing ~file:(-fault.Mgr.f_seg) ~block:fault.Mgr.f_page)
        else None
      in
      Hashtbl.remove t.garbage key;
      Mgr_free_pages.hand_out t.pool ?data ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
        ~clear_flags:Flags.dirty ()
  | Mgr.Protection -> Mgr_generic.unprotect t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page

let create kern ?disk ~source ~pool_capacity () =
  let disk = Option.value disk ~default:(K.machine kern).Hw_machine.disk in
  let t =
    {
      kern;
      mid = -1;
      pool = Mgr_free_pages.create kern ~name:"gc.free-pages" ~capacity:pool_capacity;
      source;
      backing = Mgr_backing.disk disk ~page_bytes:(Hw_machine.page_size (K.machine kern));
      garbage = Hashtbl.create 256;
      avoided_writebacks = 0;
    }
  in
  t.mid <-
    K.register_manager kern ~name:"gc-manager" ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f)
      ();
  t

let create_heap t ~name ~pages =
  let seg = K.create_segment t.kern ~name ~pages () in
  K.set_segment_manager t.kern seg t.mid;
  seg

let declare_garbage t ~seg ~page ~count =
  for p = page to page + count - 1 do
    Hashtbl.replace t.garbage (seg, p) ()
  done

let reclaim_garbage t ~seg =
  let s = K.segment t.kern seg in
  let reclaimed = ref 0 in
  for page = 0 to Seg.length s - 1 do
    if Hashtbl.mem t.garbage (seg, page) then begin
      let slot = Seg.page s page in
      match slot.Seg.frame with
      | None -> ()
      | Some _ ->
          let was_dirty = Flags.mem slot.Seg.flags Flags.dirty in
          Mgr_free_pages.put_spill t.pool ~spill:16 ~src:seg ~src_page:page;
          if was_dirty then t.avoided_writebacks <- t.avoided_writebacks + 1;
          incr reclaimed
    end
  done;
  !reclaimed

let evict_conventional t ~seg ~page ~count =
  let s = K.segment t.kern seg in
  let reclaimed = ref 0 in
  for p = page to page + count - 1 do
    if Seg.in_range s p then begin
      let slot = Seg.page s p in
      match slot.Seg.frame with
      | None -> ()
      | Some frame ->
          (if Flags.mem slot.Seg.flags Flags.dirty then
             let data = Hw_phys_mem.data (K.machine t.kern).Hw_machine.mem frame in
             Mgr_backing.write_block t.backing ~file:(-seg) ~block:p data);
          Mgr_free_pages.put_spill t.pool ~spill:16 ~src:seg ~src_page:p;
          incr reclaimed
    end
  done;
  !reclaimed

let should_collect (_ : t) ~live_pages ~budget_pages =
  float_of_int live_pages >= 0.75 *. float_of_int budget_pages

let writebacks_avoided t = t.avoided_writebacks
