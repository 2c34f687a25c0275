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

let ensure_pool t n =
  if Mgr_free_pages.available t.pool < n then begin
    match Mgr_free_pages.grant_slot t.pool with
    | None -> ()
    | Some slot ->
        let got =
          t.source ~dst:(Mgr_free_pages.segment t.pool) ~dst_page:slot
            ~count:(max n (min 32 (Mgr_free_pages.room t.pool)))
        in
        Mgr_free_pages.note_granted t.pool got
  end;
  if Mgr_free_pages.available t.pool < n then
    raise (Mgr_generic.Out_of_frames "Mgr_gc: no frames")

let on_fault t (fault : Mgr.fault) =
  let machine = K.machine t.kern in
  Hw_machine.charge ~label:"mgr/fault_logic" machine machine.Hw_machine.cost.Hw_cost.manager_fault_logic;
  match fault.Mgr.f_kind with
  | Mgr.Missing | Mgr.Cow_write ->
      let key = (fault.Mgr.f_seg, fault.Mgr.f_page) in
      ensure_pool t 1;
      (* A page that was evicted conventionally comes back from swap;
         garbage pages never do (the collector reallocates them fresh —
         and, within one protection domain, without zero-fill). *)
      if
        (not (Hashtbl.mem t.garbage key))
        && Mgr_backing.has_block t.backing ~file:(-fault.Mgr.f_seg) ~block:fault.Mgr.f_page
      then
        Mgr_free_pages.set_next_data t.pool
          (Mgr_backing.read_block t.backing ~file:(-fault.Mgr.f_seg) ~block:fault.Mgr.f_page);
      Hashtbl.remove t.garbage key;
      let moved =
        Mgr_free_pages.take_to t.pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
          ~clear_flags:Flags.dirty ()
      in
      assert (moved = 1)
  | Mgr.Protection ->
      K.modify_page_flags t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:1
        ~clear_flags:(Flags.of_list [ Flags.no_access; Flags.read_only ])
        ()

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

let room_or_release t =
  if Mgr_free_pages.room t.pool = 0 then
    ignore (Mgr_free_pages.release_to_initial t.pool ~count:16)

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
          room_or_release t;
          Mgr_free_pages.put_from t.pool ~src:seg ~src_page:page;
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
          room_or_release t;
          Mgr_free_pages.put_from t.pool ~src:seg ~src_page:p;
          incr reclaimed
    end
  done;
  !reclaimed

let should_collect (_ : t) ~live_pages ~budget_pages =
  float_of_int live_pages >= 0.75 *. float_of_int budget_pages

let writebacks_avoided t = t.avoided_writebacks
