module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags

type config = {
  compress_us : float;
  decompress_us : float;
  compression_ratio : float;
  budget_pages : float;
}

let default_config =
  { compress_us = 500.0; decompress_us = 300.0; compression_ratio = 0.4; budget_pages = 64.0 }

type entry = { e_data : Hw_page_data.t; e_seq : int }

type t = {
  kern : K.t;
  mutable mid : Mgr.id;
  pool : Mgr_free_pages.t;
  source : Mgr_generic.source;
  cfg : config;
  backing : Mgr_backing.t;  (* the disk level below the compressed cache *)
  store : (Seg.id * int, entry) Hashtbl.t;
  mutable seq : int;
  mutable compressions : int;
  mutable decompressions : int;
  mutable spills : int;
  mutable disk_fills : int;
}

let charge ?label t us = Hw_machine.charge ?label (K.machine t.kern) us

let pool_page_equivalents t =
  float_of_int (Hashtbl.length t.store) *. t.cfg.compression_ratio

(* Spill the oldest compressed entries to disk until within budget. *)
let enforce_budget t =
  while pool_page_equivalents t > t.cfg.budget_pages do
    let oldest =
      Hashtbl.fold
        (fun key e best ->
          match best with
          | Some (_, be) when be.e_seq <= e.e_seq -> best
          | _ -> Some (key, e))
        t.store None
    in
    match oldest with
    | None -> ()
    | Some (((seg, page) as key), e) ->
        Hashtbl.remove t.store key;
        Mgr_backing.write_block t.backing ~file:(-seg) ~block:page e.e_data;
        t.spills <- t.spills + 1
  done

(* The compressed-store backend interface: stash compresses data in under
   (seg, page); fetch decompresses it back out (falling through to the
   spill area on disk); has reports whether either level holds the page.
   [on_fault] below and {!Mgr_tiered}'s coldest tier both sit on these. *)

let stash t ~seg ~page data =
  t.compressions <- t.compressions + 1;
  t.seq <- t.seq + 1;
  charge ~label:"mgr/compress" t t.cfg.compress_us;
  Hashtbl.replace t.store (seg, page) { e_data = data; e_seq = t.seq };
  enforce_budget t

let fetch t ~seg ~page =
  match Hashtbl.find_opt t.store (seg, page) with
  | Some e ->
      (* Decompression beats the disk by two orders of magnitude. *)
      t.decompressions <- t.decompressions + 1;
      charge ~label:"mgr/decompress" t t.cfg.decompress_us;
      Hashtbl.remove t.store (seg, page);
      Some e.e_data
  | None ->
      if Mgr_backing.has_block t.backing ~file:(-seg) ~block:page then begin
        t.disk_fills <- t.disk_fills + 1;
        Some (Mgr_backing.read_block t.backing ~file:(-seg) ~block:page)
      end
      else None

let has t ~seg ~page =
  Hashtbl.mem t.store (seg, page) || Mgr_backing.has_block t.backing ~file:(-seg) ~block:page

let on_fault t (fault : Mgr.fault) =
  Mgr_generic.charge_fault_logic t.kern;
  match fault.Mgr.f_kind with
  | Mgr.Missing | Mgr.Cow_write ->
      Mgr_generic.need_frame t.pool ~source:t.source ~who:"Mgr_compressed";
      let data = fetch t ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page in
      Mgr_free_pages.hand_out t.pool ?data ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
        ~clear_flags:Flags.dirty ()
  | Mgr.Protection -> Mgr_generic.unprotect t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page

let create kern ?disk ?(config = default_config) ~source ~pool_capacity () =
  let disk = Option.value disk ~default:(K.machine kern).Hw_machine.disk in
  let t =
    {
      kern;
      mid = -1;
      pool = Mgr_free_pages.create kern ~name:"compressed.free-pages" ~capacity:pool_capacity;
      source;
      cfg = config;
      backing = Mgr_backing.disk disk ~page_bytes:(Hw_machine.page_size (K.machine kern));
      store = Hashtbl.create 256;
      seq = 0;
      compressions = 0;
      decompressions = 0;
      spills = 0;
      disk_fills = 0;
    }
  in
  t.mid <-
    K.register_manager kern ~name:"compressed-manager" ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f)
      ();
  t

let create_segment t ~name ~pages =
  let seg = K.create_segment t.kern ~name ~pages () in
  K.set_segment_manager t.kern seg t.mid;
  seg

let evict t ~seg ~page =
  let s = K.segment t.kern seg in
  match (Seg.page s page).Seg.frame with
  | None -> ()
  | Some frame ->
      let data = Hw_phys_mem.data (K.machine t.kern).Hw_machine.mem frame in
      stash t ~seg ~page data;
      Mgr_free_pages.put_spill t.pool ~spill:16 ~src:seg ~src_page:page

let resident t ~seg = Seg.resident_pages (K.segment t.kern seg)
let compressions t = t.compressions
let decompressions t = t.decompressions
let spills t = t.spills
let disk_fills t = t.disk_fills
