module K = Epcm_kernel
module G = Mgr_generic
module Seg = Epcm_segment

type index_id = int

type index_info = {
  ix_id : index_id;
  ix_seg : Seg.id;
  ix_pages : int;
  mutable ix_resident : bool;
  mutable ix_last_used : float;
}

type t = {
  gen : G.t;
  indices : (index_id, index_info) Hashtbl.t;
  mutable next_index : int;
  mutable next_file : int;
  mutable page_in_events : int;
  mutable regenerations : int;
}

let create kernel ?disk ?(name = "dbms-manager") ~source ~pool_capacity () =
  let disk = Option.value disk ~default:(K.machine kernel).Hw_machine.disk in
  let backing = Mgr_backing.disk disk ~page_bytes:(Hw_machine.page_size (K.machine kernel)) in
  let gen = G.create kernel ~name ~mode:`In_process ~backing ~source ~pool_capacity () in
  {
    gen;
    indices = Hashtbl.create 32;
    next_index = 1;
    next_file = 0;
    page_in_events = 0;
    regenerations = 0;
  }

let generic t = t.gen

(* Populate a whole segment from pooled frames with locally generated data
   (no backing-store traffic). Used for relation preload and index
   builds. *)
let populate t seg ~pages ~file_tag =
  let pool = G.pool t.gen in
  for page = 0 to pages - 1 do
    G.ensure_pool t.gen ~count:1;
    Mgr_free_pages.hand_out pool
      ~data:(Hw_page_data.block ~file:file_tag ~block:page ~version:1)
      ~dst:seg ~dst_page:page ~count:1 ~clear_flags:Epcm_flags.dirty ()
  done

(* Relations get sequential backing-file ids per instance. (The historic
   [1000 + pages] scheme gave two same-sized relations the same file —
   harmless while relations are pinned and never refilled, but a trap for
   any manager instance whose relations ever page.) *)
let create_relation t ~name ~pages =
  let file_id = 1000 + t.next_file in
  t.next_file <- t.next_file + 1;
  let seg =
    G.create_segment t.gen ~name ~pages ~kind:(G.File { file_id }) ~high_water:pages ()
  in
  populate t seg ~pages ~file_tag:seg;
  G.pin t.gen ~seg ~page:0 ~count:pages;
  seg

let index_info t id =
  match Hashtbl.find_opt t.indices id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Mgr_dbms: no index %d" id)

let create_index t ~name ~pages ?(resident = true) () =
  let id = t.next_index in
  t.next_index <- t.next_index + 1;
  let seg =
    G.create_segment t.gen ~name ~pages ~kind:(G.File { file_id = 2000 + id }) ~high_water:pages ()
  in
  let info = { ix_id = id; ix_seg = seg; ix_pages = pages; ix_resident = false; ix_last_used = 0.0 } in
  Hashtbl.replace t.indices id info;
  if resident then begin
    populate t seg ~pages ~file_tag:(2000 + id);
    info.ix_resident <- true
  end;
  id

let index_segment t id = (index_info t id).ix_seg
let index_resident t id = (index_info t id).ix_resident

let resident_index_pages t =
  Hashtbl.fold (fun _ i acc -> if i.ix_resident then acc + i.ix_pages else acc) t.indices 0

let note_index_use t id ~now = (index_info t id).ix_last_used <- now

let touch_index t id ~pages =
  let info = index_info t id in
  List.iter
    (fun page -> K.touch (G.kernel t.gen) ~space:info.ix_seg ~page ~access:Epcm_manager.Read)
    pages

let load_index_from_disk t id =
  let info = index_info t id in
  t.page_in_events <- t.page_in_events + 1;
  for page = 0 to info.ix_pages - 1 do
    K.touch (G.kernel t.gen) ~space:info.ix_seg ~page ~access:Epcm_manager.Read
  done;
  info.ix_resident <- true

let regenerate_index t id =
  let info = index_info t id in
  t.regenerations <- t.regenerations + 1;
  populate t info.ix_seg ~pages:info.ix_pages ~file_tag:(2000 + id);
  info.ix_resident <- true

let evict_index t id =
  let info = index_info t id in
  if info.ix_resident then begin
    let pool = G.pool t.gen in
    (* Keep the pool from overflowing across load/evict cycles: surplus
       frames go back to the system (the initial segment). *)
    if Mgr_free_pages.room pool < info.ix_pages then
      ignore
        (Mgr_free_pages.release_to_initial pool
           ~count:(info.ix_pages - Mgr_free_pages.room pool));
    let seg = K.segment (G.kernel t.gen) info.ix_seg in
    for page = 0 to info.ix_pages - 1 do
      if (Seg.page seg page).Seg.frame <> None then
        Mgr_free_pages.put_from pool ~src:info.ix_seg ~src_page:page
    done;
    info.ix_resident <- false
  end

let evict_lru_index t ~except =
  let candidate =
    Hashtbl.fold
      (fun id info best ->
        if (not info.ix_resident) || Some id = except then best
        else
          match best with
          | Some b when (index_info t b).ix_last_used <= info.ix_last_used -> best
          | _ -> Some id)
      t.indices None
  in
  (match candidate with Some id -> evict_index t id | None -> ());
  candidate

let page_in_events t = t.page_in_events
let regenerations t = t.regenerations
