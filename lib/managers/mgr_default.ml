module K = Epcm_kernel
module G = Mgr_generic

type t = {
  gen : G.t;
  files : (int, Epcm_segment.id) Hashtbl.t;  (* file id -> cached segment *)
  mutable closes : int;
  mutable admin_calls : int;
}

(* The paper: "the V++ default manager allocates pages in 4K units, except
   for appends to a file in which case it allocates pages in 16K units". *)
let append_batch_pages = 4

let hooks ~backing =
  let default = G.default_hooks ~backing in
  {
    default with
    G.batch_of =
      (fun ~seg:_ ~page ~kind ~high_water ->
        match kind with
        | G.File _ when page >= high_water -> append_batch_pages
        | G.File _ | G.Anon -> 1);
  }

let create kernel ?backing ?source ?(pool_capacity = 4096) () =
  let backing = match backing with Some b -> b | None -> Mgr_backing.memory () in
  let gen =
    G.create kernel ~name:"ucds.default-manager" ~mode:`Separate_process ~backing
      ?source ~hooks:(hooks ~backing) ~pool_capacity ()
  in
  { gen; files = Hashtbl.create 32; closes = 0; admin_calls = 0 }

let generic t = t.gen
let manager_id t = G.manager_id t.gen

let preload_file t seg ~file_id ~size_pages =
  let pool = G.pool t.gen in
  for page = 0 to size_pages - 1 do
    G.ensure_pool t.gen ~count:1;
    let data = Mgr_backing.read_block (G.backing t.gen) ~file:file_id ~block:page in
    Mgr_free_pages.hand_out pool ~data ~dst:seg ~dst_page:page ~count:1
      ~clear_flags:Epcm_flags.dirty ()
  done

let open_file t ~file_id ~size_pages ?(preload = false) ?(empty = false) () =
  match Hashtbl.find_opt t.files file_id with
  | Some seg -> seg
  | None ->
      (* A newly created file has no valid data on backing store: its
         high-water mark is 0, so writes past it are appends (allocated in
         16KB batches, never filled from backing). *)
      let high_water = if empty then 0 else size_pages in
      let seg =
        G.create_segment t.gen
          ~name:(Printf.sprintf "file-%d" file_id)
          ~pages:size_pages ~kind:(G.File { file_id }) ~high_water ()
      in
      Hashtbl.replace t.files file_id seg;
      if preload then preload_file t seg ~file_id ~size_pages;
      seg

let file_segment t ~file_id = Hashtbl.find_opt t.files file_id

(* One forwarded request to the manager server: IPC round trip. *)
let charge_rpc t =
  let machine = K.machine (G.kernel t.gen) in
  let c = machine.Hw_machine.cost in
  Hw_machine.charge ~label:"mgr/rpc" machine
    (c.Hw_cost.ipc_send +. c.Hw_cost.context_switch +. c.Hw_cost.manager_server_dispatch
   +. c.Hw_cost.ipc_reply +. c.Hw_cost.context_switch)

let admin_call ?(requests = 1) t =
  for _ = 1 to requests do
    t.admin_calls <- t.admin_calls + 1;
    charge_rpc t
  done

let close_file t seg =
  ignore seg;
  t.closes <- t.closes + 1;
  charge_rpc t

(* UCDS keeps files cached across close and writes dirty data back lazily;
   [flush_file] forces the writeback. *)
let flush_file t seg =
  let kern = G.kernel t.gen in
  let s = K.segment kern seg in
  let backing = G.backing t.gen in
  let file_id =
    Hashtbl.fold (fun fid fseg acc -> if fseg = seg then Some fid else acc) t.files None
  in
  match file_id with
  | None -> ()
  | Some fid ->
      Array.iteri
        (fun page slot ->
          match slot.Epcm_segment.frame with
          | Some frame when Epcm_flags.mem slot.Epcm_segment.flags Epcm_flags.dirty -> (
              let data = Hw_phys_mem.data (K.machine kern).Hw_machine.mem frame in
              (* The dirty bit only clears once the block is durably out;
                 a failed write leaves it set so the next flush retries. *)
              try
                Mgr_backing.write_block backing ~file:fid ~block:page data;
                K.modify_page_flags kern ~seg ~page ~count:1 ~clear_flags:Epcm_flags.dirty ()
              with Mgr_backing.Backing_failed _ -> ())
          | Some _ | None -> ())
        s.Epcm_segment.pages

let create_heap t ~name ~pages = G.create_segment t.gen ~name ~pages ~kind:G.Anon ()

let closes t = t.closes

let total_manager_calls t =
  K.manager_calls_of (G.kernel t.gen) (G.manager_id t.gen) + t.closes + t.admin_calls
