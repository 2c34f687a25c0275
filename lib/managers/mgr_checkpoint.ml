module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags

type generation = int

type seg_state = {
  mutable open_gen : generation option;
  (* (generation, page) -> image at snapshot time. An entry exists for
     every page resident at begin_checkpoint; pages the mutator dirties
     get their saved copy, the rest are materialised lazily at read time
     from current contents once the generation closes untouched — so we
     store Snapshot_ref until a write happens. *)
  images : (generation * int, Hw_page_data.t) Hashtbl.t;
  (* pages still protected under the open generation *)
  protected_pages : (int, unit) Hashtbl.t;
}

type t = {
  kern : K.t;
  mutable mid : Mgr.id;
  pool : Mgr_free_pages.t;
  source : Mgr_generic.source;
  backing : Mgr_backing.t option;
  segs : (Seg.id, seg_state) Hashtbl.t;
  mutable next_gen : generation;
  mutable preserved : int;
  mutable ckpt_faults : int;
  mutable durable_writes : int;
  mutable durable_failures : int;
}

let state t seg =
  match Hashtbl.find_opt t.segs seg with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Mgr_checkpoint: unmanaged segment %d" seg)

let frame_data t seg page =
  let s = K.segment t.kern seg in
  match (Seg.page s page).Seg.frame with
  | Some f -> Some (Hw_phys_mem.data (K.machine t.kern).Hw_machine.mem f)
  | None -> None

let on_fault t (fault : Mgr.fault) =
  Mgr_generic.charge_fault_logic t.kern;
  match fault.Mgr.f_kind with
  | Mgr.Missing | Mgr.Cow_write ->
      Mgr_generic.need_frame t.pool ~source:t.source ~who:"Mgr_checkpoint";
      Mgr_free_pages.hand_out t.pool ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page ~count:1
        ~clear_flags:Flags.dirty ()
  | Mgr.Protection -> (
      let st = state t fault.Mgr.f_seg in
      match st.open_gen with
      | Some gen when Hashtbl.mem st.protected_pages fault.Mgr.f_page ->
          (* First write under the open checkpoint: preserve the old
             image, then let the mutator through. *)
          t.ckpt_faults <- t.ckpt_faults + 1;
          (match frame_data t fault.Mgr.f_seg fault.Mgr.f_page with
          | Some data ->
              Hashtbl.replace st.images (gen, fault.Mgr.f_page) data;
              t.preserved <- t.preserved + 1;
              (* The preserving copy costs one page copy. *)
              let machine = K.machine t.kern in
              Hw_machine.charge ~label:"mgr/copy_page" machine
                machine.Hw_machine.cost.Hw_cost.copy_page
          | None -> ());
          Hashtbl.remove st.protected_pages fault.Mgr.f_page;
          K.modify_page_flags t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:1
            ~clear_flags:Flags.read_only ()
      | Some _ | None -> Mgr_generic.unprotect t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page)

let create kern ?backing ~source ~pool_capacity () =
  let t =
    {
      kern;
      mid = -1;
      pool = Mgr_free_pages.create kern ~name:"checkpoint.free-pages" ~capacity:pool_capacity;
      source;
      backing;
      segs = Hashtbl.create 8;
      next_gen = 1;
      preserved = 0;
      ckpt_faults = 0;
      durable_writes = 0;
      durable_failures = 0;
    }
  in
  t.mid <-
    K.register_manager kern ~name:"checkpoint-manager" ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f)
      ();
  t

let create_segment t ~name ~pages =
  let seg = K.create_segment t.kern ~name ~pages () in
  Hashtbl.replace t.segs seg
    { open_gen = None; images = Hashtbl.create 64; protected_pages = Hashtbl.create 64 };
  K.set_segment_manager t.kern seg t.mid;
  seg

let begin_checkpoint t ~seg =
  let st = state t seg in
  (match st.open_gen with
  | Some g -> invalid_arg (Printf.sprintf "Mgr_checkpoint: generation %d still open" g)
  | None -> ());
  let gen = t.next_gen in
  t.next_gen <- t.next_gen + 1;
  st.open_gen <- Some gen;
  let s = K.segment t.kern seg in
  (* Protect contiguous resident runs with one ModifyPageFlags each: the
     snapshot sweep is a handful of kernel calls, not one per page. *)
  let page = ref 0 in
  let len = Seg.length s in
  while !page < len do
    if (Seg.page s !page).Seg.frame = None then incr page
    else begin
      let start = !page in
      while !page < len && (Seg.page s !page).Seg.frame <> None do
        Hashtbl.replace st.protected_pages !page ();
        incr page
      done;
      K.modify_page_flags t.kern ~seg ~page:start ~count:(!page - start)
        ~set_flags:Flags.read_only ()
    end
  done;
  gen

let durable_file ~seg ~generation = (seg * 4096) + generation

(* Closing a generation pushes its images to the backing store, page order,
   one write per image. A write that exhausts its retry budget costs the
   image its durability, nothing more: it stays readable in memory and the
   loss is counted, so the checkpoint still closes. *)
let persist_generation t ~seg ~gen =
  match t.backing with
  | None -> ()
  | Some backing ->
      let st = state t seg in
      let pages =
        Hashtbl.fold (fun (g, p) _ acc -> if g = gen then p :: acc else acc) st.images []
        |> List.sort compare
      in
      List.iter
        (fun page ->
          let data = Hashtbl.find st.images (gen, page) in
          try
            Mgr_backing.write_block backing ~file:(durable_file ~seg ~generation:gen)
              ~block:page data;
            t.durable_writes <- t.durable_writes + 1
          with Mgr_backing.Backing_failed _ ->
            t.durable_failures <- t.durable_failures + 1)
        pages

let end_checkpoint t ~seg =
  let st = state t seg in
  match st.open_gen with
  | None -> ()
  | Some gen ->
      (* Pages never written keep their snapshot image implicitly; freeze
         their current contents into the store so later generations cannot
         disturb the record, then unprotect contiguous runs in batches. *)
      let pages =
        Hashtbl.fold (fun page () acc -> page :: acc) st.protected_pages []
        |> List.sort compare
      in
      List.iter
        (fun page ->
          match frame_data t seg page with
          | Some data -> Hashtbl.replace st.images (gen, page) data
          | None -> ())
        pages;
      let rec unprotect_runs = function
        | [] -> ()
        | start :: _ as l ->
            let rec run prev = function
              | next :: rest when next = prev + 1 -> run next rest
              | rest -> (prev, rest)
            in
            let last, rest = run start (List.tl l) in
            K.modify_page_flags t.kern ~seg ~page:start ~count:(last - start + 1)
              ~clear_flags:Flags.read_only ();
            unprotect_runs rest
      in
      unprotect_runs pages;
      Hashtbl.reset st.protected_pages;
      st.open_gen <- None;
      persist_generation t ~seg ~gen

let read_checkpoint t ~seg ~generation ~page =
  let st = state t seg in
  match Hashtbl.find_opt st.images (generation, page) with
  | Some data -> data
  | None -> (
      (* Open generation, page not yet written: the snapshot image is the
         current contents. *)
      match st.open_gen with
      | Some g when g = generation && Hashtbl.mem st.protected_pages page -> (
          match frame_data t seg page with Some d -> d | None -> raise Not_found)
      | Some _ | None -> raise Not_found)

let pages_preserved t = t.preserved
let checkpoint_faults t = t.ckpt_faults
let durable_writes t = t.durable_writes
let durable_failures t = t.durable_failures
