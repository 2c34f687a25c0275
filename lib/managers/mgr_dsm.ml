module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags

type page_state = Invalid | Shared | Exclusive

type t = {
  kern : K.t;
  mutable mid : Mgr.id;
  pool : Mgr_free_pages.t;
  source : Mgr_generic.source;
  n_nodes : int;
  n_pages : int;
  net_latency_us : float;
  mutable node_segs : Seg.id array;
  seg_to_node : (Seg.id, int) Hashtbl.t;
  (* page -> per-node state *)
  states : page_state array array;  (* states.(node).(page) *)
  home : (int, Hw_page_data.t) Hashtbl.t;  (* authoritative data when nobody is Exclusive *)
  mutable transfers : int;
  mutable invalidations : int;
  mutable downgrades : int;
  serving : Sim_sync.Semaphore.t;
}

let state t ~node ~page = t.states.(node).(page)

(* The first node from [n] on whose copy of [page] is in state [st], or
   -1. The coherence steps loop over node indices, so they build no list
   and no closure. *)
let rec first_in t ~page st n =
  if n >= t.n_nodes then -1 else if t.states.(n).(page) = st then n else first_in t ~page st (n + 1)

let holders t ~page =
  let rec from n =
    if n >= t.n_nodes then []
    else if t.states.(n).(page) <> Invalid then n :: from (n + 1)
    else from (n + 1)
  in
  from 0

let charge_net t messages =
  Hw_machine.charge ~label:"dsm/net" (K.machine t.kern)
    (float_of_int messages *. t.net_latency_us)

(* Non-coherence traffic (e.g. two-phase-commit control messages riding
   the same interconnect) charges the identical per-message latency. *)
let charge_messages t ~messages = charge_net t messages

let charge_copy t =
  Hw_machine.charge ~label:"dsm/copy_page" (K.machine t.kern)
    (K.machine t.kern).Hw_machine.cost.Hw_cost.copy_page

let frame_data t seg page =
  let s = K.segment t.kern seg in
  match (Seg.page s page).Seg.frame with
  | Some f -> Hw_phys_mem.data (K.machine t.kern).Hw_machine.mem f
  | None -> Hw_page_data.Zero

(* Current authoritative contents of a page. *)
let latest_data t ~page =
  let n = first_in t ~page Exclusive 0 in
  let n = if n >= 0 then n else first_in t ~page Shared 0 in
  if n >= 0 then frame_data t t.node_segs.(n) page
  else match Hashtbl.find_opt t.home page with Some d -> d | None -> Hw_page_data.Zero

(* Take a node's copy away (writing an Exclusive copy home first). *)
let revoke t ~node ~page =
  match t.states.(node).(page) with
  | Invalid -> ()
  | Shared | Exclusive ->
      if t.states.(node).(page) = Exclusive then
        Hashtbl.replace t.home page (frame_data t t.node_segs.(node) page);
      Mgr_free_pages.put_spill t.pool ~spill:16 ~src:t.node_segs.(node) ~src_page:page;
      t.states.(node).(page) <- Invalid;
      t.invalidations <- t.invalidations + 1;
      charge_net t 1 (* the invalidation message *)

let revoke_others t ~node ~page =
  for n = 0 to t.n_nodes - 1 do
    if n <> node then revoke t ~node:n ~page
  done

(* Exclusive holder keeps its copy but drops to Shared (read-only). *)
let downgrade t ~node ~page =
  if t.states.(node).(page) = Exclusive then begin
    Hashtbl.replace t.home page (frame_data t t.node_segs.(node) page);
    K.modify_page_flags t.kern ~seg:t.node_segs.(node) ~page ~count:1
      ~set_flags:Flags.read_only ~clear_flags:Flags.dirty ();
    t.states.(node).(page) <- Shared;
    t.downgrades <- t.downgrades + 1;
    charge_net t 1
  end

(* Install a copy at a node with the given rights. *)
let install t ~node ~page ~exclusive =
  let data = latest_data t ~page in
  Mgr_generic.need_frame t.pool ~source:t.source ~who:"Mgr_dsm";
  (* Request + data reply across the interconnect, then the local copy. *)
  charge_net t 2;
  t.transfers <- t.transfers + 1;
  charge_copy t;
  let flags_clear = Flags.of_list [ Flags.dirty; Flags.no_access ] in
  let set_flags = if exclusive then Flags.empty else Flags.read_only in
  Mgr_free_pages.hand_out t.pool ~data ~dst:t.node_segs.(node) ~dst_page:page ~count:1 ~set_flags
    ~clear_flags:(if exclusive then Flags.union flags_clear Flags.read_only else flags_clear)
    ();
  t.states.(node).(page) <- (if exclusive then Exclusive else Shared)

let acquire_shared t ~node ~page =
  if t.states.(node).(page) = Invalid then begin
    (* Any Exclusive holder drops to Shared, publishing its data. *)
    for n = 0 to t.n_nodes - 1 do
      if n <> node then downgrade t ~node:n ~page
    done;
    install t ~node ~page ~exclusive:false
  end

let acquire_exclusive t ~node ~page =
  match t.states.(node).(page) with
  | Exclusive -> ()
  | Shared ->
      (* Upgrade: invalidate the other copies, raise our rights. *)
      revoke_others t ~node ~page;
      K.modify_page_flags t.kern ~seg:t.node_segs.(node) ~page ~count:1
        ~clear_flags:Flags.read_only ();
      t.states.(node).(page) <- Exclusive
  | Invalid ->
      revoke_others t ~node ~page;
      install t ~node ~page ~exclusive:true

let on_fault t (fault : Mgr.fault) =
  Mgr_generic.charge_fault_logic t.kern;
  match Hashtbl.find_opt t.seg_to_node fault.Mgr.f_seg with
  | None -> ()
  | Some node -> (
      match (fault.Mgr.f_kind, fault.Mgr.f_access) with
      | Mgr.Missing, Mgr.Read -> acquire_shared t ~node ~page:fault.Mgr.f_page
      | Mgr.Missing, Mgr.Write -> acquire_exclusive t ~node ~page:fault.Mgr.f_page
      | Mgr.Protection, Mgr.Write -> acquire_exclusive t ~node ~page:fault.Mgr.f_page
      | Mgr.Protection, Mgr.Read ->
          K.modify_page_flags t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page ~count:1
            ~clear_flags:Flags.no_access ()
      | Mgr.Cow_write, _ -> acquire_exclusive t ~node ~page:fault.Mgr.f_page)

let create kern ?(name = "dsm-manager") ~source ~nodes ~pages ?(net_latency_us = 1000.0) () =
  if nodes < 1 then invalid_arg "Mgr_dsm.create: need at least one node";
  (* Keep the historical pool/segment names for the default instance. *)
  let seg_prefix = if name = "dsm-manager" then "dsm" else name in
  let t =
    {
      kern;
      mid = -1;
      pool =
        Mgr_free_pages.create kern ~name:(seg_prefix ^ ".free-pages")
          ~capacity:(max 64 (nodes * pages));
      source;
      n_nodes = nodes;
      n_pages = pages;
      net_latency_us;
      node_segs = [||];
      seg_to_node = Hashtbl.create 8;
      states = Array.init nodes (fun _ -> Array.make pages Invalid);
      home = Hashtbl.create 64;
      transfers = 0;
      invalidations = 0;
      downgrades = 0;
      serving = Sim_sync.Semaphore.create 1;
    }
  in
  t.mid <-
    K.register_manager kern ~name ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f)
      ();
  t.node_segs <-
    Array.init nodes (fun n ->
        let seg = K.create_segment kern ~name:(Printf.sprintf "%s-node-%d" seg_prefix n) ~pages () in
        K.set_segment_manager kern seg t.mid;
        Hashtbl.replace t.seg_to_node seg n;
        seg);
  t

(* A coherence step charges interconnect time, so a process can block
   mid-protocol: between granting a pool slot and filling it, or between
   the fault that installs a copy and the read of that copy. Accesses
   therefore serialise on [serving], fault handling included (it runs
   inside the access's touch); an uncontended access never blocks. *)
let serialised t f = Sim_sync.Semaphore.use t.serving f

let read t ~node ~page =
  serialised t (fun () ->
      K.touch t.kern ~space:t.node_segs.(node) ~page ~access:Mgr.Read;
      K.uio_read t.kern ~seg:t.node_segs.(node) ~page)

let write t ~node ~page data =
  serialised t (fun () ->
      K.touch t.kern ~space:t.node_segs.(node) ~page ~access:Mgr.Write;
      K.uio_write t.kern ~seg:t.node_segs.(node) ~page data)

let transfers t = t.transfers
let invalidations t = t.invalidations
let downgrades t = t.downgrades
