module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Phys = Hw_phys_mem

type colored_source =
  color:int option -> dst:Epcm_segment.id -> dst_page:int -> count:int -> int

type t = {
  kern : K.t;
  mutable mid : Mgr.id;
  n_colors : int;
  tier : int option;
  pool_seg : Seg.id;
  pool_capacity : int;
  (* free pool slots holding a frame, keyed by frame color *)
  slots_by_color : int list array;
  mutable free_slots : int list;  (* pool slots with no frame *)
  source : colored_source;
  mutable color_misses : int;
}

let manager_id t = t.mid

(* A frame's placement color. Against an attached cache this is the live
   geometry — the set group the frame's physical address actually maps to
   in the cache of its tier ([Hw_cache.color_of]) — so the policy stays
   faithful if the cache's color count ever diverges from the [n_colors]
   the physical memory was built with. Without a cache it falls back to
   [Hw_phys_mem.color], the frame index modulo the memory's colors. *)
let frame_color t frame =
  let machine = K.machine t.kern in
  let mem = machine.Hw_machine.mem in
  let c =
    if Array.length machine.Hw_machine.caches = 0 then Phys.color mem frame
    else
      Hw_cache.color_of
        machine.Hw_machine.caches.(Phys.tier_of_frame mem frame)
        ~phys_addr:(Phys.addr mem frame)
        ~page_bytes:(Hw_machine.page_size machine)
  in
  c mod t.n_colors

(* Placement probe: does the system still hold a free (initial-segment)
   frame of [color], within this manager's tier when it is tier-scoped?
   Served from the physical memory's color arithmetic
   ([Phys.frames_of_color ?tier]) plus the owner tags, so a futile
   refill round-trip to the source is skipped when the answer is no.
   Only exact when the manager's color space matches the memory's;
   otherwise we conservatively answer yes. *)
let color_available t ~color =
  let machine = K.machine t.kern in
  let mem = machine.Hw_machine.mem in
  if t.n_colors <> Phys.n_colors mem then true
  else
    let init = K.initial_segment t.kern in
    List.exists
      (fun f -> Phys.owner mem f = init)
      (Phys.frames_of_color ?tier:t.tier mem color)

(* Pull [count] frames (preferring [color]) from the SPCM into free pool
   slots and index them by their actual color. *)
let refill t ~color ~count =
  let got = ref 0 in
  let continue_ = ref true in
  while !got < count && !continue_ do
    match t.free_slots with
    | [] -> continue_ := false
    | slot :: rest ->
        let granted = t.source ~color ~dst:t.pool_seg ~dst_page:slot ~count:1 in
        if granted = 0 then continue_ := false
        else begin
          t.free_slots <- rest;
          let frame =
            match (Seg.page (K.segment t.kern t.pool_seg) slot).Seg.frame with
            | Some f -> f
            | None -> assert false
          in
          let c = frame_color t frame in
          t.slots_by_color.(c) <- slot :: t.slots_by_color.(c);
          incr got
        end
  done;
  !got

let take_colored t ~color ~dst ~dst_page =
  let try_color c =
    match t.slots_by_color.(c) with
    | [] -> None
    | slot :: rest ->
        t.slots_by_color.(c) <- rest;
        t.free_slots <- slot :: t.free_slots;
        K.migrate_pages t.kern ~src:t.pool_seg ~dst ~src_page:slot ~dst_page ~count:1 ();
        Some ()
  in
  let rec any_color c =
    if c >= t.n_colors then None
    else match try_color c with Some () -> Some () | None -> any_color (c + 1)
  in
  match try_color color with
  | Some () -> true
  | None ->
      if
        color_available t ~color
        && refill t ~color:(Some color) ~count:1 > 0
        && try_color color <> None
      then true
      else begin
        (* No frame of the right color anywhere: the SPCM treats this like
           an oversized request and we take what we can get (paper §2.4). *)
        t.color_misses <- t.color_misses + 1;
        (match any_color 0 with
        | Some () -> ()
        | None ->
            if refill t ~color:None ~count:1 = 0 then
              raise (Mgr_generic.Out_of_frames "Mgr_coloring: no frames at all");
            ignore (any_color 0));
        false
      end

let on_fault t (fault : Mgr.fault) =
  Mgr_generic.charge_fault_logic t.kern;
  match fault.Mgr.f_kind with
  | Mgr.Missing | Mgr.Cow_write ->
      let wanted = fault.Mgr.f_page mod t.n_colors in
      ignore (take_colored t ~color:wanted ~dst:fault.Mgr.f_seg ~dst_page:fault.Mgr.f_page)
  | Mgr.Protection -> Mgr_generic.unprotect t.kern ~seg:fault.Mgr.f_seg ~page:fault.Mgr.f_page

let create kern ?n_colors ?tier ~source ~pool_capacity () =
  let machine = K.machine kern in
  (* Default the color count from the live cache geometry when a cache is
     attached, else from the physical memory's static color pattern. *)
  let n_colors =
    match n_colors with
    | Some n -> n
    | None -> (
        match Hw_machine.cache_colors machine with
        | Some n -> n
        | None -> Phys.n_colors machine.Hw_machine.mem)
  in
  if n_colors <= 0 then invalid_arg "Mgr_coloring.create: n_colors must be positive";
  (match tier with
  | Some k when k < 0 || k >= Phys.n_tiers machine.Hw_machine.mem ->
      invalid_arg "Mgr_coloring.create: tier out of range"
  | _ -> ());
  let pool_seg = K.create_segment kern ~name:"coloring.free-pages" ~pages:pool_capacity () in
  let t =
    {
      kern;
      mid = -1;
      n_colors;
      tier;
      pool_seg;
      pool_capacity;
      slots_by_color = Array.make n_colors [];
      free_slots = List.init pool_capacity Fun.id;
      source;
      color_misses = 0;
    }
  in
  t.mid <-
    K.register_manager kern ~name:"coloring-manager" ~mode:`In_process
      ~on_fault:(fun f -> on_fault t f)
      ();
  t

let create_segment t ~name ~pages =
  let seg = K.create_segment t.kern ~name ~pages () in
  K.set_segment_manager t.kern seg t.mid;
  seg

let audit t ~seg =
  let s = K.segment t.kern seg in
  let good = ref 0 and total = ref 0 in
  Array.iteri
    (fun page slot ->
      match slot.Seg.frame with
      | None -> ()
      | Some frame ->
          incr total;
          if frame_color t frame = page mod t.n_colors then incr good)
    s.Seg.pages;
  (!good, !total)

let color_misses t = t.color_misses
