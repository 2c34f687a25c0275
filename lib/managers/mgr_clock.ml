module K = Epcm_kernel
module Seg = Epcm_segment
module Flags = Epcm_flags

type entry = { seg : Seg.id; page : int; mutable dead : bool }

type t = {
  kern : K.t;
  tier : int;  (* -1: every tier *)
  mutable ring : entry list;  (* newest first *)
  mutable hand : entry list;  (* suffix of the scan order *)
  mutable len : int;  (* entries in [ring], live and dead *)
  mutable tombstones : int;  (* dead entries still in [ring] *)
}

type outcome = Evicted | Kept | Stop

let create kern ?(tier = -1) () = { kern; tier; ring = []; hand = []; len = 0; tombstones = 0 }

let track t seg page =
  t.ring <- { seg; page; dead = false } :: t.ring;
  t.len <- t.len + 1

let forget t seg =
  t.ring <- List.filter (fun e -> (not e.dead) && e.seg <> seg) t.ring;
  t.len <- List.length t.ring;
  t.tombstones <- 0;
  t.hand <- List.filter (fun e -> e.seg <> seg) t.hand

let tombstone t e =
  e.dead <- true;
  t.tombstones <- t.tombstones + 1;
  if t.tombstones * 2 > t.len then begin
    t.ring <- List.filter (fun e -> not e.dead) t.ring;
    t.len <- List.length t.ring;
    t.tombstones <- 0
  end

let resident kern seg page =
  if not (K.segment_exists kern seg) then None
  else
    let s = K.segment kern seg in
    if not (Seg.in_range s page) then None
    else
      let slot = Seg.page s page in
      Option.map (fun frame -> (slot, frame)) slot.Seg.frame

(* One live entry under the hand: what its page's slot holds decides. *)
let visit t e ~evict env =
  match resident t.kern e.seg e.page with
  | Some (slot, frame)
    when t.tier < 0
         || Hw_phys_mem.tier_of_frame (K.machine t.kern).Hw_machine.mem frame = t.tier ->
      let flags = slot.Seg.flags in
      if Flags.mem flags Flags.pinned || Flags.mem flags Flags.io_busy then Kept
      else if Flags.mem flags Flags.referenced then begin
        (* Second chance: clear the reference bit and move on. *)
        K.modify_page_flags t.kern ~seg:e.seg ~page:e.page ~count:1
          ~clear_flags:Flags.referenced ();
        Kept
      end
      else evict env e.seg e.page slot frame
  | Some _ | None ->
      tombstone t e;
      Kept

let sweep t ~count ~full ~evict env =
  let reclaimed = ref 0 in
  let passes = ref 0 in
  let stop = ref false in
  while (not !stop) && !reclaimed < count && (!passes < 2 || t.hand <> []) do
    if t.hand = [] then begin
      t.hand <- t.ring;
      incr passes;
      if t.hand = [] then stop := true
    end;
    match t.hand with
    | [] -> stop := true
    | e :: rest -> (
        t.hand <- rest;
        if full env then stop := true
        else if e.dead then ()
        else
          match visit t e ~evict env with
          | Evicted -> incr reclaimed
          | Kept -> ()
          | Stop -> stop := true)
  done;
  !reclaimed
