type prot = { readable : bool; writable : bool }

type size = Base | Super

type entry = { space : int; vpn : int; frame : int; prot : prot; size : size }

type t = {
  slots : entry option array;
  overflow : entry option array;
  mutable overflow_next : int;  (* round-robin victim pointer *)
  (* Superpage area: direct-mapped, keyed by (space, svpn) where
     svpn = vpn / super_pages. [super_live] guards every probe so a
     machine that never installs a superpage takes the exact same
     branches — and accumulates the exact same statistics — as the
     pre-superpage table. *)
  super : entry option array;
  super_pages : int;
  mutable super_live : int;
  mutable super_hits : int;
  mutable super_collisions : int;
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;
}

let create ?(slots = 65536) ?(overflow = 32) ?(super_slots = 1024) ?(super_pages = 512) () =
  if slots <= 0 || overflow < 0 then invalid_arg "Hw_page_table.create";
  if super_slots <= 0 || super_pages <= 0 then invalid_arg "Hw_page_table.create";
  {
    slots = Array.make slots None;
    overflow = Array.make overflow None;
    overflow_next = 0;
    super = Array.make super_slots None;
    super_pages;
    super_live = 0;
    super_hits = 0;
    super_collisions = 0;
    hits = 0;
    misses = 0;
    collisions = 0;
  }

let slot_of t ~space ~vpn =
  let h = (space * 0x9E3779B1) lxor (vpn * 0x85EBCA77) in
  abs h mod Array.length t.slots

let super_slot_of t ~space ~svpn =
  let h = (space * 0x9E3779B1) lxor (svpn * 0xC2B2AE35) in
  abs h mod Array.length t.super

let matches e ~space ~vpn = e.space = space && e.vpn = vpn

(* The overflow array is scanned with plain loops: these run inside every
   insert/remove on the kernel fault path, so they must not allocate
   (closures included). *)

let overflow_insert t e =
  let n = Array.length t.overflow in
  if n > 0 then begin
    (* Prefer an empty slot; otherwise evict round-robin. *)
    let empty = ref (-1) in
    for i = 0 to n - 1 do
      if t.overflow.(i) = None && !empty < 0 then empty := i
    done;
    let i = if !empty >= 0 then !empty else t.overflow_next in
    if !empty < 0 then t.overflow_next <- (t.overflow_next + 1) mod n;
    t.overflow.(i) <- Some e
  end

let overflow_drop t ~space ~vpn =
  for j = 0 to Array.length t.overflow - 1 do
    match t.overflow.(j) with
    | Some oe when matches oe ~space ~vpn -> t.overflow.(j) <- None
    | Some _ | None -> ()
  done

let insert t ~space ~vpn ~frame ~prot =
  let i = slot_of t ~space ~vpn in
  let e = { space; vpn; frame; prot; size = Base } in
  (match t.slots.(i) with
  | Some old when not (matches old ~space ~vpn) ->
      t.collisions <- t.collisions + 1;
      overflow_insert t old
  | Some _ | None -> ());
  (* Remove any stale overflow copy of this key. *)
  overflow_drop t ~space ~vpn;
  t.slots.(i) <- Some e

let insert_super t ~space ~svpn ~frame ~prot =
  let i = super_slot_of t ~space ~svpn in
  (match t.super.(i) with
  | Some old when not (matches old ~space ~vpn:svpn) ->
      (* Colliding superpage entry is simply displaced (rebuilt from the
         kernel's region table on demand, like a dropped overflow entry). *)
      t.super_collisions <- t.super_collisions + 1;
      t.super_live <- t.super_live - 1
  | Some _ -> t.super_live <- t.super_live - 1
  | None -> ());
  t.super.(i) <- Some { space; vpn = svpn; frame; prot; size = Super };
  t.super_live <- t.super_live + 1

let remove_super t ~space ~svpn =
  let i = super_slot_of t ~space ~svpn in
  match t.super.(i) with
  | Some e when matches e ~space ~vpn:svpn ->
      t.super.(i) <- None;
      t.super_live <- t.super_live - 1
  | Some _ | None -> ()

let rec overflow_find t ~space ~vpn j =
  if j >= Array.length t.overflow then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    match t.overflow.(j) with
    | Some e as hit when matches e ~space ~vpn ->
        t.hits <- t.hits + 1;
        hit
    | Some _ | None -> overflow_find t ~space ~vpn (j + 1)

(* A 4 KB hit returns the stored [Some entry] itself; only a superpage
   hit, which translates an offset into its run, builds a result. *)
let lookup_sized t ~space ~vpn =
  (* Superpage probe first — but only when a superpage is live anywhere,
     so flat machines keep byte-identical statistics. *)
  let super_hit =
    if t.super_live > 0 then begin
      let svpn = vpn / t.super_pages in
      match t.super.(super_slot_of t ~space ~svpn) with
      | Some e when matches e ~space ~vpn:svpn ->
          t.hits <- t.hits + 1;
          t.super_hits <- t.super_hits + 1;
          Some { e with vpn; frame = e.frame + (vpn - (svpn * t.super_pages)) }
      | Some _ | None -> None
    end
    else None
  in
  match super_hit with
  | Some _ -> super_hit
  | None -> (
      let i = slot_of t ~space ~vpn in
      match t.slots.(i) with
      | Some e as hit when matches e ~space ~vpn ->
          t.hits <- t.hits + 1;
          hit
      | _ -> overflow_find t ~space ~vpn 0)

let lookup t ~space ~vpn =
  match lookup_sized t ~space ~vpn with
  | Some e -> Some (e.frame, e.prot)
  | None -> None

let remove t ~space ~vpn =
  let i = slot_of t ~space ~vpn in
  (match t.slots.(i) with
  | Some e when matches e ~space ~vpn -> t.slots.(i) <- None
  | Some _ | None -> ());
  overflow_drop t ~space ~vpn

let remove_space t ~space =
  Array.iteri
    (fun i o -> match o with Some e when e.space = space -> t.slots.(i) <- None | _ -> ())
    t.slots;
  Array.iteri
    (fun i o -> match o with Some e when e.space = space -> t.overflow.(i) <- None | _ -> ())
    t.overflow;
  if t.super_live > 0 then
    Array.iteri
      (fun i o ->
        match o with
        | Some e when e.space = space ->
            t.super.(i) <- None;
            t.super_live <- t.super_live - 1
        | _ -> ())
      t.super

let capacity t = Array.length t.slots
let hits t = t.hits
let misses t = t.misses
let collisions t = t.collisions
let super_hits t = t.super_hits
let super_collisions t = t.super_collisions
let super_resident t = t.super_live

let resident t =
  let count arr = Array.fold_left (fun acc o -> if o = None then acc else acc + 1) 0 arr in
  count t.slots + count t.overflow
