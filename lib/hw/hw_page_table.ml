type prot = { readable : bool; writable : bool }

type size = Base | Super

type entry = { space : int; vpn : int; frame : int; prot : prot; size : size }

(* What an empty slot holds. Its key is no address space's (ids are
   non-negative) and it grants no access. *)
let vacant =
  { space = -1; vpn = -1; frame = -1; prot = { readable = false; writable = false }; size = Base }

(* The direct-mapped slots live in chunks of [chunk_slots], allocated on
   the first insert into them; until then the top array points at
   [unreached], whose slots are all [vacant]. [unreached] is never
   written: an insert allocates the real chunk first, and a remove only
   writes a slot whose entry matched its key, which a vacant one never
   does. *)
let chunk_bits = 5
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1
let unreached = Array.make chunk_slots vacant

type t = {
  slots : int;
  chunks : entry array array;
  overflow : entry array;
  mutable overflow_next : int;  (* round-robin victim pointer *)
  (* Superpage area: direct-mapped, keyed by (space, svpn) where
     svpn = vpn / super_pages. [super_live] guards every probe so a
     machine that never installs a superpage takes the exact same
     branches — and accumulates the exact same statistics — as the
     pre-superpage table. *)
  super : entry array;
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
    slots;
    chunks = Array.make ((slots + chunk_mask) lsr chunk_bits) unreached;
    overflow = Array.make overflow vacant;
    overflow_next = 0;
    super = Array.make super_slots vacant;
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
  abs h mod t.slots

let super_slot_of t ~space ~svpn =
  let h = (space * 0x9E3779B1) lxor (svpn * 0xC2B2AE35) in
  abs h mod Array.length t.super

let matches e ~space ~vpn = e.space = space && e.vpn = vpn

(* The chunk holding slot [i], allocated if no insert has reached it; the
   last chunk is cut to the slot count. *)
let chunk_for_insert t i =
  let c = t.chunks.(i lsr chunk_bits) in
  if c != unreached then c
  else begin
    let c = Array.make (min chunk_slots (t.slots - (i land lnot chunk_mask))) vacant in
    t.chunks.(i lsr chunk_bits) <- c;
    c
  end

(* The overflow array is scanned with plain loops: these run inside every
   insert/remove on the kernel fault path, so they must not allocate
   (closures included). *)

let overflow_insert t e =
  let n = Array.length t.overflow in
  if n > 0 then begin
    (* Prefer an empty slot; otherwise evict round-robin. *)
    let empty = ref (-1) in
    for i = 0 to n - 1 do
      if t.overflow.(i) == vacant && !empty < 0 then empty := i
    done;
    let i = if !empty >= 0 then !empty else t.overflow_next in
    if !empty < 0 then t.overflow_next <- (t.overflow_next + 1) mod n;
    t.overflow.(i) <- e
  end

let overflow_drop t ~space ~vpn =
  for j = 0 to Array.length t.overflow - 1 do
    if matches t.overflow.(j) ~space ~vpn then t.overflow.(j) <- vacant
  done

let insert t ~space ~vpn ~frame ~prot =
  let i = slot_of t ~space ~vpn in
  let c = chunk_for_insert t i in
  let j = i land chunk_mask in
  let old = c.(j) in
  if old != vacant && not (matches old ~space ~vpn) then begin
    t.collisions <- t.collisions + 1;
    overflow_insert t old
  end;
  (* Remove any stale overflow copy of this key. *)
  overflow_drop t ~space ~vpn;
  c.(j) <- { space; vpn; frame; prot; size = Base }

let insert_super t ~space ~svpn ~frame ~prot =
  let i = super_slot_of t ~space ~svpn in
  let old = t.super.(i) in
  if old != vacant then begin
    (* A colliding superpage entry is simply displaced (rebuilt from the
       kernel's region table on demand, like a dropped overflow entry). *)
    if not (matches old ~space ~vpn:svpn) then t.super_collisions <- t.super_collisions + 1;
    t.super_live <- t.super_live - 1
  end;
  t.super.(i) <- { space; vpn = svpn; frame; prot; size = Super };
  t.super_live <- t.super_live + 1

let remove_super t ~space ~svpn =
  let i = super_slot_of t ~space ~svpn in
  if matches t.super.(i) ~space ~vpn:svpn then begin
    t.super.(i) <- vacant;
    t.super_live <- t.super_live - 1
  end

let rec overflow_find t ~space ~vpn j =
  if j >= Array.length t.overflow then begin
    t.misses <- t.misses + 1;
    vacant
  end
  else
    let e = t.overflow.(j) in
    if matches e ~space ~vpn then begin
      t.hits <- t.hits + 1;
      e
    end
    else overflow_find t ~space ~vpn (j + 1)

let find_base t ~space ~vpn =
  let i = slot_of t ~space ~vpn in
  let e = t.chunks.(i lsr chunk_bits).(i land chunk_mask) in
  if matches e ~space ~vpn then begin
    t.hits <- t.hits + 1;
    e
  end
  else overflow_find t ~space ~vpn 0

(* A 4 KB hit returns the stored entry itself; only a superpage hit,
   which translates an offset into its run, builds a result. The
   superpage probe runs only while a superpage is live anywhere, so flat
   machines keep byte-identical statistics. *)
let find t ~space ~vpn =
  if t.super_live > 0 then begin
    let svpn = vpn / t.super_pages in
    let e = t.super.(super_slot_of t ~space ~svpn) in
    if matches e ~space ~vpn:svpn then begin
      t.hits <- t.hits + 1;
      t.super_hits <- t.super_hits + 1;
      { e with vpn; frame = e.frame + (vpn - (svpn * t.super_pages)) }
    end
    else find_base t ~space ~vpn
  end
  else find_base t ~space ~vpn

let remove t ~space ~vpn =
  let i = slot_of t ~space ~vpn in
  let c = t.chunks.(i lsr chunk_bits) and j = i land chunk_mask in
  if matches c.(j) ~space ~vpn then c.(j) <- vacant;
  overflow_drop t ~space ~vpn

let drop_space arr ~space =
  for i = 0 to Array.length arr - 1 do
    if arr.(i).space = space then arr.(i) <- vacant
  done

let remove_space t ~space =
  Array.iter (fun c -> if c != unreached then drop_space c ~space) t.chunks;
  drop_space t.overflow ~space;
  if t.super_live > 0 then
    for i = 0 to Array.length t.super - 1 do
      if t.super.(i).space = space then begin
        t.super.(i) <- vacant;
        t.super_live <- t.super_live - 1
      end
    done

let capacity t = t.slots
let hits t = t.hits
let misses t = t.misses
let collisions t = t.collisions
let super_hits t = t.super_hits
let super_collisions t = t.super_collisions
let super_resident t = t.super_live

let resident t =
  let count acc arr = Array.fold_left (fun acc e -> if e == vacant then acc else acc + 1) acc arr in
  Array.fold_left count (count 0 t.overflow) t.chunks
