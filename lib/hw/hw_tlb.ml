(* Entries are kept as one int array per field, a slot being live while
   its frame is non-negative, so a probe or a refill reads and writes
   ints in place and allocates nothing. *)
type t = {
  spaces : int array;
  vpns : int array;
  frames : int array;
  (* Superpage entries, keyed by (space, svpn) with svpn = vpn /
     super_pages; [super_frames] holds the first frame of the run.
     [super_live] guards every probe so a machine with no superpage fills
     behaves — and counts — exactly like the pre-superpage TLB. *)
  super_spaces : int array;
  super_svpns : int array;
  super_frames : int array;
  super_pages : int;
  mutable super_live : int;
  mutable super_hits : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(entries = 64) ?(super_entries = 16) ?(super_pages = 512) () =
  if entries <= 0 then invalid_arg "Hw_tlb.create: entries must be positive";
  if super_entries <= 0 || super_pages <= 0 then invalid_arg "Hw_tlb.create";
  {
    spaces = Array.make entries 0;
    vpns = Array.make entries 0;
    frames = Array.make entries (-1);
    super_spaces = Array.make super_entries 0;
    super_svpns = Array.make super_entries 0;
    super_frames = Array.make super_entries (-1);
    super_pages;
    super_live = 0;
    super_hits = 0;
    hits = 0;
    misses = 0;
  }

let index t ~space ~vpn = abs ((vpn * 31) lxor space) mod Array.length t.frames
let super_index t ~space ~svpn = abs ((svpn * 131) lxor space) mod Array.length t.super_frames

let probe_base t ~space ~vpn =
  let i = index t ~space ~vpn in
  if t.frames.(i) >= 0 && t.spaces.(i) = space && t.vpns.(i) = vpn then begin
    t.hits <- t.hits + 1;
    t.frames.(i)
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

let probe t ~space ~vpn =
  if t.super_live > 0 then begin
    let svpn = vpn / t.super_pages in
    let i = super_index t ~space ~svpn in
    if t.super_frames.(i) >= 0 && t.super_spaces.(i) = space && t.super_svpns.(i) = svpn then begin
      t.hits <- t.hits + 1;
      t.super_hits <- t.super_hits + 1;
      t.super_frames.(i) + (vpn - (svpn * t.super_pages))
    end
    else probe_base t ~space ~vpn
  end
  else probe_base t ~space ~vpn

let fill t ~space ~vpn ~frame =
  let i = index t ~space ~vpn in
  t.spaces.(i) <- space;
  t.vpns.(i) <- vpn;
  t.frames.(i) <- frame

let fill_super t ~space ~svpn ~frame =
  let i = super_index t ~space ~svpn in
  if t.super_frames.(i) < 0 then t.super_live <- t.super_live + 1;
  t.super_spaces.(i) <- space;
  t.super_svpns.(i) <- svpn;
  t.super_frames.(i) <- frame

let invalidate t ~space ~vpn =
  let i = index t ~space ~vpn in
  if t.frames.(i) >= 0 && t.spaces.(i) = space && t.vpns.(i) = vpn then t.frames.(i) <- -1

let invalidate_super t ~space ~svpn =
  if t.super_live > 0 then begin
    let i = super_index t ~space ~svpn in
    if t.super_frames.(i) >= 0 && t.super_spaces.(i) = space && t.super_svpns.(i) = svpn then begin
      t.super_frames.(i) <- -1;
      t.super_live <- t.super_live - 1
    end
  end

let invalidate_space t ~space =
  for i = 0 to Array.length t.frames - 1 do
    if t.frames.(i) >= 0 && t.spaces.(i) = space then t.frames.(i) <- -1
  done;
  if t.super_live > 0 then
    for i = 0 to Array.length t.super_frames - 1 do
      if t.super_frames.(i) >= 0 && t.super_spaces.(i) = space then begin
        t.super_frames.(i) <- -1;
        t.super_live <- t.super_live - 1
      end
    done

let flush t =
  Array.fill t.frames 0 (Array.length t.frames) (-1);
  if t.super_live > 0 then begin
    Array.fill t.super_frames 0 (Array.length t.super_frames) (-1);
    t.super_live <- 0
  end

let hits t = t.hits
let misses t = t.misses
let super_hits t = t.super_hits

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
