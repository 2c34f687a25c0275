type entry = { space : int; vpn : int; frame : int; size : Hw_page_table.size }

type t = {
  slots : entry option array;
  (* Superpage entries, keyed by (space, svpn) with svpn = vpn /
     super_pages. [super_live] guards every probe so a machine with no
     superpage fills behaves — and counts — exactly like the
     pre-superpage TLB. *)
  super : entry option array;
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
    slots = Array.make entries None;
    super = Array.make super_entries None;
    super_pages;
    super_live = 0;
    super_hits = 0;
    hits = 0;
    misses = 0;
  }

let index t ~space ~vpn = abs ((vpn * 31) lxor space) mod Array.length t.slots
let super_index t ~space ~svpn = abs ((svpn * 131) lxor space) mod Array.length t.super

(* As in [Hw_page_table]: a 4 KB hit returns the stored [Some entry]. *)
let lookup_sized t ~space ~vpn =
  let super_hit =
    if t.super_live > 0 then begin
      let svpn = vpn / t.super_pages in
      match t.super.(super_index t ~space ~svpn) with
      | Some s when s.space = space && s.vpn = svpn ->
          t.hits <- t.hits + 1;
          t.super_hits <- t.super_hits + 1;
          Some { s with vpn; frame = s.frame + (vpn - (svpn * t.super_pages)) }
      | Some _ | None -> None
    end
    else None
  in
  match super_hit with
  | Some _ -> super_hit
  | None -> (
      match t.slots.(index t ~space ~vpn) with
      | Some s as hit when s.space = space && s.vpn = vpn ->
          t.hits <- t.hits + 1;
          hit
      | Some _ | None ->
          t.misses <- t.misses + 1;
          None)

let lookup t ~space ~vpn =
  match lookup_sized t ~space ~vpn with Some e -> Some e.frame | None -> None

let fill t ~space ~vpn ~frame =
  t.slots.(index t ~space ~vpn) <- Some { space; vpn; frame; size = Hw_page_table.Base }

let fill_super t ~space ~svpn ~frame =
  let i = super_index t ~space ~svpn in
  if t.super.(i) = None then t.super_live <- t.super_live + 1;
  t.super.(i) <- Some { space; vpn = svpn; frame; size = Hw_page_table.Super }

let invalidate t ~space ~vpn =
  match t.slots.(index t ~space ~vpn) with
  | Some s when s.space = space && s.vpn = vpn -> t.slots.(index t ~space ~vpn) <- None
  | Some _ | None -> ()

let invalidate_super t ~space ~svpn =
  if t.super_live > 0 then begin
    let i = super_index t ~space ~svpn in
    match t.super.(i) with
    | Some s when s.space = space && s.vpn = svpn ->
        t.super.(i) <- None;
        t.super_live <- t.super_live - 1
    | Some _ | None -> ()
  end

let invalidate_space t ~space =
  Array.iteri
    (fun i o -> match o with Some s when s.space = space -> t.slots.(i) <- None | _ -> ())
    t.slots;
  if t.super_live > 0 then
    Array.iteri
      (fun i o ->
        match o with
        | Some s when s.space = space ->
            t.super.(i) <- None;
            t.super_live <- t.super_live - 1
        | _ -> ())
      t.super

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  if t.super_live > 0 then begin
    Array.fill t.super 0 (Array.length t.super) None;
    t.super_live <- 0
  end

let hits t = t.hits
let misses t = t.misses
let super_hits t = t.super_hits

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
