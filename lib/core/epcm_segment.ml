type id = int

type page_state = {
  mutable frame : int option;
  mutable flags : Epcm_flags.t;
}

type binding = {
  at : int;
  len : int;
  target : id;
  target_page : int;
  cow : bool;
}

type t = {
  sid : id;
  sname : string;
  seg_page_size : int;
  mutable pages : page_state array;
  mutable manager : int option;
  mutable bindings : binding array;
  mutable alive : bool;
  mutable resident : int;
  tier_of : int -> int;
  resident_by_tier : int array;
  mutable sp_enabled : bool;
  sp_regions : (int, int) Hashtbl.t;
}

let fresh_page () = { frame = None; flags = Epcm_flags.empty }

let make ?(n_tiers = 1) ?(tier_of = fun _ -> 0) ~sid ~name ~page_size ~pages () =
  if pages < 0 then invalid_arg "Epcm_segment.make: negative size";
  if page_size <= 0 then invalid_arg "Epcm_segment.make: page_size must be positive";
  if n_tiers <= 0 then invalid_arg "Epcm_segment.make: n_tiers must be positive";
  {
    sid;
    sname = name;
    seg_page_size = page_size;
    pages = Array.init pages (fun _ -> fresh_page ());
    manager = None;
    bindings = [||];
    alive = true;
    resident = 0;
    tier_of;
    resident_by_tier = Array.make n_tiers 0;
    sp_enabled = false;
    sp_regions = Hashtbl.create 8;
  }

let tier_count t f =
  let k = t.tier_of f in
  if k < 0 || k >= Array.length t.resident_by_tier then
    invalid_arg (Printf.sprintf "Epcm_segment.set_frame: frame %d maps to unknown tier %d" f k);
  k

(* One pass: page i gets frame i and counts toward its frame's tier. *)
let make_identity ?n_tiers ?tier_of ~sid ~name ~page_size ~pages () =
  let t = make ?n_tiers ?tier_of ~sid ~name ~page_size ~pages:0 () in
  t.pages <-
    Array.init pages (fun i ->
        let k = tier_count t i in
        t.resident_by_tier.(k) <- t.resident_by_tier.(k) + 1;
        { frame = Some i; flags = Epcm_flags.empty });
  t.resident <- pages;
  t

let superpage_regions t =
  Hashtbl.fold (fun sindex base acc -> (sindex, base) :: acc) t.sp_regions []
  |> List.sort compare

let length t = Array.length t.pages
let in_range t p = p >= 0 && p < Array.length t.pages

let page t p =
  if not (in_range t p) then
    invalid_arg (Printf.sprintf "Epcm_segment.page: page %d out of range of segment %d" p t.sid);
  t.pages.(p)

let set_frame t p frame =
  let slot = page t p in
  (match (slot.frame, frame) with
  | None, Some f ->
      t.resident <- t.resident + 1;
      let k = tier_count t f in
      t.resident_by_tier.(k) <- t.resident_by_tier.(k) + 1
  | Some f, None ->
      t.resident <- t.resident - 1;
      let k = tier_count t f in
      t.resident_by_tier.(k) <- t.resident_by_tier.(k) - 1
  | Some f0, Some f1 ->
      let k0 = tier_count t f0 and k1 = tier_count t f1 in
      if k0 <> k1 then begin
        t.resident_by_tier.(k0) <- t.resident_by_tier.(k0) - 1;
        t.resident_by_tier.(k1) <- t.resident_by_tier.(k1) + 1
      end
  | None, None -> ());
  slot.frame <- frame

(* [bindings] is kept sorted by [at]; regions are disjoint (enforced by the
   kernel via [bindings_overlap]), so the binding covering a page — if any
   — is the one with the greatest [at <= p]. *)

(* Index of the last binding with [at <= p], or -1. *)
let rightmost_at_or_below t p =
  let lo = ref 0 and hi = ref (Array.length t.bindings - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.bindings.(mid).at <= p then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found

let binding_covering t p =
  let i = rightmost_at_or_below t p in
  if i < 0 then None
  else
    let b = t.bindings.(i) in
    if p < b.at + b.len then Some b else None

let bindings_overlap t ~at ~len =
  (* With sorted disjoint regions, only the neighbours of the insertion
     point can overlap [at, at+len). *)
  let i = rightmost_at_or_below t at in
  let overlaps b = at < b.at + b.len && b.at < at + len in
  (i >= 0 && overlaps t.bindings.(i))
  || (i + 1 < Array.length t.bindings && overlaps t.bindings.(i + 1))

let add_binding t b =
  let n = Array.length t.bindings in
  let pos = rightmost_at_or_below t b.at + 1 in
  let bigger = Array.make (n + 1) b in
  Array.blit t.bindings 0 bigger 0 pos;
  Array.blit t.bindings pos bigger (pos + 1) (n - pos);
  t.bindings <- bigger

let bindings_list t = Array.to_list t.bindings

let resident_pages t = t.resident

let resident_pages_scan t =
  Array.fold_left (fun acc p -> if p.frame = None then acc else acc + 1) 0 t.pages

let resident_pages_by_tier t = Array.copy t.resident_by_tier

let resident_pages_by_tier_scan t =
  let counts = Array.make (Array.length t.resident_by_tier) 0 in
  Array.iter
    (fun p ->
      match p.frame with
      | None -> ()
      | Some f ->
          let k = tier_count t f in
          counts.(k) <- counts.(k) + 1)
    t.pages;
  counts
