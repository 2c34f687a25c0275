type tier_spec = {
  t_name : string;
  t_bytes : int;
  t_costs : Hw_cost.tier_costs;
}

let dram_tier ~bytes =
  { t_name = "dram"; t_bytes = bytes; t_costs = Hw_cost.dram_tier_costs }

let slow_dram_tier ~bytes =
  { t_name = "slow-dram"; t_bytes = bytes; t_costs = Hw_cost.slow_dram_tier_costs }

type tier = {
  ti_id : int;
  ti_name : string;
  ti_first : int;
  ti_frames : int;
  ti_access_us : float;
  ti_migrate_us : float;
}

(* Only what changes per frame is stored: the contents and the owner tag.
   Address, color and tier are functions of the index. Ownership lives in
   its own array so the only mutation path is [set_owner] — the kernel —
   and the per-segment resident counters cannot be bypassed. *)
type t = {
  page_size : int;
  n_colors : int;
  data : Hw_page_data.t array;
  owners : int array;
  tiers : tier array;
}

let create_tiered ?(n_colors = 16) ~page_size ~tiers () =
  if page_size <= 0 then invalid_arg "Hw_phys_mem.create: page_size must be positive";
  if n_colors <= 0 then invalid_arg "Hw_phys_mem.create: n_colors must be positive";
  if tiers = [] then invalid_arg "Hw_phys_mem.create_tiered: need at least one tier";
  let descs =
    List.mapi
      (fun id spec ->
        let frames = spec.t_bytes / page_size in
        if frames <= 0 then
          invalid_arg
            (Printf.sprintf "Hw_phys_mem.create_tiered: tier %S needs at least one page"
               spec.t_name);
        {
          ti_id = id;
          ti_name = spec.t_name;
          ti_first = 0 (* fixed up below *);
          ti_frames = frames;
          ti_access_us = spec.t_costs.Hw_cost.tier_access_us;
          ti_migrate_us = spec.t_costs.Hw_cost.tier_migrate_us;
        })
      tiers
  in
  let _, descs =
    List.fold_left
      (fun (first, acc) d -> (first + d.ti_frames, { d with ti_first = first } :: acc))
      (0, []) descs
  in
  let tiers = Array.of_list (List.rev descs) in
  let n = Array.fold_left (fun acc d -> acc + d.ti_frames) 0 tiers in
  { page_size; n_colors; data = Array.make n Hw_page_data.Zero; owners = Array.make n (-1); tiers }

let create ?n_colors ~page_size ~total_bytes () =
  if page_size <= 0 then invalid_arg "Hw_phys_mem.create: page_size must be positive";
  if total_bytes / page_size <= 0 then invalid_arg "Hw_phys_mem.create: need at least one page";
  create_tiered ?n_colors ~page_size ~tiers:[ dram_tier ~bytes:total_bytes ] ()

let page_size t = t.page_size
let n_frames t = Array.length t.data
let n_colors t = t.n_colors

let check t i =
  if i < 0 || i >= Array.length t.data then
    invalid_arg (Printf.sprintf "Hw_phys_mem: frame %d out of range" i)

let n_tiers t = Array.length t.tiers

let tier t k =
  if k < 0 || k >= Array.length t.tiers then
    invalid_arg (Printf.sprintf "Hw_phys_mem.tier: tier %d out of range" k);
  t.tiers.(k)

(* Tiers partition the index space contiguously in declaration order, so
   addr and color keep their flat-array identities, and a frame's tier is
   the last one starting at or below it. *)
let addr t i =
  check t i;
  i * t.page_size

let color t i =
  check t i;
  i mod t.n_colors

let rec tier_from tiers i k =
  if k + 1 < Array.length tiers && i >= tiers.(k + 1).ti_first then tier_from tiers i (k + 1)
  else k

let tier_of_frame t i =
  check t i;
  tier_from t.tiers i 0

let data t i =
  check t i;
  t.data.(i)

let set_data t i d =
  check t i;
  t.data.(i) <- d

let tier_access_us t k = (tier t k).ti_access_us
let tier_migrate_us t k = (tier t k).ti_migrate_us
let tier_bounds t k =
  let d = tier t k in
  (d.ti_first, d.ti_frames)

(* [(first, count)] of one tier, or of the whole machine. *)
let interval ?tier:tk t = match tk with None -> (0, n_frames t) | Some k -> tier_bounds t k

let owner t i =
  check t i;
  t.owners.(i)

let set_owner t i o =
  check t i;
  t.owners.(i) <- o

(* Frame i has color i mod n_colors, so a color's frames within an index
   interval are an arithmetic progression: built back to front, O(result). *)
let frames_of_color ?tier:tk t color =
  if color < 0 || color >= t.n_colors then []
  else begin
    let first, count = interval ?tier:tk t in
    let limit = first + count in
    let rem = (color - first) mod t.n_colors in
    let start = first + if rem < 0 then rem + t.n_colors else rem in
    let acc = ref [] in
    if start < limit then begin
      let i = ref (start + ((limit - 1 - start) / t.n_colors * t.n_colors)) in
      while !i >= start do
        acc := !i :: !acc;
        i := !i - t.n_colors
      done
    end;
    !acc
  end

(* Aligned-run search for superpage backing: walk [run]-aligned windows
   of the tier's contiguous index interval and accept the first whose
   frames all carry [owned_by]'s owner tag. On a mismatch at index j the
   cursor jumps to the next aligned window past j, so a monotonic caller
   scans each frame at most once across a whole streaming pass. *)
let find_aligned_run ?tier:tk t ~start ~run ~owned_by =
  if run <= 0 then invalid_arg "Hw_phys_mem.find_aligned_run: run must be positive";
  let first, count = interval ?tier:tk t in
  let limit = first + count in
  let align i = (i + run - 1) / run * run in
  let result = ref (-1) in
  let s = ref (align (max start first)) in
  while !result < 0 && !s + run <= limit do
    let j = ref (!s + run - 1) in
    (* Scan back to front: the highest mismatch gives the longest jump. *)
    while !j >= !s && t.owners.(!j) = owned_by do
      decr j
    done;
    if !j < !s then result := !s else s := align (!j + 1)
  done;
  if !result < 0 then None else Some !result

let zero_frame t i = set_data t i Hw_page_data.Zero
let copy_frame t ~src ~dst = set_data t dst (data t src)
