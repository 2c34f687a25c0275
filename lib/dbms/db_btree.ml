type t = {
  fanout : int;
  levels : int array;  (** Pages per level, root level first. *)
  level_start : int array;  (** First page index of each level. *)
}

(* Choose the number of leaves so the whole tree (leaves + index levels
   above them) fits the page budget. *)
let layout ~fanout ~pages =
  if pages < 1 then invalid_arg "Db_btree.create: need at least one page";
  let tree_size leaves =
    let rec go width acc = if width <= 1 then acc + 1 else go ((width + fanout - 1) / fanout) (acc + width) in
    if leaves <= 1 then 1 else go leaves 0
  in
  (* Largest leaf count whose tree fits. *)
  let leaves = ref 1 in
  while tree_size (!leaves + 1) <= pages do
    incr leaves
  done;
  let rec widths width acc =
    if width <= 1 then 1 :: acc else widths ((width + fanout - 1) / fanout) (width :: acc)
  in
  let levels = Array.of_list (if !leaves <= 1 then [ 1 ] else widths !leaves []) in
  levels

let create ?(fanout = 128) ~pages () =
  if fanout < 2 then invalid_arg "Db_btree.create: fanout must be at least 2";
  let levels = layout ~fanout ~pages in
  let level_start = Array.make (Array.length levels) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i n ->
      level_start.(i) <- !acc;
      acc := !acc + n)
    levels;
  { fanout; levels; level_start }

let fanout t = t.fanout
let pages t = Array.fold_left ( + ) 0 t.levels
let depth t = Array.length t.levels
let keys t = t.levels.(Array.length t.levels - 1) * t.fanout
let root_page t = t.level_start.(0)

let leaf_of_key t ~key =
  let leaves = t.levels.(Array.length t.levels - 1) in
  let key = ((key mod keys t) + keys t) mod keys t in
  t.level_start.(Array.length t.levels - 1) + (key / t.fanout mod leaves)

let lookup_path t ~key =
  let key = ((key mod keys t) + keys t) mod keys t in
  let n_levels = Array.length t.levels in
  let leaves = t.levels.(n_levels - 1) in
  let leaf_index = key / t.fanout mod leaves in
  (* At level i (root = 0), the page covering the leaf is the leaf index
     scaled down by the fan-out of the levels below. *)
  List.init n_levels (fun i ->
      let below = n_levels - 1 - i in
      let scale = int_of_float (float_of_int t.fanout ** float_of_int below) in
      let idx = min (leaf_index / scale) (t.levels.(i) - 1) in
      t.level_start.(i) + idx)
