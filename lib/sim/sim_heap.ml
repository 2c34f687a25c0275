type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable items : 'a array;
  mutable len : int;
}

let create () = { times = Float.Array.create 0; seqs = [||]; items = [||]; len = 0 }
let is_empty t = t.len = 0
let size t = t.len

(* Entry [i] orders strictly before the entry ([time], [seq]). *)
let before t i ~time ~seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && t.seqs.(i) < seq)

let move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  t.seqs.(dst) <- t.seqs.(src);
  t.items.(dst) <- t.items.(src)

let place t i ~time ~seq x =
  Float.Array.unsafe_set t.times i time;
  t.seqs.(i) <- seq;
  t.items.(i) <- x

(* Entry [i] orders strictly before entry [j]. *)
let precedes t i j =
  let ti = Float.Array.unsafe_get t.times i and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Both sifts carry a hole instead of swapping: entries move one step
   each, and the sifted entry is written once, where it lands. [sift_up]
   carries the new entry's key ([time] arrives boxed from the caller and
   is passed along as is); [sift_down] leaves the displaced last entry at
   index [src], past the end, and compares against it there, so no float
   is boxed on the way down. *)
let rec sift_up t i ~time ~seq x =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t parent ~time ~seq then place t i ~time ~seq x
    else begin
      move t ~src:parent ~dst:i;
      sift_up t parent ~time ~seq x
    end
  end
  else place t i ~time ~seq x

let rec sift_down t i ~src =
  let l = (2 * i) + 1 in
  if l >= t.len then move t ~src ~dst:i
  else begin
    let r = l + 1 in
    let child = if r < t.len && precedes t r l then r else l in
    if precedes t child src then begin
      move t ~src:child ~dst:i;
      sift_down t child ~src
    end
    else move t ~src ~dst:i
  end

let grow t x =
  let cap = if t.len = 0 then 16 else 2 * t.len in
  let times = Float.Array.create cap in
  Float.Array.blit t.times 0 times 0 t.len;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.len;
  let items = Array.make cap x in
  Array.blit t.items 0 items 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.items <- items

let push t ~time ~seq x =
  if t.len = Array.length t.items then grow t x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) ~time ~seq x

let min_time t =
  if t.len = 0 then invalid_arg "Sim_heap.min_time: empty heap";
  Float.Array.unsafe_get t.times 0

let due t ~at = t.len > 0 && Float.Array.unsafe_get t.times 0 <= at

let take t =
  if t.len = 0 then invalid_arg "Sim_heap.take: empty heap";
  let top = t.items.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t 0 ~src:last;
  top

let clear t =
  t.times <- Float.Array.create 0;
  t.seqs <- [||];
  t.items <- [||];
  t.len <- 0
