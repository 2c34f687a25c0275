let free = min_int

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable shift : int;  (* 63 - log2 (Array.length keys) *)
  mutable size : int;
  absent : 'a;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ~absent n =
  let bits = max 3 (log2 (2 * n - 1) + 1) in
  let cap = 1 lsl bits in
  { keys = Array.make cap free; vals = Array.make cap absent; shift = 63 - bits; size = 0; absent }

(* Fibonacci hashing: the top bits of the key times 2^62 / phi (odd, so
   distinct keys stay distinct), so keys differing only in high fields
   still spread. *)
let home t k = (k * 0x278DDE6E5FD29F05) lsr t.shift

(* The key's slot, or the free slot ending its probe run as [-1 - i]
   ([min_int] is never found, so reading or removing it is harmless). *)
let rec probe keys mask k i =
  let k' = keys.(i) in
  if k' = free then -1 - i else if k' = k then i else probe keys mask k ((i + 1) land mask)

let slot t k = probe t.keys (Array.length t.keys - 1) k (home t k)

let find t k =
  let i = slot t k in
  if i >= 0 then t.vals.(i) else t.absent

let rec replace t k v =
  if k = free then invalid_arg "Sim_int_table.replace: min_int is not a key";
  let i = slot t k in
  if i >= 0 then t.vals.(i) <- v
  else if 2 * (t.size + 1) > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) free;
    t.vals <- Array.make (2 * Array.length keys) t.absent;
    t.shift <- t.shift - 1;
    t.size <- 0;
    Array.iteri (fun j k -> if k <> free then replace t k vals.(j)) keys;
    replace t k v
  end
  else begin
    t.keys.(-1 - i) <- k;
    t.vals.(-1 - i) <- v;
    t.size <- t.size + 1
  end

(* Backward-shift deletion: walk the run after the hole, moving back each
   entry whose home slot does not lie cyclically in (hole, its slot]. *)
let rec close_hole t mask hole j =
  let j = (j + 1) land mask in
  let kj = t.keys.(j) in
  if kj = free then begin
    t.keys.(hole) <- free;
    t.vals.(hole) <- t.absent
  end
  else if (j - home t kj) land mask >= (j - hole) land mask then begin
    t.keys.(hole) <- kj;
    t.vals.(hole) <- t.vals.(j);
    close_hole t mask j j
  end
  else close_hole t mask hole j

let remove t k =
  let i = slot t k in
  if i >= 0 then begin
    close_hole t (Array.length t.keys - 1) i i;
    t.size <- t.size - 1
  end
