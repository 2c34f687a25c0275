(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable [int64]
   record field would box a fresh value on every store, and every draw
   stores. [next] is inlined into each draw below, so the mixed value
   stays unboxed too unless the draw returns it as an [int64]. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t
let split t = create (next t)

(* The top 53 bits, as a non-negative [int]. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let[@inline] float t =
  (* Top 53 bits scaled into [0,1). Below 2^53, the [int] converts to
     exactly the float the [int64] would. *)
  float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Sim_rng.int: bound must be positive";
  (* Rejection-free for simulation purposes: modulo bias is negligible for
     bounds far below 2^63 and determinism matters more than exactness. *)
  bits53 t mod bound

let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = float t < p

let exponential t ~mean =
  let u = float t in
  -.mean *. log1p (-.u)

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
