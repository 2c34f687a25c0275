type t =
  | Zero
  | Bytes of bytes
  | Block of { file : int; block : int; version : int }

let of_string s = Bytes (Bytes.of_string s)
let block ~file ~block ~version = Block { file; block; version }

let equal a b =
  match (a, b) with
  | Zero, Zero -> true
  | Bytes x, Bytes y -> Bytes.equal x y
  | Block x, Block y -> x.file = y.file && x.block = y.block && x.version = y.version
  | (Zero | Bytes _ | Block _), _ -> false

let byte t i =
  match t with
  | Zero -> '\000'
  | Bytes b -> if i < Bytes.length b then Bytes.get b i else '\000'
  | Block { file; block; version } ->
      (* Any deterministic mixing works; this is just a stable fingerprint. *)
      let h = (file * 1_000_003) lxor (block * 40_503) lxor (version * 2_654_435_761) lxor i in
      Char.chr (abs h mod 256)

let describe = function
  | Zero -> "zero"
  | Bytes b -> Printf.sprintf "bytes[%d]" (Bytes.length b)
  | Block { file; block; version } -> Printf.sprintf "file%d.block%d.v%d" file block version
