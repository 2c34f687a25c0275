type t = int

let empty = 0
let dirty = 1
let referenced = 2
let no_access = 4
let read_only = 8
let pinned = 16
let io_busy = 32

let union a b = a lor b
let diff a b = a land lnot b
let mem flags f = flags land f = f
let intersects a b = a land b <> 0
let of_list = List.fold_left union empty
let equal = Int.equal

let names =
  [
    (dirty, "dirty");
    (referenced, "referenced");
    (no_access, "no_access");
    (read_only, "read_only");
    (pinned, "pinned");
    (io_busy, "io_busy");
  ]

let to_string t =
  if t = empty then "-"
  else
    names
    |> List.filter_map (fun (f, n) -> if mem t f then Some n else None)
    |> String.concat "|"
