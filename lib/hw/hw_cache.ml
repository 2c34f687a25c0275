type t = {
  line_bytes : int;
  sets : int;
  tags : int array;  (* -1 = invalid *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(line_bytes = 64) ~size_bytes () =
  if line_bytes <= 0 || size_bytes < line_bytes then invalid_arg "Hw_cache.create";
  let sets = size_bytes / line_bytes in
  { line_bytes; sets; tags = Array.make sets (-1); accesses = 0; hits = 0; misses = 0 }

let sets t = t.sets

let access t ~phys_addr =
  let line = phys_addr / t.line_bytes in
  let set = line mod t.sets in
  t.accesses <- t.accesses + 1;
  if t.tags.(set) = line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.tags.(set) <- line;
    false
  end

let touch_page t ~phys_addr ~page_bytes =
  let lines = page_bytes / t.line_bytes in
  for i = 0 to lines - 1 do
    ignore (access t ~phys_addr:(phys_addr + (i * t.line_bytes)))
  done

let accesses t = t.accesses
let hits t = t.hits
let misses t = t.misses

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0

let n_colors t ~page_bytes = max 1 (t.sets * t.line_bytes / page_bytes)

let color_of t ~phys_addr ~page_bytes =
  phys_addr / page_bytes mod n_colors t ~page_bytes
