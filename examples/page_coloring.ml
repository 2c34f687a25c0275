(* Application-specific page coloring (paper §1, citing Bray et al.).

   A physically-indexed direct-mapped cache maps a datum to a set based on
   its physical address. A kernel that allocates frames arbitrarily can
   put two hot pages in the same cache color, and the application can
   neither see nor fix it. With external page-cache management the
   application requests frames by color from the SPCM so that its hot
   working set tiles the cache.

   We allocate a working set half the cache's size twice — once with
   color-blind worst-case allocation, once with the coloring manager —
   and sweep it repeatedly through the cache model.

   Run with: dune exec examples/page_coloring.exe *)

module K = Epcm_kernel
module Seg = Epcm_segment

let page_bytes = 4096
let cache_bytes = 64 * 1024 (* direct-mapped, physically indexed *)
let working_set_pages = 8 (* half the cache *)
let sweeps = 100

let sweep_working_set cache kernel seg =
  for page = 0 to working_set_pages - 1 do
    let attrs = K.get_page_attributes kernel ~seg ~page ~count:1 in
    match attrs.(0).K.pa_phys_addr with
    | Some addr -> Hw_cache.touch_page cache ~phys_addr:addr ~page_bytes
    | None -> assert false
  done

let build () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) ~n_colors:16 () in
  let kernel = K.create machine in
  (machine, kernel)

(* Worst-case conventional allocation: all frames happen to share one
   color (e.g. a buddy allocator returning same-stride frames). *)
let color_blind () =
  let machine, kernel = build () in
  let cache = Hw_cache.create ~size_bytes:cache_bytes () in
  let n_colors = Hw_cache.n_colors cache ~page_bytes in
  let seg = K.create_segment kernel ~name:"working-set" ~pages:working_set_pages () in
  let init = K.initial_segment kernel in
  let init_seg = K.segment kernel init in
  (* Pick frames whose physical addresses collide in the cache. *)
  let placed = ref 0 in
  let slot = ref 0 in
  while !placed < working_set_pages && !slot < Seg.length init_seg do
    (match (Seg.page init_seg !slot).Seg.frame with
    | Some f
      when Hw_cache.color_of cache ~phys_addr:(Hw_phys_mem.addr machine.Hw_machine.mem f)
             ~page_bytes
           = 0 ->
        K.migrate_pages kernel ~src:init ~dst:seg ~src_page:!slot ~dst_page:!placed ~count:1 ();
        incr placed
    | Some _ | None -> ());
    incr slot
  done;
  assert (!placed = working_set_pages);
  for _ = 1 to sweeps do
    sweep_working_set cache kernel seg
  done;
  (cache, n_colors)

(* Application-controlled coloring through the coloring manager + SPCM. *)
let colored () =
  let _machine, kernel = build () in
  let cache = Hw_cache.create ~size_bytes:cache_bytes () in
  let n_colors = Hw_cache.n_colors cache ~page_bytes in
  let spcm = Spcm.create kernel () in
  let client = Spcm.register_client ~income:1_000_000.0 spcm ~name:"colored-app" () in
  let source ~color ~dst ~dst_page ~count =
    let constraint_ =
      match color with None -> Spcm.Unconstrained | Some c -> Spcm.Color c
    in
    match Spcm.request spcm ~client ~dst ~dst_page ~count ~constraint_ () with
    | Spcm.Granted n -> n
    | Spcm.Deferred | Spcm.Refused -> 0
  in
  let mgr = Mgr_coloring.create kernel ~n_colors ~source ~pool_capacity:64 () in
  let seg = Mgr_coloring.create_segment mgr ~name:"working-set" ~pages:working_set_pages in
  for page = 0 to working_set_pages - 1 do
    K.touch kernel ~space:seg ~page ~access:Epcm_manager.Write
  done;
  let good, total = Mgr_coloring.audit mgr ~seg in
  for _ = 1 to sweeps do
    sweep_working_set cache kernel seg
  done;
  (cache, good, total, Mgr_coloring.color_misses mgr)

let () =
  let blind_cache, n_colors = color_blind () in
  let colored_cache, good, total, misses = colored () in
  Printf.printf
    "Sweeping a %d-page working set %d times through a %dKB direct-mapped physical cache (%d page colors):\n\n"
    working_set_pages sweeps (cache_bytes / 1024) n_colors;
  Printf.printf "  color-blind kernel allocation : %7d cache misses (miss rate %.1f%%)\n"
    (Hw_cache.misses blind_cache)
    (100.0 *. Hw_cache.miss_rate blind_cache);
  Printf.printf "  application page coloring     : %7d cache misses (miss rate %.1f%%)\n"
    (Hw_cache.misses colored_cache)
    (100.0 *. Hw_cache.miss_rate colored_cache);
  Printf.printf "  colored correctly: %d/%d pages (%d color misses at the SPCM)\n" good total
    misses;
  Printf.printf "  conflict misses eliminated: %.0fx fewer\n"
    (float_of_int (Hw_cache.misses blind_cache) /. float_of_int (Hw_cache.misses colored_cache))
