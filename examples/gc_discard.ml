(* Garbage pages need no writeback (paper §1 and §4, citing Subramanian).

   An ML-style mutator churns a heap: each cycle it allocates fresh pages,
   dirties them, and a collection then proves most of them dead. Under
   memory pressure those dead pages must be reclaimed. A GC-oblivious
   pager dutifully writes every dirty page to swap first (~15 ms each); a
   manager that the collector can talk to discards them for free — and
   because the frames stay within one protection domain, V++ also skips
   the re-zeroing a conventional kernel would impose on reuse.

   The same manager implements the paper's other GC claim: collection
   frequency adapts to how much physical memory the program actually has.

   Run with: dune exec examples/gc_discard.exe *)

module K = Epcm_kernel
module Engine = Sim_engine

let heap_pages = 128
let cycles = 12
let alloc_per_cycle = 48 (* pages allocated then mostly dying each cycle *)
let survivors = 8 (* pages per cycle that stay live *)

let build () =
  let machine = Hw_machine.create ~memory_bytes:(16 * 1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let mgr = Mgr_gc.create kernel ~source ~pool_capacity:256 () in
  let heap = Mgr_gc.create_heap mgr ~name:"ml-heap" ~pages:heap_pages in
  (machine, kernel, mgr, heap)

(* One churn run; [gc_aware] picks discard vs conventional eviction for
   the dead pages. Returns (elapsed s, disk writes). *)
let churn ~gc_aware () =
  let machine, kernel, mgr, heap = build () in
  let elapsed = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      for cycle = 0 to cycles - 1 do
        let base = cycle mod 2 * alloc_per_cycle in
        (* Allocate and dirty a fresh region (bump allocation). *)
        for p = base to base + alloc_per_cycle - 1 do
          K.touch kernel ~space:heap ~page:p ~access:Epcm_manager.Write;
          K.uio_write kernel ~seg:heap ~page:p
            (Hw_page_data.block ~file:1 ~block:p ~version:cycle)
        done;
        (* Collection: all but [survivors] of the region are garbage. *)
        let dead_from = base + survivors in
        let dead_count = alloc_per_cycle - survivors in
        if gc_aware then begin
          Mgr_gc.declare_garbage mgr ~seg:heap ~page:dead_from ~count:dead_count;
          ignore (Mgr_gc.reclaim_garbage mgr ~seg:heap)
        end
        else ignore (Mgr_gc.evict_conventional mgr ~seg:heap ~page:dead_from ~count:dead_count)
      done;
      elapsed := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  (!elapsed /. 1_000_000.0, Hw_disk.writes machine.Hw_machine.disk, mgr)

let () =
  let conv_s, conv_writes, _ = churn ~gc_aware:false () in
  let gc_s, gc_writes, mgr = churn ~gc_aware:true () in
  Printf.printf
    "Churning %d cycles x %d pages (%d survivors/cycle) under memory pressure:\n\n" cycles
    alloc_per_cycle survivors;
  Printf.printf "  GC-oblivious pager    : %6.2f s, %4d swap writes\n" conv_s conv_writes;
  Printf.printf "  discardable garbage   : %6.2f s, %4d swap writes (%d dirty writebacks avoided)\n"
    gc_s gc_writes
    (Mgr_gc.writebacks_avoided mgr);
  Printf.printf "  speedup               : %.1fx, I/O eliminated entirely\n\n" (conv_s /. gc_s);

  (* The adaptation policy: collection frequency follows the allocation. *)
  let demo budget =
    let live = ref survivors in
    let collections = ref 0 in
    for _ = 1 to 20 do
      live := !live + 4;
      if Mgr_gc.should_collect mgr ~live_pages:!live ~budget_pages:budget then begin
        incr collections;
        live := survivors
      end
    done;
    !collections
  in
  Printf.printf "Collections per 20 allocation bursts, by physical budget (1): budget 24 -> %d, budget 48 -> %d, budget 96 -> %d\n"
    (demo 24) (demo 48) (demo 96);
  Printf.printf "(1) more memory, fewer collections — the adaptation only possible because the\n";
  Printf.printf "    SPCM tells the run-time how much physical memory it actually has.\n"
