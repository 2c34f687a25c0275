(* Out-of-core scan with application-directed read-ahead (paper §1's
   MP3D-style example).

   A computation sweeps a dataset larger than memory, spending a fixed
   amount of CPU per page. Obliviously, every page costs a demand fault to
   disk on top of the compute. With external page-cache management the
   application prefetches ahead of the sweep and discards consumed pages
   (dead intermediate data: no writeback), overlapping disk latency with
   computation.

   Run with: dune exec examples/prefetch_scan.exe *)

module K = Epcm_kernel
module Engine = Sim_engine

let dataset_pages = 512 (* 2 MB *)
let compute_per_page_us = 12_000.0 (* ~disk access time: good overlap potential *)
let prefetch_depth = 8

let build () =
  let machine = Hw_machine.create ~memory_bytes:(8 * 1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let mgr = Mgr_prefetch.create kernel ~source ~pool_capacity:256 () in
  let seg = Mgr_prefetch.create_file_segment mgr ~name:"dataset" ~file_id:1 ~pages:dataset_pages in
  (machine, kernel, mgr, seg)

let scan ~use_prefetch () =
  let machine, kernel, mgr, seg = build () in
  let elapsed = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      for page = 0 to dataset_pages - 1 do
        if use_prefetch then
          Mgr_prefetch.prefetch mgr ~seg ~page:(page + 1)
            ~count:(min prefetch_depth (dataset_pages - page - 1));
        (* Demand-touch the current page (faults if the prefetcher has not
           got there yet), then compute on it. *)
        K.touch kernel ~space:seg ~page ~access:Epcm_manager.Read;
        Engine.delay compute_per_page_us;
        (* The consumed page is dead intermediate data: discard, saving
           both memory and writeback bandwidth. *)
        if use_prefetch && page > 4 then Mgr_prefetch.discard mgr ~seg ~page:(page - 4) ~count:1
      done;
      elapsed := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  (!elapsed /. 1_000_000.0, mgr, machine)

let () =
  let oblivious_s, mgr_o, machine_o = scan ~use_prefetch:false () in
  let prefetch_s, mgr_p, _machine_p = scan ~use_prefetch:true () in
  Printf.printf "Scanning %d pages (%.0f us CPU per page) through a %d-page window:\n\n"
    dataset_pages compute_per_page_us 256;
  Printf.printf "  demand paging   : %6.2f s  (%d inline disk fills, %d writes)\n" oblivious_s
    (Mgr_prefetch.demand_fills mgr_o)
    (Hw_disk.writes machine_o.Hw_machine.disk);
  Printf.printf "  with prefetch   : %6.2f s  (%d prefetches, %d faults absorbed in flight, %d inline fills, %d discards)\n"
    prefetch_s
    (Mgr_prefetch.prefetches_started mgr_p)
    (Mgr_prefetch.absorbed_faults mgr_p)
    (Mgr_prefetch.demand_fills mgr_p)
    (Mgr_prefetch.discards mgr_p);
  Printf.printf "  speedup         : %.2fx (disk latency overlapped with compute)\n"
    (oblivious_s /. prefetch_s)
