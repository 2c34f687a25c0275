(* A database's view of its own memory (paper §3.3 in miniature).

   A DBMS keeps relations and indices under an application-specific
   segment manager. When the system page cache manager shrinks its
   allocation by 1 MB, the conventional outcome is silent paging; the
   application-controlled outcome is: notice, pick the least valuable
   index, discard it (no writeback — it is regenerable), and rebuild it
   in memory when next needed.

   This example measures one join under each policy and prints the
   difference — the essence of Table 4's paging-vs-regeneration gap.

   Run with: dune exec examples/db_cache.exe *)

module K = Epcm_kernel
module Engine = Sim_engine

let index_pages = 256 (* 1 MB *)

let build () =
  let machine =
    Hw_machine.create ~preset:Hw_machine.Sgi_4d_380 ~memory_bytes:(32 * 1024 * 1024) ()
  in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let mgr = Mgr_dbms.create kernel ~source ~pool_capacity:1024 () in
  (machine, kernel, mgr)

(* Time one "join" that touches every page of the index. *)
let timed_join machine mgr idx =
  let elapsed = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      Mgr_dbms.touch_index mgr idx ~pages:(List.init index_pages Fun.id);
      elapsed := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  !elapsed /. 1000.0

let () =
  (* Policy A: oblivious — the index was paged out behind the DBMS's
     back; the join faults it back from disk page by page. *)
  let machine_a, _, mgr_a = build () in
  let idx_a = Mgr_dbms.create_index mgr_a ~name:"order-index" ~pages:index_pages () in
  Mgr_dbms.evict_index mgr_a idx_a;
  let paging_ms = timed_join machine_a mgr_a idx_a in

  (* Policy B: application-controlled — the DBMS discarded the index
     when told its allocation shrank, and regenerates it in memory (one
     relation scan's worth of compute) before the join. *)
  let machine_b, _, mgr_b = build () in
  let idx_b = Mgr_dbms.create_index mgr_b ~name:"order-index" ~pages:index_pages () in
  Mgr_dbms.evict_index mgr_b idx_b;
  let regen_ms = ref 0.0 in
  Engine.spawn machine_b.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      (* Regeneration compute: scan the (resident) relation once. *)
      Engine.delay (350.0 *. 1000.0);
      Mgr_dbms.regenerate_index mgr_b idx_b;
      Mgr_dbms.touch_index mgr_b idx_b ~pages:(List.init index_pages Fun.id);
      regen_ms := (Engine.time () -. t0) /. 1000.0);
  Engine.run machine_b.Hw_machine.engine;

  Printf.printf "Join needing a 1MB index that is not resident:\n";
  Printf.printf "  oblivious (page-in from disk) : %8.0f ms  (%d disk reads)\n" paging_ms
    (Hw_disk.reads machine_a.Hw_machine.disk);
  Printf.printf "  regenerate in memory          : %8.0f ms  (%d disk reads)\n" !regen_ms
    (Hw_disk.reads machine_b.Hw_machine.disk);
  Printf.printf "  speedup: %.1fx — the Table 4 paging-vs-regeneration gap\n"
    (paging_ms /. !regen_ms);

  (* The point the paper makes about information: the manager *knows*
     which indices are resident, so the query planner can decide before
     paying the fault. *)
  let resident = Mgr_dbms.index_resident mgr_b idx_b in
  Printf.printf "\nPlanner query: index resident? %b (no fault needed to find out)\n" resident
