(* Concurrent checkpointing on external page-cache primitives (§3.1).

   A long-running computation wants periodic consistent snapshots of its
   200-page state without stopping. Stop-and-copy costs a full copy of
   everything every time; the copy-on-write checkpoint manager
   write-protects the state in one sweep and copies only the pages the
   mutator actually touches before the next snapshot.

   Run with: dune exec examples/checkpoint.exe *)

module K = Epcm_kernel
module Engine = Sim_engine

let state_pages = 200
let epochs = 10
let writes_per_epoch = 30 (* hot working set: ~15% of state mutates per epoch *)

let build () =
  let machine = Hw_machine.create ~memory_bytes:(8 * 1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  (machine, kernel, source)

(* One mutator run: [checkpointed] decides whether each epoch opens a
   copy-on-write snapshot. Returns (elapsed us, manager, segment,
   generations). *)
let mutator_run ~checkpointed () =
  let machine, kernel, source = build () in
  let mgr = Mgr_checkpoint.create kernel ~source ~pool_capacity:512 () in
  let seg = Mgr_checkpoint.create_segment mgr ~name:"sim-state" ~pages:state_pages in
  let rng = Sim_rng.create 1L in
  let elapsed = ref 0.0 in
  let generations = ref [] in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for p = 0 to state_pages - 1 do
        K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write;
        K.uio_write kernel ~seg ~page:p (Hw_page_data.block ~file:1 ~block:p ~version:0)
      done;
      let t0 = Engine.time () in
      for epoch = 1 to epochs do
        if checkpointed then begin
          let gen = Mgr_checkpoint.begin_checkpoint mgr ~seg in
          generations := (epoch, gen) :: !generations
        end;
        (* The mutator keeps computing while the checkpoint is "live". *)
        for _ = 1 to writes_per_epoch do
          let p = Sim_rng.int rng state_pages in
          K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write;
          K.uio_write kernel ~seg ~page:p (Hw_page_data.block ~file:1 ~block:p ~version:epoch)
        done;
        if checkpointed then Mgr_checkpoint.end_checkpoint mgr ~seg
      done;
      elapsed := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  (!elapsed, machine, kernel, mgr, seg, List.rev !generations)

let () =
  let base_us, machine, _, _, _, _ = mutator_run ~checkpointed:false () in
  let cow_us, _, _, mgr, seg, generations = mutator_run ~checkpointed:true () in
  let overhead_us = cow_us -. base_us in
  (* What stop-and-copy would add: a full state copy per epoch. *)
  let copy_us = machine.Hw_machine.cost.Hw_cost.copy_page in
  let stop_and_copy_us = float_of_int (epochs * state_pages) *. copy_us in

  Printf.printf "Checkpointing %d pages across %d epochs (%d writes/epoch):\n\n" state_pages
    epochs writes_per_epoch;
  Printf.printf "  mutator alone                    : %8.1f ms\n" (base_us /. 1000.0);
  Printf.printf "  stop-and-copy overhead           : %8.1f ms (%d page copies)\n"
    (stop_and_copy_us /. 1000.0) (epochs * state_pages);
  Printf.printf "  copy-on-write overhead           : %8.1f ms (%d page copies, %d faults)\n"
    (overhead_us /. 1000.0)
    (Mgr_checkpoint.pages_preserved mgr)
    (Mgr_checkpoint.checkpoint_faults mgr);
  Printf.printf "  checkpoint cost reduced          : %.1fx (copies avoided: %.0f%%)\n\n"
    (stop_and_copy_us /. overhead_us)
    (100.0
    *. (1.0
       -. float_of_int (Mgr_checkpoint.pages_preserved mgr)
          /. float_of_int (epochs * state_pages)));

  (* Verify a historical snapshot is consistent: every page of epoch 3's
     generation must read as the state before epoch 3's writes. *)
  let gen3 = List.assoc 3 generations in
  let consistent = ref true in
  for p = 0 to state_pages - 1 do
    match Mgr_checkpoint.read_checkpoint mgr ~seg ~generation:gen3 ~page:p with
    | Hw_page_data.Block { version; _ } -> if version > 2 then consistent := false
    | _ -> consistent := false
  done;
  Printf.printf "Snapshot of epoch 3 consistent (no page newer than epoch 2): %b\n" !consistent
