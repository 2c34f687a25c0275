(* Distributed consistency as a process-level manager.

   The paper's conclusion lists "distributed consistency" among the
   services V++ moved out of the kernel into segment managers. This
   example runs the MSI consistency manager over two nodes updating
   shared state two ways:

   - naïvely, with both nodes' counters on the same page: every update
     steals the page back across the interconnect (write ping-pong);
   - partitioned, with each node's counters on its own page: after the
     first fetch, all updates are local.

   The protocol statistics make the cost of false sharing visible — and
   show why the paper wants applications, which know their access
   patterns, making placement decisions.

   Run with: dune exec examples/dsm_sharing.exe *)

module K = Epcm_kernel
module Engine = Sim_engine

let updates = 200

let build () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let dsm = Mgr_dsm.create kernel ~source ~nodes:2 ~pages:4 () in
  (machine, dsm)

let run ~shared_page () =
  let machine, dsm = build () in
  let elapsed = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      for i = 1 to updates do
        let node = i mod 2 in
        let page = if shared_page then 0 else node in
        Mgr_dsm.write dsm ~node ~page
          (Hw_page_data.block ~file:node ~block:page ~version:i)
      done;
      elapsed := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  (!elapsed /. 1000.0, Mgr_dsm.transfers dsm, Mgr_dsm.invalidations dsm)

let () =
  let shared_ms, shared_tx, shared_inv = run ~shared_page:true () in
  let part_ms, part_tx, part_inv = run ~shared_page:false () in
  Printf.printf "Two nodes interleaving %d counter updates over the consistency manager:\n\n"
    updates;
  Printf.printf "  same page (false sharing) : %8.1f ms  (%3d transfers, %3d invalidations)\n"
    shared_ms shared_tx shared_inv;
  Printf.printf "  partitioned pages         : %8.1f ms  (%3d transfers, %3d invalidations)\n"
    part_ms part_tx part_inv;
  Printf.printf "  layout control wins        : %.0fx\n\n" (shared_ms /. part_ms);
  print_endline
    "The kernel only forwarded faults and migrated frames; the whole MSI protocol —\n\
     states, invalidations, downgrades, the home copy — lives in a user-level manager\n\
     built on MigratePages / ModifyPageFlags / GetPageAttributes.";
  (* Coherence sanity: a remote node reads what the writer wrote. *)
  let _, dsm = build () in
  Mgr_dsm.write dsm ~node:0 ~page:0 (Hw_page_data.of_string "final");
  let seen = Mgr_dsm.read dsm ~node:1 ~page:0 in
  Printf.printf "\nCoherence check: node 1 reads node 0's last write: %b\n"
    (Hw_page_data.equal seen (Hw_page_data.of_string "final"))
