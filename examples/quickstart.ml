(* Quickstart: the external page-cache management API in five minutes.

   Build a machine, boot the kernel, install an in-process segment
   manager, take a fault, watch MigratePages move a frame, and read the
   page attributes back — the whole Figure 2 protocol on one page of
   code.

   Run with: dune exec examples/quickstart.exe *)

module K = Epcm_kernel

let () =
  (* A DECstation-like machine with 4 MB of physical memory and tracing
     on, so we can print the fault protocol afterwards. *)
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) ~trace:true () in
  let kernel = K.create machine in
  Printf.printf "Booted: %d frames of %d bytes\n" (Hw_machine.n_frames machine)
    (Hw_machine.page_size machine);

  (* At boot, every page frame lives in the well-known initial segment in
     physical-address order. The system page cache manager would normally
     parcel it out; here the kernel's stand-in source grants frames
     straight from it, in slot order. *)
  let source = K.initial_source kernel in

  (* A segment manager built from the generic one (paper §2.2): in-process
     fault delivery, a free-page segment, default policies. *)
  let backing = Mgr_backing.memory () in
  let mgr = Mgr_generic.create kernel ~name:"demo" ~mode:`In_process ~backing ~source () in

  (* An anonymous segment (think: heap) managed by it. *)
  let heap = Mgr_generic.create_segment mgr ~name:"heap" ~pages:16 ~kind:Mgr_generic.Anon () in
  Printf.printf "Created heap segment %d (16 pages), manager %d\n" heap
    (Mgr_generic.manager_id mgr);

  (* Prime the manager's free-page pool outside the traced region, then
     take the fault. It runs as a simulation process, the only place
     where the cost model's charges advance the clock, so the trace shows
     when each step happened. No zero-fill happens — that's the V++
     fault-time win over Ultrix. *)
  Mgr_generic.ensure_pool mgr ~count:8;
  Sim_trace.clear machine.Hw_machine.trace;
  Sim_engine.spawn machine.Hw_machine.engine (fun () ->
      K.touch kernel ~space:heap ~page:3 ~access:Epcm_manager.Write);
  Sim_engine.run machine.Hw_machine.engine;
  Printf.printf "Touched page 3: %d fault(s), %d MigratePages call(s)\n"
    (K.stats kernel).K.faults_missing (K.stats kernel).K.migrate_calls;

  (* GetPageAttributes: flags plus the physical address — the information
     coloring/placement policies build on. *)
  let attrs = K.get_page_attributes kernel ~seg:heap ~page:3 ~count:1 in
  (match attrs.(0).K.pa_phys_addr with
  | Some addr -> Printf.printf "Page 3 is frame %d at physical 0x%x, flags=%s\n"
                   (Option.get attrs.(0).K.pa_frame) addr
                   (Epcm_flags.to_string attrs.(0).K.pa_flags)
  | None -> assert false);

  (* Write data through the UIO block interface and read it back. *)
  K.uio_write kernel ~seg:heap ~page:3 (Hw_page_data.of_string "hello, page cache");
  let data = K.uio_read kernel ~seg:heap ~page:3 in
  Printf.printf "UIO round trip: %s\n" (Hw_page_data.describe data);

  (* The manager can manipulate even the dirty flag — something mprotect
     cannot do (paper §2.1). *)
  K.modify_page_flags kernel ~seg:heap ~page:3 ~count:1 ~clear_flags:Epcm_flags.dirty ();
  let attrs = K.get_page_attributes kernel ~seg:heap ~page:3 ~count:1 in
  Printf.printf "After ModifyPageFlags: flags=%s\n"
    (Epcm_flags.to_string attrs.(0).K.pa_flags);

  (* And the Figure 2 protocol we just executed: *)
  print_endline "\nFault protocol trace (Figure 2):";
  print_string (Sim_trace.dump machine.Hw_machine.trace)
