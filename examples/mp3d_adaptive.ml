(* MP3D-style adaptive memory sizing (paper §1).

   "MP3D, a large scale parallel particle simulation based on the
   Monte-Carlo method, generates a final result based on the averaging of
   a number of simulation runs. The simulation can be run for a shorter
   amount of time if it uses many runs with a large number of particles.
   This application could automatically adjust the number of particles it
   uses for a run, and thus the amount of memory it requires, based on
   availability of physical memory."

   The accuracy target is a fixed number of particle-steps. An oblivious
   run sizes itself for the machine's nominal memory and thrashes when the
   SPCM can only grant less; the adaptive run asks how much memory is
   actually available and sizes its particle population to fit, taking
   more (but fault-free) steps.

   Run with: dune exec examples/mp3d_adaptive.exe *)

module K = Epcm_kernel
module Engine = Sim_engine
module G = Mgr_generic

let target_particle_steps = 6144 (* accuracy target: pages x steps *)
let available_frames = 64 (* what the SPCM will actually grant *)
let oblivious_pages = 96 (* what the program would like to use *)
let compute_per_page_us = 500.0

let build () =
  (* A machine whose free pool holds only [available_frames] for us (the
     rest is spoken for by other jobs, modelled by a capped source). *)
  let machine = Hw_machine.create ~memory_bytes:(16 * 1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel ~budget:available_frames in
  let backing_disk = machine.Hw_machine.disk in
  let mgr =
    G.create kernel ~name:"mp3d"
      ~mode:`In_process
      ~backing:(Mgr_backing.disk backing_disk ~page_bytes:4096)
      ~source ~pool_capacity:(available_frames + 8) ~reclaim_batch:8 ()
  in
  (machine, kernel, mgr)

(* Run the simulation with a particle population occupying [pages] pages.
   Steps needed = target / pages. Each step sweeps every particle page
   (write: particles move); pages beyond the allocation thrash. *)
let simulate ~pages () =
  let machine, kernel, mgr = build () in
  let seg = G.create_segment mgr ~name:"particles" ~pages ~kind:G.Anon () in
  let steps = (target_particle_steps + pages - 1) / pages in
  let elapsed = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      for _ = 1 to steps do
        for p = 0 to pages - 1 do
          K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write;
          Engine.delay compute_per_page_us;
          (* Keep residency within the allocation, as the manager must. *)
          if G.resident mgr ~seg > available_frames - 4 then ignore (G.reclaim mgr ~count:8)
        done
      done;
      elapsed := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  (!elapsed /. 1_000_000.0, steps, Hw_disk.reads machine.Hw_machine.disk
   + Hw_disk.writes machine.Hw_machine.disk)

let () =
  (* The adaptive program asks first (a free-frame query to the SPCM) and
     sizes its run to what it can actually hold. *)
  let adaptive_pages = available_frames - 4 in
  let oblivious_s, oblivious_steps, oblivious_io = simulate ~pages:oblivious_pages () in
  let adaptive_s, adaptive_steps, adaptive_io = simulate ~pages:adaptive_pages () in
  Printf.printf
    "MP3D-style run to a fixed accuracy target (%d particle-page-steps), %d frames available:\n\n"
    target_particle_steps available_frames;
  Printf.printf "  oblivious (%3d pages, %2d steps) : %7.2f s  (%5d disk transfers — thrashing)\n"
    oblivious_pages oblivious_steps oblivious_s oblivious_io;
  Printf.printf "  adaptive  (%3d pages, %2d steps) : %7.2f s  (%5d disk transfers)\n"
    adaptive_pages adaptive_steps adaptive_s adaptive_io;
  Printf.printf "  speedup from asking first       : %.1fx\n\n" (oblivious_s /. adaptive_s);
  Printf.printf
    "The space-time tradeoff is real only when the space is physical: more particles per\n\
     step is faster per particle-step *until* the population exceeds the allocation,\n\
     at which point every extra page costs a disk round trip per step (paper 1, 5).\n"
