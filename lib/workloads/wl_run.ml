module K = Epcm_kernel
module Engine = Sim_engine
module T = Wl_trace

type vpp_result = {
  v_elapsed_s : float;
  v_vm_elapsed_s : float;
  v_manager_calls : int;
  v_migrate_calls : int;
  v_manager_overhead_ms : float;
  v_uio_reads : int;
  v_uio_writes : int;
  v_tlb_hit_rate : float;
  v_pt_hits : int;
  v_pt_misses : int;
  v_pt_collisions : int;
  v_pt_resident : int;
}

type ultrix_result = {
  u_elapsed_s : float;
  u_faults : int;
  u_zero_fills : int;
  u_read_calls : int;
  u_write_calls : int;
}

let pages_of_kb kb = (kb + 3) / 4

(* Total KB appended to each output file, to size its segment. *)
let append_kb_per_file trace =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun op ->
      match op with
      | T.Append { file; kb } ->
          Hashtbl.replace tbl file ((try Hashtbl.find tbl file with Not_found -> 0) + kb)
      | _ -> ())
    trace.T.ops;
  tbl

(* The Tables 1-3 machine: DECstation 5000/200 with 128 megabytes. *)
let machine_128mb () = Hw_machine.create ~memory_bytes:(128 * 1024 * 1024) ()

let run_vpp ?seed:_ trace =
  let machine = machine_128mb () in
  let kernel = K.create machine in
  (* A direct initial-segment source stands in for the SPCM: the workload
     runs alone, so global allocation is not interesting here and keeping
     it out of the measured path mirrors the paper's setup. *)
  let ucds = Mgr_default.create kernel ~source:(K.initial_source kernel) () in
  let gen = Mgr_default.generic ucds in
  (* Warm phase (unmeasured): cache the input files, build the heap
     segment, prime the free-page pool. *)
  List.iter
    (fun (file, kb) ->
      ignore (Mgr_default.open_file ucds ~file_id:file ~size_pages:(pages_of_kb kb) ~preload:true ()))
    (T.input_files trace);
  let heap = Mgr_default.create_heap ucds ~name:(trace.T.name ^ ".heap") ~pages:trace.T.heap_pages in
  let appends = append_kb_per_file trace in
  let pool_need =
    trace.T.heap_pages
    + Hashtbl.fold (fun _ kb acc -> acc + pages_of_kb kb) appends 0
    + 64
  in
  Mgr_generic.ensure_pool gen ~count:pool_need;
  (* Measured region. *)
  let stats = K.stats kernel in
  let calls0 = Mgr_default.total_manager_calls ucds in
  let migrates0 = stats.K.migrate_calls in
  let reads0 = stats.K.uio_reads and writes0 = stats.K.uio_writes in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  let next_heap = ref 0 in
  let write_pos = Hashtbl.create 8 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      t0 := Engine.time ();
      List.iter
        (fun op ->
          match op with
          | T.Compute us -> Engine.delay us
          | T.Open_input _ -> () (* cache hit in the UCDS directory *)
          | T.Open_output { file } ->
              Mgr_default.admin_call ucds;
              let kb = try Hashtbl.find appends file with Not_found -> 4 in
              ignore (Mgr_default.open_file ucds ~file_id:file ~size_pages:(pages_of_kb kb) ~empty:true ());
              (* New file: nothing valid on backing store yet. *)
              Hashtbl.replace write_pos file 0
          | T.Read_seq { file; kb } ->
              let seg = Option.get (Mgr_default.file_segment ucds ~file_id:file) in
              for page = 0 to pages_of_kb kb - 1 do
                ignore (K.uio_read kernel ~seg ~page)
              done
          | T.Append { file; kb } ->
              let seg = Option.get (Mgr_default.file_segment ucds ~file_id:file) in
              let pos = try Hashtbl.find write_pos file with Not_found -> 0 in
              let pages = pages_of_kb kb in
              for i = 0 to pages - 1 do
                K.uio_write kernel ~seg ~page:(pos + i)
                  (Hw_page_data.block ~file ~block:(pos + i) ~version:1)
              done;
              Hashtbl.replace write_pos file (pos + pages)
          | T.Touch_heap { pages } ->
              for _ = 1 to pages do
                K.touch kernel ~space:heap ~page:!next_heap ~access:Epcm_manager.Write;
                incr next_heap
              done
          | T.Rescan_heap { passes } ->
              for _ = 1 to passes do
                for p = 0 to !next_heap - 1 do
                  K.touch kernel ~space:heap ~page:p ~access:Epcm_manager.Read
                done
              done
          | T.Close { file } -> (
              match Mgr_default.file_segment ucds ~file_id:file with
              | Some seg -> Mgr_default.close_file ucds seg
              | None -> ())
          | T.Admin { requests } -> Mgr_default.admin_call ~requests ucds)
        trace.T.ops;
      t1 := Engine.time ());
  Engine.run machine.Hw_machine.engine;
  let vm_elapsed = (!t1 -. !t0) /. 1_000_000.0 in
  let calls = Mgr_default.total_manager_calls ucds - calls0 in
  let c = machine.Hw_machine.cost in
  {
    v_elapsed_s = vm_elapsed +. (trace.T.vpp_library_delta_us /. 1_000_000.0);
    v_vm_elapsed_s = vm_elapsed;
    v_manager_calls = calls;
    v_migrate_calls = stats.K.migrate_calls - migrates0;
    v_manager_overhead_ms =
      float_of_int calls
      *. (Hw_cost.vpp_minimal_fault_via_manager c -. Hw_cost.ultrix_minimal_fault c)
      /. 1000.0;
    v_uio_reads = stats.K.uio_reads - reads0;
    v_uio_writes = stats.K.uio_writes - writes0;
    v_tlb_hit_rate = Hw_tlb.hit_rate machine.Hw_machine.tlb;
    v_pt_hits = Hw_page_table.hits machine.Hw_machine.page_table;
    v_pt_misses = Hw_page_table.misses machine.Hw_machine.page_table;
    v_pt_collisions = Hw_page_table.collisions machine.Hw_machine.page_table;
    v_pt_resident = Hw_page_table.resident machine.Hw_machine.page_table;
  }

let run_ultrix ?seed:_ trace =
  let machine = machine_128mb () in
  let uvm = Uvm.create machine in
  let pid = Uvm.create_process uvm ~name:trace.T.name in
  (* Warm phase: cache the inputs. *)
  let fds = Hashtbl.create 8 in
  List.iter
    (fun (file, kb) ->
      let fd = Uvm.open_file uvm ~file_id:file ~size_kb:kb in
      Uvm.preload uvm fd;
      Hashtbl.replace fds file fd)
    (T.input_files trace);
  List.iter
    (fun file -> Hashtbl.replace fds file (Uvm.open_file uvm ~file_id:file ~size_kb:0))
    (T.output_files trace);
  let stats = Uvm.stats uvm in
  let faults0 = stats.Uvm.faults and zeros0 = stats.Uvm.zero_fills in
  let reads0 = stats.Uvm.read_calls and writes0 = stats.Uvm.write_calls in
  let t0 = ref 0.0 and t1 = ref 0.0 in
  let next_heap = ref 0 in
  let write_pos = Hashtbl.create 8 in
  let c = machine.Hw_machine.cost in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      t0 := Engine.time ();
      List.iter
        (fun op ->
          match op with
          | T.Compute us -> Engine.delay us
          | T.Open_input _ -> Engine.delay c.Hw_cost.syscall_base
          | T.Open_output _ -> Engine.delay c.Hw_cost.syscall_base
          | T.Read_seq { file; kb } -> Uvm.read uvm (Hashtbl.find fds file) ~offset_kb:0 ~kb
          | T.Append { file; kb } ->
              let pos = try Hashtbl.find write_pos file with Not_found -> 0 in
              Uvm.write uvm (Hashtbl.find fds file) ~offset_kb:pos ~kb;
              Hashtbl.replace write_pos file (pos + kb)
          | T.Touch_heap { pages } ->
              for _ = 1 to pages do
                Uvm.touch uvm pid ~vpn:!next_heap ~access:Uvm.Write;
                incr next_heap
              done
          | T.Rescan_heap { passes } ->
              for _ = 1 to passes do
                for p = 0 to !next_heap - 1 do
                  Uvm.touch uvm pid ~vpn:p ~access:Uvm.Read
                done
              done
          | T.Close _ -> Engine.delay c.Hw_cost.syscall_base
          | T.Admin { requests } ->
              Engine.delay (float_of_int requests *. c.Hw_cost.syscall_base))
        trace.T.ops;
      t1 := Engine.time ());
  Engine.run machine.Hw_machine.engine;
  {
    u_elapsed_s = (!t1 -. !t0) /. 1_000_000.0;
    u_faults = stats.Uvm.faults - faults0;
    u_zero_fills = stats.Uvm.zero_fills - zeros0;
    u_read_calls = stats.Uvm.read_calls - reads0;
    u_write_calls = stats.Uvm.write_calls - writes0;
  }
