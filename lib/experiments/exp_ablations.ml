module K = Epcm_kernel
module G = Mgr_generic

type row = { cells : string list }

type ablation = {
  a_name : string;
  a_question : string;
  header : string list;
  rows : row list;
  finding : string;
  holds : bool;
}

let kernel_with_source ~frames () =
  let machine = Hw_machine.create ~memory_bytes:(frames * 4096) () in
  let kernel = K.create machine in
  (machine, kernel, K.initial_source kernel)

(* ------------------------------------------------------------------ *)
(* 1. Append allocation batch size                                    *)
(* ------------------------------------------------------------------ *)

let append_run ~batch =
  let machine, kernel, source = kernel_with_source ~frames:1024 () in
  let backing = Mgr_backing.memory () in
  let hooks =
    {
      (G.default_hooks ~backing) with
      G.batch_of =
        (fun ~seg:_ ~page ~kind ~high_water ->
          match kind with
          | G.File _ when page >= high_water -> batch
          | G.File _ | G.Anon -> 1);
    }
  in
  let g = G.create kernel ~name:"append" ~mode:`Separate_process ~backing ~source ~hooks () in
  let pages = 512 (* a 2 MB output file, as uncompress writes *) in
  let seg = G.create_segment g ~name:"out" ~pages ~kind:(G.File { file_id = 1 }) ~high_water:0 () in
  G.ensure_pool g ~count:(pages + 16);
  let migrates0 = (K.stats kernel).K.migrate_calls in
  let us =
    Exp_table1.timed machine (fun () ->
        for p = 0 to pages - 1 do
          K.uio_write kernel ~seg ~page:p (Hw_page_data.block ~file:1 ~block:p ~version:1)
        done)
  in
  ((K.stats kernel).K.migrate_calls - migrates0, us /. 1000.0)

let append_batch () =
  let batches = [ 1; 2; 4; 8; 16 ] in
  let results = List.map (fun b -> (b, append_run ~batch:b)) batches in
  let time_of b = snd (List.assoc b results) in
  let calls_of b = fst (List.assoc b results) in
  {
    a_name = "append-batch";
    a_question =
      "Why does the UCDS allocate file appends in 16KB (4-page) units instead of one page at \
       a time?";
    header = [ "batch (pages)"; "manager calls"; "elapsed (ms)"; "vs batch=4" ];
    rows =
      List.map
        (fun (b, (calls, ms)) ->
          {
            cells =
              [
                string_of_int b;
                string_of_int calls;
                Printf.sprintf "%.1f" ms;
                Printf.sprintf "x%.2f" (ms /. time_of 4);
              ];
          })
        results;
    finding =
      "Batch 4 (the paper's 16KB) cuts manager calls 4x over per-page allocation and \
       recovers most of the win: going 1->4 saves several times more than going 4->16, \
       because past 4 pages the per-page copy cost dominates the amortised per-fault IPC.";
    holds =
      calls_of 1 = 512 && calls_of 4 = 128
      && time_of 1 -. time_of 4 > 3.0 *. (time_of 4 -. time_of 16);
  }

(* ------------------------------------------------------------------ *)
(* 2. In-process vs separate-process fault delivery                    *)
(* ------------------------------------------------------------------ *)

let delivery_run ~mode =
  let machine, kernel, source = kernel_with_source ~frames:2048 () in
  let backing = Mgr_backing.memory () in
  let g = G.create kernel ~name:"mode" ~mode ~backing ~source ~pool_capacity:1500 () in
  let pages = 1024 in
  let seg = G.create_segment g ~name:"heap" ~pages ~kind:G.Anon () in
  G.ensure_pool g ~count:(pages + 8);
  let us =
    Exp_table1.timed machine (fun () ->
        for p = 0 to pages - 1 do
          K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write
        done)
  in
  us /. 1000.0

let delivery_mode () =
  let in_proc = delivery_run ~mode:`In_process in
  let server = delivery_run ~mode:`Separate_process in
  {
    a_name = "delivery-mode";
    a_question =
      "What does running the segment manager as a separate server cost a fault-heavy \
       application (4MB of first-touch faults)?";
    header = [ "delivery"; "elapsed (ms)"; "per fault (us)" ];
    rows =
      [
        { cells = [ "in-process (107us path)"; Printf.sprintf "%.1f" in_proc;
                    Printf.sprintf "%.0f" (in_proc *. 1000.0 /. 1024.0) ] };
        { cells = [ "separate server (379us path)"; Printf.sprintf "%.1f" server;
                    Printf.sprintf "%.0f" (server *. 1000.0 /. 1024.0) ] };
      ];
    finding =
      "The server path costs ~3.5x per fault (two context switches + IPC), which is why the \
       DBMS manager runs in-process while oblivious programs use the default server.";
    holds = server > in_proc *. 3.0 && server < in_proc *. 4.0;
  }

(* ------------------------------------------------------------------ *)
(* 3. Clock-sampling reprotect batch                                  *)
(* ------------------------------------------------------------------ *)

let reprotect_run ~batch =
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let backing = Mgr_backing.memory () in
  let hooks = { (G.default_hooks ~backing) with G.reprotect_batch = batch } in
  let g = G.create kernel ~name:"sampling" ~mode:`Separate_process ~backing ~source ~hooks () in
  let pages = 256 in
  let seg = G.create_segment g ~name:"ws" ~pages ~kind:G.Anon () in
  G.ensure_pool g ~count:(pages + 8);
  for p = 0 to pages - 1 do
    K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write
  done;
  G.protect_for_sampling g ~seg;
  let faults0 = (K.stats kernel).K.faults_protection in
  let us =
    Exp_table1.timed machine (fun () ->
        for p = 0 to pages - 1 do
          K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Read
        done)
  in
  ((K.stats kernel).K.faults_protection - faults0, us /. 1000.0)

let reprotect_batch () =
  let batches = [ 1; 4; 8; 16; 32 ] in
  let results = List.map (fun b -> (b, reprotect_run ~batch:b)) batches in
  let faults_of b = fst (List.assoc b results) in
  let time_of b = snd (List.assoc b results) in
  {
    a_name = "reprotect-batch";
    a_question =
      "The default manager re-enables protection on several contiguous pages per sampling \
       fault 'to reduce the overhead of handling these faults' — how much does that save \
       when re-touching a 256-page working set?";
    header = [ "batch (pages)"; "sampling faults"; "elapsed (ms)" ];
    rows =
      List.map
        (fun (b, (faults, ms)) ->
          { cells = [ string_of_int b; string_of_int faults; Printf.sprintf "%.2f" ms ] })
        results;
    finding =
      "Faults fall as 256/batch; batch 8 (the default) removes 87% of the sampling cost \
       while still sampling at sub-working-set granularity.";
    holds = faults_of 1 = 256 && faults_of 8 = 32 && time_of 8 < time_of 1 /. 3.0;
  }

(* ------------------------------------------------------------------ *)
(* 4. Regeneration/paging crossover                                   *)
(* ------------------------------------------------------------------ *)

let regeneration_crossover () =
  let quick cfg = { cfg with Db_config.duration_s = 90.0; warmup_s = 10.0 } in
  let paging = Db_engine.run (quick Db_config.index_with_paging) in
  let regen_points = [ 200.0; 350.0; 1000.0; 2000.0; 4000.0; 6000.0 ] in
  let results =
    List.map
      (fun regen_ms ->
        let cfg = { (quick Db_config.index_regeneration) with Db_config.regen_ms } in
        (regen_ms, Db_engine.run cfg))
      regen_points
  in
  let avg_of ms = (List.assoc ms results).Db_engine.avg_ms in
  {
    a_name = "regeneration-crossover";
    a_question =
      "Discard-and-regenerate beats paging only while regenerating is cheaper than the \
       ~3.6s page-in. Where is the crossover?";
    header = [ "regen compute (ms)"; "avg response (ms)"; "vs paging" ];
    rows =
      { cells = [ "paging (baseline)"; Printf.sprintf "%.0f" paging.Db_engine.avg_ms; "x1.00" ] }
      :: List.map
           (fun (ms, r) ->
             {
               cells =
                 [
                   Printf.sprintf "%.0f" ms;
                   Printf.sprintf "%.0f" r.Db_engine.avg_ms;
                   Printf.sprintf "x%.2f" (r.Db_engine.avg_ms /. paging.Db_engine.avg_ms);
                 ];
             })
           results;
    finding =
      "Regeneration wins by an order of magnitude at the paper's ~350ms rebuild cost and \
       loses its advantage as the rebuild approaches the page-in time — the space-time \
       tradeoff only the application can evaluate, which is the paper's thesis.";
    holds =
      avg_of 350.0 *. 4.0 < paging.Db_engine.avg_ms
      && avg_of 6000.0 > avg_of 350.0 *. 3.0;
  }

(* ------------------------------------------------------------------ *)
(* 5. Eviction destination                                            *)
(* ------------------------------------------------------------------ *)

(* An over-committed cyclic working set: [total] pages cycled [rounds]
   times through an allocation of [allowed] frames. Returns elapsed ms
   under each eviction destination. *)
let eviction_cycle_disk () =
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let disk_backing =
    Mgr_backing.disk machine.Hw_machine.disk ~page_bytes:4096
  in
  let g =
    G.create kernel ~name:"disk-evict" ~mode:`In_process ~backing:disk_backing ~source
      ~pool_capacity:64 ()
  in
  let total = 48 and allowed = 32 and rounds = 4 in
  let seg = G.create_segment g ~name:"ws" ~pages:total ~kind:G.Anon () in
  let us =
    Exp_table1.timed machine (fun () ->
        for _ = 1 to rounds do
          for p = 0 to total - 1 do
            K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write;
            if G.resident g ~seg > allowed then ignore (G.reclaim g ~count:8)
          done
        done)
  in
  us /. 1000.0

let eviction_cycle_compressed () =
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let mgr = Mgr_compressed.create kernel ~source ~pool_capacity:64 () in
  let total = 48 and allowed = 32 and rounds = 4 in
  let seg = Mgr_compressed.create_segment mgr ~name:"ws" ~pages:total in
  let next_evict = ref 0 in
  let us =
    Exp_table1.timed machine (fun () ->
        for _ = 1 to rounds do
          for p = 0 to total - 1 do
            K.touch kernel ~space:seg ~page:p ~access:Epcm_manager.Write;
            while Mgr_compressed.resident mgr ~seg > allowed do
              Mgr_compressed.evict mgr ~seg ~page:!next_evict;
              next_evict := (!next_evict + 1) mod total
            done
          done
        done)
  in
  us /. 1000.0

let eviction_destination () =
  let disk_ms = eviction_cycle_disk () in
  let compressed_ms = eviction_cycle_compressed () in
  {
    a_name = "eviction-destination";
    a_question =
      "A 48-page working set cycles through a 32-frame allocation: where should evicted \
       pages go?";
    header = [ "destination"; "elapsed (ms)" ];
    rows =
      [
        { cells = [ "disk (conventional swap)"; Printf.sprintf "%.1f" disk_ms ] };
        { cells = [ "compressed pool (2.1's 'page compression')"; Printf.sprintf "%.1f" compressed_ms ] };
      ];
    finding =
      "Compressing evicted pages turns ~15ms disk round trips into sub-millisecond \
       CPU work — an order of magnitude for working sets with reuse, exactly the kind of \
       manager the paper says processes can now build without kernel changes.";
    holds = disk_ms > compressed_ms *. 5.0;
  }

let run_all () =
  [
    append_batch ();
    delivery_mode ();
    reprotect_batch ();
    regeneration_crossover ();
    eviction_destination ();
  ]

let render a =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "Ablation: %s\n" a.a_name);
  Buffer.add_string buf (Printf.sprintf "Q: %s\n\n" a.a_question);
  Buffer.add_string buf (Exp_report.fmt_table ~header:a.header ~rows:(List.map (fun r -> r.cells) a.rows));
  Buffer.add_string buf (Printf.sprintf "\nFinding [%s]: %s\n" (if a.holds then "HOLDS" else "DID NOT HOLD") a.finding);
  Buffer.contents buf
