module K = Epcm_kernel
module Seg = Epcm_segment
module Engine = Sim_engine
module Resource = Sim_sync.Resource
module Rng = Sim_rng
module Cfg = Db_config

type result = {
  label : string;
  avg_ms : float;
  worst_ms : float;
  p95_ms : float;
  txns : int;
  avg_dc_ms : float;
  avg_join_ms : float;
  page_in_events : int;
  regenerations : int;
  cpu_utilisation : float;
  lock_waits : int;
  frames_conserved : bool;
}

(* Relation ids used as lock-resource names. *)
let rel_accounts = 0
let rel_orders = 1
let rel_lineitems = 2
let rel_summary = 3

type world = {
  cfg : Cfg.t;
  machine : Hw_machine.t;
  kernel : K.t;
  mgr : Mgr_dbms.t;
  locks : Db_locks.t;
  cpus : Resource.t;
  rng : Rng.t;
  seg_accounts : Seg.id;
  seg_orders : Seg.id;
  seg_lineitems : Seg.id;
  seg_summary : Seg.id;
  indices : Mgr_dbms.index_id array;
  btree : Db_btree.t;  (* shared layout: all indices are 1 MB B+-trees *)
  mutable evicted : Mgr_dbms.index_id option;
  mutable next_txn : int;
  mutable txn_count : int;
  responses : Sim_stats.Series.t;
  dc_responses : Sim_stats.Series.t;
  join_responses : Sim_stats.Series.t;
}

(* The 14 ms/page disk of the SGI configuration: a fast-for-1992 server
   drive; 256 pages = one 1 MB index page-in of ~3.6 s, which is what makes
   the paging configuration hurt. *)
let table4_disk = { Hw_disk.seek_us = 9_200.0; half_rotation_us = 4_150.0; us_per_kb = 170.0 }

(* Scaled data layout: response times depend on what a transaction touches,
   not on total resident gigabytes, so the 120 MB database is represented
   with full-size indices (the moving part) and proportionally sized
   relations. *)
let accounts_pages = 4096
let orders_pages = 1024
let lineitems_pages = 1024

let build cfg =
  let total_pages =
    accounts_pages + orders_pages + lineitems_pages + cfg.Cfg.summary_pages
    + (cfg.Cfg.n_indices * cfg.Cfg.index_pages) + 4096
  in
  let machine =
    Hw_machine.create ~preset:Hw_machine.Sgi_4d_380 ~memory_bytes:(total_pages * 4096)
      ~disk_params:table4_disk ()
  in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let mgr = Mgr_dbms.create kernel ~source ~pool_capacity:1024 () in
  let seg_accounts = Mgr_dbms.create_relation mgr ~name:"accounts" ~pages:accounts_pages in
  let seg_orders = Mgr_dbms.create_relation mgr ~name:"orders" ~pages:orders_pages in
  let seg_lineitems = Mgr_dbms.create_relation mgr ~name:"lineitems" ~pages:lineitems_pages in
  let seg_summary = Mgr_dbms.create_relation mgr ~name:"summary" ~pages:cfg.Cfg.summary_pages in
  let with_indices = cfg.Cfg.indexing <> Cfg.No_index in
  let indices =
    if with_indices then
      Array.init cfg.Cfg.n_indices (fun i ->
          Mgr_dbms.create_index mgr ~name:(Printf.sprintf "index-%d" i)
            ~pages:cfg.Cfg.index_pages ())
    else [||]
  in
  let evicted =
    match cfg.Cfg.indexing with
    | Cfg.Index_with_paging | Cfg.Index_regeneration ->
        (* The allocation is 1 MB short of the virtual memory: one index is
           always out. *)
        let victim = indices.(0) in
        Mgr_dbms.evict_index mgr victim;
        Some victim
    | Cfg.No_index | Cfg.Index_in_memory -> None
  in
  (* Room for the responses a run measures (arrivals after the warm-up),
     plus a tenth: the two large series are allocated once, at their
     first sample, instead of doubling their way there. *)
  let expected = int_of_float (cfg.Cfg.tps *. (cfg.Cfg.duration_s -. cfg.Cfg.warmup_s) *. 1.1) in
  {
    cfg;
    machine;
    kernel;
    mgr;
    locks = Db_locks.create ();
    cpus = Resource.create machine.Hw_machine.engine ~capacity:cfg.Cfg.n_cpus;
    rng = Rng.create cfg.Cfg.seed;
    seg_accounts;
    seg_orders;
    seg_lineitems;
    seg_summary;
    indices;
    btree = Db_btree.create ~pages:cfg.Cfg.index_pages ();
    evicted;
    next_txn = 0;
    txn_count = 0;
    responses = Sim_stats.Series.create ~capacity:expected ();
    dc_responses = Sim_stats.Series.create ~capacity:expected ();
    join_responses = Sim_stats.Series.create ();
  }

let cpu_ms w ms = Resource.hold w.cpus (ms *. 1000.0)

let touch w seg page access = K.touch w.kernel ~space:seg ~page ~access

let resident w i = Mgr_dbms.index_resident w.mgr w.indices.(i)

(* The [k]-th resident index from [i] on. *)
let rec nth_resident w i k =
  if not (resident w i) then nth_resident w (i + 1) k
  else if k = 0 then w.indices.(i)
  else nth_resident w (i + 1) (k - 1)

let random_hot_index w =
  (* Uniform over the resident ("hot") indices. *)
  let hot = ref 0 in
  for i = 0 to Array.length w.indices - 1 do
    if resident w i then incr hot
  done;
  if !hot = 0 then w.indices.(0) else nth_resident w 0 (Rng.int w.rng !hot)

(* One keyed lookup: walk the B+-tree from the root to the leaf covering
   the key, touching each page on the path. *)
let use_index w idx ~key =
  Mgr_dbms.note_index_use w.mgr idx ~now:(Engine.time ());
  let seg = Mgr_dbms.index_segment w.mgr idx in
  List.iter (fun p -> touch w seg p Epcm_manager.Read) (Db_btree.lookup_path w.btree ~key)

(* Bring the cold index back under the index latch (X on the database
   node): nobody can start while the index is inconsistent, which is what
   multiplies one page fault's latency across every blocked process
   (paper §1). *)
let reload_cold_index w ~txn idx =
  Db_locks.acquire w.locks ~txn Db_locks.Database Db_locks.X;
  (* Another transaction may have reloaded it while we waited for the
     latch. *)
  if Mgr_dbms.index_resident w.mgr idx then Db_locks.release_all w.locks ~txn
  else begin
  (match w.cfg.Cfg.indexing with
  | Cfg.Index_with_paging ->
      (* 256 page faults, each filled from disk by the manager. *)
      Mgr_dbms.load_index_from_disk w.mgr idx
  | Cfg.Index_regeneration ->
      (* Rebuild from the (resident) relation: compute, then local fills. *)
      cpu_ms w w.cfg.Cfg.regen_ms;
      Mgr_dbms.regenerate_index w.mgr idx
  | Cfg.No_index | Cfg.Index_in_memory -> ());
  Mgr_dbms.note_index_use w.mgr idx ~now:(Engine.time ());
  (* Stay 1 MB over-committed: something else has to go. *)
  w.evicted <- Mgr_dbms.evict_lru_index w.mgr ~except:(Some idx);
  Db_locks.release_all w.locks ~txn
  end

let run_debit_credit w ~txn =
  let cfg = w.cfg in
  Db_locks.acquire w.locks ~txn Db_locks.Database Db_locks.IX;
  Db_locks.acquire w.locks ~txn (Db_locks.Relation rel_accounts) Db_locks.IX;
  let page = Rng.int w.rng accounts_pages in
  Db_locks.acquire w.locks ~txn (Db_locks.Page (rel_accounts, page)) Db_locks.X;
  (* Locate the account through an index, then touch the data pages. *)
  if Array.length w.indices > 0 then use_index w (random_hot_index w) ~key:page;
  for i = 0 to cfg.Cfg.dc_touch_pages - 1 do
    touch w w.seg_accounts (min (accounts_pages - 1) (page + i)) Epcm_manager.Write
  done;
  cpu_ms w cfg.Cfg.dc_service_ms;
  Db_locks.release_all w.locks ~txn

let run_join w ~txn =
  let cfg = w.cfg in
  Db_locks.acquire w.locks ~txn Db_locks.Database Db_locks.IX;
  Db_locks.acquire w.locks ~txn (Db_locks.Relation rel_orders) Db_locks.S;
  Db_locks.acquire w.locks ~txn (Db_locks.Relation rel_lineitems) Db_locks.S;
  Db_locks.acquire w.locks ~txn (Db_locks.Relation rel_summary) Db_locks.IX;
  (match cfg.Cfg.indexing with
  | Cfg.No_index ->
      (* Scan both relations. *)
      touch w w.seg_orders (Rng.int w.rng orders_pages) Epcm_manager.Read;
      touch w w.seg_lineitems (Rng.int w.rng lineitems_pages) Epcm_manager.Read;
      cpu_ms w cfg.Cfg.join_scan_ms
  | Cfg.Index_in_memory | Cfg.Index_with_paging | Cfg.Index_regeneration ->
      use_index w (random_hot_index w) ~key:(Rng.int w.rng (Db_btree.keys w.btree));
      use_index w (random_hot_index w) ~key:(Rng.int w.rng (Db_btree.keys w.btree));
      cpu_ms w cfg.Cfg.join_index_ms);
  (* Update the summary relation. *)
  let p1 = Rng.int w.rng cfg.Cfg.summary_pages in
  let p2 = Rng.int w.rng cfg.Cfg.summary_pages in
  let lo = min p1 p2 and hi = max p1 p2 in
  Db_locks.acquire w.locks ~txn (Db_locks.Page (rel_summary, lo)) Db_locks.X;
  if hi <> lo then Db_locks.acquire w.locks ~txn (Db_locks.Page (rel_summary, hi)) Db_locks.X;
  touch w w.seg_summary lo Epcm_manager.Write;
  touch w w.seg_summary hi Epcm_manager.Write;
  Db_locks.release_all w.locks ~txn

let run_txn w =
  let cfg = w.cfg in
  w.next_txn <- w.next_txn + 1;
  let txn = w.next_txn in
  let arrival = Engine.time () in
  let is_join = Rng.bernoulli w.rng cfg.Cfg.join_fraction in
  (* Does this transaction need the index that is currently out? The
     calibrated hit rate reproduces the paper's "one megabyte index is
     paged in every 500 transactions". *)
  (match w.evicted with
  | Some idx when Rng.bernoulli w.rng cfg.Cfg.p_evicted_index_needed ->
      reload_cold_index w ~txn idx
  | Some _ | None -> ());
  if is_join then run_join w ~txn else run_debit_credit w ~txn;
  let response_ms = (Engine.time () -. arrival) /. 1000.0 in
  w.txn_count <- w.txn_count + 1;
  if arrival >= cfg.Cfg.warmup_s *. 1_000_000.0 then begin
    Sim_stats.Series.add w.responses response_ms;
    Sim_stats.Series.add (if is_join then w.join_responses else w.dc_responses) response_ms
  end

let run cfg =
  let w = build cfg in
  let engine = w.machine.Hw_machine.engine in
  let duration_us = cfg.Cfg.duration_s *. 1_000_000.0 in
  let arrivals = Rng.split w.rng in
  Engine.spawn engine ~name:"arrivals" (fun () ->
      let rec loop () =
        Engine.delay (Rng.exponential arrivals ~mean:(1_000_000.0 /. cfg.Cfg.tps));
        if Engine.time () < duration_us then begin
          Engine.fork ~name:"txn" (fun () -> run_txn w);
          loop ()
        end
      in
      loop ());
  Engine.run engine;
  let series_avg s = if Sim_stats.Series.count s = 0 then 0.0 else Sim_stats.Series.mean s in
  {
    label = cfg.Cfg.label;
    avg_ms = series_avg w.responses;
    worst_ms = (if Sim_stats.Series.count w.responses = 0 then 0.0 else Sim_stats.Series.max w.responses);
    p95_ms =
      (if Sim_stats.Series.count w.responses = 0 then 0.0
       else Sim_stats.Series.percentile w.responses 95.0);
    txns = Sim_stats.Series.count w.responses;
    avg_dc_ms = series_avg w.dc_responses;
    avg_join_ms = series_avg w.join_responses;
    page_in_events = Mgr_dbms.page_in_events w.mgr;
    regenerations = Mgr_dbms.regenerations w.mgr;
    cpu_utilisation = Resource.utilisation w.cpus;
    lock_waits = Db_locks.total_blocked w.locks;
    frames_conserved = K.audit w.kernel;
  }

let paper_numbers =
  [
    ("No index", (866.0, 3770.0));
    ("Index in memory", (43.0, 410.0));
    ("Index with paging", (575.0, 3930.0));
    ("Index regeneration", (55.0, 680.0));
  ]

let render results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 4: Effect of Memory Usage on Transaction Response (ms)\n";
  let rows =
    List.map
      (fun r ->
        let paper_avg, paper_worst =
          match List.assoc_opt r.label paper_numbers with Some p -> p | None -> (0.0, 0.0)
        in
        [
          r.label;
          Printf.sprintf "%.0f" r.avg_ms;
          Printf.sprintf "%.0f" r.worst_ms;
          Printf.sprintf "%.0f" paper_avg;
          Printf.sprintf "%.0f" paper_worst;
          string_of_int r.txns;
          Printf.sprintf "%.2f" r.cpu_utilisation;
          string_of_int (r.page_in_events + r.regenerations);
        ])
      results
  in
  Buffer.add_string buf
    (Printf.sprintf "%s"
       (let header =
          [ "Configuration"; "Avg"; "Worst"; "paper Avg"; "paper Worst"; "txns"; "cpu";
            "reloads" ]
        in
        let widths =
          List.mapi
            (fun i h ->
              List.fold_left
                (fun acc row -> max acc (String.length (List.nth row i)))
                (String.length h) rows)
            header
        in
        let render_row row =
          String.concat "  "
            (List.map2 (fun w cell -> cell ^ String.make (w - String.length cell) ' ') widths row)
        in
        render_row header ^ "\n"
        ^ String.concat "--" (List.map (fun w -> String.make w '-') widths)
        ^ "\n"
        ^ String.concat "\n" (List.map render_row rows)
        ^ "\n"));
  Buffer.contents buf
