(* Sharded-DBMS throughput record (`vpp_repro shard`, vpp-shard/2).

   The same total transaction count runs through Db_shard at increasing
   shard counts; each shard is a self-contained deterministic machine,
   so a leg's shards fan over domains with Exp_par.map and the joined
   record is byte-identical to a sequential run. Aggregate throughput
   is total transactions over the slowest shard's simulated seconds —
   the honest parallel number: every shard has finished by then.

   Adding shards divides each shard's load (log forces, processors,
   locks) while 2PC taxes only the cross fraction, so aggregate TPS must rise
   strictly with shard count; the embedded checks pin that, exact
   commit/abort accounting, a bounded abort rate, frame conservation on
   every machine, the single-shard zero-delta (no 2PC messages, no DSM
   transfers — the transport is never instantiated) and seed-replay
   identity of the multi-shard leg. Only the wall_s fields vary between
   runs.

   The group-commit sweep runs one shard at several worker counts, once
   with group commit and once with per-commit forcing (Db_wal's
   reference mode), and reports log forces per commit, the commit batch
   and commit latency against it. Its checks require group commit to
   force less than once per commit at the default worker count, to
   force less per commit the more workers there are, to beat per-commit
   forcing wherever commits overlap, and to be identical to it with a
   single worker, where they never do. *)

module J = Sim_json

let schema_version = "vpp-shard/2"

type leg = {
  g_shards : int;
  g_txns : int;
  g_commits : int;
  g_aborts : int;
  g_abort_rate : float;
  g_local : int;
  g_cross : int;
  g_msgs : int;
  g_prepares : int;
  g_transfers : int;
  g_timeouts : int;
  g_tps : float;
  g_p50_ms : float;
  g_p99_ms : float;
  g_sim_s : float;
  g_flushes : int;
  g_conserved : bool;
  g_wall_s : float;
  g_detail : Db_shard.result list;
}

type sweep_row = {
  c_workers : int;
  c_group : bool;
  c_txns : int;
  c_flushes : int;
  c_parks : int;
  c_tps : float;
  c_commit_p50_ms : float;
  c_commit_p99_ms : float;
  c_txn_p99_ms : float;
}

type result = {
  mode : string;
  jobs : int;
  total_txns : int;
  cross_fraction : float;
  legs : leg list;
  sweep_txns : int;
  sweep : sweep_row list;
  replay_identical : bool;
  checks : Exp_report.check list;
}

let abort_rate_bound = 0.05

let sum f detail = List.fold_left (fun acc (r : Db_shard.result) -> acc + f r) 0 detail
let fmax f detail = List.fold_left (fun acc (r : Db_shard.result) -> Float.max acc (f r)) 0.0 detail

let run_leg ~spec ~shards ~jobs =
  let spec = { spec with Db_shard.sp_shards = shards } in
  let t0 = Unix.gettimeofday () in
  let detail =
    Exp_par.map ~jobs (List.init shards (fun shard () -> Db_shard.run_shard spec ~shard))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let txns = sum (fun r -> r.Db_shard.r_txns) detail in
  let sim_s = fmax (fun r -> r.Db_shard.r_sim_us) detail /. 1_000_000.0 in
  {
    g_shards = shards;
    g_txns = txns;
    g_commits = sum (fun r -> r.Db_shard.r_commits) detail;
    g_aborts = sum (fun r -> r.Db_shard.r_aborts) detail;
    g_abort_rate =
      (if txns = 0 then 0.0
       else float_of_int (sum (fun r -> r.Db_shard.r_aborts) detail) /. float_of_int txns);
    g_local = sum (fun r -> r.Db_shard.r_local) detail;
    g_cross = sum (fun r -> r.Db_shard.r_cross) detail;
    g_msgs = sum (fun r -> r.Db_shard.r_msgs) detail;
    g_prepares = sum (fun r -> r.Db_shard.r_prepares) detail;
    g_transfers = sum (fun r -> r.Db_shard.r_dsm_transfers) detail;
    g_timeouts = sum (fun r -> r.Db_shard.r_lock_timeouts) detail;
    g_tps = (if sim_s > 0.0 then float_of_int txns /. sim_s else 0.0);
    g_p50_ms = fmax (fun r -> r.Db_shard.r_p50_ms) detail;
    g_p99_ms = fmax (fun r -> r.Db_shard.r_p99_ms) detail;
    g_sim_s = sim_s;
    g_flushes = sum (fun r -> r.Db_shard.r_wal_flushes) detail;
    g_conserved = List.for_all (fun (r : Db_shard.result) -> r.Db_shard.r_conserved) detail;
    g_wall_s = wall_s;
    g_detail = detail;
  }

(* The replay check compares everything but the wall clock. *)
let leg_eq a b = { a with g_wall_s = 0.0 } = { b with g_wall_s = 0.0 }

(* A sweep configuration runs with its machine's metrics sink on, so its
   disk records each commit's log-force latency (parking included) under
   "wal.flush". A single shard commits only locally, so those are its
   commit latencies. *)
let sweep_row ~spec ~workers ~group =
  let spec = { spec with Db_shard.sp_shards = 1; sp_workers = workers; sp_group_commit = group } in
  let w = Db_shard.build spec ~shard:0 in
  let machine = Db_shard.machine w in
  Hw_machine.set_profiling machine true;
  let r = Db_shard.execute w in
  let commit_ms q =
    match Sim_metrics.hist (Hw_machine.metrics machine) ~kind:"wal.flush" with
    | Some h -> Sim_metrics.Hist.quantile h q /. 1000.0
    | None -> 0.0
  in
  {
    c_workers = workers;
    c_group = group;
    c_txns = r.Db_shard.r_txns;
    c_flushes = r.Db_shard.r_wal_flushes;
    c_parks = r.Db_shard.r_wal_parks;
    c_tps = r.Db_shard.r_tps;
    c_commit_p50_ms = commit_ms 50.0;
    c_commit_p99_ms = commit_ms 99.0;
    c_txn_p99_ms = r.Db_shard.r_p99_ms;
  }

let per_commit c = float_of_int c.c_flushes /. float_of_int (max 1 c.c_txns)
let batch c = float_of_int c.c_txns /. float_of_int (max 1 c.c_flushes)

(* (group, forced) rows of each worker count, ascending. *)
let sweep_pairs sweep =
  List.filter_map
    (fun g ->
      if not g.c_group then None
      else
        List.find_opt (fun f -> (not f.c_group) && f.c_workers = g.c_workers) sweep
        |> Option.map (fun f -> (g, f)))
    sweep

let sweep_checks sweep =
  let pairs = sweep_pairs sweep in
  let overlapping = List.filter (fun (g, _) -> g.c_workers > 1) pairs in
  let solo = List.filter (fun (g, _) -> g.c_workers = 1) pairs in
  let widest = List.hd (List.rev pairs) in
  (* Two workers can alternate, each committing while the other's force
     is in flight and so leading a force of one record; batching shows
     from three up, about half the workers' commits per force. *)
  let rec falling = function
    | (a, _) :: ((b, _) :: _ as rest) -> per_commit b < per_commit a && falling rest
    | _ -> true
  in
  let default_workers = Db_shard.default.Db_shard.sp_workers in
  [
    Exp_report.check
      ~what:
        (Printf.sprintf "group commit forces the log less than once per commit at %d workers"
           default_workers)
      ~pass:
        (List.exists
           (fun (g, _) -> g.c_workers = default_workers && g.c_flushes < g.c_txns)
           overlapping)
      ~detail:
        (String.concat ", "
           (List.map
              (fun (g, _) -> Printf.sprintf "%d workers %.3f" g.c_workers (per_commit g))
              overlapping));
    Exp_report.check ~what:"group commit's forces per commit fall as workers are added"
      ~pass:(overlapping <> [] && falling overlapping)
      ~detail:
        (String.concat ", "
           (List.map
              (fun (g, _) -> Printf.sprintf "%d workers %.2f commits/force" g.c_workers (batch g))
              overlapping));
    Exp_report.check ~what:"group commit beats per-commit forcing on TPS wherever commits overlap"
      ~pass:(overlapping <> [] && List.for_all (fun (g, f) -> g.c_tps > f.c_tps) overlapping)
      ~detail:
        (let g, f = widest in
         Printf.sprintf "%.0f vs %.0f TPS at %d workers (x%.2f)" g.c_tps f.c_tps g.c_workers
           (g.c_tps /. f.c_tps));
    Exp_report.check ~what:"per-commit forcing forces the log exactly once per commit"
      ~pass:(List.for_all (fun (_, f) -> f.c_flushes = f.c_txns && f.c_parks = 0) pairs)
      ~detail:(Printf.sprintf "%d configurations" (List.length pairs));
    Exp_report.check ~what:"one worker: group commit identical to per-commit forcing"
      ~pass:
        (solo <> []
        && List.for_all
             (fun (g, f) -> { g with c_group = false } = f && g.c_parks = 0)
             solo)
      ~detail:
        (match solo with
        | (g, _) :: _ -> Printf.sprintf "%d forces, %.0f TPS" g.c_flushes g.c_tps
        | [] -> "no single-worker configuration");
  ]

let checks_of ~legs ~replay_identical ~total_txns =
  let single = List.find (fun l -> l.g_shards = 1) legs in
  let multi = List.filter (fun l -> l.g_shards > 1) legs in
  let four = List.hd multi in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a.g_tps < b.g_tps && increasing rest
    | _ -> true
  in
  [
    Exp_report.check ~what:"frame conservation held on every shard machine, every leg"
      ~pass:(List.for_all (fun l -> l.g_conserved) legs)
      ~detail:
        (Printf.sprintf "%d legs, %d machines" (List.length legs)
           (List.fold_left (fun acc l -> acc + l.g_shards) 0 legs));
    Exp_report.check ~what:"every transaction accounted: commits + aborts = total, every leg"
      ~pass:
        (List.for_all
           (fun l ->
             l.g_commits + l.g_aborts = l.g_txns
             && l.g_local + l.g_cross = l.g_txns
             && l.g_txns = total_txns)
           legs)
      ~detail:(Printf.sprintf "%d transactions per leg" total_txns);
    Exp_report.check
      ~what:
        (Printf.sprintf "abort rate bounded (< %.0f%%) in every leg" (100.0 *. abort_rate_bound))
      ~pass:(List.for_all (fun l -> l.g_abort_rate < abort_rate_bound) legs)
      ~detail:
        (Printf.sprintf "worst %.3f%%"
           (100.0 *. List.fold_left (fun acc l -> Float.max acc l.g_abort_rate) 0.0 legs));
    Exp_report.check ~what:"single shard is zero-delta: no 2PC messages, no DSM transfers"
      ~pass:
        (single.g_msgs = 0 && single.g_transfers = 0 && single.g_cross = 0
        && single.g_aborts = 0)
      ~detail:(Printf.sprintf "%d local transactions" single.g_local);
    Exp_report.check ~what:"multi-shard legs run two-phase commits over the interconnect"
      ~pass:(List.for_all (fun l -> l.g_cross > 0 && l.g_msgs > 0 && l.g_prepares > 0) multi)
      ~detail:
        (Printf.sprintf "%d cross-shard txns, %d messages at %d shards" four.g_cross four.g_msgs
           four.g_shards);
    Exp_report.check ~what:"aggregate TPS strictly increasing with shard count"
      ~pass:(increasing legs)
      ~detail:
        (String.concat " -> "
           (List.map (fun l -> Printf.sprintf "%.0f" l.g_tps) legs));
    Exp_report.check
      ~what:
        (Printf.sprintf "%d shards beat one shard on the same %d transactions" four.g_shards
           total_txns)
      ~pass:(four.g_tps > single.g_tps)
      ~detail:
        (Printf.sprintf "%.0f vs %.0f TPS (x%.2f)" four.g_tps single.g_tps
           (four.g_tps /. single.g_tps));
    Exp_report.check ~what:"multi-shard leg deterministic per seed (replay identical)"
      ~pass:replay_identical
      ~detail:(Printf.sprintf "seed %Ld" Db_shard.default.Db_shard.sp_seed);
  ]

let run ?(quick = false) ?(jobs = 1) () =
  let total_txns = if quick then 20_000 else 1_000_000 in
  let spec = { Db_shard.default with Db_shard.sp_total_txns = total_txns } in
  let shard_counts = if quick then [ 1; 4 ] else [ 1; 4; 8 ] in
  let legs = List.map (fun shards -> run_leg ~spec ~shards ~jobs) shard_counts in
  let replay = run_leg ~spec ~shards:4 ~jobs in
  let four = List.find (fun l -> l.g_shards = 4) legs in
  let sweep_txns = if quick then 4_000 else 100_000 in
  let sweep =
    Exp_par.map ~jobs
      (List.concat_map
         (fun workers ->
           List.map
             (fun group () ->
               sweep_row ~spec:{ spec with Db_shard.sp_total_txns = sweep_txns } ~workers ~group)
             [ true; false ])
         (if quick then [ 1; 4; 8 ] else [ 1; 2; 4; 8; 16 ]))
  in
  {
    mode = (if quick then "quick" else "full");
    jobs;
    total_txns;
    cross_fraction = spec.Db_shard.sp_cross_fraction;
    legs;
    sweep_txns;
    sweep;
    replay_identical = leg_eq four replay;
    checks =
      checks_of ~legs ~replay_identical:(leg_eq four replay) ~total_txns @ sweep_checks sweep;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Shard: parallel DBMS shards with two-phase commit (%s record, %s mode)\n"
       schema_version r.mode);
  Buffer.add_string buf
    (Printf.sprintf
       "%d transactions per leg, %.0f%% cross-shard, %d worker(s) x %d CPU(s) per shard, \
        jobs=%d\n"
       r.total_txns
       (100.0 *. r.cross_fraction)
       Db_shard.default.Db_shard.sp_workers Db_shard.default.Db_shard.sp_cpus r.jobs);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [
           "shards"; "txns"; "commit"; "abort"; "abort %"; "2pc msgs"; "dsm xfer"; "forces";
           "p50 ms"; "p99 ms"; "sim (s)"; "agg TPS"; "wall (s)";
         ]
       ~rows:
         (List.map
            (fun l ->
              [
                string_of_int l.g_shards;
                string_of_int l.g_txns;
                string_of_int l.g_commits;
                string_of_int l.g_aborts;
                Printf.sprintf "%.3f" (100.0 *. l.g_abort_rate);
                string_of_int l.g_msgs;
                string_of_int l.g_transfers;
                string_of_int l.g_flushes;
                Printf.sprintf "%.1f" l.g_p50_ms;
                Printf.sprintf "%.1f" l.g_p99_ms;
                Printf.sprintf "%.1f" l.g_sim_s;
                Printf.sprintf "%.0f" l.g_tps;
                Printf.sprintf "%.2f" l.g_wall_s;
              ])
            r.legs));
  (* Per-shard rows of the widest leg: the load-balance picture. *)
  let widest = List.fold_left (fun acc l -> if l.g_shards > acc.g_shards then l else acc)
      (List.hd r.legs) r.legs in
  Buffer.add_string buf
    (Printf.sprintf "\nPer-shard detail at %d shards:\n" widest.g_shards);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [ "shard"; "txns"; "commit"; "abort"; "cross"; "timeouts"; "flushes"; "p99 ms"; "TPS" ]
       ~rows:
         (List.map
            (fun (d : Db_shard.result) ->
              [
                string_of_int d.Db_shard.r_shard;
                string_of_int d.Db_shard.r_txns;
                string_of_int d.Db_shard.r_commits;
                string_of_int d.Db_shard.r_aborts;
                string_of_int d.Db_shard.r_cross;
                string_of_int d.Db_shard.r_lock_timeouts;
                string_of_int d.Db_shard.r_wal_flushes;
                Printf.sprintf "%.1f" d.Db_shard.r_p99_ms;
                Printf.sprintf "%.0f" d.Db_shard.r_tps;
              ])
            widest.g_detail));
  Buffer.add_string buf
    (Printf.sprintf
       "\nGroup commit vs per-commit forcing (1 shard, %d transactions per configuration):\n"
       r.sweep_txns);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [
           "workers"; "log"; "forces"; "forces/commit"; "commits/force"; "parks"; "TPS";
           "commit p50 ms"; "commit p99 ms"; "txn p99 ms";
         ]
       ~rows:
         (List.map
            (fun c ->
              [
                string_of_int c.c_workers;
                (if c.c_group then "group" else "per-commit");
                string_of_int c.c_flushes;
                Printf.sprintf "%.3f" (per_commit c);
                Printf.sprintf "%.2f" (batch c);
                string_of_int c.c_parks;
                Printf.sprintf "%.0f" c.c_tps;
                Printf.sprintf "%.1f" c.c_commit_p50_ms;
                Printf.sprintf "%.1f" c.c_commit_p99_ms;
                Printf.sprintf "%.1f" c.c_txn_p99_ms;
              ])
            r.sweep));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks r.checks);
  Buffer.contents buf

let shard_json (d : Db_shard.result) =
  J.Obj
    [
      ("shard", J.Num (float_of_int d.Db_shard.r_shard));
      ("txns", J.Num (float_of_int d.Db_shard.r_txns));
      ("commits", J.Num (float_of_int d.Db_shard.r_commits));
      ("aborts", J.Num (float_of_int d.Db_shard.r_aborts));
      ("local", J.Num (float_of_int d.Db_shard.r_local));
      ("cross", J.Num (float_of_int d.Db_shard.r_cross));
      ("p50_ms", J.Num d.Db_shard.r_p50_ms);
      ("p99_ms", J.Num d.Db_shard.r_p99_ms);
      ("tps", J.Num d.Db_shard.r_tps);
      ("sim_us", J.Num d.Db_shard.r_sim_us);
      ("events", J.Num (float_of_int d.Db_shard.r_events));
      ("msgs", J.Num (float_of_int d.Db_shard.r_msgs));
      ("prepares", J.Num (float_of_int d.Db_shard.r_prepares));
      ("wal_flushes", J.Num (float_of_int d.Db_shard.r_wal_flushes));
      ("wal_parks", J.Num (float_of_int d.Db_shard.r_wal_parks));
      ("dsm_transfers", J.Num (float_of_int d.Db_shard.r_dsm_transfers));
      ("lock_timeouts", J.Num (float_of_int d.Db_shard.r_lock_timeouts));
      ("frames", J.Num (float_of_int d.Db_shard.r_frames));
      ("conserved", J.Bool d.Db_shard.r_conserved);
    ]

let leg_json l =
  J.Obj
    [
      ("shards", J.Num (float_of_int l.g_shards));
      ("txns", J.Num (float_of_int l.g_txns));
      ("commits", J.Num (float_of_int l.g_commits));
      ("aborts", J.Num (float_of_int l.g_aborts));
      ("abort_rate", J.Num l.g_abort_rate);
      ("local", J.Num (float_of_int l.g_local));
      ("cross", J.Num (float_of_int l.g_cross));
      ("msgs", J.Num (float_of_int l.g_msgs));
      ("prepares", J.Num (float_of_int l.g_prepares));
      ("dsm_transfers", J.Num (float_of_int l.g_transfers));
      ("lock_timeouts", J.Num (float_of_int l.g_timeouts));
      ("tps", J.Num l.g_tps);
      ("p50_ms", J.Num l.g_p50_ms);
      ("p99_ms", J.Num l.g_p99_ms);
      ("sim_s", J.Num l.g_sim_s);
      ("wal_flushes", J.Num (float_of_int l.g_flushes));
      ("conserved", J.Bool l.g_conserved);
      ("wall_s", J.Num l.g_wall_s);
      ("per_shard", J.List (List.map shard_json l.g_detail));
    ]

let sweep_json c =
  J.Obj
    [
      ("workers", J.Num (float_of_int c.c_workers));
      ("group", J.Bool c.c_group);
      ("txns", J.Num (float_of_int c.c_txns));
      ("wal_flushes", J.Num (float_of_int c.c_flushes));
      ("flushes_per_commit", J.Num (per_commit c));
      ("commits_per_flush", J.Num (batch c));
      ("wal_parks", J.Num (float_of_int c.c_parks));
      ("tps", J.Num c.c_tps);
      ("commit_p50_ms", J.Num c.c_commit_p50_ms);
      ("commit_p99_ms", J.Num c.c_commit_p99_ms);
      ("txn_p99_ms", J.Num c.c_txn_p99_ms);
    ]

let to_json r =
  J.Obj
    [
      ("schema", J.Str schema_version);
      ("mode", J.Str r.mode);
      ("jobs", J.Num (float_of_int r.jobs));
      ("total_txns", J.Num (float_of_int r.total_txns));
      ("cross_fraction", J.Num r.cross_fraction);
      ("legs", J.List (List.map leg_json r.legs));
      ("sweep_txns", J.Num (float_of_int r.sweep_txns));
      ("group_commit", J.List (List.map sweep_json r.sweep));
      ("replay_identical", J.Bool r.replay_identical);
      ( "checks",
        J.List
          (List.map
             (fun (c : Exp_report.check) ->
               J.Obj
                 [
                   ("what", J.Str c.Exp_report.what);
                   ("pass", J.Bool c.Exp_report.pass);
                   ("detail", J.Str c.Exp_report.detail);
                 ])
             r.checks) );
    ]

let render_json r = J.to_string ~indent:true (to_json r) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Schema validation                                                   *)
(* ------------------------------------------------------------------ *)

let validate_json json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let require what = function Some v -> Ok v | None -> Error ("missing or ill-typed " ^ what) in
  let* schema = require "schema" (Option.bind (J.member "schema" json) J.to_str) in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" schema schema_version)
  in
  let* _mode = require "mode" (Option.bind (J.member "mode" json) J.to_str) in
  let* total =
    require "total_txns" (Option.bind (J.member "total_txns" json) J.to_float)
  in
  let* () = if total > 0.0 then Ok () else Error "no transactions in the record" in
  let* legs = require "legs" (Option.bind (J.member "legs" json) J.to_list) in
  let* () = if List.length legs >= 2 then Ok () else Error "expected at least two legs" in
  let leg_field what leg get = require ("leg " ^ what) (Option.bind (J.member what leg) get) in
  let* parsed =
    List.fold_left
      (fun acc leg ->
        let* acc = acc in
        let* shards = leg_field "shards" leg J.to_float in
        let* txns = leg_field "txns" leg J.to_float in
        let* commits = leg_field "commits" leg J.to_float in
        let* aborts = leg_field "aborts" leg J.to_float in
        let* abort_rate = leg_field "abort_rate" leg J.to_float in
        let* msgs = leg_field "msgs" leg J.to_float in
        let* transfers = leg_field "dsm_transfers" leg J.to_float in
        let* tps = leg_field "tps" leg J.to_float in
        let* conserved = leg_field "conserved" leg J.to_bool in
        let name = Printf.sprintf "%.0f-shard leg" shards in
        if not conserved then Error (name ^ ": frame conservation failed")
        else if txns <> total then Error (name ^ ": transaction count drifted from total_txns")
        else if commits +. aborts <> txns then
          Error (name ^ ": commits + aborts <> transactions")
        else if abort_rate < 0.0 || abort_rate >= abort_rate_bound then
          Error (name ^ ": abort rate out of bounds")
        else if tps <= 0.0 then Error (name ^ ": no throughput recorded")
        else Ok ((shards, msgs, transfers, tps) :: acc))
      (Ok []) legs
  in
  let parsed = List.rev parsed in
  let* () =
    match List.find_opt (fun (s, _, _, _) -> s = 1.0) parsed with
    | None -> Error "missing the single-shard baseline leg"
    | Some (_, msgs, transfers, _) ->
        if msgs = 0.0 && transfers = 0.0 then Ok ()
        else Error "single-shard leg did 2PC or DSM work (zero-delta broken)"
  in
  let* () =
    if
      List.for_all
        (fun (s, msgs, _, _) -> s = 1.0 || msgs > 0.0)
        parsed
    then Ok ()
    else Error "a multi-shard leg exchanged no 2PC messages"
  in
  let rec tps_increasing = function
    | (_, _, _, a) :: ((_, _, _, b) :: _ as rest) ->
        if a < b then tps_increasing rest
        else Error "aggregate TPS not strictly increasing with shard count"
    | _ -> Ok ()
  in
  let* () = tps_increasing parsed in
  let* rows = require "group_commit" (Option.bind (J.member "group_commit" json) J.to_list) in
  let* rows =
    List.fold_left
      (fun acc row ->
        let* acc = acc in
        let field what get =
          require ("group_commit " ^ what) (Option.bind (J.member what row) get)
        in
        let* workers = field "workers" J.to_float in
        let* group = field "group" J.to_bool in
        let* txns = field "txns" J.to_float in
        let* flushes = field "wal_flushes" J.to_float in
        let* tps = field "tps" J.to_float in
        Ok ((workers, group, txns, flushes, tps) :: acc))
      (Ok []) rows
  in
  let* () =
    List.fold_left
      (fun acc (workers, group, txns, flushes, tps) ->
        let* () = acc in
        let name = Printf.sprintf "%.0f-worker group-commit row" workers in
        if not group then Ok ()
        else
          match List.find_opt (fun (w, g, _, _, _) -> w = workers && not g) rows with
          | None -> Error (name ^ ": no per-commit forcing row to compare against")
          | Some (_, _, _, f_flushes, f_tps) ->
              if f_flushes <> txns then
                Error (name ^ ": per-commit forcing did not force once per commit")
              else if workers = 1.0 then
                if flushes = f_flushes && tps = f_tps then Ok ()
                else Error (name ^ ": one worker differs from per-commit forcing")
              else if tps <= f_tps then
                Error (name ^ ": group commit did not beat per-commit forcing")
              else Ok ())
      (Ok ()) rows
  in
  let group_rows =
    List.filter_map
      (fun (w, g, txns, flushes, _) -> if g && w > 1.0 then Some (w, flushes /. txns) else None)
      (List.rev rows)
  in
  let* () =
    let default_workers = float_of_int Db_shard.default.Db_shard.sp_workers in
    match List.assoc_opt default_workers group_rows with
    | None -> Error "no group-commit row at the default worker count"
    | Some per_commit when per_commit >= 1.0 ->
        Error "group commit forced once per commit or more at the default worker count"
    | Some _ -> Ok ()
  in
  let rec falling = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        if b < a then falling rest
        else Error "group commit's forces per commit did not fall as workers were added"
    | _ -> Ok ()
  in
  let* () = falling group_rows in
  let* replay =
    require "replay_identical" (Option.bind (J.member "replay_identical" json) J.to_bool)
  in
  let* () = if replay then Ok () else Error "multi-shard leg was not deterministic per seed" in
  let* checks = require "checks" (Option.bind (J.member "checks" json) J.to_list) in
  List.fold_left
    (fun acc c ->
      let* () = acc in
      let* what = require "check what" (Option.bind (J.member "what" c) J.to_str) in
      let* pass = require "check pass" (Option.bind (J.member "pass" c) J.to_bool) in
      if pass then Ok () else Error ("failed check: " ^ what))
    (Ok ()) checks
