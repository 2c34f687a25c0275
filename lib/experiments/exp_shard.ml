(* Sharded-DBMS throughput record (`vpp_repro shard`, vpp-shard/3).

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
   identity of the multi-shard leg.

   The group-commit sweep runs one shard at several worker counts, once
   with group commit and once with per-commit forcing (Db_wal's
   reference mode), and reports log forces per commit, the commit batch
   and commit latency against it. Its checks require group commit to
   force less than once per commit at the default worker count, to
   force less per commit the more workers there are, to beat per-commit
   forcing wherever commits overlap, and to be identical to it with a
   single worker, where they never do. *)

let schema_version = "vpp-shard/3"

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
  let detail =
    Exp_par.map ~jobs (List.init shards (fun shard () -> Db_shard.run_shard spec ~shard))
  in
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
    g_detail = detail;
  }

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
        (match List.rev pairs with
        | (g, f) :: _ ->
            Printf.sprintf "%.0f vs %.0f TPS at %d workers (x%.2f)" g.c_tps f.c_tps g.c_workers
              (g.c_tps /. f.c_tps)
        | [] -> "no configuration");
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

let leg_checks ~single ~four ~multi r =
  let legs = r.legs and total_txns = r.total_txns in
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
      ~pass:r.replay_identical
      ~detail:(Printf.sprintf "seed %Ld" Db_shard.default.Db_shard.sp_seed);
  ]

let checks r =
  let multi = List.filter (fun l -> l.g_shards > 1) r.legs in
  (match (List.find_opt (fun l -> l.g_shards = 1) r.legs, multi) with
  | Some single, four :: _ -> leg_checks ~single ~four ~multi r
  | _ ->
      [
        Exp_report.check ~what:"record carries a single-shard and a multi-shard leg" ~pass:false
          ~detail:
            (String.concat ", " (List.map (fun l -> Printf.sprintf "%d shards" l.g_shards) r.legs));
      ])
  @ sweep_checks r.sweep

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
  let r =
    {
      mode = (if quick then "quick" else "full");
      total_txns;
      cross_fraction = spec.Db_shard.sp_cross_fraction;
      legs;
      sweep_txns;
      sweep;
      replay_identical = four = replay;
      checks = [];
    }
  in
  { r with checks = checks r }

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
       "%d transactions per leg, %.0f%% cross-shard, %d worker(s) x %d CPU(s) per shard\n"
       r.total_txns
       (100.0 *. r.cross_fraction)
       Db_shard.default.Db_shard.sp_workers Db_shard.default.Db_shard.sp_cpus);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [
           "shards"; "txns"; "commit"; "abort"; "abort %"; "2pc msgs"; "dsm xfer"; "forces";
           "p50 ms"; "p99 ms"; "sim (s)"; "agg TPS";
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

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)
(* ------------------------------------------------------------------ *)

let shard_detail =
  let open Exp_codec in
  obj
    (fun r_shard r_txns r_commits r_aborts r_local r_cross r_p50_ms r_p99_ms r_tps r_sim_us
         r_events r_msgs r_prepares r_wal_flushes r_wal_parks r_dsm_transfers r_lock_timeouts
         r_frames r_conserved ->
      { Db_shard.r_shard; r_txns; r_commits; r_aborts; r_local; r_cross; r_p50_ms;
        r_p99_ms; r_tps; r_sim_us; r_events; r_msgs; r_prepares; r_wal_flushes;
        r_wal_parks; r_dsm_transfers; r_lock_timeouts; r_frames; r_conserved })
  |> mem "shard" int (fun d -> d.Db_shard.r_shard)
  |> mem "txns" int (fun d -> d.Db_shard.r_txns)
  |> mem "commits" int (fun d -> d.Db_shard.r_commits)
  |> mem "aborts" int (fun d -> d.Db_shard.r_aborts)
  |> mem "local" int (fun d -> d.Db_shard.r_local)
  |> mem "cross" int (fun d -> d.Db_shard.r_cross)
  |> mem "p50_ms" float (fun d -> d.Db_shard.r_p50_ms)
  |> mem "p99_ms" float (fun d -> d.Db_shard.r_p99_ms)
  |> mem "tps" float (fun d -> d.Db_shard.r_tps)
  |> mem "sim_us" float (fun d -> d.Db_shard.r_sim_us)
  |> mem "events" int (fun d -> d.Db_shard.r_events)
  |> mem "msgs" int (fun d -> d.Db_shard.r_msgs)
  |> mem "prepares" int (fun d -> d.Db_shard.r_prepares)
  |> mem "wal_flushes" int (fun d -> d.Db_shard.r_wal_flushes)
  |> mem "wal_parks" int (fun d -> d.Db_shard.r_wal_parks)
  |> mem "dsm_transfers" int (fun d -> d.Db_shard.r_dsm_transfers)
  |> mem "lock_timeouts" int (fun d -> d.Db_shard.r_lock_timeouts)
  |> mem "frames" int (fun d -> d.Db_shard.r_frames)
  |> mem "conserved" bool (fun d -> d.Db_shard.r_conserved)
  |> finish

let leg =
  let open Exp_codec in
  obj
    (fun g_shards g_txns g_commits g_aborts g_abort_rate g_local g_cross g_msgs g_prepares
         g_transfers g_timeouts g_tps g_p50_ms g_p99_ms g_sim_s g_flushes g_conserved g_detail ->
      { g_shards; g_txns; g_commits; g_aborts; g_abort_rate; g_local; g_cross; g_msgs;
        g_prepares; g_transfers; g_timeouts; g_tps; g_p50_ms; g_p99_ms; g_sim_s; g_flushes;
        g_conserved; g_detail })
  |> mem "shards" int (fun l -> l.g_shards)
  |> mem "txns" int (fun l -> l.g_txns)
  |> mem "commits" int (fun l -> l.g_commits)
  |> mem "aborts" int (fun l -> l.g_aborts)
  |> mem "abort_rate" (where "negative abort rate" (fun x -> x >= 0.0) float) (fun l ->
         l.g_abort_rate)
  |> mem "local" int (fun l -> l.g_local)
  |> mem "cross" int (fun l -> l.g_cross)
  |> mem "msgs" int (fun l -> l.g_msgs)
  |> mem "prepares" int (fun l -> l.g_prepares)
  |> mem "dsm_transfers" int (fun l -> l.g_transfers)
  |> mem "lock_timeouts" int (fun l -> l.g_timeouts)
  |> mem "tps" (where "no throughput recorded" (fun x -> x > 0.0) float) (fun l -> l.g_tps)
  |> mem "p50_ms" float (fun l -> l.g_p50_ms)
  |> mem "p99_ms" float (fun l -> l.g_p99_ms)
  |> mem "sim_s" float (fun l -> l.g_sim_s)
  |> mem "wal_flushes" int (fun l -> l.g_flushes)
  |> mem "conserved" bool (fun l -> l.g_conserved)
  |> mem "per_shard" (list shard_detail) (fun l -> l.g_detail)
  |> finish

let sweep_row =
  let open Exp_codec in
  obj
    (fun c_workers c_group c_txns c_flushes c_parks c_tps c_commit_p50_ms c_commit_p99_ms
         c_txn_p99_ms ->
      { c_workers; c_group; c_txns; c_flushes; c_parks; c_tps; c_commit_p50_ms;
        c_commit_p99_ms; c_txn_p99_ms })
  |> mem "workers" int (fun c -> c.c_workers)
  |> mem "group" bool (fun c -> c.c_group)
  |> mem "txns" int (fun c -> c.c_txns)
  |> mem "wal_flushes" int (fun c -> c.c_flushes)
  |> out "flushes_per_commit" float per_commit
  |> out "commits_per_flush" float batch
  |> mem "wal_parks" int (fun c -> c.c_parks)
  |> mem "tps" float (fun c -> c.c_tps)
  |> mem "commit_p50_ms" float (fun c -> c.c_commit_p50_ms)
  |> mem "commit_p99_ms" float (fun c -> c.c_commit_p99_ms)
  |> mem "txn_p99_ms" float (fun c -> c.c_txn_p99_ms)
  |> finish

(* Every group-commit row is measured against a per-commit row. *)
let paired sweep =
  List.length (sweep_pairs sweep) = List.length (List.filter (fun c -> c.c_group) sweep)

let codec =
  let open Exp_codec in
  obj
    (fun mode total_txns cross_fraction legs sweep_txns sweep replay_identical checks ->
      { mode; total_txns; cross_fraction; legs; sweep_txns; sweep; replay_identical; checks })
  |> tag "schema" schema_version
  |> mem "mode" string (fun r -> r.mode)
  |> mem "total_txns" (where "no transactions in the record" (fun n -> n > 0) int) (fun r ->
         r.total_txns)
  |> mem "cross_fraction" float (fun r -> r.cross_fraction)
  |> mem "legs" (where "expected at least two legs" (fun l -> List.length l >= 2) (list leg))
       (fun r -> r.legs)
  |> mem "sweep_txns" int (fun r -> r.sweep_txns)
  |> mem "group_commit"
       (where "a group-commit row has no per-commit forcing row to compare against" paired
          (list sweep_row))
       (fun r -> r.sweep)
  |> mem "replay_identical" bool (fun r -> r.replay_identical)
  |> mem "checks" (list check) (fun r -> r.checks)
  |> finish
