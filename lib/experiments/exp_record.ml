module J = Sim_json

type 'r spec = {
  name : string;
  doc : string;
  title : string;
  schema : string;
  out : string;
  writes : bool;
  wall : string list;
  run : quick:bool -> jobs:int option -> 'r;
  render : 'r -> string;
  codec : 'r Exp_codec.t;
  checks : 'r -> Exp_report.check list;
}

type t = Record : 'r spec -> t

let all =
  [
    Record
      { name = "profile"; schema = Exp_profile.schema_version; out = "BENCH_observability.json";
        writes = false; wall = [];
        title = "Observability: Table 1 cost attribution and latency histograms";
        doc = "Cost attribution for the Table 1 paths plus latency histograms (not a paper table)";
        run = (fun ~quick:_ ~jobs:_ -> Exp_profile.run ());
        render = Exp_profile.render; codec = Exp_profile.codec; checks = Exp_profile.checks };
    Record
      { name = "perf"; schema = Exp_scale.schema_version; out = "BENCH_perf.json"; writes = true;
        wall =
          [ "wall_s"; "events_per_s"; "faults_per_s"; "migrated_pages_per_s"; "sequential_s";
            "parallel_s"; "speedup" ];
        title = "Perf: simulator throughput at scale";
        doc =
          "Simulator throughput at 8 MB/512 MB/4 GB machine sizes, the 4 KB-vs-superpage \
           streaming legs and the parallel-driver timing (the vpp-perf/2 record; not a paper \
           table)";
        run = (fun ~quick ~jobs -> Exp_scale.run ~quick ?jobs ());
        render = Exp_scale.render; codec = Exp_scale.codec; checks = Exp_scale.checks };
    Record
      { name = "market"; schema = Exp_market.schema_version; out = "BENCH_market.json";
        writes = true; wall = [ "wall_s" ];
        title = "Market: multi-tenant admission control at production scale";
        doc =
          "Multi-tenant memory market at production scale: admission control, lazy settlement \
           and per-class SLOs (the vpp-market/1 record; not a paper table)";
        run = (fun ~quick ~jobs -> Exp_market.run ~quick ?jobs ());
        render = Exp_market.render; codec = Exp_market.codec; checks = Exp_market.checks };
    Record
      { name = "tier"; schema = Exp_tier.schema_version; out = "BENCH_tier.json"; writes = true;
        wall = [];
        title = "Tier: single-tier vs tiered frame placement";
        doc =
          "Single-tier vs tiered frame placement: a tier-oblivious pager against Mgr_tiered's \
           hot/cold migration on the same traces (the vpp-tier/1 record; not a paper table)";
        run = (fun ~quick ~jobs -> Exp_tier.run ~quick ?jobs ());
        render = Exp_tier.render; codec = Exp_tier.codec; checks = Exp_tier.checks };
    Record
      { name = "cache"; schema = Exp_cache.schema_version; out = "BENCH_cache.json"; writes = true;
        wall = [];
        title = "Cache: frame placement vs a physically-indexed L2";
        doc =
          "Frame placement vs a physically-indexed cache: the same trace under sequential, \
           random and page-colored placement (the vpp-cache/1 record; not a paper table)";
        run = (fun ~quick ~jobs -> Exp_cache.run ~quick ?jobs ());
        render = Exp_cache.render; codec = Exp_cache.codec; checks = Exp_cache.checks };
    Record
      { name = "shard"; schema = Exp_shard.schema_version; out = "BENCH_shard.json"; writes = true;
        wall = [ "wall_s" ];
        title = "Shard: parallel DBMS shards with two-phase commit";
        doc =
          "Sharded DBMS throughput: the same transactions over 1/4/8 parallel shards with \
           two-phase commit on the cross-shard fraction, plus group commit against per-commit \
           log forcing on one shard (the vpp-shard/2 record; not a paper table)";
        run = (fun ~quick ~jobs -> Exp_shard.run ~quick ?jobs ());
        render = Exp_shard.render; codec = Exp_shard.codec; checks = Exp_shard.checks };
  ]

let known_schemas = List.map (fun (Record e) -> e.schema) all

(* The entry a record's own "schema" tag names. *)
let entry json =
  let known = String.concat ", " known_schemas in
  match Option.bind (J.member "schema" json) J.to_str with
  | None -> Error (Printf.sprintf "record has no \"schema\" tag (known schemas: %s)" known)
  | Some tag -> (
      match List.find_opt (fun (Record e) -> e.schema = tag) all with
      | Some r -> Ok r
      | None -> Error (Printf.sprintf "unknown schema %S (known schemas: %s)" tag known))

(* Every record embeds its checks under "checks". *)
let embedded = Exp_codec.(obj Fun.id |> mem "checks" (list check) Fun.id |> finish)

let verdict (c : Exp_report.check) = (c.what, c.pass)

let validate json =
  match entry json with
  | Error e -> Error e
  | Ok (Record e) -> (
      let invalid msg = Error (Printf.sprintf "invalid %s record: %s" e.schema msg) in
      match (Exp_codec.dec e.codec json, Exp_codec.dec embedded json) with
      | Error msg, _ | _, Error msg -> invalid msg
      | Ok r, Ok embedded -> (
          let fresh = e.checks r in
          match List.filter (fun (c : Exp_report.check) -> not c.pass) fresh with
          | _ :: _ as failed ->
              invalid
                (String.concat "; "
                   (List.map (fun (c : Exp_report.check) -> "failed check: " ^ c.what) failed))
          | [] when List.map verdict embedded <> List.map verdict fresh ->
              invalid "embedded checks differ from the recomputed ones"
          | [] -> Ok e.schema))

let validate_string contents =
  match J.parse contents with
  | Error e -> Error (Printf.sprintf "JSON parse error: %s" e)
  | Ok json -> validate json

let diff (name_a, a) (name_b, b) =
  let entry name json = Result.map_error (fun e -> name ^ ": " ^ e) (entry json) in
  match (entry name_a a, entry name_b b) with
  | (Error e, _ | _, Error e) -> Error e
  | Ok (Record ea), Ok (Record eb) when ea.schema <> eb.schema ->
      Error
        (Printf.sprintf "different schemas: %s is %s, %s is %s" name_a ea.schema name_b eb.schema)
  | Ok (Record e), Ok _ ->
      let rec walk path a b acc =
        match (a, b) with
        | J.Obj fa, J.Obj fb ->
            let keys =
              List.map fst fa @ List.filter (fun k -> not (List.mem_assoc k fa)) (List.map fst fb)
            in
            List.fold_left
              (fun acc k ->
                let p = if path = "" then k else path ^ "." ^ k in
                match (List.assoc_opt k fa, List.assoc_opt k fb) with
                | _ when List.mem k e.wall -> acc
                | Some x, Some y -> walk p x y acc
                | Some _, None -> (p ^ ": only in the first record") :: acc
                | _ -> (p ^ ": only in the second record") :: acc)
              acc keys
        | J.List la, J.List lb ->
            let rec items i la lb acc =
              match (la, lb) with
              | x :: xs, y :: ys ->
                  items (i + 1) xs ys (walk (Printf.sprintf "%s[%d]" path i) x y acc)
              | [], [] -> acc
              | _ ->
                  Printf.sprintf "%s: %d items vs %d" path (i + List.length la) (i + List.length lb)
                  :: acc
            in
            items 0 la lb acc
        | _ when a = b -> acc
        | _ -> Printf.sprintf "%s: %s vs %s" path (J.to_string a) (J.to_string b) :: acc
      in
      Ok (List.rev (walk "" a b []))

let paper ~quick =
  [
    (fun () -> Exp_table1.render (Exp_table1.run ()));
    (fun () -> Exp_table2.render (Exp_table2.run ()));
    (fun () -> Exp_table3.render (Exp_table3.run ()));
    (fun () -> Exp_table4.render (Exp_table4.run ~quick ()));
    (fun () -> Exp_figures.render (Exp_figures.run ()));
  ]

let ablations =
  List.map
    (fun run () -> Exp_ablations.render (run ()) ^ "\n")
    [
      Exp_ablations.append_batch;
      Exp_ablations.delivery_mode;
      Exp_ablations.reprotect_batch;
      Exp_ablations.regeneration_crossover;
      Exp_ablations.eviction_destination;
    ]
