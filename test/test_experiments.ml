(* End-to-end tests: every table and figure regenerates with its shape
   checks passing — the headline claim of the reproduction. *)

let check_bool = Alcotest.(check bool)

let render_failures checks =
  checks
  |> List.filter (fun c -> not c.Exp_report.pass)
  |> List.map (fun c -> c.Exp_report.what ^ " — " ^ c.Exp_report.detail)
  |> String.concat "; "

let assert_all_pass checks =
  if not (Exp_report.all_pass checks) then Alcotest.fail (render_failures checks)

let test_table1 () =
  let r = Exp_table1.run () in
  assert_all_pass r.Exp_table1.checks;
  (* The headline numbers are exact. *)
  List.iter
    (fun (row : Exp_table1.row) ->
      match (row.Exp_table1.vpp_us, row.Exp_table1.paper_vpp) with
      | Some measured, Some paper ->
          check_bool (row.Exp_table1.label ^ " matches paper") true
            (Float.abs (measured -. paper) < 0.5)
      | _ -> ())
    r.Exp_table1.rows

let test_table2 () = assert_all_pass (Exp_table2.run ()).Exp_table2.checks
let test_table3 () = assert_all_pass (Exp_table3.run ()).Exp_table3.checks

let test_table4_quick () =
  let r = Exp_table4.run ~quick:true () in
  assert_all_pass r.Exp_table4.checks

let test_figures () =
  let r = Exp_figures.run () in
  assert_all_pass r.Exp_figures.checks

let test_substrate_stats () =
  let r = Exp_substrate.run () in
  assert_all_pass r.Exp_substrate.checks;
  (* The rescans exercise the translation path: the mapping hash must have
     served warm touches. *)
  List.iter
    (fun (row : Exp_substrate.row) ->
      check_bool (row.Exp_substrate.program ^ ": hash exercised") true
        (row.Exp_substrate.pt_hits > 0))
    r.Exp_substrate.rows

let test_ablations_hold () =
  List.iter
    (fun a ->
      check_bool (a.Exp_ablations.a_name ^ " finding holds") true a.Exp_ablations.holds;
      check_bool (a.Exp_ablations.a_name ^ " has rows") true
        (List.length a.Exp_ablations.rows >= 2))
    (Exp_ablations.run_all ())

(* ------------------------------------------------------------------ *)
(* Exp_par: the domain-parallel driver                                *)
(* ------------------------------------------------------------------ *)

(* In-order join is the driver's whole contract: however completion
   interleaves across domains, results come back in input order, so
   [concat] is byte-identical to a sequential String.concat. *)
let test_par_in_order_join () =
  let tasks n = List.init n (fun i () -> Printf.sprintf "task-%02d" i) in
  List.iter
    (fun jobs ->
      let n = 13 in
      Alcotest.(check (list string))
        (Printf.sprintf "map ~jobs:%d preserves input order" jobs)
        (List.map (fun f -> f ()) (tasks n))
        (Exp_par.map ~jobs (tasks n));
      Alcotest.(check string)
        (Printf.sprintf "concat ~jobs:%d = sequential concat" jobs)
        (String.concat "|" (List.map (fun f -> f ()) (tasks n)))
        (Exp_par.concat ~jobs ~sep:"|" (tasks n)))
    [ 1; 2; 4; 32 ];
  Alcotest.(check (list string)) "empty task list" [] (Exp_par.map ~jobs:4 [])

(* A task exception must surface after the join, not vanish with its
   domain — a silently dropped ablation would look like success. *)
let test_par_reraises () =
  List.iter
    (fun jobs ->
      match
        Exp_par.map ~jobs
          [ (fun () -> "ok"); (fun () -> failwith "task exploded"); (fun () -> "also ok") ]
      with
      | _ -> Alcotest.failf "jobs=%d: expected the task's exception" jobs
      | exception Failure msg ->
          Alcotest.(check string) "original exception" "task exploded" msg)
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* Exp_scale: the vpp-perf/1 record                                   *)
(* ------------------------------------------------------------------ *)

(* One quick record shared by the validation cases below: the run itself
   (two machine sizes plus the timed driver legs) costs a few seconds. *)
let quick_record = lazy (Exp_scale.run ~quick:true ~jobs:2 ())

let test_perf_record_quick () =
  let r = Lazy.force quick_record in
  assert_all_pass r.Exp_scale.checks;
  check_bool "parallel driver output identical" true r.Exp_scale.driver.Exp_scale.d_identical;
  (* The record validates both as the in-memory tree and after a print →
     parse round-trip, which is what perf-validate consumes. *)
  (match Exp_scale.validate_json (Exp_scale.to_json r) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("in-memory record invalid: " ^ e));
  match Sim_json.parse (Exp_scale.render_json r) with
  | Error e -> Alcotest.fail ("rendered record does not parse: " ^ e)
  | Ok json -> (
      match Exp_scale.validate_json json with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("round-tripped record invalid: " ^ e))

(* The validator must reject, not mis-accept, the failure modes a perf
   regression would actually produce. *)
let test_perf_record_validator_rejects () =
  let reject what json =
    match Exp_scale.validate_json json with
    | Ok () -> Alcotest.fail ("validator accepted " ^ what)
    | Error _ -> ()
  in
  let parse s = match Sim_json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  reject "wrong schema" (parse {|{"schema": "vpp-perf/0"}|});
  reject "missing scales" (parse {|{"schema": "vpp-perf/1", "mode": "full"}|});
  let r = Lazy.force quick_record in
  let drop_first_scale = function
    | Sim_json.Obj fields ->
        Sim_json.Obj
          (List.map
             (function
               | "scales", Sim_json.List (_ :: rest) -> ("scales", Sim_json.List rest)
               | kv -> kv)
             fields)
    | j -> j
  in
  reject "a single remaining scale" (drop_first_scale (Exp_scale.to_json r))

(* ------------------------------------------------------------------ *)
(* Exp_validate: the unified schema dispatcher                         *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_validate_known_schemas () =
  List.iter
    (fun tag ->
      check_bool (tag ^ " is a known schema") true (List.mem tag Exp_validate.known_schemas))
    [
      Exp_scale.schema_version;
      Exp_scale.schema_version_v1;
      Exp_market.schema_version;
      Exp_profile.schema_version;
      Exp_tier.schema_version;
      Exp_cache.schema_version;
      Exp_shard.schema_version;
    ];
  Alcotest.(check int) "exactly the seven known schemas" 7
    (List.length Exp_validate.known_schemas)

(* No command emits vpp-perf/1 anymore; the legacy validator is kept for
   records written by older builds, so the coverage here is a
   hand-crafted minimal record of that vintage. *)
let legacy_perf_v1 =
  {|{"schema": "vpp-perf/1", "mode": "quick",
     "scales": [
       {"name": "8mb", "conserved": true, "events": 70000, "faults": 1344, "wall_s": 0.1},
       {"name": "512mb", "conserved": true, "events": 4000000, "faults": 86016, "wall_s": 1.5}],
     "driver": {"parallel_identical": true, "jobs": 2},
     "checks": [{"what": "per-size conservation", "pass": true}]}|}

(* Every schema the dispatcher knows, dispatched both from the in-memory
   tree and through the string (parse) entry point. The run-based records
   come from the quick experiment configurations; the legacy vpp-perf/1
   from the hand-crafted record above. *)
let test_validate_dispatches_all_schemas () =
  let records =
    [
      (Exp_scale.schema_version, Exp_scale.render_json (Lazy.force quick_record));
      (Exp_scale.schema_version_v1, legacy_perf_v1);
      (Exp_market.schema_version, Exp_market.render_json (Exp_market.run ~quick:true ()));
      (Exp_profile.schema_version, Exp_profile.render_json (Exp_profile.run ()));
      (Exp_tier.schema_version, Exp_tier.render_json (Exp_tier.run ~quick:true ()));
      (Exp_cache.schema_version, Exp_cache.render_json (Exp_cache.run ~quick:true ()));
      (Exp_shard.schema_version, Exp_shard.render_json (Exp_shard.run ~quick:true ~jobs:2 ()));
    ]
  in
  List.iter
    (fun (expect, record) ->
      (match Exp_validate.validate_string record with
      | Ok tag -> Alcotest.(check string) (expect ^ ": dispatched to its validator") expect tag
      | Error e -> Alcotest.fail (expect ^ ": " ^ e));
      match Sim_json.parse record with
      | Error e -> Alcotest.fail (expect ^ ": record does not parse: " ^ e)
      | Ok json -> (
          match Exp_validate.validate json with
          | Ok tag -> Alcotest.(check string) (expect ^ ": tree dispatch") expect tag
          | Error e -> Alcotest.fail (expect ^ ": " ^ e)))
    records

let test_validate_rejects () =
  let reject what ~expect input =
    match Exp_validate.validate_string input with
    | Ok tag -> Alcotest.fail ("dispatcher accepted " ^ what ^ " as " ^ tag)
    | Error e ->
        check_bool
          (Printf.sprintf "%s: error mentions %S (got %S)" what expect e)
          true (contains ~needle:expect e)
  in
  reject "JSON syntax garbage" ~expect:"JSON parse error" "{not json";
  reject "a record with no schema tag" ~expect:"no \"schema\" tag" {|{"mode": "quick"}|};
  (* Both error paths must name the known schemas so the caller can see
     what the build actually supports. *)
  reject "a record with no schema tag" ~expect:Exp_cache.schema_version {|{"mode": "quick"}|};
  reject "an unknown schema" ~expect:"unknown schema" {|{"schema": "vpp-frobnicate/9"}|};
  reject "an unknown schema" ~expect:Exp_tier.schema_version {|{"schema": "vpp-frobnicate/9"}|};
  (* Known schema, malformed body: the dispatcher reaches the schema's own
     validator and prefixes its complaint with the tag. *)
  reject "an empty vpp-cache/1 record" ~expect:"invalid vpp-cache/1 record"
    {|{"schema": "vpp-cache/1"}|};
  reject "an empty vpp-tier/1 record" ~expect:"invalid vpp-tier/1 record"
    {|{"schema": "vpp-tier/1"}|};
  reject "an empty vpp-shard/2 record" ~expect:"invalid vpp-shard/2 record"
    {|{"schema": "vpp-shard/2"}|};
  reject "a vpp-perf/1 record with one scale" ~expect:"at least two scales"
    {|{"schema": "vpp-perf/1", "mode": "quick",
       "scales": [{"name": "8mb", "conserved": true, "events": 1, "faults": 1, "wall_s": 0}]}|};
  reject "a vpp-perf/1 record that leaked frames" ~expect:"frame conservation failed"
    {|{"schema": "vpp-perf/1", "mode": "quick",
       "scales": [
         {"name": "8mb", "conserved": false, "events": 1, "faults": 1, "wall_s": 0},
         {"name": "512mb", "conserved": true, "events": 1, "faults": 1, "wall_s": 0}]}|};
  (* A failing vpp-cache/1 gate: colored not better than random. *)
  let r = Exp_cache.run ~quick:true () in
  let doctored =
    match Exp_cache.to_json r with
    | Sim_json.Obj fields ->
        Sim_json.Obj
          (List.map
             (function
               | "legs", Sim_json.List legs ->
                   ( "legs",
                     Sim_json.List
                       (List.map
                          (function
                            | Sim_json.Obj leg ->
                                Sim_json.Obj
                                  (List.map
                                     (function
                                       | "miss_rate", _ -> ("miss_rate", Sim_json.Num 0.5)
                                       | kv -> kv)
                                     leg)
                            | j -> j)
                          legs) )
               | kv -> kv)
             fields)
    | j -> j
  in
  (match Exp_validate.validate doctored with
  | Ok tag -> Alcotest.fail ("dispatcher accepted a doctored cache record as " ^ tag)
  | Error e ->
      check_bool
        (Printf.sprintf "doctored cache record rejected for the right reason (got %S)" e)
        true
        (contains ~needle:"did not beat random" e));
  (* A failing vpp-shard/2 gate: the single-shard baseline claiming 2PC
     traffic — the zero-delta discipline broken in the record itself. *)
  let shard_record = Exp_shard.run ~quick:true () in
  let doctored_shard =
    match Exp_shard.to_json shard_record with
    | Sim_json.Obj fields ->
        Sim_json.Obj
          (List.map
             (function
               | "legs", Sim_json.List legs ->
                   ( "legs",
                     Sim_json.List
                       (List.map
                          (function
                            | Sim_json.Obj leg
                              when List.assoc_opt "shards" leg = Some (Sim_json.Num 1.0) ->
                                Sim_json.Obj
                                  (List.map
                                     (function
                                       | "msgs", _ -> ("msgs", Sim_json.Num 8.0)
                                       | kv -> kv)
                                     leg)
                            | j -> j)
                          legs) )
               | kv -> kv)
             fields)
    | j -> j
  in
  (match Exp_validate.validate doctored_shard with
  | Ok tag -> Alcotest.fail ("dispatcher accepted a doctored shard record as " ^ tag)
  | Error e ->
      check_bool
        (Printf.sprintf "doctored shard record rejected for the right reason (got %S)" e)
        true
        (contains ~needle:"zero-delta broken" e));
  (* And a failing group-commit gate: a group-commit row forcing once per
     commit, i.e. no better than the per-commit reference. *)
  let per_commit_group =
    match Exp_shard.to_json shard_record with
    | Sim_json.Obj fields ->
        Sim_json.Obj
          (List.map
             (function
               | "group_commit", Sim_json.List rows ->
                   ( "group_commit",
                     Sim_json.List
                       (List.map
                          (function
                            | Sim_json.Obj row
                              when List.assoc_opt "group" row = Some (Sim_json.Bool true)
                                   && List.assoc_opt "workers" row = Some (Sim_json.Num 8.0) ->
                                Sim_json.Obj
                                  (List.map
                                     (function
                                       | "wal_flushes", _ ->
                                           ("wal_flushes", List.assoc "txns" row)
                                       | kv -> kv)
                                     row)
                            | j -> j)
                          rows) )
               | kv -> kv)
             fields)
    | j -> j
  in
  match Exp_validate.validate per_commit_group with
  | Ok tag -> Alcotest.fail ("dispatcher accepted a doctored group-commit sweep as " ^ tag)
  | Error e ->
      check_bool
        (Printf.sprintf "doctored group-commit sweep rejected for the right reason (got %S)" e)
        true
        (contains ~needle:"forced once per commit or more" e)

let test_renders_nonempty () =
  check_bool "table1 renders" true (String.length (Exp_table1.render (Exp_table1.run ())) > 100);
  check_bool "figures render" true
    (String.length (Exp_figures.render (Exp_figures.run ())) > 100)

let () =
  Alcotest.run "experiments"
    [
      ( "tables",
        [
          Alcotest.test_case "table 1 exact" `Quick test_table1;
          Alcotest.test_case "table 2 shape" `Slow test_table2;
          Alcotest.test_case "table 3 exact" `Slow test_table3;
          Alcotest.test_case "table 4 shape (quick)" `Slow test_table4_quick;
          Alcotest.test_case "figures" `Quick test_figures;
          Alcotest.test_case "substrate stats" `Slow test_substrate_stats;
          Alcotest.test_case "ablations hold" `Slow test_ablations_hold;
          Alcotest.test_case "renders" `Quick test_renders_nonempty;
        ] );
      ( "parallel driver",
        [
          Alcotest.test_case "in-order join" `Quick test_par_in_order_join;
          Alcotest.test_case "re-raises task exceptions" `Quick test_par_reraises;
        ] );
      ( "perf record",
        [
          Alcotest.test_case "quick record validates" `Slow test_perf_record_quick;
          Alcotest.test_case "validator rejects bad records" `Slow
            test_perf_record_validator_rejects;
        ] );
      ( "validate dispatcher",
        [
          Alcotest.test_case "knows every schema" `Quick test_validate_known_schemas;
          Alcotest.test_case "dispatches every schema" `Slow test_validate_dispatches_all_schemas;
          Alcotest.test_case "rejects malformed and unknown records" `Quick test_validate_rejects;
        ] );
    ]
