(* End-to-end tests: every table and figure regenerates with its shape
   checks passing — the headline claim of the reproduction. *)

let check_bool = Alcotest.(check bool)

let render_failures checks =
  checks
  |> List.filter (fun c -> not c.Exp_report.pass)
  |> List.map (fun c -> c.Exp_report.what ^ " — " ^ c.Exp_report.detail)
  |> String.concat "; "

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

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
(* Exp_scale: the vpp-perf/3 record                                   *)
(* ------------------------------------------------------------------ *)

(* One quick record shared by the validation cases below: the run itself
   (two machine sizes plus the stream legs) costs a few seconds. *)
let quick_record = lazy (Exp_scale.run ~quick:true ~jobs:2 ())

let test_perf_record_quick () =
  let r = Lazy.force quick_record in
  assert_all_pass r.Exp_scale.checks;
  (* The record validates both as the in-memory tree and after a print →
     parse round-trip, which is what `vpp_repro validate` consumes. *)
  (match Exp_record.validate (Exp_codec.enc Exp_scale.codec r) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("in-memory record invalid: " ^ e));
  match Exp_record.validate_string (Exp_codec.print Exp_scale.codec r) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("round-tripped record invalid: " ^ e)

(* Validation must reject, not mis-accept, the failure modes a perf
   regression would actually produce. *)
let test_perf_record_validator_rejects () =
  let reject what json =
    match Exp_record.validate json with
    | Ok _ -> Alcotest.fail ("validator accepted " ^ what)
    | Error _ -> ()
  in
  let parse s = match Sim_json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  reject "wrong schema" (parse {|{"schema": "vpp-perf/0"}|});
  reject "missing scales" (parse {|{"schema": "vpp-perf/3", "mode": "full"}|});
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
  (* Every recomputed check still passes on one scale, so only the
     decoder's at-least-two rule catches it. *)
  match Exp_record.validate (drop_first_scale (Exp_codec.enc Exp_scale.codec r)) with
  | Ok _ -> Alcotest.fail "validator accepted a single remaining scale"
  | Error e ->
      check_bool
        (Printf.sprintf "one-scale record rejected by the decoder (got %S)" e)
        true
        (contains ~needle:"scales: expected at least two scales" e)

(* ------------------------------------------------------------------ *)
(* Exp_record: every schema, validated by its own checks               *)
(* ------------------------------------------------------------------ *)

let test_validate_known_schemas () =
  List.iter
    (fun tag ->
      check_bool (tag ^ " is a known schema") true (List.mem tag Exp_record.known_schemas))
    [
      Exp_scale.schema_version;
      Exp_market.schema_version;
      Exp_profile.schema_version;
      Exp_tier.schema_version;
      Exp_cache.schema_version;
      Exp_shard.schema_version;
    ];
  Alcotest.(check int) "exactly the six known schemas" 6 (List.length Exp_record.known_schemas)

(* The quick record of every entry, run once at --jobs 2 (as the smoke
   rules run them) and shared by the cases below. *)
type quick = Quick : 'r Exp_record.spec * 'r -> quick

let quick_records =
  lazy
    (List.map
       (fun (Exp_record.Record e) -> Quick (e, e.run ~quick:true ~jobs:(Some 2)))
       Exp_record.all)

let printed_records =
  lazy
    (List.map
       (fun (Quick (e, r)) -> (e.schema, Exp_codec.print e.codec r))
       (Lazy.force quick_records))

let quick_tree schema =
  match List.assoc_opt schema (Lazy.force printed_records) with
  | Some record -> (
      match Sim_json.parse record with Ok j -> j | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail ("no quick record for " ^ schema)

(* Every field of every record is simulated, so a record is the same
   whatever the domain count: the legs fanned over domains join in input
   order and carry no host time. *)
let test_records_jobs_invariant () =
  List.iter
    (fun (Quick (e, r)) ->
      check_bool (e.schema ^ ": --jobs 1 = --jobs 2") true
        (e.run ~quick:true ~jobs:(Some 1) = r))
    (Lazy.force quick_records)

(* Every schema the dispatcher knows, dispatched both from the in-memory
   tree and through the string (parse) entry point. *)
let test_validate_dispatches_all_schemas () =
  List.iter
    (fun (Quick (e, r)) ->
      (match Exp_record.validate_string (Exp_codec.print e.codec r) with
      | Ok tag -> Alcotest.(check string) (e.schema ^ ": dispatched to its codec") e.schema tag
      | Error err -> Alcotest.fail (e.schema ^ ": " ^ err));
      match Exp_record.validate (Exp_codec.enc e.codec r) with
      | Ok tag -> Alcotest.(check string) (e.schema ^ ": tree dispatch") e.schema tag
      | Error err -> Alcotest.fail (e.schema ^ ": " ^ err))
    (Lazy.force quick_records)

(* The tree round trip is exact (the printed one is not: non-integers
   print through %.6g). *)
let test_codec_round_trip () =
  List.iter
    (fun (Quick (e, r)) ->
      check_bool (e.schema ^ ": dec (enc r) = Ok r") true
        (Exp_codec.dec e.codec (Exp_codec.enc e.codec r) = Ok r);
      check_bool (e.schema ^ ": run stored its own checks") true
        (Sim_json.member "checks" (Exp_codec.enc e.codec r)
        = Some (Exp_codec.enc (Exp_codec.list Exp_codec.check) (e.checks r))))
    (Lazy.force quick_records)

(* Rewrite the fields named by [path] (object keys; "*" for every list
   item) with [f] on the old value. *)
let rec edit path f json =
  match (path, json) with
  | [], j -> f j
  | "*" :: rest, Sim_json.List items -> Sim_json.List (List.map (edit rest f) items)
  | key :: rest, Sim_json.Obj fields ->
      Sim_json.Obj (List.map (fun (k, v) -> if k = key then (k, edit rest f v) else (k, v)) fields)
  | _, j -> j

let first_only f = function
  | Sim_json.List (x :: rest) -> Sim_json.List (f x :: rest)
  | j -> j

let expect_rejected what ~needle json =
  match Exp_record.validate json with
  | Ok tag -> Alcotest.fail ("validate accepted " ^ what ^ " as " ^ tag)
  | Error e ->
      check_bool
        (Printf.sprintf "%s rejected for the right reason (want %S, got %S)" what needle e)
        true (contains ~needle e)

let test_validate_rejects () =
  let reject what ~expect input =
    match Exp_record.validate_string input with
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
  (* Known schema, malformed body: the schema's own codec rejects it and
     the complaint is prefixed with the tag. *)
  reject "an empty vpp-cache/1 record" ~expect:"invalid vpp-cache/1 record"
    {|{"schema": "vpp-cache/1"}|};
  reject "an empty vpp-tier/1 record" ~expect:"invalid vpp-tier/1 record"
    {|{"schema": "vpp-tier/1"}|};
  reject "an empty vpp-shard/3 record" ~expect:"invalid vpp-shard/3 record"
    {|{"schema": "vpp-shard/3"}|};
  (* No command emits the pre-superpage vpp-perf/1 layout; it is no
     longer a known schema. *)
  reject "a vpp-perf/1 record with one scale" ~expect:"unknown schema"
    {|{"schema": "vpp-perf/1", "mode": "quick",
       "scales": [{"name": "8mb", "conserved": true, "events": 1, "faults": 1, "wall_s": 0}]}|};
  reject "a vpp-perf/1 record that leaked frames" ~expect:"unknown schema"
    {|{"schema": "vpp-perf/1", "mode": "quick",
       "scales": [
         {"name": "8mb", "conserved": false, "events": 1, "faults": 1, "wall_s": 0},
         {"name": "512mb", "conserved": true, "events": 1, "faults": 1, "wall_s": 0}]}|};
  (* A failing vpp-cache/1 gate: colored not better than random. *)
  expect_rejected "a cache record with every miss rate at 0.5"
    ~needle:"failed check: colored placement beats random on miss rate"
    (edit [ "legs"; "*"; "miss_rate" ] (fun _ -> Sim_json.Num 0.5)
       (quick_tree Exp_cache.schema_version));
  (* A failing vpp-shard/3 gate: the single-shard baseline claiming 2PC
     traffic — the zero-delta discipline broken in the record itself. *)
  expect_rejected "a shard record whose single shard sent 2PC messages"
    ~needle:"failed check: single shard is zero-delta: no 2PC messages, no DSM transfers"
    (edit [ "legs" ]
       (first_only (edit [ "msgs" ] (fun _ -> Sim_json.Num 8.0)))
       (quick_tree Exp_shard.schema_version));
  (* And a failing group-commit gate: the 8-worker group-commit row
     forcing once per commit, i.e. no better than the per-commit
     reference. *)
  expect_rejected "a group-commit sweep forcing once per commit"
    ~needle:"failed check: group commit forces the log less than once per commit at 8 workers"
    (edit [ "group_commit" ]
       (function
         | Sim_json.List rows ->
             Sim_json.List
               (List.map
                  (function
                    | Sim_json.Obj row
                      when List.assoc_opt "group" row = Some (Sim_json.Bool true)
                           && List.assoc_opt "workers" row = Some (Sim_json.Num 8.0) ->
                        edit [ "wal_flushes" ] (fun _ -> List.assoc "txns" row) (Sim_json.Obj row)
                    | j -> j)
                  rows)
         | j -> j)
       (quick_tree Exp_shard.schema_version))

(* Every embedded "pass" in these records is still true: validation
   must reject them by re-running the checks on the decoded fields. *)
let test_validate_rechecks () =
  let tier =
    edit [ "runs" ]
      (first_only (fun run ->
           run
           |> edit [ "managed"; "promotions" ] (fun _ -> Sim_json.Num 0.0)
           |> edit [ "static"; "touches" ] (fun _ -> Sim_json.Num 1.0)))
      (quick_tree Exp_tier.schema_version)
  in
  expect_rejected "a tier record whose manager never promoted"
    ~needle:"failed check: scale: manager exercised promotion and demotion" tier;
  expect_rejected "a tier record whose static leg touched once"
    ~needle:"failed check: scale: flat and static legs ran the identical trace" tier;
  expect_rejected "a cache record whose colored leg missed its color 40 times"
    ~needle:"failed check: colored leg is perfectly colored (no color misses, audit clean)"
    (edit [ "legs" ]
       (function
         | Sim_json.List legs ->
             Sim_json.List
               (List.map
                  (function
                    | Sim_json.Obj leg
                      when List.assoc_opt "mode" leg = Some (Sim_json.Str "colored") ->
                        edit [ "color_misses" ] (fun _ -> Sim_json.Num 40.0) (Sim_json.Obj leg)
                    | j -> j)
                  legs)
         | j -> j)
       (quick_tree Exp_cache.schema_version));
  (* A record whose embedded verdicts disagree with the recomputed ones
     is stale even when every recomputed check passes. *)
  expect_rejected "a profile record with a renamed check"
    ~needle:"embedded checks differ from the recomputed ones"
    (edit [ "checks" ]
       (first_only (edit [ "what" ] (fun _ -> Sim_json.Str "renamed")))
       (quick_tree Exp_profile.schema_version));
  (* A missing leg is a failing check, never an exception. *)
  expect_rejected "a shard record without its single-shard leg"
    ~needle:"failed check: record carries a single-shard and a multi-shard leg"
    (edit [ "legs" ]
       (function
         | Sim_json.List (_ :: rest) -> Sim_json.List (rest @ rest)
         | j -> j)
       (quick_tree Exp_shard.schema_version))

(* Apply [f] to the [n]th slot of [json] — object members and list
   items, counted in pre-order: [None] drops the slot, [Some v] puts [v]
   in its place. *)
let edit_slot n f json =
  let left = ref n in
  let rec go j =
    let slot v =
      decr left;
      if !left = -1 then f v else Some (go v)
    in
    match j with
    | Sim_json.Obj fields ->
        Sim_json.Obj (List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (slot v)) fields)
    | Sim_json.List items -> Sim_json.List (List.filter_map slot items)
    | j -> j
  in
  go json

let rec slots = function
  | Sim_json.Obj fields -> List.fold_left (fun acc (_, v) -> acc + 1 + slots v) 0 fields
  | Sim_json.List items -> List.fold_left (fun acc v -> acc + 1 + slots v) 0 items
  | _ -> 0

(* Drop, or swap in a value of another type. *)
let damages =
  (fun _ -> None)
  :: List.map
       (fun t v -> Some (if t = v then Sim_json.Null else t))
       Sim_json.[ Null; Bool true; Num 1.5; Num (-3.0); Str "x"; List []; Obj [] ]

let validate_total input =
  match Exp_record.validate_string input with _ -> true | exception _ -> false

(* Every single-slot drop or retype of every quick record: validation
   answers Ok or Error, never raises. *)
let test_validate_total_on_damaged_slots () =
  List.iter
    (fun (schema, _) ->
      let json = quick_tree schema in
      for i = 0 to slots json - 1 do
        List.iteri
          (fun d damage ->
            match Exp_record.validate (edit_slot i damage json) with
            | _ -> ()
            | exception e ->
                Alcotest.failf "%s: slot %d, damage %d raised %s" schema i d
                  (Printexc.to_string e))
          damages
      done)
    (Lazy.force printed_records)

type mutation = Byte of int * char | Truncate of int | Damage of int * int

let mutation_gen =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  oneof
    [
      map2 (fun i c -> Byte (i, c)) pos char;
      map (fun i -> Truncate i) pos;
      map2 (fun i d -> Damage (i, d)) pos (int_bound (List.length damages - 1));
    ]

(* Whatever the damage, validation answers Ok or Error: it never
   raises. *)
let prop_validate_never_raises =
  QCheck.Test.make ~name:"validate never raises on mutated records" ~count:3000
    QCheck.(pair (int_bound 5) (make mutation_gen))
    (fun (which, m) ->
      let schema, record = List.nth (Lazy.force printed_records) which in
      let n = String.length record in
      validate_total
        (match m with
        | Byte (i, c) -> String.mapi (fun j b -> if j = i mod n then c else b) record
        | Truncate i -> String.sub record 0 (i mod n)
        | Damage (i, d) ->
            let json = quick_tree schema in
            Sim_json.to_string (edit_slot (i mod slots json) (List.nth damages d) json)))

let test_diff () =
  let a = quick_tree Exp_shard.schema_version in
  let diff x y = Exp_record.diff ("a.json", x) ("b.json", y) in
  let same = Alcotest.(check (result (list string) string)) in
  same "a record against itself" (Ok []) (diff a a);
  let moved = edit [ "legs" ] (first_only (edit [ "tps" ] (fun _ -> Sim_json.Num 1.0))) a in
  (match diff a moved with
  | Ok [ line ] -> check_bool ("names the path: " ^ line) true (contains ~needle:"legs[0].tps" line)
  | Ok lines -> Alcotest.failf "expected one difference, got %d" (List.length lines)
  | Error e -> Alcotest.fail e);
  (* A schema error names the record at fault. *)
  let rejects what ~needle b =
    match diff a b with
    | Ok _ -> Alcotest.fail ("diffed " ^ what)
    | Error e -> check_bool (Printf.sprintf "%s: %S names it" what e) true (contains ~needle e)
  in
  rejects "records of two schemas" ~needle:"b.json is vpp-tier/1"
    (quick_tree Exp_tier.schema_version);
  rejects "a record with no schema tag" ~needle:"b.json: record has no \"schema\" tag"
    (Sim_json.Obj [])

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
          Alcotest.test_case "records invariant under --jobs" `Slow
            test_records_jobs_invariant;
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
          Alcotest.test_case "rejects malformed and unknown records" `Slow test_validate_rejects;
          Alcotest.test_case "re-runs each record's own checks" `Slow test_validate_rechecks;
          Alcotest.test_case "codec round trip per schema" `Slow test_codec_round_trip;
          Alcotest.test_case "never raises on a damaged slot" `Slow
            test_validate_total_on_damaged_slots;
          QCheck_alcotest.to_alcotest prop_validate_never_raises;
          Alcotest.test_case "diff names each differing path" `Slow test_diff;
        ] );
    ]
