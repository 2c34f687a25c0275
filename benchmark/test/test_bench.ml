(* The benchmark's own contract: its metric names match BENCHMARK.json,
   its simulated counters are a pure function of the seed, and its trace
   is well-formed. Every run here uses the quick sizes. *)

module W = Bench_workloads
module R = Bench_run
module J = Sim_json

let quick ?trace_file ?(seed = 7) name =
  let w = Option.get (W.find name) in
  R.run w ~seed ~seconds:0.0 ~quick:true ~trace_file

let parse_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with Ok j -> j | Error e -> Alcotest.failf "%s: %s" file e

let benchmark_json = lazy (parse_file "../../BENCHMARK.json")

let field j k = Option.get (J.member k j)
let str j k = Option.get (J.to_str (field j k))
let items j k = Option.get (J.to_list (field j k))

let declared section =
  List.map (fun m -> (str m "name", str m "unit")) (items (Lazy.force benchmark_json) section)

let valid_name n =
  n <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

(* The run passed its own checks and printed exactly the metrics one
   section of BENCHMARK.json declares, in order, under valid names. *)
let check_metrics (r : R.report) section =
  Alcotest.(check bool) "run correct" true r.R.correct;
  let printed = List.map (fun m -> (m.R.name, m.R.unit_)) r.R.metrics in
  Alcotest.(check (list (pair string string))) section (declared section) printed;
  List.iter (fun (n, _) -> if not (valid_name n) then Alcotest.failf "metric name %S" n) printed

let test_workloads_declared () =
  Alcotest.(check (list string))
    "BENCHMARK.json workloads" (List.map (fun w -> w.W.name) W.all)
    (List.map (fun w -> str w "name") (items (Lazy.force benchmark_json) "workloads"))

let test_names name () = check_metrics (quick name) "end_to_end"

let bits counters = List.map (fun (k, v) -> (k, Int64.bits_of_float v)) counters

let test_same_seed name () =
  Alcotest.(check (list (pair string int64)))
    "bit-identical simulated counters"
    (bits (quick name).R.counters)
    (bits (quick name).R.counters)

let test_other_seed name () =
  if (quick ~seed:7 name).R.counters = (quick ~seed:8 name).R.counters then
    Alcotest.failf "%s: seeds 7 and 8 gave the same simulated counters" name

let num j k = Option.get (J.to_float (field j k))

(* A traced run reports the declared per-layer metrics and writes a trace
   that parses, whose every span lies inside its parent and has a
   non-negative self time, and whose layer self shares sum to the traced
   wall. *)
let test_trace name () =
  let file = name ^ ".trace.json" in
  let r = quick ~trace_file:file name in
  check_metrics r "per_layer";
  let json = parse_file file in
  let events = items json "traceEvents" in
  Alcotest.(check bool) "spans recorded" true (events <> []);
  let ns v = Float.to_int (Float.round (v *. 1000.0)) in
  let by_id = Hashtbl.create 4096 in
  List.iter
    (fun e ->
      let args = field e "args" in
      Hashtbl.replace by_id (num args "id") (ns (num e "ts"), ns (num e "ts") + ns (num e "dur")))
    events;
  List.iter
    (fun e ->
      let args = field e "args" in
      if num args "self_ns" < 0.0 then Alcotest.failf "negative self time in %s" (str e "name");
      let parent = num args "parent" in
      if parent >= 0.0 then begin
        let lo, hi = Hashtbl.find by_id parent in
        let start = ns (num e "ts") in
        if start < lo || start + ns (num e "dur") > hi then
          Alcotest.failf "%s lies outside its parent span" (str e "name")
      end)
    events;
  List.iter
    (fun a ->
      if num (field a "self") "min_ns" < 0.0 then
        Alcotest.failf "negative self time in %s" (str a "name"))
    (items (field json "vpp_bench") "aggregates");
  let self_sum =
    List.fold_left
      (fun acc m ->
        if Filename.extension m.R.name = ".self_frac" then acc +. m.R.value else acc)
      0.0 r.R.metrics
  in
  if Float.abs (self_sum -. 1.0) > 1e-9 then
    Alcotest.failf "layer self shares sum to %g, not 1" self_sum

let () =
  let per names f = List.map (fun w -> Alcotest.test_case w `Quick (f w)) names in
  let workloads = List.map (fun w -> w.W.name) W.all in
  Alcotest.run "benchmark"
    [
      ( "names",
        Alcotest.test_case "workloads" `Quick test_workloads_declared
        :: per workloads test_names );
      ("same seed", per [ "paging"; "placement"; "oltp"; "market" ] test_same_seed);
      ("other seed", per [ "paging"; "oltp"; "market" ] test_other_seed);
      ("trace", per workloads test_trace);
    ]
