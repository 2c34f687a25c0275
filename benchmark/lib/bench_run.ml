module W = Bench_workloads
module Tr = Bench_trace
module Hist = Sim_metrics.Hist

type metric = { name : string; unit_ : string; value : float }

let end_to_end =
  [ ("wall_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB"); ("alloc_mwords", "Mwords") ]

(* Layers whose self time the traced run reports: the simulator's own
   layers plus the workload generators (wl), the experiment runners (exp)
   and the benchmark's loops (bench). *)
let self_layers = [ "sim"; "hw"; "epcm"; "mgr"; "spcm"; "dbms"; "wl"; "exp"; "bench" ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.events_per_op", "events/op");
    ("sim.events_per_s", "events/s");
    ("sim.sim_s", "sim_s");
    ("hw.tlb_hit_frac", "frac");
    ("hw.tlb_misses", "count");
    ("hw.pt_hits", "count");
    ("hw.pt_misses", "count");
    ("hw.pt_collisions", "count");
    ("hw.pt_super_hits", "count");
    ("hw.l2_miss_frac", "frac");
    ("hw.disk_reads", "count");
    ("hw.disk_writes", "count");
    ("epcm.touches", "count");
    ("epcm.faults", "count");
    ("epcm.fault_frac", "frac");
    ("epcm.migrate_calls", "count");
    ("epcm.migrated_pages", "count");
    ("epcm.sp_promotions", "count");
    ("epcm.sp_demotions", "count");
    ("epcm.touch_words", "words/touch");
    ("epcm.charged_ms", "sim_ms");
    ("mgr.fills", "count");
    ("mgr.reclaimed", "count");
    ("mgr.writebacks", "count");
    ("mgr.refill_requests", "count");
    ("mgr.promotions", "count");
    ("mgr.demotions", "count");
    ("mgr.charged_ms", "sim_ms");
    ("spcm.defer_events", "count");
    ("spcm.defers_per_tenant", "defers/tenant");
    ("spcm.granted_frames", "count");
    ("spcm.saver_cycles", "count");
    ("spcm.saver_starved", "count");
    ("spcm.refused", "count");
    ("spcm.conservation_residual", "drams");
    ("spcm.slo_p50_us", "sim_us");
    ("spcm.slo_p99_us", "sim_us");
    ("spcm.slo_violation_frac", "frac");
    ("dbms.sim_tps", "txn/sim_s");
    ("dbms.txn_p50_ms", "sim_ms");
    ("dbms.txn_p99_ms", "sim_ms");
    ("dbms.aborts", "count");
    ("dbms.wal_flushes_per_txn", "flushes/txn");
    ("dbms.lock_timeouts", "count");
    ("dbms.prepares", "count");
    ("dbms.msgs_per_cross", "msgs/txn");
    ("dbms.dsm_transfers_per_cross", "pages/txn");
    ("dbms.t4_page_ins", "count");
    ("dbms.t4_lock_waits", "count");
    ("dbms.t4_cpu_util", "frac");
    ("paper.fit_err_pct", "%");
    ("paper.table4_err_pct", "%");
    ("host.alloc_words_per_event", "words/event");
    ("host.minor_gcs", "count");
    ("host.major_gcs", "count");
    ("trace.overhead_frac", "frac");
  ]
  @ List.map (fun l -> (l ^ ".self_frac", "frac")) self_layers

type report = {
  workload : string;
  seed : int;
  iterations : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  details : metric list;
  counters : (string * float) list;
  failures : string list;
}

let fi = float_of_int

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method (Python's
   statistics.quantiles default), so the benchmark's spread matches the
   one a comparison script computes from its values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0))
  else begin
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. fi (4 - delta)) +. (a.(j) *. fi delta)) /. 4.0
    in
    (q 1, q 3)
  end

let metric (name, unit_) value = { name; unit_; value }

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Every digit, so no two different measurements print alike; a value
   that is not finite (reported as a failure) prints as null to keep the
   line valid JSON. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_num m.value)
             m.unit_)
         ms)
  ^ "}"

(* Quartiles and count of a host timing, for people reading the run. *)
let spread name unit_ xs =
  let q1, q3 = quartiles xs in
  [ metric (name ^ ".p25", unit_) q1; metric (name ^ ".p75", unit_) q3 ]

let run (w : W.t) ~seed ~seconds ~quick ~trace_file =
  let iterate = w.W.prepare ~seed ~quick in
  if seconds > 0.0 then ignore (iterate W.Timed : W.iteration);
  let budget = int_of_float (seconds *. 1e9) in
  let start = Tr.now_ns () in
  (* Every iteration starts from a collected heap, so one iteration's
     garbage is not another's GC work. *)
  Gc.full_major ();
  let first = iterate W.Timed in
  (* The peak is read after the first timed iteration: later iterations
     only fragment the heap further, by an amount that depends on how many
     of them fit in the run. *)
  let peak_mb = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  let rec loop acc =
    if Tr.now_ns () - start >= budget then List.rev acc
    else begin
      Gc.full_major ();
      loop (iterate W.Timed :: acc)
    end
  in
  let its = loop [ first ] in
  let walls = List.map (fun it -> fi it.W.run.W.ns /. 1e9) its in
  let setups = List.map (fun it -> fi it.W.setup.W.ns /. 1e9) its in
  let words = List.map (fun it -> fi it.W.run.W.words) its in
  let wall = median walls in
  let per_event v = if first.W.events = 0 then 0.0 else v /. fi first.W.events in
  let events_per_s = fi first.W.events /. wall in
  (* Spans and cost attribution each run in an iteration of their own:
     attribution allocates, which would spoil the spans' word counts. *)
  let traced =
    Option.map
      (fun file ->
        Gc.full_major ();
        let tr = Tr.create () in
        let it = iterate (W.Traced tr) in
        Gc.full_major ();
        (file, tr, it, iterate W.Profiled))
      trace_file
  in
  let extra_its = Option.fold ~none:[] ~some:(fun (_, _, t, p) -> [ t; p ]) traced in
  let all_its = its @ extra_its in
  let check what ok = { W.what; ok; failed_ops = 0 } in
  let determinism =
    [
      check "every iteration reproduced the first one's simulated counters"
        (List.for_all (fun it -> it.W.counters = first.W.counters) its);
      check "tracing and profiling left every simulated counter unchanged"
        (List.for_all
           (fun it ->
             List.for_all (fun (k, v) -> List.assoc_opt k it.W.counters = Some v) first.W.counters)
           extra_its);
    ]
  in
  let checks = determinism @ List.concat_map (fun it -> it.W.checks) all_its in
  let bad = List.filter (fun c -> not c.W.ok) checks in
  let failed = List.fold_left (fun acc c -> acc + max 1 c.W.failed_ops) 0 bad in
  let attempted = List.fold_left (fun acc it -> acc + it.W.ops) 0 all_its in
  let host_details =
    [ metric ("iterations", "count") (fi (List.length its)) ]
    @ spread "wall_s" "s" walls @ spread "setup_s" "s" setups
    @ [
        metric ("events_per_s", "events/s") events_per_s;
        metric ("alloc_words_per_event", "words/event") (per_event (median words));
      ]
  in
  let metrics, details =
    match traced with
    | None ->
        ( List.map2 metric end_to_end [ wall; median setups; peak_mb; median words /. 1e6 ],
          host_details )
    | Some (file, tr, it, profiled) ->
        let summaries = Tr.summaries tr in
        let summary name = List.find_opt (fun s -> s.Tr.name = name) summaries in
        let stat name f = match summary name with Some s -> f s | None -> 0.0 in
        let root = Tr.root_ns tr in
        let layer_self = Tr.layer_self_ns tr in
        let touches = List.filter_map summary [ "epcm.touch_warm"; "epcm.touch_fault" ] in
        let n_touch = List.fold_left (fun acc s -> acc + s.Tr.count) 0 touches in
        let touch_words = List.fold_left (fun acc s -> acc + s.Tr.words) 0 touches in
        let ns_p names p =
          match List.filter_map summary names with
          | [] -> 0.0
          | s :: rest ->
              Hist.quantile
                (List.fold_left (fun h s -> Hist.merge h s.Tr.total_ns) s.Tr.total_ns rest)
                p
        in
        let value (name, _) =
          match name with
          | "sim.events" -> fi first.W.events
          | "sim.events_per_op" ->
              if first.W.ops = 0 then 0.0 else fi first.W.events /. fi first.W.ops
          | "sim.events_per_s" -> events_per_s
          | "epcm.touch_words" -> if n_touch = 0 then 0.0 else fi touch_words /. fi n_touch
          | "host.alloc_words_per_event" -> per_event (median words)
          | "host.minor_gcs" -> median (List.map (fun it -> fi it.W.run.W.minor_gcs) its)
          | "host.major_gcs" -> median (List.map (fun it -> fi it.W.run.W.major_gcs) its)
          | "trace.overhead_frac" -> (fi it.W.run.W.ns /. 1e9 /. wall) -. 1.0
          | _ when Filename.extension name = ".self_frac" ->
              let layer = Filename.remove_extension name in
              Option.value (List.assoc_opt layer layer_self) ~default:0.0 /. root
          | _ -> Option.value (List.assoc_opt name profiled.W.counters) ~default:0.0
        in
        let metrics = List.map (fun d -> metric d (value d)) per_layer in
        let details =
          host_details
          @ [
              metric ("traced_wall_s", "s") (fi it.W.run.W.ns /. 1e9);
              metric ("spans", "count") (fi (Tr.spans tr));
              metric ("epcm.touch_warm_ns_p50", "ns") (ns_p [ "epcm.touch_warm" ] 50.0);
              metric ("epcm.touch_warm_ns_p99", "ns") (ns_p [ "epcm.touch_warm" ] 99.0);
              metric ("epcm.touch_fault_ns_p50", "ns") (ns_p [ "epcm.touch_fault" ] 50.0);
              metric ("epcm.touch_fault_ns_p99", "ns") (ns_p [ "epcm.touch_fault" ] 99.0);
              metric ("epcm.migrate_ns_p50", "ns") (ns_p [ "epcm.migrate_pages" ] 50.0);
              metric ("mgr.hook_ns_p50", "ns")
                (ns_p [ "mgr.fill"; "mgr.batch_of"; "mgr.on_eviction" ] 50.0);
              metric ("mgr.source_ns_p50", "ns") (ns_p [ "mgr.source" ] 50.0);
              metric ("dbms.build_ms", "ms")
                (stat "dbms.build" (fun s -> Hist.total s.Tr.total_ns /. fi s.Tr.count /. 1e6));
              metric ("dbms.execute_ns_per_event", "ns/event")
                (stat "dbms.execute" (fun s -> per_event (Hist.total s.Tr.total_ns)));
            ]
          @ List.map
              (fun (layer, ns) -> metric (layer ^ ".self_ms", "ms") (ns /. 1e6))
              layer_self
        in
        let extra =
          [
            ("workload", Printf.sprintf "\"%s\"" w.W.name);
            ("seed", string_of_int seed);
            ("untraced_wall_s", json_num wall);
            ("metrics", metrics_json metrics);
            ("details", metrics_json details);
          ]
        in
        ensure_dir (Filename.dirname file);
        let oc = open_out file in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Tr.write_chrome tr oc ~extra);
        (metrics, details)
  in
  let non_finite = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  let failures =
    List.map (fun c -> c.W.what) bad
    @ List.map (fun m -> m.name ^ " is not a finite number") non_finite
  in
  {
    workload = w.W.name;
    seed;
    iterations = List.length its;
    correct = failures = [];
    attempted;
    failed = failed + List.length non_finite;
    metrics;
    details;
    counters = first.W.counters;
    failures;
  }

let render r =
  let line m = Printf.sprintf "  %-32s %.6g %s" m.name m.value m.unit_ in
  String.concat "\n"
    ([ Printf.sprintf "vpp_bench %s seed %d: %d timed iterations" r.workload r.seed r.iterations ]
    @ List.map line r.metrics
    @ [ "details:" ]
    @ List.map line r.details
    @ [
        Printf.sprintf "checks: %s (%d operations, %d failed)"
          (if r.correct then "all pass" else "FAILED")
          r.attempted r.failed;
      ]
    @ List.map (fun f -> "  [FAIL] " ^ f) r.failures)
  ^ "\n"

let json_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" r.correct
    r.attempted r.failed (metrics_json r.metrics)
