module K = Epcm_kernel
module Engine = Sim_engine
module Metrics = Sim_metrics

let schema_version = "vpp-profile/1"

type row = {
  p_label : string;
  p_pinned_us : float;
  p_measured_us : float;
  p_spans : (string * int * float) list;
}

type latency = {
  kind : string;
  count : int;
  total_us : float;
  min_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  max_us : float;
  buckets : (float * int) list;
}

type result = { rows : row list; latency : latency list; checks : Exp_report.check list }

let span_sum row = List.fold_left (fun acc (_, _, us) -> acc +. us) 0.0 row.p_spans

(* ------------------------------------------------------------------ *)
(* Table 1 paths, re-run with profiling on                             *)
(* ------------------------------------------------------------------ *)

(* Set-up runs unprofiled; profiling is switched on (and the sink reset)
   only around the measured operation, so the recorded spans decompose
   exactly the pinned identity. *)
let table1_rows () =
  List.map
    (fun (p : Exp_table1.path) ->
      let machine, op = p.setup () in
      let m = Hw_machine.metrics machine in
      Hw_machine.set_profiling machine true;
      Metrics.reset m;
      let measured = Exp_table1.timed machine op in
      {
        p_label = p.name;
        p_pinned_us = p.pinned machine.Hw_machine.cost;
        p_measured_us = measured;
        p_spans = Metrics.charges m;
      })
    Exp_table1.paths

(* ------------------------------------------------------------------ *)
(* Latency histograms from a deterministic demand-paging workload      *)
(* ------------------------------------------------------------------ *)

(* Cold file-backed faults (disk reads through the backing store),
   protection faults, UIO traffic and WAL group commits: enough to
   populate every operation kind the instrumentation knows about, with no
   randomness anywhere. *)
let latency_workload () =
  let machine = Hw_machine.create ~memory_bytes:(1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let backing =
    Mgr_backing.disk machine.Hw_machine.disk ~page_bytes:(Hw_machine.page_size machine)
  in
  let gen = Mgr_generic.create kernel ~name:"profile-paging" ~mode:`In_process ~backing ~source () in
  let seg =
    Mgr_generic.create_segment gen ~name:"profile-file" ~pages:24
      ~kind:(Mgr_generic.File { file_id = 7 }) ~high_water:24 ()
  in
  let wal = Db_wal.create machine.Hw_machine.disk () in
  Hw_machine.set_profiling machine true;
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* Cold faults: each fills from the backing disk. *)
      for page = 0 to 23 do
        K.touch kernel ~space:seg ~page ~access:Epcm_manager.Read
      done;
      (* Protection faults: reprotect a window, then re-touch it. *)
      K.modify_page_flags kernel ~seg ~page:0 ~count:8 ~set_flags:Epcm_flags.no_access ();
      for page = 0 to 7 do
        K.touch kernel ~space:seg ~page ~access:Epcm_manager.Read
      done;
      (* UIO traffic over resident pages. *)
      for page = 0 to 7 do
        ignore (K.uio_read kernel ~seg ~page)
      done;
      K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "profile");
      (* WAL group commits of growing batch sizes. *)
      for batch = 1 to 6 do
        for _ = 1 to batch do
          ignore (Db_wal.append wal)
        done;
        Db_wal.commit wal ~lsn:(Db_wal.appended wal)
      done);
  Engine.run machine.Hw_machine.engine;
  let m = Hw_machine.metrics machine in
  List.filter_map
    (fun kind ->
      Option.map
        (fun h ->
          let module H = Metrics.Hist in
          {
            kind;
            count = H.count h;
            total_us = H.total h;
            min_us = H.min_value h;
            p50_us = H.p50 h;
            p95_us = H.p95 h;
            p99_us = H.p99 h;
            max_us = H.max_value h;
            buckets = List.map (fun (i, c) -> (H.bucket_upper_bound i, c)) (H.buckets h);
          })
        (Metrics.hist m ~kind))
    (Metrics.kinds m)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let checks r =
  List.concat_map
    (fun row ->
      let sum = span_sum row in
      [
        Exp_report.check
          ~what:(Printf.sprintf "%s spans sum to the pinned identity" row.p_label)
          ~pass:(Float.abs (sum -. row.p_pinned_us) < 1e-6)
          ~detail:(Printf.sprintf "sum %.1f us, pinned %.1f us" sum row.p_pinned_us);
        Exp_report.check
          ~what:(Printf.sprintf "%s measured time equals the pinned identity" row.p_label)
          ~pass:(Float.abs (row.p_measured_us -. row.p_pinned_us) < 1e-6)
          ~detail:
            (Printf.sprintf "measured %.1f us, pinned %.1f us" row.p_measured_us row.p_pinned_us);
      ])
    r.rows
  @ [
      Exp_report.check ~what:"paging workload populates fault and disk histograms"
        ~pass:
          (List.for_all
             (fun kind -> List.exists (fun l -> l.kind = kind) r.latency)
             [ "kernel.fault"; "disk.read"; "disk.write"; "backing.read"; "wal.flush" ])
        ~detail:(String.concat ", " (List.map (fun l -> l.kind) r.latency));
      Exp_report.check ~what:"histogram quantiles are ordered p50 <= p95 <= p99 <= max"
        ~pass:
          (List.for_all
             (fun l -> l.p50_us <= l.p95_us && l.p95_us <= l.p99_us && l.p99_us <= l.max_us)
             r.latency)
        ~detail:(Printf.sprintf "%d kinds" (List.length r.latency));
    ]

let run () =
  let rows = table1_rows () in
  let latency = latency_workload () in
  let r = { rows; latency; checks = [] } in
  { r with checks = checks r }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "Profile: Table 1 cost attribution (microseconds)\n";
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s: pinned %.1f, measured %.1f, span sum %.1f\n" row.p_label
           row.p_pinned_us row.p_measured_us (span_sum row));
      List.iter
        (fun (path, n, us) ->
          Buffer.add_string buf (Printf.sprintf "  %-44s %3dx %8.1f us\n" path n us))
        row.p_spans)
    r.rows;
  Buffer.add_string buf "\nLatency histograms (deterministic paging workload):\n";
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:[ "kind"; "count"; "p50 (us)"; "p95 (us)"; "p99 (us)"; "max (us)" ]
       ~rows:
         (List.map
            (fun l ->
              [
                l.kind;
                string_of_int l.count;
                Exp_report.us l.p50_us;
                Exp_report.us l.p95_us;
                Exp_report.us l.p99_us;
                Exp_report.us l.max_us;
              ])
            r.latency));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks r.checks);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

let span =
  let open Exp_codec in
  obj (fun path n us -> (path, n, us))
  |> mem "path" string (fun (path, _, _) -> path)
  |> mem "count" int (fun (_, n, _) -> n)
  |> mem "us" float (fun (_, _, us) -> us)
  |> finish

let row =
  let open Exp_codec in
  obj (fun p_label p_pinned_us p_measured_us p_spans ->
      { p_label; p_pinned_us; p_measured_us; p_spans })
  |> mem "row" string (fun r -> r.p_label)
  |> mem "pinned_us" float (fun r -> r.p_pinned_us)
  |> mem "measured_us" float (fun r -> r.p_measured_us)
  |> out "span_sum_us" float span_sum
  |> mem "spans" (list span) (fun r -> r.p_spans)
  |> finish

(* The fields and order of Sim_metrics.hist_to_json, after the kind. *)
let latency =
  let open Exp_codec in
  let bucket =
    obj (fun upper n -> (upper, n))
    |> mem "upper_us" float fst
    |> mem "count" int snd
    |> finish
  in
  obj (fun kind count total_us min_us p50_us p95_us p99_us max_us buckets ->
      { kind; count; total_us; min_us; p50_us; p95_us; p99_us; max_us; buckets })
  |> mem "kind" string (fun l -> l.kind)
  |> mem "count" int (fun l -> l.count)
  |> mem "total_us" float (fun l -> l.total_us)
  |> mem "min_us" float (fun l -> l.min_us)
  |> mem "p50_us" float (fun l -> l.p50_us)
  |> mem "p95_us" float (fun l -> l.p95_us)
  |> mem "p99_us" float (fun l -> l.p99_us)
  |> mem "max_us" float (fun l -> l.max_us)
  |> mem "buckets" (list bucket) (fun l -> l.buckets)
  |> finish

let codec =
  let open Exp_codec in
  obj (fun rows latency checks -> { rows; latency; checks })
  |> tag "schema" schema_version
  |> mem "table1_decomposition"
       (where "expected 8 table-1 rows" (fun l -> List.length l = 8) (list row))
       (fun r -> r.rows)
  |> mem "latency" (list latency) (fun r -> r.latency)
  |> mem "checks" (list check) (fun r -> r.checks)
  |> finish
