(* Observability layer tests: histogram algebra (unit + QCheck property),
   span-attribution semantics of the metrics sink, JSON round-trips, the
   disabled-by-default no-op contract, seed-for-seed determinism of a
   profiled chaos storm, and the schema of the profile bench record. *)

module M = Sim_metrics
module H = Sim_metrics.Hist
module J = Sim_json
module K = Epcm_kernel
module Mgr = Epcm_manager
module G = Mgr_generic
module Machine = Hw_machine
module Engine = Sim_engine
module Chaos = Sim_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Hist: unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let hist_of values =
  let h = H.create () in
  List.iter (H.add h) values;
  h

let test_hist_empty () =
  let h = H.create () in
  check_int "count" 0 (H.count h);
  check_float "total" 0.0 (H.total h);
  check_float "min" 0.0 (H.min_value h);
  check_float "max" 0.0 (H.max_value h);
  check_float "p50" 0.0 (H.p50 h);
  check_float "p99" 0.0 (H.p99 h);
  check_bool "no buckets" true (H.buckets h = [])

let test_hist_exact_aggregates () =
  let h = hist_of [ 10.0; 100.0; 1000.0 ] in
  check_int "count" 3 (H.count h);
  check_float "total is exact" 1110.0 (H.total h);
  check_float "min is exact" 10.0 (H.min_value h);
  check_float "max is exact" 1000.0 (H.max_value h)

let test_hist_nonpositive_values () =
  let h = hist_of [ 0.0; -5.0; 42.0 ] in
  check_int "non-positive values are counted" 3 (H.count h);
  check_int "but kept out of the buckets" 1
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (H.buckets h))

let test_hist_bucket_bounds () =
  (* Every recorded value is <= the upper bound of its bucket, and the
     bound is within one quarter-octave (~19%) of the value. *)
  List.iter
    (fun v ->
      let h = hist_of [ v ] in
      match H.buckets h with
      | [ (i, 1) ] ->
          let ub = H.bucket_upper_bound i in
          check_bool
            (Printf.sprintf "%g <= bound %g" v ub)
            true
            (v <= ub +. 1e-9 && ub <= v *. Float.exp2 0.25 +. 1e-9)
      | _ -> Alcotest.fail "one value, one bucket")
    [ 1.0; 3.5; 107.0; 18_814.0; 0.013; 1e6 ]

let test_hist_quantiles_single_value () =
  (* All mass in one place: every quantile answers that place exactly
     (the bucket bound is clamped into [min, max]). *)
  let h = hist_of [ 107.0; 107.0; 107.0 ] in
  check_float "p50" 107.0 (H.p50 h);
  check_float "p95" 107.0 (H.p95 h);
  check_float "p99" 107.0 (H.p99 h);
  check_float "max" 107.0 (H.max_value h)

let test_hist_quantiles_spread () =
  let h = hist_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  let p50 = H.p50 h and p95 = H.p95 h and p99 = H.p99 h in
  (* Nearest-rank over ~19%-wide buckets: the answers are approximate but
     must bracket the true quantiles within one bucket's relative error. *)
  check_bool "p50 near 50" true (p50 >= 40.0 && p50 <= 65.0);
  check_bool "p95 near 95" true (p95 >= 80.0 && p95 <= 113.0);
  check_bool "p99 near 99" true (p99 >= 85.0 && p99 <= 113.0);
  check_bool "ordered" true (p50 <= p95 && p95 <= p99 && p99 <= H.max_value h)

let test_hist_merge_empty_identity () =
  let h = hist_of [ 3.0; 9.0; 81.0 ] in
  let m = H.merge h (H.create ()) in
  check_int "count" (H.count h) (H.count m);
  check_float "total" (H.total h) (H.total m);
  check_float "min" (H.min_value h) (H.min_value m);
  check_float "max" (H.max_value h) (H.max_value m);
  check_bool "buckets" true (H.buckets h = H.buckets m)

let test_hist_merge_pure () =
  let a = hist_of [ 1.0; 2.0 ] and b = hist_of [ 4.0 ] in
  let (_ : H.t) = H.merge a b in
  check_int "left argument not mutated" 2 (H.count a);
  check_int "right argument not mutated" 1 (H.count b)

(* ------------------------------------------------------------------ *)
(* Hist: QCheck properties                                             *)
(* ------------------------------------------------------------------ *)

(* Samples spanning ~9 orders of magnitude, including non-positive
   values (which exercise the zero-count path). *)
let arb_samples =
  QCheck.make ~print:QCheck.Print.(list float) ~shrink:QCheck.Shrink.list
    QCheck.Gen.(
      list_size (int_range 0 60)
        (oneof
           [
             float_range (-2.0) 0.0;
             float_range 0.001 1.0;
             float_range 1.0 1000.0;
             float_range 1000.0 2e7;
           ]))

let hists_agree a b =
  H.count a = H.count b
  && H.buckets a = H.buckets b
  && H.min_value a = H.min_value b
  && H.max_value a = H.max_value b
  && Float.abs (H.total a -. H.total b) <= 1e-6 *. (1.0 +. Float.abs (H.total a))

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:200
    (QCheck.pair arb_samples arb_samples)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      hists_agree (H.merge a b) (H.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200
    (QCheck.triple arb_samples arb_samples arb_samples)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      hists_agree (H.merge (H.merge a b) c) (H.merge a (H.merge b c)))

let prop_merge_conserves_counts =
  QCheck.Test.make ~name:"merge conserves count and total" ~count:200
    (QCheck.pair arb_samples arb_samples)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      let m = H.merge a b in
      H.count m = H.count a + H.count b
      && Float.abs (H.total m -. (H.total a +. H.total b))
         <= 1e-6 *. (1.0 +. Float.abs (H.total m)))

let prop_merge_equals_union =
  QCheck.Test.make ~name:"merge equals histogram of the concatenation" ~count:200
    (QCheck.pair arb_samples arb_samples)
    (fun (xs, ys) -> hists_agree (H.merge (hist_of xs) (hist_of ys)) (hist_of (xs @ ys)))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in p and bounded by [min,max]" ~count:200
    arb_samples
    (fun xs ->
      let h = hist_of xs in
      let ps = [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 ] in
      let qs = List.map (H.quantile h) ps in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted qs
      && (H.count h = 0
         || List.for_all (fun q -> q >= H.min_value h && q <= H.max_value h) qs))

let prop_count_conservation =
  QCheck.Test.make ~name:"bucket counts + zero-count = count" ~count:200 arb_samples
    (fun xs ->
      let h = hist_of xs in
      let in_buckets = List.fold_left (fun acc (_, n) -> acc + n) 0 (H.buckets h) in
      let nonpos = List.length (List.filter (fun v -> v <= 0.0) xs) in
      in_buckets + nonpos = H.count h && H.count h = List.length xs)

(* ------------------------------------------------------------------ *)
(* Sink: spans, attribution, the disabled no-op contract               *)
(* ------------------------------------------------------------------ *)

let test_sink_disabled_by_default () =
  let m = M.create () in
  check_bool "disabled" false (M.enabled m);
  M.record_charge m ~label:"x" 10.0;
  M.observe m ~kind:"k" 5.0;
  M.with_span m "s" (fun () -> M.record_charge m ~label:"y" 1.0);
  check_bool "no charges recorded" true (M.charges m = []);
  check_bool "no kinds recorded" true (M.kinds m = []);
  check_float "charged_total 0" 0.0 (M.charged_total m)

let test_sink_span_paths () =
  let m = M.create ~enabled:true () in
  check_string "top-level path" "" (M.current_path m);
  M.with_span m "fault" (fun () ->
      check_string "one span" "fault" (M.current_path m);
      M.record_charge m ~label:"kernel/trap" 10.0;
      M.with_span m "inner" (fun () ->
          check_string "nested" "fault/inner" (M.current_path m);
          M.record_charge m ~label:"kernel/migrate" 46.0);
      M.record_charge m ~label:"kernel/trap" 10.0);
  M.record_charge m 4.0;
  check_bool "stack popped" true (M.current_path m = "");
  let cs = M.charges m in
  check_bool "paths and sums" true
    (cs
    = [
        ("fault/inner/kernel/migrate", 1, 46.0);
        ("fault/kernel/trap", 2, 20.0);
        ("unattributed", 1, 4.0);
      ]);
  check_float "charged_total" 70.0 (M.charged_total m);
  check_float "prefix filter" 66.0 (M.charged_total ~prefix:"fault" m);
  check_float "prefix filter (deep)" 46.0 (M.charged_total ~prefix:"fault/inner" m)

let test_sink_span_exception_safe () =
  let m = M.create ~enabled:true () in
  (try M.with_span m "boom" (fun () -> failwith "no") with Failure _ -> ());
  check_string "span popped on exception" "" (M.current_path m)

let test_sink_reset () =
  let m = M.create ~enabled:true () in
  M.record_charge m ~label:"a" 1.0;
  M.observe m ~kind:"k" 2.0;
  M.reset m;
  check_bool "still enabled" true (M.enabled m);
  check_bool "charges dropped" true (M.charges m = []);
  check_bool "kinds dropped" true (M.kinds m = []);
  M.record_charge m ~label:"b" 3.0;
  check_float "usable after reset" 3.0 (M.charged_total m);
  (* Reset inside an open span: leaving the span afterwards does nothing,
     and charges made after the reset land at the top level. *)
  let m = M.create ~enabled:true () in
  M.with_span m "outer" (fun () ->
      M.record_charge m ~label:"a" 1.0;
      M.reset m;
      check_string "top level after reset" "" (M.current_path m);
      M.record_charge m ~label:"b" 2.0);
  check_string "leaving the span is a no-op" "" (M.current_path m);
  M.record_charge m ~label:"c" 4.0;
  check_bool "charges after reset at top level" true
    (M.charges m = [ ("b", 1, 2.0); ("c", 1, 4.0) ])

let test_sink_observe_kinds () =
  let m = M.create ~enabled:true () in
  M.observe m ~kind:"disk.read" 100.0;
  M.observe m ~kind:"disk.read" 200.0;
  M.observe m ~kind:"wal.flush" 50.0;
  check_bool "kinds sorted" true (M.kinds m = [ "disk.read"; "wal.flush" ]);
  (match M.hist m ~kind:"disk.read" with
  | Some h ->
      check_int "two samples" 2 (H.count h);
      check_float "total" 300.0 (H.total h)
  | None -> Alcotest.fail "disk.read histogram missing");
  check_bool "unknown kind" true (M.hist m ~kind:"nope" = None)

(* ------------------------------------------------------------------ *)
(* Sink: differential test against a string-path reference             *)
(* ------------------------------------------------------------------ *)

(* The reference model: a sink keyed by path strings, building the path
   of every charge from a list of open span names. Leaving a span pops the
   innermost name and does nothing at the top level. *)
module Model = struct
  type entry = { mutable n : int; mutable us : float }

  type t = {
    mutable on : bool;
    mutable stack : string list;  (* innermost span first *)
    charges : (string, entry) Hashtbl.t;
    hists : (string, H.t) Hashtbl.t;
  }

  let create () = { on = false; stack = []; charges = Hashtbl.create 64; hists = Hashtbl.create 16 }

  let reset t =
    t.stack <- [];
    Hashtbl.reset t.charges;
    Hashtbl.reset t.hists

  let with_span t name f =
    if not t.on then f ()
    else begin
      t.stack <- name :: t.stack;
      Fun.protect ~finally:(fun () -> t.stack <- (match t.stack with [] -> [] | _ :: tl -> tl)) f
    end

  let current_path t = String.concat "/" (List.rev t.stack)

  let record_charge t ?label us =
    if t.on then begin
      let leaf = Option.value label ~default:"unattributed" in
      let path = String.concat "/" (List.rev (leaf :: t.stack)) in
      let e =
        match Hashtbl.find_opt t.charges path with
        | Some e -> e
        | None ->
            let e = { n = 0; us = 0.0 } in
            Hashtbl.replace t.charges path e;
            e
      in
      e.n <- e.n + 1;
      e.us <- e.us +. us
    end

  let observe t ~kind us =
    if t.on then begin
      let h =
        match Hashtbl.find_opt t.hists kind with
        | Some h -> h
        | None ->
            let h = H.create () in
            Hashtbl.replace t.hists kind h;
            h
      in
      H.add h us
    end

  let charges t =
    Hashtbl.fold (fun path e acc -> (path, e.n, e.us) :: acc) t.charges []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

  let charged_total ~prefix t =
    Hashtbl.fold
      (fun path e acc ->
        if String.starts_with ~prefix path then acc +. e.us else acc)
      t.charges 0.0

  let hist_json h =
    J.Obj
      [
        ("count", J.Num (float_of_int (H.count h)));
        ("total_us", J.Num (H.total h));
        ("min_us", J.Num (H.min_value h));
        ("p50_us", J.Num (H.p50 h));
        ("p95_us", J.Num (H.p95 h));
        ("p99_us", J.Num (H.p99 h));
        ("max_us", J.Num (H.max_value h));
        ( "buckets",
          J.List
            (List.map
               (fun (i, c) ->
                 J.Obj
                   [
                     ("upper_us", J.Num (H.bucket_upper_bound i));
                     ("count", J.Num (float_of_int c));
                   ])
               (H.buckets h)) );
      ]

  let to_json t =
    let kinds = Hashtbl.fold (fun k _ acc -> k :: acc) t.hists [] |> List.sort compare in
    J.Obj
      [
        ( "charges",
          J.List
            (List.map
               (fun (path, n, us) ->
                 J.Obj
                   [
                     ("path", J.Str path);
                     ("count", J.Num (float_of_int n));
                     ("us", J.Num us);
                   ])
               (charges t)) );
        ( "latency",
          J.List
            (List.map
               (fun kind ->
                 match hist_json (Hashtbl.find t.hists kind) with
                 | J.Obj fields -> J.Obj (("kind", J.Str kind) :: fields)
                 | other -> other)
               kinds) );
      ]
end

exception Boom

(* A random program over one sink: nested spans, some left by an
   exception ([Raise] unwinds to the nearest [Try]), charges with and
   without a label, enable/disable toggles, latency samples, resets and
   checkpoints. *)
type op =
  | Span of string * op list
  | Try of op list
  | Raise
  | Charge of string option * float
  | Toggle of bool
  | Observe of string * float
  | Reset
  | Check

let rec show_op = function
  | Span (name, body) -> Printf.sprintf "span %S [%s]" name (show_ops body)
  | Try body -> Printf.sprintf "try [%s]" (show_ops body)
  | Raise -> "raise"
  | Charge (None, us) -> Printf.sprintf "charge %g" us
  | Charge (Some l, us) -> Printf.sprintf "charge %S %g" l us
  | Toggle on -> Printf.sprintf "toggle %b" on
  | Observe (kind, v) -> Printf.sprintf "observe %S %g" kind v
  | Reset -> "reset"
  | Check -> "check"

and show_ops ops = String.concat "; " (List.map show_op ops)

(* Names chosen so that different (span, label) splits spell the same
   path ("a" + "b/c", "a/b" + "c", "a" then "b" + "c"); half the draws are
   fresh copies, so lookups by physical equality miss and must fall back
   to string equality. *)
let gen_name pool =
  QCheck.Gen.(
    map2
      (fun s fresh -> if fresh then String.init (String.length s) (String.get s) else s)
      (oneofl pool) bool)

let span_names = [ "a"; "b"; "a/b"; "fault/missing"; "" ]
let labels = [ "c"; "b/c"; "kernel/trap"; "unattributed"; "" ]

let gen_program =
  QCheck.Gen.(
    sized_size (int_range 4 64)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (8, map2 (fun l us -> Charge (l, us)) (opt (gen_name labels)) (float_range 0.0 100.0));
                 (2, map (fun on -> Toggle on) (frequency [ (3, return true); (1, return false) ]));
                 (2, map2 (fun k v -> Observe (k, v)) (oneofl [ "disk.read"; "wal.flush" ])
                       (float_range (-1.0) 1e4));
                 (1, return Reset);
                 (1, return Raise);
                 (2, return Check);
               ]
           in
           if n <= 1 then list_size (int_range 0 4) leaf
           else
             list_size (int_range 1 6)
               (frequency
                  [
                    (3, leaf);
                    (3, map2 (fun name body -> Span (name, body)) (gen_name span_names) (self (n / 2)));
                    (1, map (fun body -> Try body) (self (n / 2)));
                  ])))

let arb_program = QCheck.make ~print:show_ops gen_program

let prefixes = [ ""; "a"; "a/b"; "fault"; "unattributed"; "c" ]

let agree m r =
  M.charges m = Model.charges r
  && M.current_path m = Model.current_path r
  && J.to_string (M.to_json m) = J.to_string (Model.to_json r)
  && List.for_all
       (fun prefix ->
         let a = M.charged_total ~prefix m and b = Model.charged_total ~prefix r in
         Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b))
       prefixes

let rec exec m r = function
  | Span (name, body) ->
      M.with_span m name (fun () -> Model.with_span r name (fun () -> List.iter (exec m r) body))
  | Try body -> ( try List.iter (exec m r) body with Boom -> ())
  | Raise -> raise Boom
  | Charge (label, us) ->
      M.record_charge m ?label us;
      Model.record_charge r ?label us
  | Toggle on ->
      M.set_enabled m on;
      r.Model.on <- on
  | Observe (kind, v) ->
      M.observe m ~kind v;
      Model.observe r ~kind v
  | Reset ->
      M.reset m;
      Model.reset r
  | Check -> if not (agree m r) then failwith "sink and model disagree"

let prop_sink_matches_model =
  QCheck.Test.make ~name:"interned sink = string-path model" ~count:500 arb_program (fun prog ->
      let m = M.create ~enabled:true () and r = Model.create () in
      r.Model.on <- true;
      (try List.iter (exec m r) prog with Boom -> ());
      agree m r)

(* ------------------------------------------------------------------ *)
(* Charges survive outside a simulation process; time does not          *)
(* ------------------------------------------------------------------ *)

let test_machine_charge_attributes_without_engine () =
  (* Hw_machine.charge no-ops the delay outside a process but still
     attributes the cost — Exp_profile depends on this split. *)
  let machine = Machine.create ~memory_bytes:(16 * 4096) () in
  Machine.set_profiling machine true;
  Machine.charge ~label:"kernel/test" machine 12.0;
  check_float "charge attributed" 12.0 (M.charged_total (Machine.metrics machine));
  Machine.set_profiling machine false;
  Machine.charge ~label:"kernel/test" machine 12.0;
  check_float "disabled again: nothing added" 12.0
    (M.charged_total (Machine.metrics machine))

(* ------------------------------------------------------------------ *)
(* JSON: printer stability, parser, round-trips                        *)
(* ------------------------------------------------------------------ *)

let sample_json =
  J.Obj
    [
      ("schema", J.Str "vpp-profile/1");
      ("n", J.Num 379.0);
      ("frac", J.Num 0.375);
      ("flag", J.Bool true);
      ("nothing", J.Null);
      ("xs", J.List [ J.Num 1.0; J.Str "two\n\"quoted\""; J.Obj [] ]);
    ]

let test_json_round_trip () =
  let s = J.to_string sample_json in
  (match J.parse s with
  | Ok v -> check_bool "compact round-trip" true (v = sample_json)
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  match J.parse (J.to_string ~indent:true sample_json) with
  | Ok v -> check_bool "indented round-trip" true (v = sample_json)
  | Error e -> Alcotest.fail ("indented parse failed: " ^ e)

let test_json_stable_output () =
  check_string "same tree, same bytes" (J.to_string sample_json) (J.to_string sample_json);
  check_string "integers print without a fraction" "{\"n\":379}"
    (J.to_string (J.Obj [ ("n", J.Num 379.0) ]))

let test_json_parse_rejects_garbage () =
  let bad = [ "{\"a\":1} trailing"; "{"; "[1,]"; ""; "{\"a\" 1}"; "nul" ] in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    bad

let test_json_accessors () =
  check_bool "member" true (J.member "n" sample_json = Some (J.Num 379.0));
  check_bool "member miss" true (J.member "zzz" sample_json = None);
  check_bool "to_float" true (J.member "n" sample_json |> Option.get |> J.to_float = Some 379.0);
  check_bool "to_str" true
    (J.member "schema" sample_json |> Option.get |> J.to_str = Some "vpp-profile/1");
  check_bool "to_list" true
    (match J.member "xs" sample_json |> Option.get |> J.to_list with
    | Some l -> List.length l = 3
    | None -> false)

let test_sink_json_shape () =
  let m = M.create ~enabled:true () in
  M.with_span m "fault" (fun () -> M.record_charge m ~label:"kernel/trap" 10.0);
  M.observe m ~kind:"kernel.fault" 107.0;
  let j = M.to_json m in
  let s = J.to_string j in
  (* %.6g is lossy for floats like bucket bounds, so the contract is a
     print -> parse -> print fixpoint, not tree equality. *)
  (match J.parse s with
  | Ok v -> check_string "print/parse/print fixpoint" s (J.to_string v)
  | Error e -> Alcotest.fail ("sink JSON unparseable: " ^ e));
  check_bool "has charges" true (J.member "charges" j <> None);
  check_bool "has latency" true (J.member "latency" j <> None)

(* ------------------------------------------------------------------ *)
(* Determinism: a profiled chaos storm records identical metrics        *)
(* ------------------------------------------------------------------ *)

let profiled_storm ~seed =
  let frames = 48 in
  let machine = Machine.create ~memory_bytes:(frames * 4096) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let chaos =
    Chaos.create ~seed
      { Chaos.default_spec with read_error_p = 0.1; write_error_p = 0.1; delay_p = 0.05 }
  in
  Hw_disk.set_chaos machine.Machine.disk (Some chaos);
  let backing = Mgr_backing.disk machine.Machine.disk ~page_bytes:4096 in
  let g =
    G.create kernel ~name:"profiled-storm" ~mode:`In_process ~backing ~source ~pool_capacity:24
      ~refill_batch:8 ~reclaim_batch:4 ()
  in
  let seg =
    G.create_segment g ~name:"data" ~pages:32 ~kind:(G.File { file_id = 9 }) ~high_water:32 ()
  in
  Machine.set_profiling machine true;
  Engine.spawn machine.Machine.engine (fun () ->
      for page = 0 to 31 do
        let access = if page mod 3 = 0 then Mgr.Write else Mgr.Read in
        try K.touch kernel ~space:seg ~page ~access
        with Mgr_backing.Backing_failed _ -> ()
      done);
  Engine.run machine.Machine.engine;
  Hw_disk.set_chaos machine.Machine.disk None;
  J.to_string ~indent:true (M.to_json (Machine.metrics machine))

let test_storm_metrics_deterministic () =
  let a = profiled_storm ~seed:101L in
  let b = profiled_storm ~seed:101L in
  let c = profiled_storm ~seed:102L in
  check_string "same seed, byte-identical metrics record" a b;
  check_bool "different seed, different record" true (a <> c)

(* ------------------------------------------------------------------ *)
(* The profile bench record: schema validation                          *)
(* ------------------------------------------------------------------ *)

let test_profile_record_schema () =
  let r = Exp_profile.run () in
  let j = Exp_codec.enc Exp_profile.codec r in
  (match Exp_record.validate j with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("schema validation failed: " ^ e));
  (* The rendered record (what bench/main.exe writes to
     BENCH_observability.json) parses back and still validates. *)
  match J.parse (Exp_codec.print Exp_profile.codec r) with
  | Error e -> Alcotest.fail ("rendered record unparseable: " ^ e)
  | Ok v -> (
      check_string "render/parse/render fixpoint"
        (J.to_string ~indent:true j ^ "\n")
        (J.to_string ~indent:true v ^ "\n");
      match Exp_record.validate v with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("re-parsed record fails validation: " ^ e))

let test_profile_record_stable () =
  let a = Exp_codec.print Exp_profile.codec (Exp_profile.run ()) in
  let b = Exp_codec.print Exp_profile.codec (Exp_profile.run ()) in
  check_string "two runs, byte-identical records" a b;
  check_bool "version string embedded" true
    (match J.parse a with
    | Ok j -> J.member "schema" j |> Option.map J.to_str = Some (Some Exp_profile.schema_version)
    | Error _ -> false)

let test_profile_validator_rejects_drift () =
  let r = Exp_profile.run () in
  match Exp_codec.enc Exp_profile.codec r with
  | J.Obj fields ->
      let rejected ~needle json =
        match Exp_record.validate json with
        | Ok _ -> false
        | Error e ->
            let n = String.length needle and len = String.length e in
            let rec has i = i + n <= len && (String.sub e i n = needle || has (i + 1)) in
            has 0
      in
      check_bool "wrong version rejected" true
        (rejected ~needle:"unknown schema"
           (J.Obj
              (List.map
                 (fun (k, v) -> if k = "schema" then (k, J.Str "vpp-profile/999") else (k, v))
                 fields)));
      check_bool "missing rows rejected" true
        (rejected ~needle:"table1_decomposition: missing"
           (J.Obj (List.remove_assoc "table1_decomposition" fields)))
  | _ -> Alcotest.fail "profile record is not an object"

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "exact aggregates" `Quick test_hist_exact_aggregates;
          Alcotest.test_case "non-positive values" `Quick test_hist_nonpositive_values;
          Alcotest.test_case "bucket bounds" `Quick test_hist_bucket_bounds;
          Alcotest.test_case "quantiles: point mass" `Quick test_hist_quantiles_single_value;
          Alcotest.test_case "quantiles: uniform spread" `Quick test_hist_quantiles_spread;
          Alcotest.test_case "merge: empty identity" `Quick test_hist_merge_empty_identity;
          Alcotest.test_case "merge: pure" `Quick test_hist_merge_pure;
        ] );
      ( "histogram properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_merge_commutative;
            prop_merge_associative;
            prop_merge_conserves_counts;
            prop_merge_equals_union;
            prop_quantile_monotone;
            prop_count_conservation;
          ] );
      ( "sink",
        [
          Alcotest.test_case "disabled by default is a no-op" `Quick test_sink_disabled_by_default;
          Alcotest.test_case "span paths and attribution" `Quick test_sink_span_paths;
          Alcotest.test_case "span pops on exception" `Quick test_sink_span_exception_safe;
          Alcotest.test_case "reset" `Quick test_sink_reset;
          Alcotest.test_case "latency kinds" `Quick test_sink_observe_kinds;
          Alcotest.test_case "charge attributes outside a process" `Quick
            test_machine_charge_attributes_without_engine;
          QCheck_alcotest.to_alcotest prop_sink_matches_model;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "stable output" `Quick test_json_stable_output;
          Alcotest.test_case "rejects malformed input" `Quick test_json_parse_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "sink encoding" `Quick test_sink_json_shape;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "profiled storm replays byte-for-byte" `Quick
            test_storm_metrics_deterministic;
        ] );
      ( "profile record",
        [
          Alcotest.test_case "schema validates" `Quick test_profile_record_schema;
          Alcotest.test_case "record is stable across runs" `Quick test_profile_record_stable;
          Alcotest.test_case "validator rejects drift" `Quick test_profile_validator_rejects_drift;
        ] );
    ]
