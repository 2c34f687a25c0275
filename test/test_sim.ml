(* Unit and property tests for the discrete-event simulation substrate. *)

module Rng = Sim_rng
module Stats = Sim_stats
module Heap = Sim_heap
module Engine = Sim_engine
module Sync = Sim_sync
module Trace = Sim_trace

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* RNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check_bool "streams diverge" true (!same < 4)

let test_rng_float_range () =
  let r = Rng.create 7L in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_int_range () =
  let r = Rng.create 9L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_int_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Sim_rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let s = Stats.Series.create () in
  for _ = 1 to 50_000 do
    Stats.Series.add s (Rng.exponential r ~mean:25.0)
  done;
  let m = Stats.Series.mean s in
  check_bool "mean near 25" true (m > 24.0 && m < 26.0)

let test_rng_bernoulli () =
  let r = Rng.create 13L in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.05 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check_bool "p near 0.05" true (p > 0.04 && p < 0.06)

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let c1 = Rng.int64 child in
  let p1 = Rng.int64 parent in
  check_bool "child differs from parent draw" true (c1 <> p1)

let test_rng_shuffle_permutation () =
  let r = Rng.create 21L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

(* Golden draws: the first 16 values of every draw kind for one seed,
   pinned so a change to the generator's representation (the state is
   kept unboxed) provably draws the same stream. Floats are compared
   exactly, as hex literals. *)
let test_rng_golden () =
  let draws f =
    let r = Rng.create 20260101L in
    List.init 16 (fun _ -> f r)
  in
  Alcotest.(check (list int64)) "int64"
    [ -960161659727720390L; 3190848937081373894L; -4541172408675053388L; -4219672266820744213L;
      -8500678748908361468L; 9063857149872120681L; -3927612579381956887L; -6788400297425300121L;
      4471861732358938601L; 5098341908887537052L; 6590281796502399532L; 5756405481570528398L;
      -3811600244137796213L; 4832887493387331216L; -8701985958582977171L; 839869437924247044L ]
    (draws Rng.int64);
  Alcotest.(check (list int)) "int"
    [ 292954; 478165; 138991; 332730; 987664; 866333; 769427; 413012; 944332; 947119; 744300;
      838816; 898431; 976734; 896453; 712644 ]
    (draws (fun r -> Rng.int r 1_000_003));
  let exact = Alcotest.testable (fun ppf -> Format.fprintf ppf "%h") Float.equal in
  Alcotest.(check (list exact)) "float"
    [ 0x1.e559a41d81f5ap-1; 0x1.6241619e9558p-3; 0x1.81f507824a3cap-1; 0x1.8ae16cdc372a1p-1;
      0x1.140f0b6ecb35dp-1; 0x1.f7252838c40c8p-2; 0x1.92fca2563d2a5p-1; 0x1.439583cabd9e2p-1;
      0x1.f079f46bcf56cp-3; 0x1.1b03cbd0daeap-2; 0x1.6dd5898228feap-2; 0x1.3f8b7125a07dap-2;
      0x1.9634f38b9cbfbp-1; 0x1.0c4776472b1e8p-2; 0x1.0e78abc06472fp-1; 0x1.74fa19ba25dp-5 ]
    (draws Rng.float);
  Alcotest.(check (list bool)) "bernoulli"
    [ false; true; false; false; false; false; false; false; true; true; false; false; false;
      true; false; true ]
    (draws (fun r -> Rng.bernoulli r 0.3));
  Alcotest.(check (list exact)) "exponential"
    [ 0x1.278ddcbe02bfcp+6; 0x1.2fe00148dfa97p+2; 0x1.18572d266f92ep+5; 0x1.2706ad6ce23b8p+5;
      0x1.35e5913efe35ap+4; 0x1.0e6670ac46a42p+4; 0x1.355f08a01d426p+5; 0x1.8fde787cbe563p+4;
      0x1.bc33b9a4f61dcp+2; 0x1.02caff05b3f4p+3; 0x1.619ca2c2a72fdp+3; 0x1.2b3ccf18368f9p+3;
      0x1.3b5e251e4806p+5; 0x1.e6145fcb6a257p+2; 0x1.2c88de7622c1ep+4; 0x1.2a3ae74d87818p+0 ]
    (draws (fun r -> Rng.exponential r ~mean:25.0));
  Alcotest.(check (list int64)) "first draw of each split"
    [ 2247230165633754791L; -2655548896148270859L; 5964902839055016993L; 8247525976559922212L;
      8510062323814007673L; -4158078324441224773L; 2348741276797014350L; 2181533771279166037L;
      8433203022906922836L; 2182050755943592029L; -4406271162063857794L; 1449734770298164498L;
      9111670081840838146L; -9200124274595543011L; 8490531206811020098L; 2624569807974562788L ]
    (draws (fun r -> Rng.int64 (Rng.split r)))

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

(* The running summary a series keeps beside its samples. *)
let test_summary_basic () =
  let s = Stats.Series.create () in
  List.iter (Stats.Series.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.Series.count s);
  check_float "mean" 2.5 (Stats.Series.mean s);
  check_float "max" 4.0 (Stats.Series.max s)

let test_summary_empty () =
  let s = Stats.Series.create () in
  check_float "mean of empty" 0.0 (Stats.Series.mean s)

let test_series_percentile () =
  let s = Stats.Series.create () in
  for i = 1 to 100 do
    Stats.Series.add s (float_of_int i)
  done;
  check_float "p50" 50.0 (Stats.Series.percentile s 50.0);
  check_float "p100 = max" 100.0 (Stats.Series.percentile s 100.0);
  check_float "p1" 1.0 (Stats.Series.percentile s 1.0);
  check_float "max" 100.0 (Stats.Series.max s)

(* The percentile is found by selection; it must pick the same rank as a
   reference sort in [Float.compare] order, special values (nan,
   infinities, signed zeros) included. Under [Float.equal] all nans are
   equal and so are both zeros, the only ties two orders can break
   differently. Samples come in rounds, with the quantiles queried after
   each round (selection reorders the samples in place, so a later round
   lands among reordered ones), from one of three pools: any float, a
   handful of values (many duplicates) or a single value; the series
   starts at the default capacity, at 1, or above the final count. *)
let prop_series_percentile_reference =
  let open QCheck.Gen in
  let special = oneofl [ nan; infinity; neg_infinity; 0.0; -0.0; 1.0 ] in
  let pool =
    oneof
      [
        return (oneof [ float; special ]);
        map (fun xs -> oneofl xs) (list_size (int_range 1 4) (oneof [ float; special ]));
        map return (oneof [ float; special ]);
      ]
  in
  let gen =
    pool >>= fun sample ->
    triple
      (list_size (int_range 1 4) (list_size (int_range 1 300) sample))
      (float_bound_inclusive 100.0)
      (oneofl [ `Default; `One; `Above ])
  in
  let print (rounds, p, cap) =
    Printf.sprintf "p %g, capacity %s, rounds [%s]" p
      (match cap with `Default -> "default" | `One -> "1" | `Above -> "above")
      (String.concat "; "
         (List.map (fun xs -> String.concat " " (List.map string_of_float xs)) rounds))
  in
  QCheck.Test.make ~name:"series percentile matches a Float.compare sort" ~count:300
    (QCheck.make ~print gen) (fun (rounds, p, cap) ->
      let total = List.fold_left (fun n xs -> n + List.length xs) 0 rounds in
      let s =
        match cap with
        | `Default -> Stats.Series.create ()
        | `One -> Stats.Series.create ~capacity:1 ()
        | `Above -> Stats.Series.create ~capacity:(total + 7) ()
      in
      let expect xs p =
        let sorted = Array.of_list xs in
        Array.sort Float.compare sorted;
        let n = Array.length sorted in
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
        sorted.(max 0 (min (n - 1) rank))
      in
      let seen = ref [] in
      List.for_all
        (fun xs ->
          List.iter (Stats.Series.add s) xs;
          seen := !seen @ xs;
          Stats.Series.count s = List.length !seen
          && List.for_all
               (fun p -> Float.equal (expect !seen p) (Stats.Series.percentile s p))
               [ p; 0.0; 50.0; 95.0; 99.0; 100.0; p ])
        rounds)

(* Ordered runs, where a pivot taken from the ends of the range would be
   among the smallest samples: an organ pipe (up, then down), a sawtooth
   of duplicates and a descending ramp. The quantiles must be exact. *)
let test_series_percentile_ramps () =
  let n = 10_000 in
  let check name f =
    let s = Stats.Series.create () in
    let xs = List.init n f in
    List.iter (Stats.Series.add s) xs;
    let sorted = Array.of_list xs in
    Array.sort Float.compare sorted;
    List.iter
      (fun p ->
        let rank = max 0 (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1) in
        check_float (Printf.sprintf "%s p%g" name p) sorted.(rank) (Stats.Series.percentile s p))
      [ 0.0; 1.0; 50.0; 95.0; 99.0; 100.0 ]
  in
  check "organ pipe" (fun i -> float_of_int (min i (n - 1 - i)));
  check "sawtooth" (fun i -> float_of_int (i mod 97));
  check "descending" (fun i -> float_of_int (n - i))

(* A capacity hint reserves nothing until the first [add], which then
   allocates the whole hint at once; the series grows only past it. *)
let test_series_capacity () =
  let words s = Obj.reachable_words (Obj.repr s) in
  let big = Stats.Series.create ~capacity:100_000 () in
  check_int "a hint allocates nothing before the first add"
    (words (Stats.Series.create ~capacity:1 ()))
    (words big);
  check_int "nor does the default" (words (Stats.Series.create ())) (words big);
  let before = words big in
  Stats.Series.add big 1.0;
  check_bool "the first add allocates the hint" true (words big >= before + 100_000);
  let after_first = words big in
  for i = 2 to 100_000 do
    Stats.Series.add big (float_of_int i)
  done;
  check_int "no growth within the hint" after_first (words big);
  Stats.Series.add big 0.0;
  check_bool "growth past it" true (words big > after_first);
  check_float "p100" 100_000.0 (Stats.Series.percentile big 100.0)

(* ------------------------------------------------------------------ *)
(* Int-keyed table                                                    *)
(* ------------------------------------------------------------------ *)

(* Random binds, rebinds and removals against the polymorphic [Hashtbl],
   from an 8-key start so the table doubles on the way. Keys are drawn
   from a few values (so removals hit long probe runs and must shift them
   back), from packed two-field keys and from anywhere in the int range;
   after every step each key drawn so far must read as the reference
   says. *)
let prop_int_table_reference =
  let open QCheck.Gen in
  let key =
    oneof
      [
        int_bound 20;
        map2 (fun a b -> (a lsl 32) lor b) (int_bound 3) (int_bound 5);
        map (fun k -> if k = min_int then 0 else k) int;
      ]
  in
  let op = pair (frequency [ (3, return `Bind); (2, return `Remove) ]) key in
  QCheck.Test.make ~name:"int table matches Hashtbl" ~count:300
    (QCheck.make (list_size (int_range 1 200) op))
    (fun ops ->
      let t = Sim_int_table.create ~absent:(-1) 4 and r = Hashtbl.create 8 in
      let keys = ref [] in
      List.for_all
        (fun (i, (what, k)) ->
          keys := k :: !keys;
          (match what with
          | `Bind ->
              Sim_int_table.replace t k i;
              Hashtbl.replace r k i
          | `Remove ->
              Sim_int_table.remove t k;
              Hashtbl.remove r k);
          List.for_all
            (fun k ->
              Sim_int_table.find t k = Option.value (Hashtbl.find_opt r k) ~default:(-1))
            !keys)
        (List.mapi (fun i op -> (i, op)) ops))

(* [min_int] marks a free slot: binding it is refused, and reading or
   removing it leaves the table as it was. *)
let test_int_table_refuses_min_int () =
  let t = Sim_int_table.create ~absent:0 1 in
  List.iter (fun k -> Sim_int_table.replace t k k) [ 1; 2; 3 ];
  Alcotest.check_raises "min_int"
    (Invalid_argument "Sim_int_table.replace: min_int is not a key") (fun () ->
      Sim_int_table.replace t min_int 1);
  check_int "reads as absent" 0 (Sim_int_table.find t min_int);
  Sim_int_table.remove t min_int;
  for _ = 1 to 3 do
    Sim_int_table.remove t min_int
  done;
  List.iter (fun k -> Sim_int_table.replace t k k) [ 4; 5; 6; 7; 8 ];
  check_int "every binding intact" 36
    (List.fold_left (fun acc k -> acc + Sim_int_table.find t k) 0 [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  (* The table kept count and grew: a miss still finds a free slot. *)
  check_int "a missing key" 0 (Sim_int_table.find t 9)

let test_series_empty_percentile () =
  let s = Stats.Series.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Sim_stats.Series.percentile: empty series")
    (fun () -> ignore (Stats.Series.percentile s 50.0))

let test_series_growth () =
  let s = Stats.Series.create () in
  for i = 1 to 1000 do
    Stats.Series.add s (float_of_int i)
  done;
  check_int "count survives growth" 1000 (Stats.Series.count s);
  check_float "mean" 500.5 (Stats.Series.mean s)

let test_time_weighted () =
  let tw = Stats.Time_weighted.create ~now:0.0 ~init:0.0 in
  Stats.Time_weighted.set tw ~now:10.0 4.0;
  Stats.Time_weighted.set tw ~now:20.0 0.0;
  check_float "average" 2.0 (Stats.Time_weighted.average tw ~now:20.0);
  check_float "average later" 1.0 (Stats.Time_weighted.average tw ~now:40.0)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let take_item h = if Heap.is_empty h then Alcotest.fail "empty" else Heap.take h

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:3.0 ~seq:1 "c";
  Heap.push h ~time:1.0 ~seq:2 "a";
  Heap.push h ~time:2.0 ~seq:3 "b";
  let first = take_item h in
  let second = take_item h in
  let third = take_item h in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.push h ~time:5.0 ~seq:i i
  done;
  let order = List.init 10 (fun _ -> take_item h) in
  Alcotest.(check (list int)) "FIFO at equal times" (List.init 10 (fun i -> i + 1)) order

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  check_bool "is_empty" true (Heap.is_empty h);
  check_bool "nothing due" false (Heap.due h ~at:infinity);
  Alcotest.check_raises "take raises" (Invalid_argument "Sim_heap.take: empty heap") (fun () ->
      ignore (Heap.take h));
  Alcotest.check_raises "min_time raises" (Invalid_argument "Sim_heap.min_time: empty heap")
    (fun () -> ignore (Heap.min_time h))

(* Interleaved push/take/clear sequences against a sorted-list model: the
   heap's observable behaviour (including the minimum time, the due check
   and FIFO order at time ties) is exactly a list kept sorted by (time,
   seq). The engine's delay fast path leans on the minimum being exact
   mid-stream, not just after a full drain, so the model is checked after
   every operation. Pushes outnumber takes three to one, so long lists
   grow the heap well past its initial capacity; a clear now and then
   checks that a reused heap starts over. Items carry their seq so a take
   pins the whole entry. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list model under push/pop" ~count:200
    QCheck.(list (pair (int_bound 19) (pair (float_bound_exclusive 100.0) small_int)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let insert (t, s, v) =
        let rec go = function
          | [] -> [ (t, s, v) ]
          | ((t', s', _) as hd) :: tl ->
              if (t, s) < (t', s') then (t, s, v) :: hd :: tl else hd :: go tl
        in
        model := go !model
      in
      List.for_all
        (fun (kind, (t, v)) ->
          (if kind < 14 then begin
             incr seq;
             Heap.push h ~time:t ~seq:!seq (!seq, v);
             insert (t, !seq, v)
           end
           else if kind < 19 then (
             match !model with
             | [] -> check_bool "empty with the model" true (Heap.is_empty h)
             | ((t', s', v') as expect) :: rest ->
                 let tm = Heap.min_time h in
                 let s, v = Heap.take h in
                 if (tm, s, v) <> expect then
                   QCheck.Test.fail_reportf "take gave (%g, %d, %d), model (%g, %d, %d)" tm s v t'
                     s' v';
                 model := rest)
           else begin
             Heap.clear h;
             model := []
           end);
          Heap.size h = List.length !model
          && Heap.is_empty h = (!model = [])
          && (match !model with [] -> true | (t', _, _) :: _ -> Heap.min_time h = t')
          && Heap.due h ~at:t = List.exists (fun (t', _, _) -> t' <= t) !model)
        ops)

(* Regression: [clear] must fully reset the heap so a reused engine heap
   starts empty — a stale size or leftover entry would replay old events.
   The reuse grows the heap past its initial capacity again. *)
let test_heap_clear_reuse () =
  let h = Heap.create () in
  for i = 1 to 16 do
    Heap.push h ~time:(float_of_int i) ~seq:i i
  done;
  ignore (Heap.take h);
  Heap.clear h;
  check_bool "empty after clear" true (Heap.is_empty h);
  check_int "size zero after clear" 0 (Heap.size h);
  check_bool "nothing due after clear" false (Heap.due h ~at:infinity);
  for i = 1 to 40 do
    Heap.push h ~time:(float_of_int (41 - i)) ~seq:i (41 - i)
  done;
  check_int "grown past the initial capacity" 40 (Heap.size h);
  check_bool "min time after regrowth" true (Heap.min_time h = 1.0);
  Alcotest.(check (list int)) "reused heap orders fresh pushes" (List.init 40 (fun i -> i + 1))
    (List.init 40 (fun _ -> take_item h));
  check_bool "drained" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (t, v) -> Heap.push h ~time:t ~seq:i v) entries;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else begin
          let t = Heap.min_time h in
          ignore (Heap.take h);
          drain (t :: acc)
        end
      in
      let times = drain [] in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      List.length times = List.length entries && nondecreasing times)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_delay_advances_clock () =
  let e = Engine.create () in
  let finished = ref 0.0 in
  Engine.spawn e (fun () ->
      Engine.delay 100.0;
      Engine.delay 50.0;
      finished := Engine.time ());
  Engine.run e;
  check_float "clock" 150.0 !finished;
  check_float "engine now" 150.0 (Engine.now e);
  check_int "no live processes" 0 (Engine.live_processes e)

(* The delay fast path (nothing due earlier: advance the clock inline,
   skipping the heap) must be observationally identical to the scheduled
   path — including [events_executed], which the perf record reports. A
   lone process takes the fast path on every delay; two interleaved
   processes force the heap path; both must count one event per spawn
   plus one per delay. *)
let test_engine_delay_event_count () =
  let solo = Engine.create () in
  Engine.spawn solo (fun () ->
      for _ = 1 to 5 do
        Engine.delay 1.0
      done);
  Engine.run solo;
  check_int "solo process: spawn + 5 delays" 6 (Engine.events_executed solo);
  let duo = Engine.create () in
  for _ = 1 to 2 do
    Engine.spawn duo (fun () ->
        for _ = 1 to 5 do
          Engine.delay 1.0
        done)
  done;
  Engine.run duo;
  check_int "interleaved processes: 2 spawns + 10 delays" 12 (Engine.events_executed duo)

let test_engine_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag = log := tag :: !log in
  Engine.spawn e (fun () ->
      note "a0";
      Engine.delay 10.0;
      note "a10";
      Engine.delay 20.0;
      note "a30");
  Engine.spawn e (fun () ->
      note "b0";
      Engine.delay 15.0;
      note "b15");
  Engine.run e;
  Alcotest.(check (list string))
    "interleaved by time" [ "a0"; "b0"; "a10"; "b15"; "a30" ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let reached = ref 0.0 in
  Engine.spawn e (fun () ->
      Engine.delay 100.0;
      reached := 100.0;
      Engine.delay 100.0;
      reached := 200.0);
  Engine.run ~until:150.0 e;
  check_float "stopped at horizon" 100.0 !reached;
  check_float "clock at horizon" 150.0 (Engine.now e);
  Engine.run e;
  check_float "resumes past horizon" 200.0 !reached

let test_engine_fork () =
  let e = Engine.create () in
  let sum = ref 0.0 in
  Engine.spawn e (fun () ->
      Engine.fork (fun () ->
          Engine.delay 5.0;
          sum := !sum +. Engine.time ());
      Engine.delay 1.0;
      sum := !sum +. Engine.time ());
  Engine.run e;
  check_float "fork ran" 6.0 !sum

let test_engine_suspend_resume () =
  let e = Engine.create () in
  let slot = ref None in
  let got = ref (-1) in
  Engine.spawn e (fun () -> got := Engine.suspend (fun resume -> slot := Some resume));
  Engine.spawn e (fun () ->
      Engine.delay 42.0;
      match !slot with Some resume -> resume 99 | None -> Alcotest.fail "no waiter");
  Engine.run e;
  check_int "value passed" 99 !got;
  check_int "no live" 0 (Engine.live_processes e)

(* [park] is [suspend] for a unit result: a parked process resumes at
   its waker's time, in resume order, and a second resume is refused.
   The events it schedules are the ones [suspend] would, so the two
   agree on [events_executed] and on every resume time. *)
let test_engine_park () =
  let run park =
    let e = Engine.create () in
    let waiting = Queue.create () in
    let log = ref [] in
    for i = 1 to 3 do
      Engine.spawn e (fun () ->
          park (fun resume -> Queue.add resume waiting);
          log := (i, Engine.time ()) :: !log)
    done;
    Engine.spawn e (fun () ->
        Engine.delay 10.0;
        let first = Queue.take waiting in
        first ();
        Alcotest.check_raises "second resume refused"
          (Invalid_argument "Sim_engine: resume called twice") first;
        Engine.delay 5.0;
        Queue.iter (fun resume -> resume ()) waiting);
    Engine.run e;
    check_int "no live" 0 (Engine.live_processes e);
    (List.rev !log, Engine.events_executed e)
  in
  let parked = run Engine.park in
  Alcotest.(check (list (pair int (float 0.0))))
    "resumed at the waker's time, in resume order"
    [ (1, 10.0); (2, 15.0); (3, 15.0) ]
    (fst parked);
  check_bool "same log and event count as suspend" true (parked = run Engine.suspend);
  Alcotest.check_raises "park outside a process" Engine.Not_in_process (fun () ->
      Engine.park ignore)

let test_engine_deadlock_detectable () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> ignore (Engine.suspend (fun _resume -> ())));
  Engine.run e;
  check_int "blocked process visible" 1 (Engine.live_processes e)

let test_engine_outside_process () =
  Alcotest.check_raises "delay outside" Engine.Not_in_process (fun () -> Engine.delay 1.0)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let t = ref nan in
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      Engine.delay (-5.0);
      t := Engine.time ());
  Engine.run e;
  check_float "no time travel" 10.0 !t

(* ------------------------------------------------------------------ *)
(* Sync                                                               *)
(* ------------------------------------------------------------------ *)

let test_semaphore_mutual_exclusion () =
  let e = Engine.create () in
  let sem = Sync.Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 and done_count = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn e (fun () ->
        Sync.Semaphore.acquire sem;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.delay 10.0;
        decr inside;
        Sync.Semaphore.release sem;
        incr done_count)
  done;
  Engine.run e;
  check_int "all finished" 5 !done_count;
  check_int "never concurrent" 1 !max_inside;
  check_float "serialised time" 50.0 (Engine.now e)

let test_semaphore_try_acquire () =
  let e = Engine.create () in
  let sem = Sync.Semaphore.create 1 in
  let results = ref [] in
  Engine.spawn e (fun () ->
      results := Sync.Semaphore.try_acquire sem :: !results;
      results := Sync.Semaphore.try_acquire sem :: !results;
      Sync.Semaphore.release sem;
      results := Sync.Semaphore.try_acquire sem :: !results);
  Engine.run e;
  Alcotest.(check (list bool)) "try pattern" [ true; false; true ] (List.rev !results)

let test_resource_capacity_and_utilisation () =
  let e = Engine.create () in
  let r = Sync.Resource.create e ~capacity:2 in
  let finish = ref 0.0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Sync.Resource.use r (fun () -> Engine.delay 10.0);
        finish := Engine.time ())
  done;
  Engine.run e;
  check_float "makespan" 20.0 !finish;
  check_float "utilisation" 1.0 (Sync.Resource.utilisation r)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        got := Sync.Mailbox.recv mb :: !got
      done);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Sync.Mailbox.send mb "x";
      Sync.Mailbox.send mb "y";
      Engine.delay 1.0;
      Sync.Mailbox.send mb "z");
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "x"; "y"; "z" ] (List.rev !got)

let test_mailbox_buffered_before_recv () =
  let e = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref 0 in
  Engine.spawn e (fun () ->
      Sync.Mailbox.send mb 7;
      check_int "buffered" 1 (Sync.Mailbox.length mb));
  Engine.spawn e (fun () ->
      Engine.delay 5.0;
      got := Sync.Mailbox.recv mb);
  Engine.run e;
  check_int "received buffered value" 7 !got

let test_gate_broadcast () =
  let e = Engine.create () in
  let g = Sync.Gate.create () in
  let released = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Sync.Gate.wait g;
        incr released)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      Sync.Gate.open_ g);
  Engine.run e;
  check_int "all released" 3 !released;
  check_bool "stays open" true (Sync.Gate.is_open g)

let test_condition_repeated_signal () =
  let e = Engine.create () in
  let c = Sync.Condition.create () in
  let rounds = ref 0 in
  Engine.spawn e (fun () ->
      Sync.Condition.await c;
      incr rounds;
      Sync.Condition.await c;
      incr rounds);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Sync.Condition.signal_all c;
      Engine.delay 1.0;
      Sync.Condition.signal_all c);
  Engine.run e;
  check_int "two rounds" 2 !rounds

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_order_and_tags () =
  let tr = Trace.create () in
  Trace.emit tr ~time:1.0 ~tag:"a" "first";
  Trace.emit tr ~time:2.0 ~tag:"b" "second";
  Alcotest.(check (list string)) "tags" [ "a"; "b" ] (Trace.tags tr);
  Trace.clear tr;
  Alcotest.(check (list string)) "clear empties" [] (Trace.tags tr)

let test_trace_disabled () =
  let tr = Trace.create ~enabled:false () in
  Trace.emit tr ~time:1.0 ~tag:"a" "ignored";
  check_int "nothing recorded" 0 (List.length (Trace.tags tr))

(* ------------------------------------------------------------------ *)
(* Chaos plans                                                        *)
(* ------------------------------------------------------------------ *)

let stormy_spec =
  {
    Sim_chaos.read_error_p = 0.2;
    write_error_p = 0.15;
    delay_p = 0.1;
    delay_min_us = 50.0;
    delay_max_us = 500.0;
    outages = [ (400.0, 600.0) ];
    bad_blocks = [ 13 ];
  }

let test_chaos_none_is_inert () =
  let plan = Sim_chaos.none () in
  Alcotest.(check bool) "disabled" false (Sim_chaos.enabled plan);
  for i = 0 to 99 do
    let v = Sim_chaos.decide plan Sim_chaos.Disk_read ~now:(float_of_int i) ~block:(Some 13) in
    Alcotest.(check bool) "always Pass" true (Sim_chaos.Verdict.equal v Sim_chaos.Verdict.Pass)
  done;
  check_int "never records" 0 (Sim_chaos.decisions plan);
  check_int "never fails" 0 (Sim_chaos.injected_failures plan)

let test_chaos_outage_and_bad_block () =
  let plan =
    Sim_chaos.create ~seed:5L
      { Sim_chaos.default_spec with outages = [ (100.0, 200.0) ]; bad_blocks = [ 7 ] }
  in
  let v t b = Sim_chaos.decide plan Sim_chaos.Disk_write ~now:t ~block:b in
  Alcotest.(check string) "before the window" "pass"
    (Sim_chaos.Verdict.to_string (v 99.0 None));
  Alcotest.(check string) "inside the window" "fail"
    (Sim_chaos.Verdict.to_string (v 150.0 None));
  Alcotest.(check string) "window end is exclusive" "pass"
    (Sim_chaos.Verdict.to_string (v 200.0 None));
  Alcotest.(check string) "bad block is permanent, any time" "bad-block"
    (Sim_chaos.Verdict.to_string (v 999.0 (Some 7)))

let prop_chaos_same_seed_same_schedule =
  QCheck.Test.make ~name:"chaos: same seed replays the identical schedule" ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 1 60))
    (fun (seed, ops) ->
      let drive () =
        let plan = Sim_chaos.create ~seed:(Int64.of_int seed) stormy_spec in
        for i = 0 to ops - 1 do
          let site = if i mod 3 = 0 then Sim_chaos.Disk_write else Sim_chaos.Disk_read in
          let block = if i mod 5 = 0 then Some i else None in
          ignore (Sim_chaos.decide plan site ~now:(float_of_int (i * 100)) ~block)
        done;
        ( Sim_chaos.schedule_fingerprint plan,
          Sim_chaos.decisions plan,
          Sim_chaos.injected_failures plan,
          Sim_chaos.injected_delays plan,
          Sim_chaos.schedule plan )
      in
      drive () = drive ())

let prop_chaos_sites_draw_independent_streams =
  (* Adding write traffic must not perturb the verdicts the reads see:
     each site draws from its own split stream. *)
  QCheck.Test.make ~name:"chaos: read verdicts independent of write traffic" ~count:100
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(int_range 0 20) (int_bound 3)))
    (fun (seed, writes_between) ->
      let reads_only =
        let plan = Sim_chaos.create ~seed:(Int64.of_int seed) stormy_spec in
        List.init 10 (fun i ->
            Sim_chaos.decide plan Sim_chaos.Disk_read ~now:(float_of_int i) ~block:None)
      in
      let interleaved =
        let plan = Sim_chaos.create ~seed:(Int64.of_int seed) stormy_spec in
        List.init 10 (fun i ->
            List.iter
              (fun w ->
                if w > 0 then
                  ignore
                    (Sim_chaos.decide plan Sim_chaos.Disk_write ~now:(float_of_int i) ~block:None))
              writes_between;
            Sim_chaos.decide plan Sim_chaos.Disk_read ~now:(float_of_int i) ~block:None)
      in
      List.for_all2 Sim_chaos.Verdict.equal reads_only interleaved)

(* ------------------------------------------------------------------ *)
(* Properties over the engine                                         *)
(* ------------------------------------------------------------------ *)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"identical seeds give identical simulations" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let run_once () =
        let e = Engine.create () in
        let rng = Rng.create (Int64.of_int seed) in
        let log = Buffer.create 64 in
        for i = 1 to 5 do
          Engine.spawn e (fun () ->
              let d = Rng.uniform rng ~lo:0.0 ~hi:50.0 in
              Engine.delay d;
              Buffer.add_string log (Printf.sprintf "%d@%.3f;" i (Engine.time ())))
        done;
        Engine.run e;
        Buffer.contents log
      in
      String.equal (run_once ()) (run_once ()))

let prop_resource_never_exceeds_capacity =
  QCheck.Test.make ~name:"resource occupancy bounded by capacity" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 1 20))
    (fun (cap, jobs) ->
      let e = Engine.create () in
      let r = Sync.Resource.create e ~capacity:cap in
      let ok = ref true in
      for _ = 1 to jobs do
        Engine.spawn e (fun () ->
            Sync.Resource.use r (fun () ->
                if Sync.Resource.in_use r > cap then ok := false;
                Engine.delay 3.0))
      done;
      Engine.run e;
      !ok && Sync.Resource.in_use r = 0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_heap_sorts;
      prop_series_percentile_reference;
      prop_int_table_reference;
      prop_heap_model;
      prop_engine_deterministic;
      prop_resource_never_exceeds_capacity;
      prop_chaos_same_seed_same_schedule;
      prop_chaos_sites_draw_independent_streams;
    ]

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "golden draws" `Quick test_rng_golden;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary basic" `Quick test_summary_basic;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "series percentile" `Quick test_series_percentile;
          Alcotest.test_case "series empty percentile" `Quick test_series_empty_percentile;
          Alcotest.test_case "series growth" `Quick test_series_growth;
          Alcotest.test_case "series percentile on ramps" `Quick test_series_percentile_ramps;
          Alcotest.test_case "series capacity" `Quick test_series_capacity;
          Alcotest.test_case "int table refuses min_int" `Quick test_int_table_refuses_min_int;
          Alcotest.test_case "time weighted" `Quick test_time_weighted;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear then reuse" `Quick test_heap_clear_reuse;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick test_engine_delay_advances_clock;
          Alcotest.test_case "delay event accounting" `Quick test_engine_delay_event_count;
          Alcotest.test_case "interleaving" `Quick test_engine_interleaving;
          Alcotest.test_case "until horizon" `Quick test_engine_until;
          Alcotest.test_case "fork" `Quick test_engine_fork;
          Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
          Alcotest.test_case "park" `Quick test_engine_park;
          Alcotest.test_case "deadlock detectable" `Quick test_engine_deadlock_detectable;
          Alcotest.test_case "outside process" `Quick test_engine_outside_process;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "negative delay clamped" `Quick test_engine_negative_delay_clamped;
        ] );
      ( "sync",
        [
          Alcotest.test_case "semaphore mutex" `Quick test_semaphore_mutual_exclusion;
          Alcotest.test_case "semaphore try" `Quick test_semaphore_try_acquire;
          Alcotest.test_case "resource capacity" `Quick test_resource_capacity_and_utilisation;
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mailbox buffered" `Quick test_mailbox_buffered_before_recv;
          Alcotest.test_case "gate broadcast" `Quick test_gate_broadcast;
          Alcotest.test_case "condition repeated" `Quick test_condition_repeated_signal;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order and tags" `Quick test_trace_order_and_tags;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "none is inert" `Quick test_chaos_none_is_inert;
          Alcotest.test_case "outages and bad blocks" `Quick test_chaos_outage_and_bad_block;
        ] );
      ("properties", qcheck_cases);
    ]
