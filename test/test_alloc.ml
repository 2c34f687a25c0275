(* Allocation gates for the hot operations. Each case runs one operation
   [n] times and bounds the minor-heap words it allocates per operation,
   so an allocation that creeps back onto a per-event path (a closure, a
   boxed float, an option) fails here before it shows up in a benchmark.

   The counts are deterministic for a given compiler and build profile.
   Each bound sits at the value measured in the dev profile (which
   compiles with -opaque, so every float crossing a module boundary is
   boxed) plus less than one word, which absorbs the fixed costs of a run
   amortised over [n]. An operation that allocates nothing is gated below
   one word per operation. *)

module Engine = Sim_engine
module Resource = Sim_sync.Resource
module K = Epcm_kernel

let n = 20_000

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Runs [procs] copies of [body] as processes of [e] and returns the words
   the whole run allocates per operation, [ops] being the operations of
   all copies together — scheduler included, since a per-event cost is
   what the gate is about. *)
let per_op ?(procs = 1) ~ops e body =
  for _ = 1 to procs do
    Engine.spawn e body
  done;
  words_during (fun () -> Engine.run e) /. float_of_int ops

let gate name ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.2f words/op, gate is %.2f" name words bound

(* Static callbacks: the probes themselves must not allocate, or the gate
   would measure the test harness. *)
let delay_one () = Engine.delay 1.0
let noop () = ()
let resume_a = ref noop
let resume_b = ref noop
let park_a r = resume_a := r
let park_b r = resume_b := r

(* Two processes hand control back and forth: each resumes the other,
   then parks itself. *)
let ping_pong ~park ~theirs () =
  for _ = 1 to n do
    let r = !theirs in
    theirs := noop;
    r ();
    Engine.suspend park
  done

let test_delay_fast () =
  let w =
    per_op ~ops:n (Engine.create ()) (fun () ->
        for _ = 1 to n do
          delay_one ()
        done)
  in
  gate "delay (fast path)" ~bound:0.5 w

let test_delay_heap () =
  (* Two processes delaying in lock step: each always finds the other's
     wake-up due no later than its own target, so every delay takes the
     heap path. *)
  let w =
    per_op ~procs:2 ~ops:(2 * n) (Engine.create ()) (fun () ->
        for _ = 1 to n do
          delay_one ()
        done)
  in
  gate "delay (heap path)" ~bound:8.5 w

let test_suspend_resume () =
  resume_a := noop;
  resume_b := noop;
  let e = Engine.create () in
  Engine.spawn e (ping_pong ~park:park_a ~theirs:resume_b);
  let w = per_op ~ops:(2 * n) e (ping_pong ~park:park_b ~theirs:resume_a) in
  gate "suspend/resume" ~bound:28.5 w

(* The same hand-off through [Engine.park], the unit-result suspend the
   blocking primitives use. *)
let park_pong ~park ~theirs () =
  for _ = 1 to n do
    let r = !theirs in
    theirs := noop;
    r ();
    Engine.park park
  done

let test_park_resume () =
  resume_a := noop;
  resume_b := noop;
  let e = Engine.create () in
  Engine.spawn e (park_pong ~park:park_a ~theirs:resume_b);
  let w = per_op ~ops:(2 * n) e (park_pong ~park:park_b ~theirs:resume_a) in
  gate "park/resume" ~bound:16.5 w

let test_resource_uncontended () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  let w =
    per_op ~ops:n e (fun () ->
        for _ = 1 to n do
          Resource.use r noop
        done)
  in
  gate "Resource.use (uncontended)" ~bound:8.5 w

let test_resource_contended () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 in
  let w =
    per_op ~procs:2 ~ops:(2 * n) e (fun () ->
        for _ = 1 to n do
          Resource.use r delay_one
        done)
  in
  gate "Resource.use (contended)" ~bound:29.5 w

let test_disk_write () =
  let e = Engine.create () in
  let disk = Hw_disk.create e () in
  let w =
    per_op ~ops:n e (fun () ->
        for _ = 1 to n do
          Hw_disk.write disk ~bytes:4096
        done)
  in
  gate "Hw_disk.write" ~bound:10.5 w

let test_wal_commit () =
  let e = Engine.create () in
  let wal = Db_wal.create (Hw_disk.create e ()) () in
  let w =
    per_op ~ops:n e (fun () ->
        for _ = 1 to n do
          let lsn = Db_wal.append wal in
          Db_wal.commit wal ~lsn
        done)
  in
  gate "Db_wal commit" ~bound:10.5 w

(* Four committers with nothing between commits: while one force is in
   flight the others park behind it, so most commits take the parking
   path of group commit, which this gates. *)
let test_wal_group_commit () =
  let e = Engine.create () in
  let wal = Db_wal.create (Hw_disk.create e ()) () in
  let w =
    per_op ~procs:4 ~ops:n e (fun () ->
        for _ = 1 to n / 4 do
          let lsn = Db_wal.append wal in
          Db_wal.commit wal ~lsn
        done)
  in
  if Db_wal.group_parks wal < n / 2 then Alcotest.fail "committers did not overlap";
  gate "Db_wal commit (group, parked)" ~bound:19.0 w

let pages = Array.init 8 (fun p -> Db_locks.Page (0, p))

(* What is left is the two grants, 6 words each: the tables are keyed by
   one int in open-addressed arrays, and release unlinks each grant in
   place. *)
let test_lock_cycle () =
  let l = Db_locks.create () in
  let cycle txn =
    Db_locks.acquire l ~txn Db_locks.Database Db_locks.IX;
    Db_locks.acquire l ~txn pages.(txn land 7) Db_locks.X;
    Db_locks.release_all l ~txn
  in
  cycle 0;
  let w =
    words_during (fun () ->
        for txn = 1 to n do
          cycle txn
        done)
    /. float_of_int n
  in
  gate "lock cycle (IX + X + release_all)" ~bound:12.5 w

(* Noting a write to a page already in the log's table rebinds it in
   place. *)
let test_wal_note_page_write () =
  let wal = Db_wal.create (Hw_disk.create (Engine.create ()) ()) () in
  let note lsn = Db_wal.note_page_write wal ~seg:3 ~page:(lsn land 511) ~lsn in
  for lsn = 1 to 512 do
    note lsn
  done;
  let w =
    words_during (fun () ->
        for lsn = 513 to 512 + n do
          note lsn
        done)
    /. float_of_int n
  in
  gate "Db_wal.note_page_write" ~bound:0.5 w

(* A series sized for its samples stores each in place and updates its
   running mean and max without boxing. The sample is a constant: a float
   computed at the call would be boxed by the caller, not by [add]. *)
let sample = 2.5

let test_series_add () =
  let s = Sim_stats.Series.create ~capacity:n () in
  Sim_stats.Series.add s sample;
  let w =
    words_during (fun () ->
        for _ = 2 to n do
          Sim_stats.Series.add s sample
        done)
    /. float_of_int (n - 1)
  in
  if Sim_stats.Series.count s <> n then Alcotest.fail "every sample must be kept";
  gate "Series.add within capacity" ~bound:0.5 w

let test_warm_touch () =
  let m = Hw_machine.create ~memory_bytes:(64 * 4096) () in
  let k = K.create m in
  let seg = K.create_segment k ~name:"warm" ~pages:1 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:seg ~src_page:0 ~dst_page:0 ~count:1 ();
  let access = Epcm_manager.Read in
  K.touch k ~space:seg ~page:0 ~access;
  let w =
    per_op ~ops:n m.Hw_machine.engine (fun () ->
        for _ = 1 to n do
          K.touch k ~space:seg ~page:0 ~access
        done)
  in
  gate "warm K.touch" ~bound:0.5 w

(* Two pages whose translations share a TLB entry (vpn 0 and 64 index
   the same one of the 64), touched in turn: every touch misses the TLB,
   hits the mapping hash and refills the TLB in place. What is left is
   the refill charge's boxed float. *)
let test_tlb_refill_touch () =
  let m = Hw_machine.create ~memory_bytes:(64 * 4096) () in
  let k = K.create m in
  let seg = K.create_segment k ~name:"refill" ~pages:65 () in
  let init = K.initial_segment k in
  K.migrate_pages k ~src:init ~dst:seg ~src_page:0 ~dst_page:0 ~count:1 ();
  K.migrate_pages k ~src:init ~dst:seg ~src_page:1 ~dst_page:64 ~count:1 ();
  let access = Epcm_manager.Read in
  K.touch k ~space:seg ~page:0 ~access;
  K.touch k ~space:seg ~page:64 ~access;
  let tlb_misses = Hw_tlb.misses m.Hw_machine.tlb
  and pt_hits = Hw_page_table.hits m.Hw_machine.page_table in
  let w =
    per_op ~ops:(2 * n) m.Hw_machine.engine (fun () ->
        for _ = 1 to n do
          K.touch k ~space:seg ~page:0 ~access;
          K.touch k ~space:seg ~page:64 ~access
        done)
  in
  if
    Hw_tlb.misses m.Hw_machine.tlb - tlb_misses <> 2 * n
    || Hw_page_table.hits m.Hw_machine.page_table - pt_hits <> 2 * n
  then Alcotest.fail "every touch must miss the TLB and hit the mapping hash";
  gate "K.touch, TLB miss + mapping-hash hit" ~bound:2.5 w

(* Segments are an array indexed by id: a lookup neither hashes nor
   builds an option. *)
let test_segment_lookup () =
  let k = K.create (Hw_machine.create ~memory_bytes:(64 * 4096) ()) in
  let seg = K.create_segment k ~name:"probe" ~pages:1 () in
  let sink = ref 0 in
  let w =
    words_during (fun () ->
        for _ = 1 to n do
          sink := !sink + Epcm_segment.length (K.segment k seg)
        done)
    /. float_of_int n
  in
  gate "K.segment" ~bound:0.5 w

let test_charge_metrics_off () =
  let m = Hw_machine.create ~memory_bytes:(64 * 4096) () in
  let w =
    per_op ~ops:n m.Hw_machine.engine (fun () ->
        for _ = 1 to n do
          Hw_machine.charge ~label:"kernel/probe" m 1.0
        done)
  in
  gate "Hw_machine.charge (metrics off)" ~bound:0.5 w

(* With the sink on, a charge whose (span, label) slot exists adds into
   it in place: no path string, no list, no hash. *)
let test_charge_metrics_on () =
  let m = Hw_machine.create ~memory_bytes:(64 * 4096) () in
  Hw_machine.set_profiling m true;
  let charges () =
    for _ = 1 to n do
      Hw_machine.charge ~label:"kernel/probe" m 1.0
    done
  in
  Hw_machine.with_span m "probe" (fun () -> Hw_machine.charge ~label:"kernel/probe" m 1.0);
  let w = per_op ~ops:n m.Hw_machine.engine (fun () -> Hw_machine.with_span m "probe" charges) in
  if Sim_metrics.charges (Hw_machine.metrics m) <> [ ("probe/kernel/probe", n + 1, float_of_int (n + 1)) ]
  then Alcotest.fail "charges did not land in the interned slot";
  gate "Hw_machine.charge (metrics on, path interned)" ~bound:0.5 w

let test_span_metrics_on () =
  let m = Hw_machine.create ~memory_bytes:(64 * 4096) () in
  Hw_machine.set_profiling m true;
  Hw_machine.with_span m "probe" noop;
  let w =
    per_op ~ops:n m.Hw_machine.engine (fun () ->
        for _ = 1 to n do
          Hw_machine.with_span m "probe" noop
        done)
  in
  gate "with_span enter/exit (metrics on)" ~bound:0.5 w

(* A missing fault served end to end with the sink off: trap, upcall into
   an in-process Mgr_generic, a frame from its pre-filled pool, resume and
   the translation install. Each touch faults on a fresh page. The bound
   includes 16.5 words of mapping-hash chunks: the 4,096 faults reach
   all 2,048 32-slot chunks of the machine's 65,536-slot table, and each
   is allocated (33 words) on the first insert into it. *)
let test_fault_round_trip () =
  let faults = 4096 in
  let m = Hw_machine.create ~memory_bytes:(2 * faults * 4096) () in
  let k = K.create m in
  let init = K.initial_segment k in
  let next = ref 0 in
  let source ~dst ~dst_page ~count =
    K.migrate_pages k ~src:init ~dst ~src_page:!next ~dst_page ~count ();
    next := !next + count;
    count
  in
  let mgr =
    Mgr_generic.create k ~name:"probe" ~mode:`In_process ~backing:(Mgr_backing.memory ()) ~source
      ~pool_capacity:faults ~refill_batch:faults ()
  in
  Mgr_generic.ensure_pool mgr ~count:faults;
  let seg = Mgr_generic.create_segment mgr ~name:"cold" ~pages:faults ~kind:Mgr_generic.Anon () in
  let access = Epcm_manager.Write in
  let w =
    per_op ~ops:faults m.Hw_machine.engine (fun () ->
        for page = 0 to faults - 1 do
          K.touch k ~space:seg ~page ~access
        done)
  in
  let s = Mgr_generic.stats mgr in
  if s.Mgr_generic.fills <> faults || s.Mgr_generic.refill_requests <> 1 then
    Alcotest.fail "every touch must fault once and be served from the pre-filled pool";
  gate "faulting K.touch (Mgr_generic, metrics off)" ~bound:87.0 w

(* One page out of the initial segment and back, with tracing off: the
   step4.migrate detail is built only when tracing is on. *)
let test_migrate_pair () =
  let m = Hw_machine.create ~memory_bytes:(64 * 4096) () in
  let k = K.create m in
  let init = K.initial_segment k in
  let seg = K.create_segment k ~name:"pair" ~pages:1 () in
  let w =
    per_op ~ops:n m.Hw_machine.engine (fun () ->
        for _ = 1 to n do
          K.migrate_pages k ~src:init ~dst:seg ~src_page:0 ~dst_page:0 ~count:1 ();
          K.migrate_pages k ~src:seg ~dst:init ~src_page:0 ~dst_page:0 ~count:1 ()
        done)
  in
  gate "migrate_pages pair, tracing off" ~bound:4.5 w

(* The free-frame walk on a tier with no free frame answers from the
   initial segment's per-tier counter without visiting a slot: what is
   left is the segment lookup. *)
let test_walk_empty_tier () =
  let m =
    Hw_machine.create
      ~tiers:
        [
          Hw_phys_mem.dram_tier ~bytes:(64 * 4096);
          Hw_phys_mem.slow_dram_tier ~bytes:(4096 * 4096);
        ]
      ()
  in
  let k = K.create m in
  let seg = K.create_segment k ~name:"fast" ~pages:64 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:seg ~src_page:0 ~dst_page:0 ~count:64 ();
  let empty = ref 0 in
  let w =
    words_during (fun () ->
        for _ = 1 to n do
          if K.initial_slots ~tier:0 k ~limit:1 = [] then incr empty
        done)
    /. float_of_int n
  in
  if !empty <> n then Alcotest.fail "the fast tier must have no free frame";
  gate "initial_slots on an empty tier" ~bound:2.5 w

let test_phys_accessors () =
  let mem =
    Hw_phys_mem.create_tiered ~page_size:4096
      ~tiers:
        [
          Hw_phys_mem.dram_tier ~bytes:(64 * 4096);
          Hw_phys_mem.slow_dram_tier ~bytes:(64 * 4096);
          Hw_phys_mem.slow_dram_tier ~bytes:(64 * 4096);
        ]
      ()
  in
  let sink = ref 0 in
  let w =
    words_during (fun () ->
        for i = 1 to n do
          let f = i mod 192 in
          sink := !sink + Hw_phys_mem.addr mem f + Hw_phys_mem.tier_of_frame mem f;
          if Hw_phys_mem.data mem f == Hw_page_data.Zero then incr sink
        done)
    /. float_of_int (3 * n)
  in
  gate "Hw_phys_mem addr / data / tier_of_frame" ~bound:0.5 w

let test_rng_draws () =
  let r = Sim_rng.create 1L in
  let sink = ref 0 in
  let w =
    words_during (fun () ->
        for _ = 1 to n do
          sink := !sink + Sim_rng.int r 512;
          if Sim_rng.bernoulli r 0.1 then incr sink
        done)
    /. float_of_int (2 * n)
  in
  gate "Sim_rng.int / bernoulli" ~bound:0.5 w

let () =
  Alcotest.run "alloc"
    [
      ( "words per op",
        [
          Alcotest.test_case "delay fast path" `Quick test_delay_fast;
          Alcotest.test_case "delay heap path" `Quick test_delay_heap;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "park/resume" `Quick test_park_resume;
          Alcotest.test_case "Resource.use uncontended" `Quick test_resource_uncontended;
          Alcotest.test_case "Resource.use contended" `Quick test_resource_contended;
          Alcotest.test_case "Hw_disk.write" `Quick test_disk_write;
          Alcotest.test_case "Db_wal commit" `Quick test_wal_commit;
          Alcotest.test_case "Db_wal group commit" `Quick test_wal_group_commit;
          Alcotest.test_case "lock cycle" `Quick test_lock_cycle;
          Alcotest.test_case "Db_wal.note_page_write" `Quick test_wal_note_page_write;
          Alcotest.test_case "Series.add within capacity" `Quick test_series_add;
          Alcotest.test_case "warm K.touch" `Quick test_warm_touch;
          Alcotest.test_case "K.touch refilling the TLB" `Quick test_tlb_refill_touch;
          Alcotest.test_case "K.segment" `Quick test_segment_lookup;
          Alcotest.test_case "charge with metrics off" `Quick test_charge_metrics_off;
          Alcotest.test_case "charge with metrics on" `Quick test_charge_metrics_on;
          Alcotest.test_case "with_span with metrics on" `Quick test_span_metrics_on;
          Alcotest.test_case "faulting K.touch round trip" `Quick test_fault_round_trip;
          Alcotest.test_case "migrate_pages pair" `Quick test_migrate_pair;
          Alcotest.test_case "walk on an empty tier" `Quick test_walk_empty_tier;
          Alcotest.test_case "Hw_phys_mem accessors" `Quick test_phys_accessors;
          Alcotest.test_case "Sim_rng draws" `Quick test_rng_draws;
        ] );
    ]
