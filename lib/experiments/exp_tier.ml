(* Tiered-placement record: single-tier vs tiered machines on the same
   deterministic traces (`vpp_repro tier`, the vpp-tier/1 record).

   Each workload runs three legs:

   - [flat]    — one zero-surcharge DRAM tier, a naive demand pager.
                 The baseline: what the trace costs with no tiering.
   - [static]  — a fast + slow tier machine, the same naive pager.
                 Placement is fault-order accident: frames come out of
                 the initial segment in address order, so late-faulted
                 (hot) pages land on slow frames and stay there. The
                 delta against [flat] is pure tier surcharge — the cost
                 of tiered hardware under a tier-oblivious manager.
   - [managed] — the same tiered machine under Mgr_tiered: faults land
                 on fast frames, the clock demotes cold pages down the
                 hierarchy, protection-fault sampling promotes hot ones
                 back. The record's headline check is
                 managed.sim_us < static.sim_us: application-controlled
                 placement beats oblivious placement on the same
                 hardware (the paper's §2.1 thesis, ported to tiers).

   Everything is simulated time; no wall-clock, no randomness — reruns
   are bit-identical, which the embedded checks rely on. *)

module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module T = Mgr_tiered
module Engine = Sim_engine

let schema_version = "vpp-tier/1"
let page_size = 4096

(* Frames in each of the managed leg's two pools (fast and slow). *)
let pool_capacity = 32

type leg = {
  g_mode : string;  (* "flat" | "static" | "managed" *)
  g_obs : K.observation;
  g_resident_by_tier : int list;
  g_promotions : int;
  g_demotions_slow : int;
  g_demotions_compressed : int;
  g_refetches : int;
}

type run_row = {
  w_name : string;
  w_fast_frames : int;
  w_slow_frames : int;
  w_pages : int;
  w_flat : leg;
  w_static : leg;
  w_managed : leg;
}

type result = { mode : string; runs : run_row list; checks : Exp_report.check list }

(* A workload is a machine shape plus a deterministic touch trace over
   one segment. *)
type workload = {
  wk_name : string;
  wk_fast_frames : int;
  wk_slow_frames : int;
  wk_pages : int;
  wk_trace : K.t -> Seg.id -> unit;
}

(* ------------------------------------------------------------------ *)
(* The two traces                                                      *)
(* ------------------------------------------------------------------ *)

(* Hot/cold working set in the Wl_scale style. Three phases:

   1. fault everything in, cold region first — under fault-order
      placement the late-faulted hot region lands on slow frames;
   2. one full re-pass — in the managed leg this is the phase change
      that promotes pages the phase-1 demotion cascade pushed down;
   3. hammer the hot region. Static placement pays the slow-tier access
      premium on every one of these touches; managed placement pays a
      bounded number of promotions and then runs at fast-DRAM speed. *)
let scale_trace ~cold ~hot ~rounds kernel seg =
  for page = 0 to cold + hot - 1 do
    K.touch kernel ~space:seg ~page ~access:Mgr.Write
  done;
  for page = 0 to cold + hot - 1 do
    K.touch kernel ~space:seg ~page ~access:Mgr.Read
  done;
  for _ = 1 to rounds do
    for page = cold to cold + hot - 1 do
      K.touch kernel ~space:seg ~page ~access:Mgr.Read
    done
  done

let scale_workload ~rounds =
  {
    wk_name = "scale";
    wk_fast_frames = 256;
    wk_slow_frames = 768;
    wk_pages = 384;
    wk_trace = scale_trace ~cold:288 ~hot:96 ~rounds;
  }

(* DBMS-flavoured trace: a full index scan warms the tree coldest-first,
   then skewed point lookups hit the last fifth of the key space. Under
   fault-order placement the root and internals (faulted first) sit on
   fast frames but the hot leaves are stuck on slow ones. *)
let btree_trace ~pages ~rounds kernel seg =
  let bt = Db_btree.create ~fanout:8 ~pages () in
  let touch_path key =
    List.iter
      (fun page -> K.touch kernel ~space:seg ~page ~access:Mgr.Read)
      (Db_btree.lookup_path bt ~key)
  in
  let keys = Db_btree.keys bt in
  for key = 0 to keys - 1 do
    touch_path key
  done;
  let hot_lo = keys * 4 / 5 in
  let hot_span = keys - hot_lo in
  for round = 0 to rounds - 1 do
    for i = 0 to 63 do
      touch_path (hot_lo + ((i + round) * 7 mod hot_span))
    done
  done

let btree_workload ~rounds =
  {
    wk_name = "btree";
    wk_fast_frames = 192;
    (* Just enough for the naive legs (fast + slow >= pages), but short of
       pages + the managed leg's pool working set — so the managed leg
       must push its coldest pages down into the compressed store. *)
    wk_slow_frames = 198;
    wk_pages = 384;
    wk_trace = btree_trace ~pages:384 ~rounds;
  }

(* ------------------------------------------------------------------ *)
(* Leg runners                                                         *)
(* ------------------------------------------------------------------ *)

let finish ~mode ~kernel ~seg ~mstats =
  let promotions, demotions_slow, demotions_compressed, refetches =
    match mstats with
    | None -> (0, 0, 0, 0)
    | Some (s : T.stats) ->
        (s.T.promotions, s.T.demotions_slow, s.T.demotions_compressed, s.T.refetches)
  in
  {
    g_mode = mode;
    g_obs = K.observe kernel;
    g_resident_by_tier = Array.to_list (Seg.resident_pages_by_tier (K.segment kernel seg));
    g_promotions = promotions;
    g_demotions_slow = demotions_slow;
    g_demotions_compressed = demotions_compressed;
    g_refetches = refetches;
  }

let tiers_of wk =
  [
    Hw_phys_mem.dram_tier ~bytes:(wk.wk_fast_frames * page_size);
    Hw_phys_mem.slow_dram_tier ~bytes:(wk.wk_slow_frames * page_size);
  ]

(* flat / static share the naive pager; they differ only in the machine. *)
let run_plain ~mode ?tiers wk =
  let machine =
    match tiers with
    | None ->
        Hw_machine.create
          ~memory_bytes:((wk.wk_fast_frames + wk.wk_slow_frames) * page_size)
          ~page_size ()
    | Some tiers -> Hw_machine.create ~tiers ~page_size ()
  in
  let kernel = K.create machine in
  (* The tier-oblivious baseline manager: one frame per missing fault,
     taken from the initial segment in address order. No pools, no tier
     awareness. *)
  let mid = Mgr_generic.pager kernel ~name:"naive-pager" (K.initial_source kernel) in
  let seg = K.create_segment kernel ~name:(wk.wk_name ^ "-heap") ~pages:wk.wk_pages () in
  K.set_segment_manager kernel seg mid;
  Engine.spawn machine.Hw_machine.engine (fun () -> wk.wk_trace kernel seg);
  Engine.run machine.Hw_machine.engine;
  finish ~mode ~kernel ~seg ~mstats:None

let run_managed wk =
  let machine = Hw_machine.create ~tiers:(tiers_of wk) ~page_size () in
  let kernel = K.create machine in
  let mgr =
    T.create kernel ~fast_pool_capacity:pool_capacity ~slow_pool_capacity:pool_capacity ()
  in
  let seg = T.create_segment mgr ~name:(wk.wk_name ^ "-heap") ~pages:wk.wk_pages () in
  Engine.spawn machine.Hw_machine.engine (fun () -> wk.wk_trace kernel seg);
  Engine.run machine.Hw_machine.engine;
  finish ~mode:"managed" ~kernel ~seg ~mstats:(Some (T.stats mgr))

(* Each workload's three legs are independent deterministic simulations,
   so with --jobs they fan out over domains; the in-order join keeps the
   assembled record identical to a sequential run. *)
let run_workloads ~jobs wks =
  let legs =
    List.concat_map
      (fun wk ->
        [
          (fun () -> run_plain ~mode:"flat" wk);
          (fun () -> run_plain ~mode:"static" ~tiers:(tiers_of wk) wk);
          (fun () -> run_managed wk);
        ])
      wks
  in
  let results = Exp_par.map ~jobs legs in
  List.mapi
    (fun i wk ->
      {
        w_name = wk.wk_name;
        w_fast_frames = wk.wk_fast_frames;
        w_slow_frames = wk.wk_slow_frames;
        w_pages = wk.wk_pages;
        w_flat = List.nth results (3 * i);
        w_static = List.nth results ((3 * i) + 1);
        w_managed = List.nth results ((3 * i) + 2);
      })
    wks

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

(* A machine short of pages + the managed leg's two pools must push its
   coldest pages down into the compressed store (btree: 390 < 448 frames;
   scale: 1024 >= 448). *)
let expect_compressed r =
  r.w_fast_frames + r.w_slow_frames < r.w_pages + (2 * pool_capacity)

let checks_of r =
  let n = r.w_name in
  let flat = r.w_flat.g_obs and static = r.w_static.g_obs and managed = r.w_managed.g_obs in
  [
    Exp_report.check
      ~what:(Printf.sprintf "%s: per-tier frame conservation held in all legs" n)
      ~pass:(flat.K.o_conserved && static.K.o_conserved && managed.K.o_conserved)
      ~detail:(Printf.sprintf "%d frames" static.K.o_frames);
    Exp_report.check
      ~what:(Printf.sprintf "%s: flat and static legs ran the identical trace" n)
      ~pass:(flat.K.o_touches = static.K.o_touches && flat.K.o_faults = static.K.o_faults)
      ~detail:(Printf.sprintf "%d touches, %d faults" static.K.o_touches static.K.o_faults);
    Exp_report.check
      ~what:(Printf.sprintf "%s: tier surcharges are measurable (static > flat)" n)
      ~pass:(static.K.o_sim_us > flat.K.o_sim_us)
      ~detail:
        (Printf.sprintf "+%.0f us (%.0f vs %.0f)"
           (static.K.o_sim_us -. flat.K.o_sim_us)
           static.K.o_sim_us flat.K.o_sim_us);
    Exp_report.check
      ~what:(Printf.sprintf "%s: managed placement beats static (managed < static)" n)
      ~pass:(managed.K.o_sim_us < static.K.o_sim_us)
      ~detail:
        (Printf.sprintf "%.0f vs %.0f us (saves %.0f)" managed.K.o_sim_us static.K.o_sim_us
           (static.K.o_sim_us -. managed.K.o_sim_us));
    Exp_report.check
      ~what:(Printf.sprintf "%s: manager exercised promotion and demotion" n)
      ~pass:
        (r.w_managed.g_promotions > 0
        && r.w_managed.g_demotions_slow > 0
        && ((not (expect_compressed r)) || r.w_managed.g_demotions_compressed > 0))
      ~detail:
        (Printf.sprintf "%d promoted, %d demoted, %d compressed, %d refetched"
           r.w_managed.g_promotions r.w_managed.g_demotions_slow
           r.w_managed.g_demotions_compressed r.w_managed.g_refetches);
  ]

let checks r = List.concat_map checks_of r.runs

let run ?(quick = false) ?(jobs = 1) () =
  let rounds = 1500 in
  let workloads =
    if quick then [ scale_workload ~rounds ]
    else [ scale_workload ~rounds; btree_workload ~rounds:1200 ]
  in
  let mode = if quick then "quick" else "full" in
  let r = { mode; runs = run_workloads ~jobs workloads; checks = [] } in
  { r with checks = checks r }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Tier: single-tier vs tiered placement (%s record, %s mode)\n" schema_version
       r.mode);
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s (%d pages; fast %d + slow %d frames)\n" row.w_name row.w_pages
           row.w_fast_frames row.w_slow_frames);
      Buffer.add_string buf
        (Exp_report.fmt_table
           ~header:
             [
               "leg"; "faults"; "migrated"; "sim (us)"; "resident/tier"; "promote"; "demote";
               "compress";
             ]
           ~rows:
             (List.map
                (fun g ->
                  [
                    g.g_mode;
                    string_of_int g.g_obs.K.o_faults;
                    string_of_int g.g_obs.K.o_migrated_pages;
                    Printf.sprintf "%.0f" g.g_obs.K.o_sim_us;
                    String.concat "/" (List.map string_of_int g.g_resident_by_tier);
                    string_of_int g.g_promotions;
                    string_of_int g.g_demotions_slow;
                    string_of_int g.g_demotions_compressed;
                  ])
                [ row.w_flat; row.w_static; row.w_managed ])))
    r.runs;
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks r.checks);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)
(* ------------------------------------------------------------------ *)

let leg =
  let open Exp_codec in
  obj
    (fun g_mode g_obs g_resident_by_tier g_promotions g_demotions_slow g_demotions_compressed
         g_refetches ->
      { g_mode; g_obs; g_resident_by_tier; g_promotions; g_demotions_slow;
        g_demotions_compressed; g_refetches })
  |> mem "mode" string (fun g -> g.g_mode)
  |> splice observation (fun g -> g.g_obs)
  |> mem "resident_by_tier" (list int) (fun g -> g.g_resident_by_tier)
  |> mem "promotions" int (fun g -> g.g_promotions)
  |> mem "demotions_slow" int (fun g -> g.g_demotions_slow)
  |> mem "demotions_compressed" int (fun g -> g.g_demotions_compressed)
  |> mem "refetches" int (fun g -> g.g_refetches)
  |> finish
  |> where "empty leg (sim_us <= 0)" (fun g -> g.g_obs.K.o_sim_us > 0.0)

let run_row =
  let open Exp_codec in
  obj (fun w_name w_fast_frames w_slow_frames w_pages w_flat w_static w_managed ->
      { w_name; w_fast_frames; w_slow_frames; w_pages; w_flat; w_static; w_managed })
  |> mem "name" string (fun w -> w.w_name)
  |> mem "fast_frames" int (fun w -> w.w_fast_frames)
  |> mem "slow_frames" int (fun w -> w.w_slow_frames)
  |> mem "pages" int (fun w -> w.w_pages)
  |> mem "flat" leg (fun w -> w.w_flat)
  |> mem "static" leg (fun w -> w.w_static)
  |> mem "managed" leg (fun w -> w.w_managed)
  |> finish

let codec =
  let open Exp_codec in
  obj (fun mode runs checks -> { mode; runs; checks })
  |> tag "schema" schema_version
  |> mem "mode" string (fun r -> r.mode)
  |> mem "runs" (where "expected at least one run" (fun l -> l <> []) (list run_row)) (fun r ->
         r.runs)
  |> mem "checks" (list check) (fun r -> r.checks)
  |> finish
