(* Page-coloring payoff record: the same trace under three frame-placement
   policies on a machine carrying a physically-indexed L2
   (`vpp_repro cache`, the vpp-cache/1 record).

   The machine attaches one Hw_cache per memory tier (64 KB, 64-byte
   lines: 16 page colors at 4 KB pages); every kernel touch feeds the
   referenced frame's base line through the cache of its tier and each
   miss charges Hw_cost.cache_miss_penalty. The trace interleaves the
   first touches of a 16-page hot set with 48 cold pages, then hammers
   the hot set for [rounds] passes. Placement decides everything:

   - [sequential] — a naive pager takes frames in address order, so the
                    interleaved fault-in strides the hot set 4 frames
                    apart: 4 hot pages per color, every hammer access a
                    conflict miss.
   - [random]     — frames drawn uniformly from the free pool (seeded
                    Sim_rng); birthday collisions leave most hot pages
                    sharing a color with another.
   - [colored]    — Mgr_coloring against the live cache geometry: hot
                    page p gets color p, the hot set tiles the cache,
                    and after warm-up the hammer runs miss-free.
   - [colored (tiered)] — the same colored leg on a fast+slow tiered
                    machine with the manager scoped to tier 0
                    (frames_of_color ~tier): placement quality must be
                    identical to the flat leg, frame for frame.

   Apart from the seeded random leg (replayed in-record to pin
   determinism) everything is simulated time: no wall-clock, so reruns
   are bit-identical including the JSON record. *)

module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Phys = Hw_phys_mem
module Engine = Sim_engine

let schema_version = "vpp-cache/1"
let page_size = 4096
let cache_bytes = 64 * 1024
let line_bytes = 64
let hot_pages = 16
let cold_pages = 48
let total_pages = hot_pages + cold_pages
let flat_frames = 256
let fast_frames = 64
let slow_frames = 192
let random_seed = 47L

type leg = {
  l_mode : string;
  l_obs : K.observation;
  l_accesses : int;
  l_hits : int;
  l_misses : int;
  l_miss_rate : float;
  l_color_misses : int;
  l_audit_good : int;
  l_audit_total : int;
}

type result = {
  mode : string;
  rounds : int;
  n_colors : int;
  legs : leg list;
  replay_identical : bool;
  checks : Exp_report.check list;
}

(* ------------------------------------------------------------------ *)
(* The trace                                                           *)
(* ------------------------------------------------------------------ *)

(* Interleaved fault-in (hot page p between its three cold companions),
   then [rounds] read passes over the hot set. Under fault-order
   placement the interleave strides the hot set across frames 0, 4, 8,
   ...; under coloring the hot set gets one frame of each color. *)
let trace ~rounds kernel seg =
  for p = 0 to hot_pages - 1 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write;
    for c = 0 to 2 do
      K.touch kernel ~space:seg ~page:(hot_pages + (3 * p) + c) ~access:Mgr.Write
    done
  done;
  for _ = 1 to rounds do
    for p = 0 to hot_pages - 1 do
      K.touch kernel ~space:seg ~page:p ~access:Mgr.Read
    done
  done

(* ------------------------------------------------------------------ *)
(* Placement policies                                                  *)
(* ------------------------------------------------------------------ *)

(* The sequential and random legs run Mgr_generic's pool-less pager; the
   source is their placement. Sequential is address order
   (K.initial_source). Random is a uniform draw from the remaining free
   initial slots (frames never come back in this workload, so a
   swap-removal array stays exact). *)
let random_source kernel ~seed =
  let rng = Sim_rng.create seed in
  let init = K.initial_segment kernel in
  let n = Seg.length (K.segment kernel init) in
  let free = Array.init n Fun.id in
  let left = ref n in
  fun ~dst ~dst_page ~count ->
    let granted = min count !left in
    for i = 0 to granted - 1 do
      let j = Sim_rng.int rng !left in
      let slot = free.(j) in
      free.(j) <- free.(!left - 1);
      decr left;
      K.migrate_pages kernel ~src:init ~dst ~src_page:slot ~dst_page:(dst_page + i) ~count:1 ()
    done;
    granted

(* Color-constrained SPCM stand-in: grant the first free initial-segment
   frame of the wanted color (scoped to [tier] when given) through the
   kernel's free-frame walk, as the SPCM's [Color] constraint does. *)
let colored_source ?tier kernel ~color ~dst ~dst_page ~count =
  if count <> 1 then invalid_arg "Exp_cache.colored_source: count must be 1";
  let mem = (K.machine kernel).Hw_machine.mem in
  let filter = Option.map (fun c f -> Phys.color mem f = c) color in
  match K.initial_slots ?tier ?filter kernel ~limit:1 with
  | slot :: _ ->
      K.migrate_pages kernel ~src:(K.initial_segment kernel) ~dst ~src_page:slot ~dst_page
        ~count:1 ();
      1
  | [] -> 0

(* ------------------------------------------------------------------ *)
(* Leg runners                                                         *)
(* ------------------------------------------------------------------ *)

let finish ~mode ~machine ~kernel ~coloring =
  let accesses, hits, misses = Hw_machine.cache_stats machine in
  let color_misses, (audit_good, audit_total) =
    match coloring with
    | None -> (0, (0, 0))
    | Some (mgr, seg) -> (Mgr_coloring.color_misses mgr, Mgr_coloring.audit mgr ~seg)
  in
  {
    l_mode = mode;
    l_obs = K.observe kernel;
    l_accesses = accesses;
    l_hits = hits;
    l_misses = misses;
    l_miss_rate = (if accesses = 0 then 0.0 else float_of_int misses /. float_of_int accesses);
    l_color_misses = color_misses;
    l_audit_good = audit_good;
    l_audit_total = audit_total;
  }

let cache_spec = Hw_machine.l2_cache ~line_bytes ~size_bytes:cache_bytes ()

let make_machine ~tiered =
  if tiered then
    Hw_machine.create ~page_size ~cache:cache_spec
      ~tiers:
        [
          Phys.dram_tier ~bytes:(fast_frames * page_size);
          Phys.slow_dram_tier ~bytes:(slow_frames * page_size);
        ]
      ()
  else
    Hw_machine.create ~page_size ~cache:cache_spec ~memory_bytes:(flat_frames * page_size) ()

let run_leg ~mode ~rounds ~make_manager ~tiered () =
  let machine = make_machine ~tiered in
  let kernel = K.create machine in
  let mid, coloring = make_manager kernel in
  let seg =
    match coloring with
    | Some (mgr, _) ->
        let seg = Mgr_coloring.create_segment mgr ~name:"cache-heap" ~pages:total_pages in
        seg
    | None ->
        let seg = K.create_segment kernel ~name:"cache-heap" ~pages:total_pages () in
        K.set_segment_manager kernel seg mid;
        seg
  in
  let coloring = Option.map (fun (mgr, ()) -> (mgr, seg)) coloring in
  Engine.spawn machine.Hw_machine.engine (fun () -> trace ~rounds kernel seg);
  Engine.run machine.Hw_machine.engine;
  finish ~mode ~machine ~kernel ~coloring

let run_sequential ~rounds () =
  run_leg ~mode:"sequential" ~rounds ~tiered:false
    ~make_manager:(fun kernel ->
      (Mgr_generic.pager kernel ~name:"sequential-pager" (K.initial_source kernel), None))
    ()

let run_random ~rounds ~mode () =
  run_leg ~mode ~rounds ~tiered:false
    ~make_manager:(fun kernel ->
      let source = random_source kernel ~seed:random_seed in
      (Mgr_generic.pager kernel ~name:"random-pager" source, None))
    ()

let run_colored ~rounds ~tiered () =
  let mode = if tiered then "colored (tiered)" else "colored" in
  run_leg ~mode ~rounds ~tiered
    ~make_manager:(fun kernel ->
      let tier = if tiered then Some 0 else None in
      let source ~color ~dst ~dst_page ~count =
        colored_source ?tier kernel ~color ~dst ~dst_page ~count
      in
      let mgr = Mgr_coloring.create kernel ?tier ~source ~pool_capacity:hot_pages () in
      (Mgr_coloring.manager_id mgr, Some (mgr, ())))
    ()

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

let pct x = 100.0 *. x

let checks r =
  let legs = r.legs in
  let find mode = List.find_opt (fun l -> l.l_mode = mode) legs in
  match (find "sequential", find "random", find "colored", find "colored (tiered)") with
  | Some sequential, Some random, Some colored, Some tiered ->
      [
        Exp_report.check ~what:"frame conservation held in every leg"
          ~pass:(List.for_all (fun l -> l.l_obs.K.o_conserved) legs)
          ~detail:(Printf.sprintf "%d legs" (List.length legs));
        Exp_report.check ~what:"cache stats conserved in every leg (accesses = hits + misses)"
          ~pass:(List.for_all (fun l -> l.l_accesses = l.l_hits + l.l_misses) legs)
          ~detail:(Printf.sprintf "%d accesses" colored.l_accesses);
        Exp_report.check ~what:"all legs issued the identical reference stream"
          ~pass:
            (List.for_all
               (fun l ->
                 l.l_obs.K.o_touches = colored.l_obs.K.o_touches
                 && l.l_accesses = colored.l_accesses)
               legs
            && List.for_all (fun l -> l.l_obs.K.o_faults = colored.l_obs.K.o_faults) legs)
          ~detail:
            (Printf.sprintf "%d touches, %d faults" colored.l_obs.K.o_touches
               colored.l_obs.K.o_faults);
        Exp_report.check ~what:"colored placement beats random on miss rate"
          ~pass:(colored.l_miss_rate < random.l_miss_rate)
          ~detail:
            (Printf.sprintf "%.2f%% vs %.2f%%" (pct colored.l_miss_rate) (pct random.l_miss_rate));
        Exp_report.check ~what:"colored placement beats sequential on miss rate"
          ~pass:(colored.l_miss_rate < sequential.l_miss_rate)
          ~detail:
            (Printf.sprintf "%.2f%% vs %.2f%%" (pct colored.l_miss_rate)
               (pct sequential.l_miss_rate));
        Exp_report.check ~what:"miss penalties dominate: colored saves simulated time vs sequential"
          ~pass:(colored.l_obs.K.o_sim_us < sequential.l_obs.K.o_sim_us)
          ~detail:
            (Printf.sprintf "%.0f vs %.0f us (saves %.0f)" colored.l_obs.K.o_sim_us
               sequential.l_obs.K.o_sim_us
               (sequential.l_obs.K.o_sim_us -. colored.l_obs.K.o_sim_us));
        Exp_report.check ~what:"colored leg is perfectly colored (no color misses, audit clean)"
          ~pass:
            (colored.l_color_misses = 0
            && colored.l_audit_good = colored.l_audit_total
            && colored.l_audit_total = total_pages)
          ~detail:
            (Printf.sprintf "%d/%d pages, %d misses" colored.l_audit_good colored.l_audit_total
               colored.l_color_misses);
        Exp_report.check
          ~what:"tier-scoped coloring reproduces flat placement quality (frames_of_color ~tier)"
          ~pass:
            (tiered.l_hits = colored.l_hits && tiered.l_misses = colored.l_misses
            && tiered.l_color_misses = 0 && tiered.l_obs.K.o_conserved)
          ~detail:
            (Printf.sprintf "%d hits / %d misses on both" tiered.l_hits tiered.l_misses);
        Exp_report.check ~what:"random leg deterministic per seed (replay identical)"
          ~pass:r.replay_identical
          ~detail:(Printf.sprintf "seed %Ld" random_seed);
        Exp_report.check ~what:"cache geometry induces a usable color space"
          ~pass:(r.n_colors = hot_pages)
          ~detail:(Printf.sprintf "%d colors at %d B pages" r.n_colors page_size);
      ]
  | _ ->
      [
        Exp_report.check ~what:"record carries the sequential, random, colored and tiered legs"
          ~pass:false
          ~detail:(String.concat ", " (List.map (fun l -> l.l_mode) legs));
      ]

let run ?(quick = false) ?(jobs = 1) () =
  let rounds = if quick then 800 else 2500 in
  let results =
    Exp_par.map ~jobs
      [
        run_sequential ~rounds;
        run_random ~rounds ~mode:"random";
        run_random ~rounds ~mode:"random";  (* determinism replay *)
        run_colored ~rounds ~tiered:false;
        run_colored ~rounds ~tiered:true;
      ]
  in
  let sequential = List.nth results 0
  and random = List.nth results 1
  and random_replay = List.nth results 2
  and colored = List.nth results 3
  and tiered = List.nth results 4 in
  let replay_identical = random = random_replay in
  let legs = [ sequential; random; colored; tiered ] in
  let n_colors =
    Hw_cache.n_colors (Hw_cache.create ~line_bytes ~size_bytes:cache_bytes ()) ~page_bytes:page_size
  in
  let mode = if quick then "quick" else "full" in
  let r = { mode; rounds; n_colors; legs; replay_identical; checks = [] } in
  { r with checks = checks r }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Cache: frame placement vs a physically-indexed L2 (%s record, %s mode)\n"
       schema_version r.mode);
  Buffer.add_string buf
    (Printf.sprintf
       "%d KB cache, %d B lines (%d colors at %d B pages); %d hot + %d cold pages, %d rounds\n"
       (cache_bytes / 1024) line_bytes r.n_colors page_size hot_pages cold_pages r.rounds);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [
           "placement"; "faults"; "migrated"; "accesses"; "hits"; "misses"; "miss %";
           "color miss"; "sim (us)";
         ]
       ~rows:
         (List.map
            (fun l ->
              [
                l.l_mode;
                string_of_int l.l_obs.K.o_faults;
                string_of_int l.l_obs.K.o_migrated_pages;
                string_of_int l.l_accesses;
                string_of_int l.l_hits;
                string_of_int l.l_misses;
                Printf.sprintf "%.2f" (pct l.l_miss_rate);
                string_of_int l.l_color_misses;
                Printf.sprintf "%.0f" l.l_obs.K.o_sim_us;
              ])
            r.legs));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks r.checks);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)
(* ------------------------------------------------------------------ *)

let leg =
  let open Exp_codec in
  obj
    (fun l_mode l_obs l_accesses l_hits l_misses l_miss_rate l_color_misses l_audit_good
         l_audit_total ->
      { l_mode; l_obs; l_accesses; l_hits; l_misses; l_miss_rate; l_color_misses;
        l_audit_good; l_audit_total })
  |> mem "mode" string (fun l -> l.l_mode)
  |> splice observation (fun l -> l.l_obs)
  |> mem "accesses" (where "no cache accesses recorded" (fun n -> n > 0) int) (fun l ->
         l.l_accesses)
  |> mem "hits" int (fun l -> l.l_hits)
  |> mem "misses" int (fun l -> l.l_misses)
  |> mem "miss_rate" (where "miss rate out of range" (fun x -> x >= 0.0 && x <= 1.0) float)
       (fun l -> l.l_miss_rate)
  |> mem "color_misses" int (fun l -> l.l_color_misses)
  |> mem "audit_good" int (fun l -> l.l_audit_good)
  |> mem "audit_total" int (fun l -> l.l_audit_total)
  |> finish

(* The geometry constants are written for the reader; only the color
   count is data. *)
let geometry =
  let open Exp_codec in
  obj Fun.id
  |> out "cache_bytes" int (fun _ -> cache_bytes)
  |> out "line_bytes" int (fun _ -> line_bytes)
  |> out "page_size" int (fun _ -> page_size)
  |> mem "n_colors" int Fun.id
  |> finish

let codec =
  let open Exp_codec in
  obj (fun mode n_colors rounds legs replay_identical checks ->
      { mode; rounds; n_colors; legs; replay_identical; checks })
  |> tag "schema" schema_version
  |> mem "mode" string (fun r -> r.mode)
  |> mem "geometry" geometry (fun r -> r.n_colors)
  |> mem "rounds" int (fun r -> r.rounds)
  |> mem "legs" (where "expected at least three legs" (fun l -> List.length l >= 3) (list leg))
       (fun r -> r.legs)
  |> mem "replay_identical" bool (fun r -> r.replay_identical)
  |> mem "checks" (list check) (fun r -> r.checks)
  |> finish
