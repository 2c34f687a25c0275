(* Throughput record: Wl_scale at several machine sizes plus a timed
   sequential-vs-parallel run of the experiment driver.

   Wall-clock here is host time (Unix.gettimeofday), the one deliberate
   exception to the no-wall-clock rule: the whole point of this record is
   how fast the simulator executes deterministic work, so the simulated
   side of every number below is reproducible and only [wall_s] varies
   between hosts. *)

let schema_version = "vpp-perf/2"

type scale_row = {
  s_result : Wl_scale.result;
  s_wall_s : float;
}

type stream_row = {
  t_result : Wl_scale.stream_result;
  t_wall_s : float;
}

type driver = {
  d_jobs : int;
  d_sequential_s : float;
  d_parallel_s : float;
  d_identical : bool;
}

type result = {
  mode : string;
  scales : scale_row list;
  stream : stream_row list;
  driver : driver;
  checks : Exp_report.check list;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let per_sec count wall = if wall > 0.0 then float_of_int count /. wall else 0.0

(* The driver leg races the same fixed, deterministic renders the [all]
   command composes; byte-identity of the joined output is the point, the
   timings are informative (on a single-core host the parallel leg just
   pays the domain overhead). *)
let driver_tasks () =
  [
    (fun () -> Exp_table1.render (Exp_table1.run ()));
    (fun () -> Exp_table3.render (Exp_table3.run ()));
    (fun () -> Exp_figures.render (Exp_figures.run ()));
  ]

let checks r =
  List.concat_map
    (fun s ->
      let w = s.s_result in
      [
        Exp_report.check
          ~what:(Printf.sprintf "%s: frame conservation held" w.Wl_scale.r_name)
          ~pass:w.Wl_scale.r_conserved
          ~detail:(Printf.sprintf "%d frames" w.Wl_scale.r_frames);
        Exp_report.check
          ~what:(Printf.sprintf "%s: workload exercised every axis" w.Wl_scale.r_name)
          ~pass:
            (w.Wl_scale.r_faults > 0 && w.Wl_scale.r_migrated_pages > 0
           && w.Wl_scale.r_events > 0)
          ~detail:
            (Printf.sprintf "%d faults, %d migrated, %d events" w.Wl_scale.r_faults
               w.Wl_scale.r_migrated_pages w.Wl_scale.r_events);
      ])
    r.scales
  @ [
      Exp_report.check ~what:"event count grows with machine size"
        ~pass:
          (let evs = List.map (fun s -> s.s_result.Wl_scale.r_events) r.scales in
           List.sort compare evs = evs
           && List.length (List.sort_uniq compare evs) = List.length evs)
        ~detail:
          (String.concat ", "
             (List.map (fun s -> string_of_int s.s_result.Wl_scale.r_events) r.scales));
      Exp_report.check ~what:"parallel driver output byte-identical to sequential"
        ~pass:r.driver.d_identical
        ~detail:(Printf.sprintf "%d job(s)" r.driver.d_jobs);
    ]
  @
  match r.stream with
  | [ { t_result = plain; _ }; { t_result = sp; _ } ] ->
      [
        Exp_report.check ~what:"stream: frame conservation held on both legs"
          ~pass:(plain.Wl_scale.s_conserved && sp.Wl_scale.s_conserved)
          ~detail:(Printf.sprintf "%d frames" plain.Wl_scale.s_frames);
        Exp_report.check ~what:"stream: legs issued identical references"
          ~pass:
            (plain.Wl_scale.s_touches = sp.Wl_scale.s_touches
            && plain.Wl_scale.s_stream_pages = sp.Wl_scale.s_stream_pages)
          ~detail:
            (Printf.sprintf "%d touches over %d pages" plain.Wl_scale.s_touches
               plain.Wl_scale.s_stream_pages);
        Exp_report.check ~what:"stream: superpage leg takes >= 100x fewer faults"
          ~pass:(sp.Wl_scale.s_faults > 0 && plain.Wl_scale.s_faults >= 100 * sp.Wl_scale.s_faults)
          ~detail:
            (Printf.sprintf "%d vs %d faults (%.0fx)" plain.Wl_scale.s_faults sp.Wl_scale.s_faults
               (float_of_int plain.Wl_scale.s_faults /. float_of_int (max 1 sp.Wl_scale.s_faults)));
        Exp_report.check ~what:"stream: superpage leg promoted and split regions"
          ~pass:
            (sp.Wl_scale.s_sp_promotions > 0 && sp.Wl_scale.s_sp_demotions > 0
            && plain.Wl_scale.s_sp_promotions = 0)
          ~detail:
            (Printf.sprintf "%d promotions, %d demotions" sp.Wl_scale.s_sp_promotions
               sp.Wl_scale.s_sp_demotions);
      ]
  | legs ->
      [
        Exp_report.check ~what:"stream: a 4 KB and a superpage leg" ~pass:false
          ~detail:(Printf.sprintf "%d legs" (List.length legs));
      ]

let run ?(quick = false) ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> Exp_par.default_jobs () in
  let sizes =
    if quick then [ Wl_scale.size_8mb; Wl_scale.size_512mb ] else Wl_scale.standard_sizes
  in
  (* Superpage comparison: the same sequential stream at the largest size,
     once with 4 KB fills and once with whole-run grants + promotion. *)
  let stream_cfg = List.nth sizes (List.length sizes - 1) in
  (* The scale and stream legs are independent simulations, so they fan
     out over domains together; each task times itself, and the in-order
     join keeps every deterministic field identical to a sequential run
     (only the wall_s figures feel the sharing of the host's cores). *)
  let scale_tasks =
    List.map
      (fun cfg () ->
        let r, wall = timed (fun () -> Wl_scale.run cfg) in
        `Scale { s_result = r; s_wall_s = wall })
      sizes
  and stream_tasks =
    List.map
      (fun superpages () ->
        let r, wall = timed (fun () -> Wl_scale.run_stream ~superpages stream_cfg) in
        `Stream { t_result = r; t_wall_s = wall })
      [ false; true ]
  in
  let legs = Exp_par.map ~jobs (scale_tasks @ stream_tasks) in
  let scales = List.filter_map (function `Scale s -> Some s | `Stream _ -> None) legs in
  let stream = List.filter_map (function `Stream s -> Some s | `Scale _ -> None) legs in
  let seq_out, seq_s =
    timed (fun () -> String.concat "\n" (List.map (fun f -> f ()) (driver_tasks ())))
  in
  let par_out, par_s = timed (fun () -> Exp_par.concat ~jobs ~sep:"\n" (driver_tasks ())) in
  let driver =
    { d_jobs = jobs; d_sequential_s = seq_s; d_parallel_s = par_s; d_identical = seq_out = par_out }
  in
  let r = { mode = (if quick then "quick" else "full"); scales; stream; driver; checks = [] } in
  { r with checks = checks r }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Perf: simulator throughput at scale (%s record, %s mode)\n" schema_version
       r.mode);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [ "machine"; "frames"; "faults"; "migrated"; "events"; "wall (s)"; "events/s"; "faults/s" ]
       ~rows:
         (List.map
            (fun s ->
              let w = s.s_result in
              [
                Printf.sprintf "%s (%.0f MB)" w.Wl_scale.r_name (mb w.Wl_scale.r_memory_bytes);
                string_of_int w.Wl_scale.r_frames;
                string_of_int w.Wl_scale.r_faults;
                string_of_int w.Wl_scale.r_migrated_pages;
                string_of_int w.Wl_scale.r_events;
                Printf.sprintf "%.2f" s.s_wall_s;
                Printf.sprintf "%.0f" (per_sec w.Wl_scale.r_events s.s_wall_s);
                Printf.sprintf "%.0f" (per_sec w.Wl_scale.r_faults s.s_wall_s);
              ])
            r.scales));
  Buffer.add_string buf
    (Printf.sprintf "\nStreaming: 4 KB fills vs superpage runs (%s, %d pages/superpage)\n"
       (match r.stream with s :: _ -> s.t_result.Wl_scale.s_name | [] -> "-")
       (match r.stream with s :: _ -> s.t_result.Wl_scale.s_run | [] -> 0));
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [ "leg"; "pages"; "faults"; "migrates"; "promoted"; "split"; "sim (ms)"; "wall (s)" ]
       ~rows:
         (List.map
            (fun s ->
              let w = s.t_result in
              [
                (if w.Wl_scale.s_superpages then "superpage" else "4kb");
                string_of_int w.Wl_scale.s_stream_pages;
                string_of_int w.Wl_scale.s_faults;
                string_of_int w.Wl_scale.s_migrate_calls;
                string_of_int w.Wl_scale.s_sp_promotions;
                string_of_int w.Wl_scale.s_sp_demotions;
                Printf.sprintf "%.1f" (w.Wl_scale.s_sim_us /. 1000.0);
                Printf.sprintf "%.2f" s.t_wall_s;
              ])
            r.stream));
  Buffer.add_string buf
    (Printf.sprintf
       "\nExperiment driver: sequential %.2fs, parallel %.2fs on %d job(s) (outputs %s)\n"
       r.driver.d_sequential_s r.driver.d_parallel_s r.driver.d_jobs
       (if r.driver.d_identical then "identical" else "DIFFER"));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks r.checks);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

let wall = Exp_codec.(where "negative wall time" (fun s -> s >= 0.0) float)

let scale_row =
  let open Exp_codec in
  let w f s = f s.s_result in
  obj
    (fun r_name r_memory_bytes r_frames r_touches r_faults r_migrate_calls r_migrated_pages
         r_events r_sim_us r_conserved s_wall_s ->
      {
        s_result =
          { Wl_scale.r_name; r_memory_bytes; r_frames; r_touches; r_faults; r_migrate_calls;
            r_migrated_pages; r_events; r_sim_us; r_conserved };
        s_wall_s;
      })
  |> mem "name" string (w (fun r -> r.Wl_scale.r_name))
  |> mem "memory_bytes" int (w (fun r -> r.Wl_scale.r_memory_bytes))
  |> mem "frames" int (w (fun r -> r.Wl_scale.r_frames))
  |> mem "touches" int (w (fun r -> r.Wl_scale.r_touches))
  |> mem "faults" int (w (fun r -> r.Wl_scale.r_faults))
  |> mem "migrate_calls" int (w (fun r -> r.Wl_scale.r_migrate_calls))
  |> mem "migrated_pages" int (w (fun r -> r.Wl_scale.r_migrated_pages))
  |> mem "events" int (w (fun r -> r.Wl_scale.r_events))
  |> mem "sim_us" float (w (fun r -> r.Wl_scale.r_sim_us))
  |> mem "conserved" bool (w (fun r -> r.Wl_scale.r_conserved))
  |> mem "wall_s" wall (fun s -> s.s_wall_s)
  |> out "events_per_s" float (fun s -> per_sec s.s_result.Wl_scale.r_events s.s_wall_s)
  |> out "faults_per_s" float (fun s -> per_sec s.s_result.Wl_scale.r_faults s.s_wall_s)
  |> out "migrated_pages_per_s" float (fun s ->
         per_sec s.s_result.Wl_scale.r_migrated_pages s.s_wall_s)
  |> finish

let stream_row =
  let open Exp_codec in
  let w f s = f s.t_result in
  obj
    (fun s_name s_superpages s_memory_bytes s_frames s_run s_stream_pages s_touches s_faults
         s_migrate_calls s_migrated_pages s_sp_promotions s_sp_demotions s_events s_sim_us
         s_conserved t_wall_s ->
      {
        t_result =
          { Wl_scale.s_name; s_memory_bytes; s_frames; s_superpages; s_run; s_stream_pages;
            s_touches; s_faults; s_migrate_calls; s_migrated_pages; s_sp_promotions;
            s_sp_demotions; s_events; s_sim_us; s_conserved };
        t_wall_s;
      })
  |> mem "name" string (w (fun r -> r.Wl_scale.s_name))
  |> mem "superpages" bool (w (fun r -> r.Wl_scale.s_superpages))
  |> mem "memory_bytes" int (w (fun r -> r.Wl_scale.s_memory_bytes))
  |> mem "frames" int (w (fun r -> r.Wl_scale.s_frames))
  |> mem "pages_per_superpage" int (w (fun r -> r.Wl_scale.s_run))
  |> mem "stream_pages" int (w (fun r -> r.Wl_scale.s_stream_pages))
  |> mem "touches" int (w (fun r -> r.Wl_scale.s_touches))
  |> mem "faults" int (w (fun r -> r.Wl_scale.s_faults))
  |> mem "migrate_calls" int (w (fun r -> r.Wl_scale.s_migrate_calls))
  |> mem "migrated_pages" int (w (fun r -> r.Wl_scale.s_migrated_pages))
  |> mem "sp_promotions" int (w (fun r -> r.Wl_scale.s_sp_promotions))
  |> mem "sp_demotions" int (w (fun r -> r.Wl_scale.s_sp_demotions))
  |> mem "events" int (w (fun r -> r.Wl_scale.s_events))
  |> mem "sim_us" float (w (fun r -> r.Wl_scale.s_sim_us))
  |> mem "conserved" bool (w (fun r -> r.Wl_scale.s_conserved))
  |> mem "wall_s" wall (fun s -> s.t_wall_s)
  |> finish

let driver =
  let open Exp_codec in
  obj (fun d_jobs d_sequential_s d_parallel_s d_identical ->
      { d_jobs; d_sequential_s; d_parallel_s; d_identical })
  |> mem "jobs" (where "driver jobs < 1" (fun j -> j >= 1) int) (fun d -> d.d_jobs)
  |> mem "sequential_s" float (fun d -> d.d_sequential_s)
  |> mem "parallel_s" float (fun d -> d.d_parallel_s)
  |> out "speedup" float (fun d ->
         if d.d_parallel_s > 0.0 then d.d_sequential_s /. d.d_parallel_s else 0.0)
  |> mem "parallel_identical" bool (fun d -> d.d_identical)
  |> finish

let codec =
  let open Exp_codec in
  obj (fun mode scales stream driver checks -> { mode; scales; stream; driver; checks })
  |> tag "schema" schema_version
  |> mem "mode" string (fun r -> r.mode)
  |> mem "scales"
       (where "expected at least two scales" (fun l -> List.length l >= 2) (list scale_row))
       (fun r -> r.scales)
  |> mem "stream"
       (where "expected exactly two stream legs" (fun l -> List.length l = 2) (list stream_row))
       (fun r -> r.stream)
  |> mem "driver" driver (fun r -> r.driver)
  |> mem "checks" (list check) (fun r -> r.checks)
  |> finish
