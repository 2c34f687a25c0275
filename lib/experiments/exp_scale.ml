(* Perf record: Wl_scale at several machine sizes, plus the same
   sequential stream at the largest size with 4 KB fills and with
   superpage run grants. Every field is simulated, so the record is a
   function of its configuration alone. *)

module K = Epcm_kernel

let schema_version = "vpp-perf/3"

type result = {
  mode : string;
  scales : Wl_scale.result list;
  stream : Wl_scale.stream_result list;
  checks : Exp_report.check list;
}

let checks r =
  List.concat_map
    (fun s ->
      let name = s.Wl_scale.r_name and o = s.Wl_scale.r_obs in
      [
        Exp_report.check
          ~what:(Printf.sprintf "%s: frame conservation held" name)
          ~pass:o.K.o_conserved
          ~detail:(Printf.sprintf "%d frames" o.K.o_frames);
        Exp_report.check
          ~what:(Printf.sprintf "%s: workload exercised every axis" name)
          ~pass:(o.K.o_faults > 0 && o.K.o_migrated_pages > 0 && o.K.o_events > 0)
          ~detail:
            (Printf.sprintf "%d faults, %d migrated, %d events" o.K.o_faults o.K.o_migrated_pages
               o.K.o_events);
      ])
    r.scales
  @ [
      (let evs = List.map (fun s -> s.Wl_scale.r_obs.K.o_events) r.scales in
       Exp_report.check ~what:"event count grows with machine size"
         ~pass:
           (List.sort compare evs = evs
           && List.length (List.sort_uniq compare evs) = List.length evs)
         ~detail:(String.concat ", " (List.map string_of_int evs)));
    ]
  @
  match r.stream with
  | [ plain; sp ] ->
      let po = plain.Wl_scale.s_obs and so = sp.Wl_scale.s_obs in
      [
        Exp_report.check ~what:"stream: frame conservation held on both legs"
          ~pass:(po.K.o_conserved && so.K.o_conserved)
          ~detail:(Printf.sprintf "%d frames" po.K.o_frames);
        Exp_report.check ~what:"stream: legs issued identical references"
          ~pass:
            (po.K.o_touches = so.K.o_touches
            && plain.Wl_scale.s_stream_pages = sp.Wl_scale.s_stream_pages)
          ~detail:
            (Printf.sprintf "%d touches over %d pages" po.K.o_touches
               plain.Wl_scale.s_stream_pages);
        Exp_report.check ~what:"stream: superpage leg takes >= 100x fewer faults"
          ~pass:(so.K.o_faults > 0 && po.K.o_faults >= 100 * so.K.o_faults)
          ~detail:
            (Printf.sprintf "%d vs %d faults (%.0fx)" po.K.o_faults so.K.o_faults
               (float_of_int po.K.o_faults /. float_of_int (max 1 so.K.o_faults)));
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
     out over domains together; the in-order join keeps the record
     identical to a sequential run. *)
  let legs =
    Exp_par.map ~jobs
      (List.map (fun cfg () -> `Scale (Wl_scale.run cfg)) sizes
      @ List.map
          (fun superpages () -> `Stream (Wl_scale.run_stream ~superpages stream_cfg))
          [ false; true ])
  in
  let scales = List.filter_map (function `Scale s -> Some s | `Stream _ -> None) legs in
  let stream = List.filter_map (function `Stream s -> Some s | `Scale _ -> None) legs in
  let r = { mode = (if quick then "quick" else "full"); scales; stream; checks = [] } in
  { r with checks = checks r }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Perf: simulated work at scale (%s record, %s mode)\n" schema_version r.mode);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:[ "machine"; "frames"; "faults"; "migrated"; "events" ]
       ~rows:
         (List.map
            (fun w ->
              let o = w.Wl_scale.r_obs in
              [
                Printf.sprintf "%s (%.0f MB)" w.Wl_scale.r_name (mb w.Wl_scale.r_memory_bytes);
                string_of_int o.K.o_frames;
                string_of_int o.K.o_faults;
                string_of_int o.K.o_migrated_pages;
                string_of_int o.K.o_events;
              ])
            r.scales));
  Buffer.add_string buf
    (Printf.sprintf "\nStreaming: 4 KB fills vs superpage runs (%s, %d pages/superpage)\n"
       (match r.stream with s :: _ -> s.Wl_scale.s_name | [] -> "-")
       (match r.stream with s :: _ -> s.Wl_scale.s_run | [] -> 0));
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:[ "leg"; "pages"; "faults"; "migrates"; "promoted"; "split"; "sim (ms)" ]
       ~rows:
         (List.map
            (fun w ->
              [
                (if w.Wl_scale.s_superpages then "superpage" else "4kb");
                string_of_int w.Wl_scale.s_stream_pages;
                string_of_int w.Wl_scale.s_obs.K.o_faults;
                string_of_int w.Wl_scale.s_obs.K.o_migrate_calls;
                string_of_int w.Wl_scale.s_sp_promotions;
                string_of_int w.Wl_scale.s_sp_demotions;
                Printf.sprintf "%.1f" (w.Wl_scale.s_obs.K.o_sim_us /. 1000.0);
              ])
            r.stream));
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks r.checks);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

let scale =
  let open Exp_codec in
  obj (fun r_name r_memory_bytes r_obs -> { Wl_scale.r_name; r_memory_bytes; r_obs })
  |> mem "name" string (fun r -> r.Wl_scale.r_name)
  |> mem "memory_bytes" int (fun r -> r.Wl_scale.r_memory_bytes)
  |> splice observation (fun r -> r.Wl_scale.r_obs)
  |> finish

let stream_leg =
  let open Exp_codec in
  obj
    (fun s_name s_superpages s_memory_bytes s_run s_stream_pages s_sp_promotions s_sp_demotions
         s_obs ->
      { Wl_scale.s_name; s_memory_bytes; s_superpages; s_run; s_stream_pages; s_sp_promotions;
        s_sp_demotions; s_obs })
  |> mem "name" string (fun r -> r.Wl_scale.s_name)
  |> mem "superpages" bool (fun r -> r.Wl_scale.s_superpages)
  |> mem "memory_bytes" int (fun r -> r.Wl_scale.s_memory_bytes)
  |> mem "pages_per_superpage" int (fun r -> r.Wl_scale.s_run)
  |> mem "stream_pages" int (fun r -> r.Wl_scale.s_stream_pages)
  |> mem "sp_promotions" int (fun r -> r.Wl_scale.s_sp_promotions)
  |> mem "sp_demotions" int (fun r -> r.Wl_scale.s_sp_demotions)
  |> splice observation (fun r -> r.Wl_scale.s_obs)
  |> finish

let codec =
  let open Exp_codec in
  obj (fun mode scales stream checks -> { mode; scales; stream; checks })
  |> tag "schema" schema_version
  |> mem "mode" string (fun r -> r.mode)
  |> mem "scales"
       (where "expected at least two scales" (fun l -> List.length l >= 2) (list scale))
       (fun r -> r.scales)
  |> mem "stream"
       (where "expected exactly two stream legs" (fun l -> List.length l = 2) (list stream_leg))
       (fun r -> r.stream)
  |> mem "checks" (list check) (fun r -> r.checks)
  |> finish
