module W = Wl_market

let schema_version = "vpp-market/2"

type result = {
  mode : string;
  legs : W.result list;
  checks : Exp_report.check list;
}

let slo_ordered s =
  s.W.sc_samples = 0
  || (s.W.sc_p50_us <= s.W.sc_p99_us && s.W.sc_p99_us <= s.W.sc_p999_us)

let checks_for r =
  let name what = Printf.sprintf "%s: %s" r.W.r_name what in
  [
    Exp_report.check ~what:(name "frame + process conservation held") ~pass:r.W.r_conserved
      ~detail:(Printf.sprintf "%d frames, %d accounts" r.W.r_frames r.W.r_accounts);
    Exp_report.check
      ~what:(name "every tenant completed or was refused")
      ~pass:(r.W.r_completed + r.W.r_refused = r.W.r_tenants)
      ~detail:
        (Printf.sprintf "%d completed + %d refused of %d" r.W.r_completed r.W.r_refused
           r.W.r_tenants);
    Exp_report.check
      ~what:(name "admission control was exercised (deferrals occurred)")
      ~pass:(r.W.r_defer_events > 0)
      ~detail:(Printf.sprintf "%d defer events" r.W.r_defer_events);
    Exp_report.check
      ~what:(name "poor tenants were refused by the market")
      ~pass:(r.W.r_refused > 0)
      ~detail:(Printf.sprintf "%d refused" r.W.r_refused);
    Exp_report.check
      ~what:(name "dram conservation: no minting or destruction")
      ~pass:(r.W.r_conservation_residual < 1e-9)
      ~detail:(Printf.sprintf "worst residual %.3e" r.W.r_conservation_residual);
    Exp_report.check
      ~what:(name "all solvent classes stayed solvent")
      ~pass:(r.W.r_min_balance >= 0.0)
      ~detail:(Printf.sprintf "min balance %.3f drams" r.W.r_min_balance);
    Exp_report.check
      ~what:(name "SLO quantiles ordered p50 <= p99 <= p999")
      ~pass:(List.for_all slo_ordered r.W.r_slos)
      ~detail:
        (String.concat ", "
           (List.map
              (fun s ->
                Printf.sprintf "%s %.0f/%.0f/%.0f" s.W.sc_class s.W.sc_p50_us s.W.sc_p99_us
                  s.W.sc_p999_us)
              r.W.r_slos));
    Exp_report.check
      ~what:(name "billable time never exceeds simulated time")
      ~pass:(r.W.r_billable_s <= (r.W.r_sim_us /. 1_000_000.0) +. 1e-9)
      ~detail:
        (Printf.sprintf "%.3fs billable of %.3fs simulated" r.W.r_billable_s
           (r.W.r_sim_us /. 1_000_000.0));
  ]

let checks r = List.concat_map checks_for r.legs

let run ?(quick = false) ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> Exp_par.default_jobs () in
  let configs = if quick then [ W.small ] else [ W.small; W.production ] in
  let legs = Exp_par.map ~jobs (List.map (fun cfg () -> W.run cfg) configs) in
  let r = { mode = (if quick then "quick" else "full"); legs; checks = [] } in
  { r with checks = checks r }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "Market: multi-tenant admission control at scale (%s record, %s mode)\n"
       schema_version r.mode);
  Buffer.add_string buf
    (Exp_report.fmt_table
       ~header:
         [
           "run"; "tenants"; "frames"; "completed"; "refused"; "defers"; "granted"; "saver cyc";
           "faults"; "sim (s)";
         ]
       ~rows:
         (List.map
            (fun w ->
              [
                w.W.r_name;
                string_of_int w.W.r_tenants;
                string_of_int w.W.r_frames;
                string_of_int w.W.r_completed;
                string_of_int w.W.r_refused;
                string_of_int w.W.r_defer_events;
                string_of_int w.W.r_granted_frames;
                string_of_int w.W.r_saver_cycles;
                string_of_int w.W.r_faults;
                Printf.sprintf "%.3f" (w.W.r_sim_us /. 1_000_000.0);
              ])
            r.legs));
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s: per-class SLO (acquire-to-resident, target %.0f us)\n" w.W.r_name
           w.W.r_slo_us);
      Buffer.add_string buf
        (Exp_report.fmt_table
           ~header:
             [ "class"; "tenants"; "done"; "refused"; "p50 (us)"; "p99 (us)"; "p999 (us)";
               "max (us)"; "violations" ]
           ~rows:
             (List.map
                (fun s ->
                  [
                    s.W.sc_class;
                    string_of_int s.W.sc_tenants;
                    string_of_int s.W.sc_completed;
                    string_of_int s.W.sc_refused;
                    Printf.sprintf "%.0f" s.W.sc_p50_us;
                    Printf.sprintf "%.0f" s.W.sc_p99_us;
                    Printf.sprintf "%.0f" s.W.sc_p999_us;
                    Printf.sprintf "%.0f" s.W.sc_max_us;
                    string_of_int s.W.sc_violations;
                  ])
                w.W.r_slos)))
    r.legs;
  Buffer.add_string buf "\nShape checks:\n";
  Buffer.add_string buf (Exp_report.render_checks r.checks);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The record                                                          *)
(* ------------------------------------------------------------------ *)

let slo =
  let open Exp_codec in
  obj
    (fun sc_class sc_tenants sc_completed sc_refused sc_samples sc_p50_us sc_p99_us sc_p999_us
         sc_max_us sc_violations ->
      { W.sc_class; sc_tenants; sc_completed; sc_refused; sc_samples; sc_p50_us; sc_p99_us;
        sc_p999_us; sc_max_us; sc_violations })
  |> mem "class" string (fun s -> s.W.sc_class)
  |> mem "tenants" int (fun s -> s.W.sc_tenants)
  |> mem "completed" int (fun s -> s.W.sc_completed)
  |> mem "refused" int (fun s -> s.W.sc_refused)
  |> mem "samples" int (fun s -> s.W.sc_samples)
  |> mem "p50_us" float (fun s -> s.W.sc_p50_us)
  |> mem "p99_us" float (fun s -> s.W.sc_p99_us)
  |> mem "p999_us" float (fun s -> s.W.sc_p999_us)
  |> mem "max_us" float (fun s -> s.W.sc_max_us)
  |> mem "violations" int (fun s -> s.W.sc_violations)
  |> finish

let leg =
  let open Exp_codec in
  obj
    (fun r_name r_frames r_tenants r_savers r_completed r_refused r_defer_events
         r_granted_frames r_saver_cycles r_saver_starved r_faults r_events r_sim_us r_slo_us
         r_accounts r_min_balance r_billable_s r_conservation_residual r_io_failures r_conserved
         r_slos ->
      { W.r_name; r_frames; r_tenants; r_savers; r_completed; r_refused; r_defer_events;
        r_granted_frames; r_saver_cycles; r_saver_starved; r_faults; r_events; r_sim_us;
        r_slo_us; r_slos; r_accounts; r_min_balance; r_billable_s; r_conservation_residual;
        r_io_failures; r_conserved })
  |> mem "name" string (fun r -> r.W.r_name)
  |> mem "frames" int (fun r -> r.W.r_frames)
  |> mem "tenants" int (fun r -> r.W.r_tenants)
  |> mem "savers" int (fun r -> r.W.r_savers)
  |> mem "completed" int (fun r -> r.W.r_completed)
  |> mem "refused" int (fun r -> r.W.r_refused)
  |> mem "defer_events" int (fun r -> r.W.r_defer_events)
  |> mem "granted_frames" int (fun r -> r.W.r_granted_frames)
  |> mem "saver_cycles" int (fun r -> r.W.r_saver_cycles)
  |> mem "saver_starved" int (fun r -> r.W.r_saver_starved)
  |> mem "faults" int (fun r -> r.W.r_faults)
  |> mem "events" int (fun r -> r.W.r_events)
  |> mem "sim_us" float (fun r -> r.W.r_sim_us)
  |> mem "slo_us" float (fun r -> r.W.r_slo_us)
  |> mem "accounts" int (fun r -> r.W.r_accounts)
  |> mem "min_balance" float (fun r -> r.W.r_min_balance)
  |> mem "billable_s" float (fun r -> r.W.r_billable_s)
  |> mem "conservation_residual" float (fun r -> r.W.r_conservation_residual)
  |> mem "io_failures" int (fun r -> r.W.r_io_failures)
  |> mem "conserved" bool (fun r -> r.W.r_conserved)
  |> mem "slos" (list slo) (fun r -> r.W.r_slos)
  |> finish

let codec =
  let open Exp_codec in
  obj (fun mode legs checks -> { mode; legs; checks })
  |> tag "schema" schema_version
  |> mem "mode" string (fun r -> r.mode)
  |> mem "legs" (where "expected at least one leg" (fun l -> l <> []) (list leg)) (fun r -> r.legs)
  |> mem "checks" (list check) (fun r -> r.checks)
  |> finish
