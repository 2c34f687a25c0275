(* Command-line driver: regenerate each table and figure of the paper. *)

open Cmdliner

let run_table1 () = print_string (Exp_table1.render (Exp_table1.run ()))
let run_table2 () = print_string (Exp_table2.render (Exp_table2.run ()))
let run_table3 () = print_string (Exp_table3.render (Exp_table3.run ()))

let run_table4 quick () = print_string (Exp_table4.render (Exp_table4.run ~quick ()))

let run_figures () = print_string (Exp_figures.render (Exp_figures.run ()))

let run_stats () = print_string (Exp_substrate.render (Exp_substrate.run ()))

let run_chaos seed () = print_string (Exp_chaos.render (Exp_chaos.run ?seed ()))

(* The ablations and the [all] group are independent deterministic
   experiments; with --jobs they fan out over domains via Exp_par, whose
   in-order join keeps the printed bytes identical to a sequential run. *)

let run_ablations jobs () = print_string (Exp_par.concat ~jobs ~sep:"" Exp_record.ablations)

let run_all quick jobs () = print_string (Exp_par.concat ~jobs ~sep:"\n" (Exp_record.paper ~quick))

(* A file that cannot be opened, read or written ends the command with
   "FILE: reason" and exit status 1. [Sys_error] names the file when an
   open fails but not when a read does (a directory opens, then reads
   "Is a directory"), so the name is stripped before it is put back. *)
let file_error file msg =
  let prefix = file ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix) (String.length msg - String.length prefix)
    else msg
  in
  Printf.eprintf "%s: %s\n" file reason;
  exit 1

(* One shell for every record: open the output file (unless the
   subcommand only prints) before the run, so a bad path fails at once,
   run the record, write it, print the record or its rendering, and fail
   the exit status on a failed check. *)
let run_record (Exp_record.Record e) quick json jobs out =
  let sink =
    Option.map
      (fun out -> (out, try Out_channel.open_text out with Sys_error m -> file_error out m))
      out
  in
  let r = e.run ~quick ~jobs in
  let record = Exp_codec.print e.codec r in
  Option.iter
    (fun (out, oc) ->
      try
        output_string oc record;
        Out_channel.close oc
      with Sys_error m -> file_error out m)
    sink;
  if json then print_string record
  else begin
    print_string (e.render r);
    Option.iter (Printf.printf "(machine-readable record written to %s)\n") out
  end;
  if not (Exp_report.all_pass (e.checks r)) then exit 1

let read_record file =
  try In_channel.with_open_text file In_channel.input_all with Sys_error m -> file_error file m

let run_validate file () =
  match Exp_record.validate_string (read_record file) with
  | Ok tag -> Printf.printf "%s: valid %s record\n" file tag
  | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1

let run_diff old_file new_file () =
  let parse file =
    match Sim_json.parse (read_record file) with
    | Ok json -> json
    | Error e ->
        Printf.eprintf "%s: JSON parse error: %s\n" file e;
        exit 1
  in
  match Exp_record.diff (old_file, parse old_file) (new_file, parse new_file) with
  | Ok [] -> ()
  | Ok lines ->
      List.iter print_endline lines;
      exit 1
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shorten the Table 4 simulation (60s instead of 300s).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the versioned machine-readable record instead of the text rendering.")

let seed_opt =
  Arg.(
    value
    & opt (some int64) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed (same seed, same storm).")

(* Domain counts are outside input: anything but a positive integer is a
   usage error. *)
let jobs_conv = Arg.conv' (Exp_par.jobs_of_string, Format.pp_print_int)

let jobs_opt =
  Arg.(
    value & opt jobs_conv 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run independent experiments on $(docv) OCaml domains. Output is joined in fixed \
           order, so it is byte-identical to a sequential run.")

(* Records keep their own default domain count when --jobs is absent. *)
let record_jobs_opt =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs"; "j" ] ~docv:"N" ~absent:"1; the recommended domain count for perf and market"
        ~doc:
          "Run the record's independent legs on $(docv) OCaml domains. Every field but the \
           wall-clock ones is identical to a sequential run.")

let file_arg n docv doc = Arg.(required & pos n (some string) None & info [] ~docv ~doc)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let record_cmd (Exp_record.Record e as record) =
  let run = run_record record in
  cmd e.name e.doc
    (if e.writes then
       let out_opt =
         Arg.(
           value & opt string e.out
           & info [ "out" ] ~docv:"FILE" ~doc:("Where to write the " ^ e.schema ^ " record."))
       in
       Term.(const (fun quick json jobs out -> run quick json jobs (Some out))
             $ quick_flag $ json_flag $ record_jobs_opt $ out_opt)
     else Term.(const (fun json -> run false json None None) $ json_flag))

let () =
  let cmds =
    [
      cmd "table1" "System primitive times (Table 1)" Term.(const run_table1 $ const ());
      cmd "table2" "Application elapsed times (Table 2)" Term.(const run_table2 $ const ());
      cmd "table3" "VM system activity and costs (Table 3)" Term.(const run_table3 $ const ());
      cmd "table4" "DBMS transaction response times (Table 4)"
        Term.(const run_table4 $ quick_flag $ const ());
      cmd "figures" "Figures 1 and 2 as live kernel-state dumps"
        Term.(const run_figures $ const ());
      cmd "ablate" "Ablations of the design choices (batching, delivery mode, crossover)"
        Term.(const run_ablations $ jobs_opt $ const ());
      cmd "stats" "Translation-substrate statistics (mapping hash, TLB) for the Table 2 runs"
        Term.(const run_stats $ const ());
      cmd "chaos" "Seeded fault-injection storms on the disk/manager paths (not a paper table)"
        Term.(const run_chaos $ seed_opt $ const ());
    ]
    @ List.map record_cmd Exp_record.all
    @ [
        cmd "validate"
          ("Validate any versioned record (" ^ String.concat ", " Exp_record.known_schemas
         ^ "): decode it under its embedded schema tag and re-run the record's own checks")
          Term.(const run_validate $ file_arg 0 "FILE" "Record to validate." $ const ());
        cmd "diff"
          "Compare two records of the same schema field by field, skipping its wall-clock \
           fields; print each difference and exit 1 if there is any"
          Term.(
            const run_diff
            $ file_arg 0 "OLD" "Baseline record."
            $ file_arg 1 "NEW" "Record to compare."
            $ const ());
        cmd "all" "Every table and figure" Term.(const run_all $ quick_flag $ jobs_opt $ const ());
      ]
  in
  let info =
    Cmd.info "vpp_repro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Application-Controlled Physical Memory using External Page-Cache \
         Management' (Harty & Cheriton, ASPLOS 1992)"
  in
  let default = Term.(const run_all $ quick_flag $ jobs_opt $ const ()) in
  exit (Cmd.eval (Cmd.group info ~default cmds))
