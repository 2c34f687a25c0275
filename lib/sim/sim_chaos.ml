type site = Disk_read | Disk_write

type spec = {
  read_error_p : float;
  write_error_p : float;
  delay_p : float;
  delay_min_us : float;
  delay_max_us : float;
  outages : (float * float) list;
  bad_blocks : int list;
}

let default_spec =
  {
    read_error_p = 0.0;
    write_error_p = 0.0;
    delay_p = 0.0;
    delay_min_us = 0.0;
    delay_max_us = 0.0;
    outages = [];
    bad_blocks = [];
  }

module Verdict = struct
  type t = Pass | Delay of float | Transient_failure | Permanent_failure

  let equal a b =
    match (a, b) with
    | Pass, Pass | Transient_failure, Transient_failure | Permanent_failure, Permanent_failure ->
        true
    | Delay x, Delay y -> Float.equal x y
    | (Pass | Delay _ | Transient_failure | Permanent_failure), _ -> false

  let to_string = function
    | Pass -> "pass"
    | Delay us -> Printf.sprintf "+%.0fus" us
    | Transient_failure -> "fail"
    | Permanent_failure -> "bad-block"
end

type event = {
  ev_index : int;
  ev_time : float;
  ev_site : site;
  ev_block : int option;
  ev_verdict : Verdict.t;
}

type t = {
  on : bool;
  plan_spec : spec;
  read_rng : Sim_rng.t;
  write_rng : Sim_rng.t;
  mutable log : event list;  (* newest first *)
  mutable n : int;
  mutable failures : int;
  mutable delays : int;
}

let create ~seed plan_spec =
  let root = Sim_rng.create seed in
  (* Independent per-site streams: the order of reads relative to writes
     does not perturb either stream. *)
  let read_rng = Sim_rng.split root in
  let write_rng = Sim_rng.split root in
  { on = true; plan_spec; read_rng; write_rng; log = []; n = 0; failures = 0; delays = 0 }

let none () =
  {
    on = false;
    plan_spec = default_spec;
    read_rng = Sim_rng.create 0L;
    write_rng = Sim_rng.create 0L;
    log = [];
    n = 0;
    failures = 0;
    delays = 0;
  }

let enabled t = t.on
let spec t = t.plan_spec

let in_outage spec now = List.exists (fun (a, b) -> now >= a && now < b) spec.outages

let record t ~now ~site ~block verdict =
  t.log <- { ev_index = t.n; ev_time = now; ev_site = site; ev_block = block;
             ev_verdict = verdict }
            :: t.log;
  t.n <- t.n + 1;
  (match verdict with
  | Verdict.Transient_failure | Verdict.Permanent_failure -> t.failures <- t.failures + 1
  | Verdict.Delay _ -> t.delays <- t.delays + 1
  | Verdict.Pass -> ());
  verdict

let decide t site ~now ~block =
  if not t.on then Verdict.Pass
  else begin
    let rng = match site with Disk_read -> t.read_rng | Disk_write -> t.write_rng in
    (* Three variates per decision, drawn unconditionally, keep the stream
       aligned whatever branch the spec selects. *)
    let u_fail = Sim_rng.float rng in
    let u_delay = Sim_rng.float rng in
    let u_amount = Sim_rng.float rng in
    let s = t.plan_spec in
    let verdict =
      if (match block with Some b -> List.mem b s.bad_blocks | None -> false) then
        Verdict.Permanent_failure
      else if in_outage s now then Verdict.Transient_failure
      else
        let p = match site with Disk_read -> s.read_error_p | Disk_write -> s.write_error_p in
        if u_fail < p then Verdict.Transient_failure
        else if u_delay < s.delay_p then
          Verdict.Delay (s.delay_min_us +. ((s.delay_max_us -. s.delay_min_us) *. u_amount))
        else Verdict.Pass
    in
    record t ~now ~site ~block verdict
  end

let decisions t = t.n
let schedule t = List.rev t.log
let injected_failures t = t.failures
let injected_delays t = t.delays

let schedule_fingerprint t =
  schedule t
  |> List.filter_map (fun e ->
         match e.ev_verdict with
         | Verdict.Pass -> None
         | v ->
             Some
               (Printf.sprintf "%c%d%s:%s"
                  (match e.ev_site with Disk_read -> 'r' | Disk_write -> 'w')
                  e.ev_index
                  (match e.ev_block with None -> "" | Some b -> Printf.sprintf "@%d" b)
                  (Verdict.to_string v)))
  |> String.concat " "
