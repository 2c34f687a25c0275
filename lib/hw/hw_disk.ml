module Engine = Sim_engine
module Resource = Sim_sync.Resource

type params = {
  seek_us : float;
  half_rotation_us : float;
  us_per_kb : float;
}

let default_params = { seek_us = 12_000.0; half_rotation_us = 4_150.0; us_per_kb = 666.0 }

type op = [ `Read | `Write ]

exception Io_error of { op : op; block : int option }

type t = {
  params : params;
  arm : Resource.t;
  mutable chaos : Sim_chaos.t option;
  mutable metrics : Sim_metrics.t option;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let create engine ?(params = default_params) () =
  {
    params;
    arm = Resource.create engine ~capacity:1;
    chaos = None;
    metrics = None;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
  }

let set_chaos t plan = t.chaos <- plan
let set_metrics t m = t.metrics <- m
let metrics t = t.metrics

let access_time_us t ~bytes =
  t.params.seek_us +. t.params.half_rotation_us
  +. (float_of_int bytes /. 1024.0 *. t.params.us_per_kb)

(* The error, if any, surfaces after the arm has done the work: a failed
   transfer costs full service time (plus any injected burst), exactly the
   retry-storm convoy a real disk produces. *)
let inject plan ~(op : op) ~block =
  let site = match op with `Read -> Sim_chaos.Disk_read | `Write -> Sim_chaos.Disk_write in
  match Sim_chaos.decide plan site ~now:(Engine.time ()) ~block with
  | Sim_chaos.Verdict.Pass -> ()
  | Sim_chaos.Verdict.Delay us -> Engine.delay us
  | Sim_chaos.Verdict.Transient_failure | Sim_chaos.Verdict.Permanent_failure ->
      raise (Io_error { op; block })

(* Queue for the arm, then serve. Bracketed by hand rather than through
   [Resource.use]: a thunk here would be a closure per transfer. *)
let serve t ~op ~block ~bytes =
  Resource.acquire t.arm;
  match
    Engine.delay (access_time_us t ~bytes);
    match t.chaos with None -> () | Some plan -> inject plan ~op ~block
  with
  | () -> Resource.release t.arm
  | exception e -> Resource.release_reraise t.arm e

(* Latency observation covers queueing on the arm plus service plus any
   injected burst, including transfers that end in an injected error (they
   cost real time too). Only measurable inside a simulation process, and
   only taken when the sink is enabled: otherwise a transfer is [serve]
   alone. *)
let transfer t ~(op : op) ~block ~bytes =
  match t.metrics with
  | Some m when Sim_metrics.enabled m -> (
      match Engine.time () with
      | exception Engine.Not_in_process -> serve t ~op ~block ~bytes
      | t0 -> (
          let kind = match op with `Read -> "disk.read" | `Write -> "disk.write" in
          match serve t ~op ~block ~bytes with
          | () -> Sim_metrics.observe m ~kind (Engine.time () -. t0)
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Sim_metrics.observe m ~kind (Engine.time () -. t0);
              Printexc.raise_with_backtrace e bt))
  | _ -> serve t ~op ~block ~bytes

let read_op t ~block ~bytes =
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + bytes;
  transfer t ~op:`Read ~block ~bytes

let write_op t ~block ~bytes =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + bytes;
  transfer t ~op:`Write ~block ~bytes

let read t ~bytes = read_op t ~block:None ~bytes
let write t ~bytes = write_op t ~block:None ~bytes
let read_at t ~block ~bytes = read_op t ~block:(Some block) ~bytes
let write_at t ~block ~bytes = write_op t ~block:(Some block) ~bytes

let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
