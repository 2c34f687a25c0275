type latency = No_latency | Disk of { device : Hw_disk.t; page_bytes : int }

type retry = { attempts : int; backoff_us : float }

let default_retry = { attempts = 3; backoff_us = 2_000.0 }

exception Backing_failed of { op : Hw_disk.op; file : int; block : int; attempts : int }

type t = {
  latency : latency;
  retry : retry;
  table : (int, Hw_page_data.t) Hashtbl.t;  (* by [key] *)
  mutable reads : int;
  mutable writes : int;
  mutable read_retries : int;
  mutable write_retries : int;
  mutable read_failures : int;
  mutable write_failures : int;
}

let make latency retry =
  {
    latency;
    retry;
    table = Hashtbl.create 256;
    reads = 0;
    writes = 0;
    read_retries = 0;
    write_retries = 0;
    read_failures = 0;
    write_failures = 0;
  }

let memory () = make No_latency default_retry
let disk ?(retry = default_retry) device ~page_bytes = make (Disk { device; page_bytes }) retry

let disk_block ~file ~block = (file * 1_000_000) + block

(* The table's key for a block: one int, one-to-one over blocks in
   [0, 2^32) of files in [-2^30, 2^30) (swap areas are negative file
   ids), so a fill or a writeback builds no tuple to hash. *)
let key ~file ~block =
  if block < 0 || block lsr 32 <> 0 || file < -(1 lsl 30) || file >= 1 lsl 30 then
    invalid_arg (Printf.sprintf "Mgr_backing: block (%d, %d) out of range" file block);
  (file lsl 32) lor block

(* Backoff is simulated time; semantics-only tests run managers outside any
   process, where waiting is meaningless (mirrors Hw_machine.charge). *)
let backoff_wait us =
  if us > 0.0 then try Sim_engine.delay us with Sim_engine.Not_in_process -> ()

let attempt_io t ~op ~file ~block =
  match t.latency with
  | No_latency -> ()
  | Disk { device; page_bytes } -> (
      let blk = disk_block ~file ~block in
      match op with
      | `Read -> Hw_disk.read_at device ~block:blk ~bytes:page_bytes
      | `Write -> Hw_disk.write_at device ~block:blk ~bytes:page_bytes)

let retrying t ~op ~file ~block =
  let max_attempts = max 1 t.retry.attempts in
  let rec go n backoff =
    try attempt_io t ~op ~file ~block
    with Hw_disk.Io_error _ ->
      if n >= max_attempts then begin
        (match op with
        | `Read -> t.read_failures <- t.read_failures + 1
        | `Write -> t.write_failures <- t.write_failures + 1);
        raise (Backing_failed { op; file; block; attempts = n })
      end
      else begin
        (match op with
        | `Read -> t.read_retries <- t.read_retries + 1
        | `Write -> t.write_retries <- t.write_retries + 1);
        backoff_wait backoff;
        go (n + 1) (backoff *. 2.0)
      end
  in
  go 1 t.retry.backoff_us

(* Observe the end-to-end latency of one block operation (queueing,
   service, backoffs and retries, even when it ultimately fails) into the
   disk's metrics sink, under kind "backing.read"/"backing.write". Only
   measurable inside a simulation process with an enabled sink; otherwise
   an operation is [retrying] alone. *)
let with_retry t ~op ~file ~block =
  match t.latency with
  | Disk { device; _ } -> (
      match Hw_disk.metrics device with
      | Some m when Sim_metrics.enabled m -> (
          match Sim_engine.time () with
          | exception Sim_engine.Not_in_process -> retrying t ~op ~file ~block
          | t0 -> (
              let kind = match op with `Read -> "backing.read" | `Write -> "backing.write" in
              match retrying t ~op ~file ~block with
              | () -> Sim_metrics.observe m ~kind (Sim_engine.time () -. t0)
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  Sim_metrics.observe m ~kind (Sim_engine.time () -. t0);
                  Printexc.raise_with_backtrace e bt))
      | _ -> retrying t ~op ~file ~block)
  | No_latency -> retrying t ~op ~file ~block

let read_block t ~file ~block =
  let k = key ~file ~block in
  t.reads <- t.reads + 1;
  with_retry t ~op:`Read ~file ~block;
  match Hashtbl.find_opt t.table k with
  | Some d -> d
  | None -> Hw_page_data.block ~file ~block ~version:0

let write_block t ~file ~block data =
  let k = key ~file ~block in
  t.writes <- t.writes + 1;
  with_retry t ~op:`Write ~file ~block;
  Hashtbl.replace t.table k data

let has_block t ~file ~block = Hashtbl.mem t.table (key ~file ~block)

let reads t = t.reads
let writes t = t.writes
let retries t = function `Read -> t.read_retries | `Write -> t.write_retries
let failures t = function `Read -> t.read_failures | `Write -> t.write_failures
let io_retries t = t.read_retries + t.write_retries
let io_failures t = t.read_failures + t.write_failures
