type lsn = int

exception Flush_failed of { lsn : lsn; attempts : int }

type t = {
  disk : Hw_disk.t;
  record_bytes : int;
  retry : Mgr_backing.retry;
  counters : Sim_stats.Counters.t option;
  mutable next_lsn : lsn;
  mutable flushed : lsn;
  mutable flushes : int;
  mutable flush_retries : int;
  mutable flush_failures : int;
  mutable violations : int;
  page_lsns : (Epcm_segment.id * int, lsn) Hashtbl.t;
}

let create disk ?(record_bytes = 256) ?(retry = Mgr_backing.default_retry) ?counters () =
  {
    disk;
    record_bytes;
    retry;
    counters;
    next_lsn = 0;
    flushed = 0;
    flushes = 0;
    flush_retries = 0;
    flush_failures = 0;
    violations = 0;
    page_lsns = Hashtbl.create 256;
  }

let bump t name = Option.iter (fun c -> Sim_stats.Counters.incr c ("wal." ^ name)) t.counters

let backoff_wait us =
  if us > 0.0 then try Sim_engine.delay us with Sim_engine.Not_in_process -> ()

let append t =
  t.next_lsn <- t.next_lsn + 1;
  t.next_lsn

let note_page_write t ~seg ~page ~lsn = Hashtbl.replace t.page_lsns (seg, page) lsn
let page_lsn t ~seg ~page = Hashtbl.find_opt t.page_lsns (seg, page)

(* One forced write of the log tail, retried with exponential backoff;
   after [max_attempts] failures the flush fails. *)
let rec write_retrying t ~bytes ~target ~max_attempts n backoff =
  try Hw_disk.write t.disk ~bytes
  with Hw_disk.Io_error _ ->
    if n >= max_attempts then begin
      t.flush_failures <- t.flush_failures + 1;
      bump t "flush_failed";
      raise (Flush_failed { lsn = target; attempts = n })
    end
    else begin
      t.flush_retries <- t.flush_retries + 1;
      bump t "flush_retries";
      backoff_wait backoff;
      write_retrying t ~bytes ~target ~max_attempts (n + 1) (backoff *. 2.0)
    end

let force t ~lsn =
  let target = min lsn t.next_lsn in
  let pending = target - t.flushed in
  (* Group commit: every pending record rides one transfer. [flushed]
     advances only after the transfer succeeds, so a torn (failed) write
     leaves the durable prefix exactly where it was — recovery replays
     from there and commit never acknowledges lost records. *)
  let bytes = max t.record_bytes (pending * t.record_bytes) in
  write_retrying t ~bytes ~target ~max_attempts:(max 1 t.retry.attempts) 1 t.retry.backoff_us;
  t.flushed <- target;
  t.flushes <- t.flushes + 1

(* Flush latency (group commit: transfer plus any retry backoffs) lands in
   the disk's metrics sink under kind "wal.flush" — when that sink is
   enabled and the flush runs inside a simulation process. Otherwise a
   flush is [force] alone. *)
let flush_to t ~lsn =
  if lsn > t.flushed then
    match Hw_disk.metrics t.disk with
    | Some m when Sim_metrics.enabled m -> (
        match Sim_engine.time () with
        | exception Sim_engine.Not_in_process -> force t ~lsn
        | t0 -> (
            match force t ~lsn with
            | () -> Sim_metrics.observe m ~kind:"wal.flush" (Sim_engine.time () -. t0)
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                Sim_metrics.observe m ~kind:"wal.flush" (Sim_engine.time () -. t0);
                Printexc.raise_with_backtrace e bt))
    | _ -> force t ~lsn

let commit t ~lsn = flush_to t ~lsn

let flushed t = t.flushed
let appended t = t.next_lsn
let flushes t = t.flushes
let flush_retries t = t.flush_retries
let flush_failures t = t.flush_failures
let wal_violations t = t.violations

let note_data_writeback t ~seg ~page =
  match page_lsn t ~seg ~page with
  | Some lsn when lsn > t.flushed -> t.violations <- t.violations + 1
  | Some _ | None -> ()

let eviction_hook t ~inner ~seg ~page ~dirty =
  match inner ~seg ~page ~dirty with
  | `Discard -> `Discard
  | `Writeback ->
      (match page_lsn t ~seg ~page with
      | Some lsn when lsn > t.flushed -> (
          (* The WAL rule: log first, data after. If the log cannot be
             forced out, the data page must not reach disk either — veto
             the eviction in the manager's vocabulary so it skips the
             page (stays resident + dirty) instead of losing the rule. *)
          try flush_to t ~lsn
          with Flush_failed { attempts; _ } ->
            bump t "eviction_vetoed";
            raise (Mgr_backing.Backing_failed { op = `Write; file = seg; block = page; attempts }))
      | Some _ | None -> ());
      note_data_writeback t ~seg ~page;
      `Writeback
