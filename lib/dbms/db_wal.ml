type lsn = int

exception Flush_failed of { lsn : lsn; attempts : int }

type t = {
  disk : Hw_disk.t;
  record_bytes : int;
  retry : Mgr_backing.retry;
  group_commit : bool;
  mutable next_lsn : lsn;
  mutable flushed : lsn;
  mutable flushes : int;
  mutable flush_retries : int;
  mutable flush_failures : int;
  mutable violations : int;
  mutable forcing : bool;  (* a force is in flight, or handed to an heir *)
  mutable parks : int;
  (* Parked committers, FIFO: each one's lsn and resume. [park] is the
     one register callback every committer suspends with; it reads the
     lsn from [parking], so parking allocates nothing of its own. *)
  mutable w_lsns : lsn array;
  mutable w_resumes : (unit -> unit) array;
  mutable w_len : int;
  mutable parking : lsn;
  park : (unit -> unit) -> unit;
  page_lsns : lsn Sim_int_table.t;  (* by [page_key]; 0 for a page never written *)
}

let nobody () = ()

let enqueue t resume =
  if t.w_len = Array.length t.w_lsns then begin
    let cap = max 8 (2 * t.w_len) in
    let lsns = Array.make cap 0 and resumes = Array.make cap nobody in
    Array.blit t.w_lsns 0 lsns 0 t.w_len;
    Array.blit t.w_resumes 0 resumes 0 t.w_len;
    t.w_lsns <- lsns;
    t.w_resumes <- resumes
  end;
  t.w_lsns.(t.w_len) <- t.parking;
  t.w_resumes.(t.w_len) <- resume;
  t.w_len <- t.w_len + 1

let create disk ?(record_bytes = 256) ?(retry = Mgr_backing.default_retry)
    ?(group_commit = true) () =
  let page_lsns = Sim_int_table.create ~absent:0 64 in
  let rec t =
    {
      disk;
      record_bytes;
      retry;
      group_commit;
      next_lsn = 0;
      flushed = 0;
      flushes = 0;
      flush_retries = 0;
      flush_failures = 0;
      violations = 0;
      forcing = false;
      parks = 0;
      w_lsns = [||];
      w_resumes = [||];
      w_len = 0;
      parking = 0;
      park = (fun resume -> enqueue t resume);
      page_lsns;
    }
  in
  t

let backoff_wait us =
  if us > 0.0 then try Sim_engine.delay us with Sim_engine.Not_in_process -> ()

let append t =
  t.next_lsn <- t.next_lsn + 1;
  t.next_lsn

(* A page's key: one int, one-to-one over pages in [0, 2^32) of segments
   in [0, 2^30), so noting a write builds no tuple to hash. A negative id
   shifts to a nonzero value too. *)
let page_key ~seg ~page =
  if seg lsr 30 <> 0 || page lsr 32 <> 0 then
    invalid_arg (Printf.sprintf "Db_wal: page (%d, %d) out of range" seg page);
  (seg lsl 32) lor page

let note_page_write t ~seg ~page ~lsn = Sim_int_table.replace t.page_lsns (page_key ~seg ~page) lsn
let page_lsn t ~seg ~page = Sim_int_table.find t.page_lsns (page_key ~seg ~page)

(* One forced write of the log tail, retried with exponential backoff;
   after [max_attempts] failures the flush fails, naming the caller's
   [lsn] as the record that is not durable. *)
let rec write_retrying t ~bytes ~lsn ~max_attempts n backoff =
  try Hw_disk.write t.disk ~bytes
  with Hw_disk.Io_error _ ->
    if n >= max_attempts then begin
      t.flush_failures <- t.flush_failures + 1;
      raise (Flush_failed { lsn; attempts = n })
    end
    else begin
      t.flush_retries <- t.flush_retries + 1;
      backoff_wait backoff;
      write_retrying t ~bytes ~lsn ~max_attempts (n + 1) (backoff *. 2.0)
    end

(* Write every record from the durable prefix through [target] in one
   transfer. [flushed] advances only after the transfer succeeds, so a
   torn (failed) write leaves the durable prefix exactly where it was —
   recovery replays from there and commit never acknowledges lost
   records. *)
let force t ~lsn ~target =
  let bytes = max t.record_bytes ((target - t.flushed) * t.record_bytes) in
  write_retrying t ~bytes ~lsn ~max_attempts:(max 1 t.retry.attempts) 1 t.retry.backoff_us;
  if target > t.flushed then t.flushed <- target;
  t.flushes <- t.flushes + 1

(* A force has landed or torn: wake, in arrival order, every parked
   committer it made durable, and hand the log to the first one still
   waiting — the heir leads the next force. With no heir the log goes
   idle. *)
let finish_force t =
  let kept = ref 0 and heir = ref nobody in
  for i = 0 to t.w_len - 1 do
    let resume = t.w_resumes.(i) in
    t.w_resumes.(i) <- nobody;
    if t.w_lsns.(i) <= t.flushed then resume ()
    else if !heir == nobody then heir := resume
    else begin
      t.w_lsns.(!kept) <- t.w_lsns.(i);
      t.w_resumes.(!kept) <- resume;
      incr kept
    end
  done;
  t.w_len <- !kept;
  if !heir == nobody then t.forcing <- false else !heir ()

let lead t ~lsn =
  match force t ~lsn ~target:t.next_lsn with
  | () -> finish_force t
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish_force t;
      Printexc.raise_with_backtrace e bt

(* Group commit: at most one force in flight per log, carrying every
   record appended when it is issued. A committer that finds one in
   flight parks, and is woken only once a force has made its record
   durable, or as the heir. [forcing] stays set across the hand-off, so
   no later arrival can overtake the heir: a woken committer whose
   record is still not durable is the heir, and leads. A torn force
   acknowledges nobody and hands off like a landed one, so each parked
   committer still not durable leads a force with its own retry budget
   in turn. *)
let group_force t ~lsn =
  if lsn > t.flushed then
    if t.forcing then begin
      t.parks <- t.parks + 1;
      t.parking <- lsn;
      Sim_engine.park t.park;
      if lsn > t.flushed then lead t ~lsn
    end
    else begin
      t.forcing <- true;
      lead t ~lsn
    end

(* Per-commit forcing, the reference group commit is measured against:
   every caller issues its own transfer, sized from the durable prefix
   it sees when it starts. *)
let force_now t ~lsn = force t ~lsn ~target:(min lsn t.next_lsn)

let force_to t ~lsn = if t.group_commit then group_force t ~lsn else force_now t ~lsn

(* Flush latency (for a parked committer: the wait for the in-flight
   force, then its own, retry backoffs included) lands in the disk's
   metrics sink under kind "wal.flush" — when that sink is enabled and
   the flush runs inside a simulation process. Otherwise a flush is
   [force_to] alone. *)
let flush_to t ~lsn =
  if lsn > t.flushed then
    match Hw_disk.metrics t.disk with
    | Some m when Sim_metrics.enabled m -> (
        match Sim_engine.time () with
        | exception Sim_engine.Not_in_process -> force_to t ~lsn
        | t0 -> (
            match force_to t ~lsn with
            | () -> Sim_metrics.observe m ~kind:"wal.flush" (Sim_engine.time () -. t0)
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                Sim_metrics.observe m ~kind:"wal.flush" (Sim_engine.time () -. t0);
                Printexc.raise_with_backtrace e bt))
    | _ -> force_to t ~lsn

let commit t ~lsn = flush_to t ~lsn

let flushed t = t.flushed
let appended t = t.next_lsn
let flushes t = t.flushes
let flush_retries t = t.flush_retries
let flush_failures t = t.flush_failures
let group_parks t = t.parks
let wal_violations t = t.violations

let note_data_writeback t ~seg ~page =
  if page_lsn t ~seg ~page > t.flushed then t.violations <- t.violations + 1

let eviction_hook t ~inner ~seg ~page ~dirty =
  match inner ~seg ~page ~dirty with
  | `Discard -> `Discard
  | `Writeback ->
      let lsn = page_lsn t ~seg ~page in
      if lsn > t.flushed then begin
        (* The WAL rule: log first, data after. If the log cannot be
           forced out, the data page must not reach disk either — veto
           the eviction in the manager's vocabulary so it skips the page
           (stays resident + dirty) instead of losing the rule. *)
        try flush_to t ~lsn
        with Flush_failed { attempts; _ } ->
          raise (Mgr_backing.Backing_failed { op = `Write; file = seg; block = page; attempts })
      end;
      note_data_writeback t ~seg ~page;
      `Writeback
