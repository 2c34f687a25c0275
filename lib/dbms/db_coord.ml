type vote = Prepared | Vote_abort
type outcome = Committed | Aborted

type participant = {
  p_name : string;
  p_prepare : unit -> vote;
  p_commit : unit -> unit;
  p_abort : unit -> unit;
}

type t = {
  wal : Db_wal.t;
  net : messages:int -> unit;
  commit_records : Db_wal.lsn Sim_int_table.t;  (* by txn; 0 for none *)
  mutable committed : int;
  mutable aborted : int;
  mutable prepares : int;
  mutable messages : int;
}

let create ~wal ?(net = fun ~messages:_ -> ()) () =
  {
    wal;
    net;
    commit_records = Sim_int_table.create ~absent:0 64;
    committed = 0;
    aborted = 0;
    prepares = 0;
    messages = 0;
  }

let decide votes =
  if votes <> [] && List.for_all (fun v -> v = Prepared) votes then Committed else Aborted

let msg t n =
  t.messages <- t.messages + n;
  t.net ~messages:n

let run t ~txn participants =
  (* Phase 1: a prepare request out and a vote back per participant. *)
  let votes =
    List.map
      (fun p ->
        t.prepares <- t.prepares + 1;
        msg t 1;
        let v = p.p_prepare () in
        msg t 1;
        v)
      participants
  in
  let outcome =
    match decide votes with
    | Aborted -> Aborted
    | Committed -> (
        (* The commit point: the coordinator's commit record reaches
           disk. If the forced flush fails the record is not on the
           durable prefix, so the decision is presumed-abort — drop the
           bookkeeping entry and abort everywhere. *)
        let lsn = Db_wal.append t.wal in
        Sim_int_table.replace t.commit_records txn lsn;
        try
          Db_wal.commit t.wal ~lsn;
          Committed
        with Db_wal.Flush_failed _ ->
          Sim_int_table.remove t.commit_records txn;
          Aborted)
  in
  (* Phase 2: decision out, acknowledgement back. *)
  List.iter
    (fun p ->
      msg t 2;
      match outcome with Committed -> p.p_commit () | Aborted -> p.p_abort ())
    participants;
  (match outcome with
  | Committed -> t.committed <- t.committed + 1
  | Aborted -> t.aborted <- t.aborted + 1);
  outcome

let recover t ~txn =
  let lsn = Sim_int_table.find t.commit_records txn in
  if lsn > 0 && lsn <= Db_wal.flushed t.wal then Committed else Aborted

let committed t = t.committed
let aborted t = t.aborted
let prepares t = t.prepares
let messages t = t.messages
