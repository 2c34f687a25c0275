type mode = IS | IX | S | X

type resource = Database | Relation of int | Page of int * int

type txn = int

let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S) | (IX | S), IS -> true
  | IX, IX | S, S -> true
  | IS, X | X, IS | IX, (S | X) | (S | X), IX | S, X | X, (S | X) -> false

let covers ~held ~wanted =
  match (held, wanted) with
  | X, _ -> true
  | S, (S | IS) -> true
  | IX, (IX | IS) -> true
  | IS, IS -> true
  | (S | IX | IS), _ -> false

let pp_mode ppf = function
  | IS -> Format.pp_print_string ppf "IS"
  | IX -> Format.pp_print_string ppf "IX"
  | S -> Format.pp_print_string ppf "S"
  | X -> Format.pp_print_string ppf "X"

(* A resource's key: one int whose order is the global acquisition order
   (database, then relations by id, then pages by (relation, page)), with
   the kind in bits 60-61, the relation in bits 32-59 and the page in
   bits 0-31. Release visits a transaction's resources in key order, and
   since release wakes waiters, it fixes the order of the events that
   follow. *)
let relation_bits = 28
let page_bits = 32

let out_of_range what = invalid_arg ("Db_locks: " ^ what ^ " out of range")

(* A negative id shifts to a nonzero value too. *)
let key = function
  | Database -> 0
  | Relation rel ->
      if rel lsr relation_bits <> 0 then out_of_range (Printf.sprintf "Relation %d" rel);
      (1 lsl 60) lor (rel lsl page_bits)
  | Page (rel, page) ->
      if rel lsr relation_bits <> 0 || page lsr page_bits <> 0 then
        out_of_range (Printf.sprintf "Page (%d, %d)" rel page);
      (2 lsl 60) lor (rel lsl page_bits) lor page

let resource_of_key k =
  let rel = (k lsr page_bits) land ((1 lsl relation_bits) - 1) in
  match k lsr 60 with
  | 0 -> Database
  | 1 -> Relation rel
  | _ -> Page (rel, k land ((1 lsl page_bits) - 1))

type waiter_state = Waiting | Granted | Cancelled

(* One transaction's hold on one resource. It sits in two lists, both
   ended by [none]: the resource's holders, newest first ([g_next]), and
   the transaction's held resources, ascending by key and without
   duplicates ([g_held]). *)
type grant = {
  g_txn : txn;
  g_mode : mode;
  g_node : node;
  mutable g_next : grant;
  mutable g_held : grant;
}

and node = { key : int; mutable granted : grant; waiters : waiter Queue.t }

(* A waiter is resumed with its grant, or with [none] when its deadline
   expired. *)
and waiter = {
  w_txn : txn;
  w_mode : mode;
  mutable w_resume : grant -> unit;
  mutable w_state : waiter_state;
}

(* The end of every list and the tables' miss value; never mutated, so
   domains running separate lock tables can share it. *)
let rec none = { g_txn = 0; g_mode = IS; g_node = no_node; g_next = none; g_held = none }
and no_node = { key = -1; granted = none; waiters = Queue.create () }

type t = {
  nodes : node Sim_int_table.t;  (* by [key] *)
  by_txn : grant Sim_int_table.t;  (* the head of each transaction's held list *)
  mutable blocked : int;
  mutable total_blocked : int;
  mutable timeouts : int;
}

let create () =
  {
    nodes = Sim_int_table.create ~absent:no_node 64;
    by_txn = Sim_int_table.create ~absent:none 16;
    blocked = 0;
    total_blocked = 0;
    timeouts = 0;
  }

let node t r =
  let k = key r in
  let n = Sim_int_table.find t.nodes k in
  if n != no_node then n
  else begin
    let n = { key = k; granted = none; waiters = Queue.create () } in
    Sim_int_table.replace t.nodes k n;
    n
  end

(* The helpers below walk the lists with plain recursion: they run on
   every acquire and release, so they allocate nothing (no closures, no
   options, no rebuilt cells). *)

(* [txn]'s first grant in a holder list, or [none]. *)
let rec grant_of ~txn g = if g == none || g.g_txn = txn then g else grant_of ~txn g.g_next

let rec grantable_in ~txn ~mode g =
  g == none || ((g.g_txn = txn || compatible g.g_mode mode) && grantable_in ~txn ~mode g.g_next)

let grantable n ~txn ~mode = grantable_in ~txn ~mode n.granted

(* Unlinks every grant of [txn] from [n]'s holders, in place, keeping the
   others in order. *)
let rec unlink_after ~txn prev =
  let g = prev.g_next in
  if g != none then
    if g.g_txn = txn then begin
      prev.g_next <- g.g_next;
      unlink_after ~txn prev
    end
    else unlink_after ~txn g

let rec drop_head ~txn g = if g != none && g.g_txn = txn then drop_head ~txn g.g_next else g

let unlink n ~txn =
  let head = drop_head ~txn n.granted in
  n.granted <- head;
  if head != none then unlink_after ~txn head

let rec link_after prev g =
  let next = prev.g_held in
  if next == none || g.g_node.key < next.g_node.key then begin
    g.g_held <- next;
    prev.g_held <- g
  end
  else if g.g_node.key > next.g_node.key then link_after next g

(* Links a new grant into its transaction's held list. A resource already
   on the list is not linked again: [release_all] drops every grant of the
   transaction from each resource it visits. *)
let record t g =
  let head = Sim_int_table.find t.by_txn g.g_txn in
  if head == none || g.g_node.key < head.g_node.key then begin
    g.g_held <- head;
    Sim_int_table.replace t.by_txn g.g_txn g
  end
  else if g.g_node.key > head.g_node.key then link_after head g

let new_grant n ~txn ~mode =
  let g = { g_txn = txn; g_mode = mode; g_node = n; g_next = n.granted; g_held = none } in
  n.granted <- g;
  g

let upgrade_error fn ~held ~mode =
  invalid_arg (Format.asprintf "Db_locks.%s: upgrade %a -> %a unsupported" fn pp_mode held pp_mode mode)

let acquire t ~txn r mode =
  let n = node t r in
  let g = grant_of ~txn n.granted in
  if g != none then begin
    if not (covers ~held:g.g_mode ~wanted:mode) then upgrade_error "acquire" ~held:g.g_mode ~mode
  end
  else if Queue.is_empty n.waiters && grantable n ~txn ~mode then record t (new_grant n ~txn ~mode)
  else begin
    t.blocked <- t.blocked + 1;
    t.total_blocked <- t.total_blocked + 1;
    (* We are resumed only once [wake] has granted the lock on our
       behalf. *)
    record t
      (Sim_engine.suspend (fun resume ->
           Queue.add
             { w_txn = txn; w_mode = mode; w_resume = resume; w_state = Waiting }
             n.waiters))
  end

let try_acquire t ~txn r mode =
  let n = node t r in
  let g = grant_of ~txn n.granted in
  if g != none then covers ~held:g.g_mode ~wanted:mode
  else if Queue.is_empty n.waiters && grantable n ~txn ~mode then begin
    record t (new_grant n ~txn ~mode);
    true
  end
  else false

(* Grant from the head of the queue while compatible (FIFO, no
   overtaking). Waiters cancelled by a timeout are tombstones: they are
   skipped here and never granted. *)
let rec wake t n =
  if not (Queue.is_empty n.waiters) then begin
    let w = Queue.peek n.waiters in
    if w.w_state = Cancelled then begin
      ignore (Queue.pop n.waiters);
      wake t n
    end
    else if grantable n ~txn:w.w_txn ~mode:w.w_mode then begin
      ignore (Queue.pop n.waiters);
      let g = new_grant n ~txn:w.w_txn ~mode:w.w_mode in
      w.w_state <- Granted;
      t.blocked <- t.blocked - 1;
      w.w_resume g;
      wake t n
    end
  end

let acquire_timeout t ~txn r mode ~timeout_us =
  let n = node t r in
  let g = grant_of ~txn n.granted in
  if g != none then
    covers ~held:g.g_mode ~wanted:mode || upgrade_error "acquire_timeout" ~held:g.g_mode ~mode
  else if Queue.is_empty n.waiters && grantable n ~txn ~mode then begin
    record t (new_grant n ~txn ~mode);
    true
  end
  else begin
    t.blocked <- t.blocked + 1;
    t.total_blocked <- t.total_blocked + 1;
    let w = { w_txn = txn; w_mode = mode; w_resume = ignore; w_state = Waiting } in
    (* The deadline runs as its own process; if the waiter is still
       parked when it fires, the waiter is cancelled in place (wake
       skips it) and resumed with [none]. A cancelled head may have been
       the only thing blocking compatible waiters behind it, so give
       them a chance. The fork must happen here, in the waiting process,
       not inside [suspend]'s register callback (which runs on the
       scheduler stack where effects have no handler); the timer cannot
       fire before registration because registration completes within
       the same event. *)
    Sim_engine.fork ~name:"lock-timeout" (fun () ->
        Sim_engine.delay timeout_us;
        if w.w_state = Waiting then begin
          w.w_state <- Cancelled;
          t.blocked <- t.blocked - 1;
          t.timeouts <- t.timeouts + 1;
          wake t n;
          w.w_resume none
        end);
    let g =
      Sim_engine.suspend (fun resume ->
          w.w_resume <- resume;
          Queue.add w n.waiters)
    in
    if g == none then false
    else begin
      record t g;
      true
    end
  end

let rec release_from t ~txn g =
  if g != none then begin
    unlink g.g_node ~txn;
    wake t g.g_node;
    release_from t ~txn g.g_held
  end

let release_all t ~txn =
  let head = Sim_int_table.find t.by_txn txn in
  if head != none then begin
    Sim_int_table.remove t.by_txn txn;
    release_from t ~txn head
  end

let held t ~txn =
  let rec collect g =
    if g == none then []
    else
      let h = grant_of ~txn g.g_node.granted in
      if h == none then collect g.g_held
      else (resource_of_key g.g_node.key, h.g_mode) :: collect g.g_held
  in
  collect (Sim_int_table.find t.by_txn txn)

let waiting t = t.blocked
let total_blocked t = t.total_blocked
let timeouts t = t.timeouts
