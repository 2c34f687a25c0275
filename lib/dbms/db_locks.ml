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

(* The order polymorphic [compare] gives resources — database, then
   relations by id, then pages by (relation, page) — which is also the
   global acquisition order. Release visits resources in it, and since
   release wakes waiters, it fixes the order of the events that follow. *)
let compare_resource a b =
  match (a, b) with
  | Database, Database -> 0
  | Database, _ -> -1
  | _, Database -> 1
  | Relation x, Relation y -> Int.compare x y
  | Relation _, Page _ -> -1
  | Page _, Relation _ -> 1
  | Page (r, p), Page (r', p') ->
      let c = Int.compare r r' in
      if c <> 0 then c else Int.compare p p'

type waiter_state = Waiting | Granted | Cancelled

type waiter = {
  w_txn : txn;
  w_mode : mode;
  mutable w_resume : bool -> unit;
  mutable w_state : waiter_state;
}

(* Holders of one resource, newest first. *)
type grants = No_grant | Grant of txn * mode * grants

type node = {
  mutable granted : grants;
  waiters : waiter Queue.t;
}

type t = {
  nodes : (resource, node) Hashtbl.t;
  by_txn : (txn, resource list) Hashtbl.t;
      (* what each transaction holds, deduplicated, in descending
         [compare_resource] order *)
  mutable blocked : int;
  mutable total_blocked : int;
  mutable timeouts : int;
}

let create () =
  {
    nodes = Hashtbl.create 256;
    by_txn = Hashtbl.create 64;
    blocked = 0;
    total_blocked = 0;
    timeouts = 0;
  }

let node t r =
  match Hashtbl.find t.nodes r with
  | n -> n
  | exception Not_found ->
      let n = { granted = No_grant; waiters = Queue.create () } in
      Hashtbl.replace t.nodes r n;
      n

(* The helpers below walk the grant list with plain recursion: they run on
   every acquire and release, so they allocate nothing (no closures, no
   options) beyond the cells a release must rebuild. *)

let rec mode_held ~txn = function
  | No_grant -> raise Not_found
  | Grant (holder, m, rest) -> if holder = txn then m else mode_held ~txn rest

let rec grantable_in ~txn ~mode = function
  | No_grant -> true
  | Grant (holder, m, rest) -> (holder = txn || compatible m mode) && grantable_in ~txn ~mode rest

let grantable n ~txn ~mode = grantable_in ~txn ~mode n.granted

(* [g] without [txn]'s grants, in order; shares the tail past the last one. *)
let rec without ~txn g =
  match g with
  | No_grant -> g
  | Grant (holder, m, rest) ->
      let rest' = without ~txn rest in
      if holder = txn then rest' else if rest' == rest then g else Grant (holder, m, rest')

let rec insert_desc r = function
  | [] -> [ r ]
  | x :: rest as l ->
      let c = compare_resource r x in
      if c > 0 then r :: l else if c = 0 then l else x :: insert_desc r rest

let record t ~txn r =
  match Hashtbl.find t.by_txn txn with
  | held -> Hashtbl.replace t.by_txn txn (insert_desc r held)
  | exception Not_found -> Hashtbl.replace t.by_txn txn [ r ]

let grant t n ~txn r mode =
  n.granted <- Grant (txn, mode, n.granted);
  record t ~txn r

let upgrade_error fn ~held ~mode =
  invalid_arg (Format.asprintf "Db_locks.%s: upgrade %a -> %a unsupported" fn pp_mode held pp_mode mode)

let acquire t ~txn r mode =
  let n = node t r in
  match mode_held ~txn n.granted with
  | held -> if not (covers ~held ~wanted:mode) then upgrade_error "acquire" ~held ~mode
  | exception Not_found ->
      if Queue.is_empty n.waiters && grantable n ~txn ~mode then grant t n ~txn r mode
      else begin
        t.blocked <- t.blocked + 1;
        t.total_blocked <- t.total_blocked + 1;
        ignore
          (Sim_engine.suspend (fun resume ->
               Queue.add
                 { w_txn = txn; w_mode = mode; w_resume = resume; w_state = Waiting }
                 n.waiters)
            : bool);
        (* We are resumed only once the lock has been granted on our
           behalf by [wake]. *)
        record t ~txn r
      end

let try_acquire t ~txn r mode =
  let n = node t r in
  match mode_held ~txn n.granted with
  | held -> covers ~held ~wanted:mode
  | exception Not_found ->
      if Queue.is_empty n.waiters && grantable n ~txn ~mode then begin
        grant t n ~txn r mode;
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
      n.granted <- Grant (w.w_txn, w.w_mode, n.granted);
      w.w_state <- Granted;
      t.blocked <- t.blocked - 1;
      w.w_resume true;
      wake t n
    end
  end

let acquire_timeout t ~txn r mode ~timeout_us =
  let n = node t r in
  match mode_held ~txn n.granted with
  | held ->
      if covers ~held ~wanted:mode then true else upgrade_error "acquire_timeout" ~held ~mode
  | exception Not_found ->
      if Queue.is_empty n.waiters && grantable n ~txn ~mode then begin
        grant t n ~txn r mode;
        true
      end
      else begin
        t.blocked <- t.blocked + 1;
        t.total_blocked <- t.total_blocked + 1;
        let w = { w_txn = txn; w_mode = mode; w_resume = ignore; w_state = Waiting } in
        (* The deadline runs as its own process; if the waiter is still
           parked when it fires, the waiter is cancelled in place (wake
           skips it) and resumed with [false]. A cancelled head may have
           been the only thing blocking compatible waiters behind it, so
           give them a chance. The fork must happen here, in the waiting
           process, not inside [suspend]'s register callback (which runs
           on the scheduler stack where effects have no handler); the
           timer cannot fire before registration because registration
           completes within the same event. *)
        Sim_engine.fork ~name:"lock-timeout" (fun () ->
            Sim_engine.delay timeout_us;
            if w.w_state = Waiting then begin
              w.w_state <- Cancelled;
              t.blocked <- t.blocked - 1;
              t.timeouts <- t.timeouts + 1;
              wake t n;
              w.w_resume false
            end);
        let granted =
          Sim_engine.suspend (fun resume ->
              w.w_resume <- resume;
              Queue.add w n.waiters)
        in
        if granted then record t ~txn r;
        granted
      end

let release_one t ~txn r =
  match Hashtbl.find t.nodes r with
  | n ->
      n.granted <- without ~txn n.granted;
      wake t n
  | exception Not_found -> ()

(* Visits a descending list from its last element: ascending order. *)
let rec release_ascending t ~txn = function
  | [] -> ()
  | r :: rest ->
      release_ascending t ~txn rest;
      release_one t ~txn r

let release_all t ~txn =
  match Hashtbl.find t.by_txn txn with
  | resources ->
      Hashtbl.remove t.by_txn txn;
      release_ascending t ~txn resources
  | exception Not_found -> ()

let held t ~txn =
  match Hashtbl.find t.by_txn txn with
  | resources ->
      List.rev resources
      |> List.filter_map (fun r ->
             match mode_held ~txn (node t r).granted with
             | m -> Some (r, m)
             | exception Not_found -> None)
  | exception Not_found -> []

let waiting t = t.blocked
let total_blocked t = t.total_blocked
let timeouts t = t.timeouts
