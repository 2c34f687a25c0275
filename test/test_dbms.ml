(* Tests for the database substrate: the hierarchical lock manager and the
   transaction engine. *)

module L = Db_locks
module Engine = Sim_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Compatibility matrix                                                *)
(* ------------------------------------------------------------------ *)

let test_compat_matrix () =
  let expect a b v =
    check_bool
      (Format.asprintf "%a/%a" L.pp_mode a L.pp_mode b)
      v (L.compatible a b)
  in
  expect L.IS L.IS true;
  expect L.IS L.IX true;
  expect L.IS L.S true;
  expect L.IS L.X false;
  expect L.IX L.IX true;
  expect L.IX L.S false;
  expect L.IX L.X false;
  expect L.S L.S true;
  expect L.S L.X false;
  expect L.X L.X false

let prop_compat_symmetric =
  let mode_gen = QCheck.oneofl [ L.IS; L.IX; L.S; L.X ] in
  QCheck.Test.make ~name:"lock compatibility is symmetric" ~count:100
    QCheck.(pair mode_gen mode_gen)
    (fun (a, b) -> L.compatible a b = L.compatible b a)

let test_covers () =
  check_bool "X covers S" true (L.covers ~held:L.X ~wanted:L.S);
  check_bool "S covers IS" true (L.covers ~held:L.S ~wanted:L.IS);
  check_bool "IX covers IS" true (L.covers ~held:L.IX ~wanted:L.IS);
  check_bool "S does not cover IX" false (L.covers ~held:L.S ~wanted:L.IX);
  check_bool "IS does not cover S" false (L.covers ~held:L.IS ~wanted:L.S)

(* ------------------------------------------------------------------ *)
(* Blocking behaviour                                                  *)
(* ------------------------------------------------------------------ *)

let test_exclusive_blocks_and_fifo () =
  let e = Engine.create () in
  let locks = L.create () in
  let order = ref [] in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 L.Database L.X;
      Engine.delay 100.0;
      order := "t1-release" :: !order;
      L.release_all locks ~txn:1);
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      L.acquire locks ~txn:2 L.Database L.X;
      order := "t2-got" :: !order;
      L.release_all locks ~txn:2);
  Engine.spawn e (fun () ->
      Engine.delay 20.0;
      L.acquire locks ~txn:3 L.Database L.X;
      order := "t3-got" :: !order;
      L.release_all locks ~txn:3);
  Engine.run e;
  Alcotest.(check (list string))
    "FIFO grant order" [ "t1-release"; "t2-got"; "t3-got" ] (List.rev !order);
  check_int "blocked twice in total" 2 (L.total_blocked locks)

let test_shared_coexist () =
  let e = Engine.create () in
  let locks = L.create () in
  let concurrently = ref 0 and peak = ref 0 in
  for t = 1 to 3 do
    Engine.spawn e (fun () ->
        L.acquire locks ~txn:t (L.Relation 1) L.S;
        incr concurrently;
        if !concurrently > !peak then peak := !concurrently;
        Engine.delay 50.0;
        decr concurrently;
        L.release_all locks ~txn:t)
  done;
  Engine.run e;
  check_int "all shared at once" 3 !peak;
  check_int "nobody blocked" 0 (L.total_blocked locks)

let test_intention_hierarchy_conflict () =
  (* The Table 4 mechanism: X on the database node blocks every IX
     acquirer (the index latch convoy). *)
  let e = Engine.create () in
  let locks = L.create () in
  let blocked_interval = ref (0.0, 0.0) in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 L.Database L.X;
      Engine.delay 1000.0;
      L.release_all locks ~txn:1);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      let t0 = Engine.time () in
      L.acquire locks ~txn:2 L.Database L.IX;
      blocked_interval := (t0, Engine.time ());
      L.release_all locks ~txn:2);
  Engine.run e;
  let t0, t1 = !blocked_interval in
  check_bool "IX waited for the X holder" true (t1 -. t0 > 990.0)

let test_no_overtaking_x_waiter () =
  (* An IX request arriving after a queued X must not sneak past it, or
     the X could starve. *)
  let e = Engine.create () in
  let locks = L.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 L.Database L.IX;
      Engine.delay 100.0;
      L.release_all locks ~txn:1);
  Engine.spawn e (fun () ->
      Engine.delay 5.0;
      L.acquire locks ~txn:2 L.Database L.X;
      log := "x-got" :: !log;
      Engine.delay 10.0;
      L.release_all locks ~txn:2);
  Engine.spawn e (fun () ->
      Engine.delay 10.0;
      (* Compatible with the IX holder, but queued behind the X waiter. *)
      L.acquire locks ~txn:3 L.Database L.IX;
      log := "ix-got" :: !log;
      L.release_all locks ~txn:3);
  Engine.run e;
  Alcotest.(check (list string)) "X first, then the later IX" [ "x-got"; "ix-got" ]
    (List.rev !log)

let test_reacquire_held_is_noop () =
  let e = Engine.create () in
  let locks = L.create () in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 (L.Relation 0) L.X;
      L.acquire locks ~txn:1 (L.Relation 0) L.S;
      (* covered by X *)
      L.acquire locks ~txn:1 (L.Relation 0) L.X;
      check_int "held one resource" 1 (List.length (L.held locks ~txn:1));
      L.release_all locks ~txn:1);
  Engine.run e;
  check_int "no self-blocking" 0 (L.total_blocked locks)

let test_upgrade_rejected () =
  let e = Engine.create () in
  let locks = L.create () in
  let raised = ref false in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 (L.Relation 0) L.S;
      (match L.acquire locks ~txn:1 (L.Relation 0) L.X with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
      L.release_all locks ~txn:1);
  Engine.run e;
  check_bool "upgrade rejected" true !raised

(* Both blocking acquires name the refused upgrade the same way. *)
let test_upgrade_messages () =
  let e = Engine.create () in
  let locks = L.create () in
  let got = ref [] in
  let attempt f = match f () with _ -> () | exception Invalid_argument m -> got := m :: !got in
  Engine.spawn e (fun () ->
      L.acquire locks ~txn:1 (L.Relation 0) L.IS;
      attempt (fun () -> L.acquire locks ~txn:1 (L.Relation 0) L.X);
      L.acquire locks ~txn:1 (L.Page (0, 3)) L.S;
      attempt (fun () -> L.acquire_timeout locks ~txn:1 (L.Page (0, 3)) L.IX ~timeout_us:10.0);
      L.release_all locks ~txn:1);
  Engine.run e;
  Alcotest.(check (list string))
    "messages"
    [
      "Db_locks.acquire: upgrade IS -> X unsupported";
      "Db_locks.acquire_timeout: upgrade S -> IX unsupported";
    ]
    (List.rev !got)

let test_try_acquire () =
  let e = Engine.create () in
  let locks = L.create () in
  Engine.spawn e (fun () ->
      check_bool "first try succeeds" true (L.try_acquire locks ~txn:1 L.Database L.X);
      check_bool "conflicting try fails" false (L.try_acquire locks ~txn:2 L.Database L.IS);
      L.release_all locks ~txn:1;
      check_bool "after release succeeds" true (L.try_acquire locks ~txn:2 L.Database L.IS));
  Engine.run e

let pp_resource ppf = function
  | L.Database -> Format.pp_print_string ppf "Database"
  | L.Relation r -> Format.fprintf ppf "Relation %d" r
  | L.Page (r, p) -> Format.fprintf ppf "Page (%d, %d)" r p

let pp_lock ppf (r, m) = Format.fprintf ppf "%a %a" pp_resource r L.pp_mode m

(* A resource's key packs the relation into 28 bits and the page into
   32: ids outside those ranges (negative ones included) are refused by
   every entry point, and the extremes of the ranges keep their identity
   and their place in the acquisition order. *)
let test_resource_ranges () =
  let e = Engine.create () in
  let locks = L.create () in
  let refused = ref [] in
  let refuse f =
    match f () with _ -> () | exception Invalid_argument m -> refused := m :: !refused
  in
  let top_rel = (1 lsl 28) - 1 and top_page = (1 lsl 32) - 1 in
  Engine.spawn e (fun () ->
      refuse (fun () -> L.acquire locks ~txn:1 (L.Relation (1 lsl 28)) L.S);
      refuse (fun () -> L.try_acquire locks ~txn:1 (L.Relation (-1)) L.S);
      refuse (fun () -> L.acquire_timeout locks ~txn:1 (L.Page (0, 1 lsl 32)) L.X ~timeout_us:1.0);
      refuse (fun () -> L.acquire locks ~txn:1 (L.Page (-1, 0)) L.X);
      refuse (fun () -> L.acquire locks ~txn:1 (L.Page (0, -1)) L.X);
      L.acquire locks ~txn:1 (L.Page (top_rel, top_page)) L.X;
      L.acquire locks ~txn:1 (L.Page (top_rel, 0)) L.S;
      L.acquire locks ~txn:1 (L.Page (0, top_page)) L.S;
      L.acquire locks ~txn:1 (L.Relation top_rel) L.IX;
      L.acquire locks ~txn:1 L.Database L.IX;
      Alcotest.(check (list string))
        "held, in acquisition order"
        [
          "Database IX";
          Printf.sprintf "Relation %d IX" top_rel;
          Printf.sprintf "Page (0, %d) S" top_page;
          Printf.sprintf "Page (%d, 0) S" top_rel;
          Printf.sprintf "Page (%d, %d) X" top_rel top_page;
        ]
        (List.map (Format.asprintf "%a" pp_lock) (L.held locks ~txn:1));
      check_bool "a top page excludes another txn" false
        (L.try_acquire locks ~txn:2 (L.Page (top_rel, top_page)) L.S);
      check_bool "its neighbour does not" true
        (L.try_acquire locks ~txn:2 (L.Page (top_rel, top_page - 1)) L.X);
      L.release_all locks ~txn:1;
      L.release_all locks ~txn:2);
  Engine.run e;
  Alcotest.(check (list string))
    "refusals"
    [
      "Db_locks: Relation 268435456 out of range";
      "Db_locks: Relation -1 out of range";
      "Db_locks: Page (0, 4294967296) out of range";
      "Db_locks: Page (-1, 0) out of range";
      "Db_locks: Page (0, -1) out of range";
    ]
    (List.rev !refused);
  check_int "nothing left held" 0 (List.length (L.held locks ~txn:1))

(* ------------------------------------------------------------------ *)
(* Differential test against the polymorphic-table lock manager       *)
(* ------------------------------------------------------------------ *)

(* The lock manager as it was before its tables were keyed by one int:
   resources and transactions hashed and compared through the
   polymorphic [Hashtbl], each grant list rebuilt on release. Its
   behaviour is the specification the int-keyed tables must keep, wake-up
   order included, since that order fixes the events that follow. *)
module Ref_locks = struct
  type mode = L.mode = IS | IX | S | X
  type resource = L.resource = Database | Relation of int | Page of int * int
  type txn = int

  let compatible = L.compatible
  let covers = L.covers
  let pp_mode = L.pp_mode

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
end

module type LOCKS = sig
  type t

  val create : unit -> t
  val acquire : t -> txn:int -> L.resource -> L.mode -> unit
  val try_acquire : t -> txn:int -> L.resource -> L.mode -> bool
  val acquire_timeout : t -> txn:int -> L.resource -> L.mode -> timeout_us:float -> bool
  val release_all : t -> txn:int -> unit
  val held : t -> txn:int -> (L.resource * L.mode) list
  val waiting : t -> int
  val total_blocked : t -> int
  val timeouts : t -> int
end

type lock_op =
  | Acquire of L.resource * L.mode
  | Try of L.resource * L.mode
  | Timed of L.resource * L.mode * float
  | Release
  | Pause of float

(* What a process saw when one of its operations returned: the time, its
   transaction, the outcome, and the table's state at that moment. The
   order of these entries is the order processes were resumed in. *)
type observation = {
  o_time : float;
  o_txn : int;
  o_outcome : string;
  o_held : (L.resource * L.mode) list list;  (* every transaction's, by txn id *)
  o_waiting : int;
  o_blocked : int;
  o_timeouts : int;
}

(* Runs one process per script, process [p] as transaction
   [1 + p mod txns] (so processes may share a transaction), and returns
   every observation in order, then the final one. *)
let run_locks (module M : LOCKS) ~txns scripts =
  let e = Engine.create () in
  let l = M.create () in
  let log = ref [] in
  let observe txn outcome =
    log :=
      {
        o_time = (try Engine.time () with Engine.Not_in_process -> Engine.now e);
        o_txn = txn;
        o_outcome = outcome;
        o_held = List.init txns (fun i -> M.held l ~txn:(i + 1));
        o_waiting = M.waiting l;
        o_blocked = M.total_blocked l;
        o_timeouts = M.timeouts l;
      }
      :: !log
  in
  List.iteri
    (fun p ops ->
      let txn = 1 + (p mod txns) in
      Engine.spawn e (fun () ->
          List.iter
            (fun op ->
              let outcome =
                match op with
                | Acquire (r, m) -> (
                    match M.acquire l ~txn r m with
                    | () -> "acquired"
                    | exception Invalid_argument msg -> msg)
                | Try (r, m) -> string_of_bool (M.try_acquire l ~txn r m)
                | Timed (r, m, timeout_us) -> (
                    match M.acquire_timeout l ~txn r m ~timeout_us with
                    | granted -> string_of_bool granted
                    | exception Invalid_argument msg -> msg)
                | Release ->
                    M.release_all l ~txn;
                    "released"
                | Pause us ->
                    Engine.delay us;
                    "paused"
              in
              observe txn outcome)
            ops))
    scripts;
  Engine.run e;
  observe 0 (Printf.sprintf "end, %d processes blocked" (Engine.live_processes e));
  List.rev !log

let lock_op_gen =
  let open QCheck.Gen in
  let resource =
    frequency
      [
        (2, return L.Database);
        (3, map (fun r -> L.Relation r) (int_bound 1));
        (5, map2 (fun r p -> L.Page (r, p)) (int_bound 1) (int_bound 2));
      ]
  in
  let mode = oneofl [ L.IS; L.IX; L.S; L.X ] in
  frequency
    [
      (5, map2 (fun r m -> Acquire (r, m)) resource mode);
      (2, map2 (fun r m -> Try (r, m)) resource mode);
      (3, map3 (fun r m t -> Timed (r, m, float_of_int t)) resource mode (int_range 1 30));
      (3, return Release);
      (4, map (fun t -> Pause (float_of_int t)) (int_bound 20));
    ]

let show_lock_op = function
  | Acquire (r, m) -> Format.asprintf "acquire %a" pp_lock (r, m)
  | Try (r, m) -> Format.asprintf "try %a" pp_lock (r, m)
  | Timed (r, m, t) -> Format.asprintf "timed %a %.0f" pp_lock (r, m) t
  | Release -> "release"
  | Pause t -> Printf.sprintf "pause %.0f" t

(* Random sequences over few resources, so acquisitions collide, covered
   modes are re-acquired, upgrades are refused and deadlines expire (a
   process may also block for good; both tables must agree on that too).
   Every script ends by releasing. *)
let prop_locks_match_reference =
  let gen =
    QCheck.Gen.(
      let script = map (fun ops -> ops @ [ Release ]) (list_size (int_range 1 12) lock_op_gen) in
      pair (int_range 1 6) (list_size (int_range 2 6) script))
  in
  let print (txns, scripts) =
    Printf.sprintf "txns %d\n%s" txns
      (String.concat "\n"
         (List.map (fun ops -> String.concat "; " (List.map show_lock_op ops)) scripts))
  in
  QCheck.Test.make ~name:"lock table matches the polymorphic-table reference" ~count:500
    (QCheck.make ~print gen) (fun (txns, scripts) ->
      let txns = min txns (List.length scripts) in
      run_locks (module L) ~txns scripts = run_locks (module Ref_locks) ~txns scripts)

(* ------------------------------------------------------------------ *)
(* B+-tree layout                                                     *)
(* ------------------------------------------------------------------ *)

let test_btree_1mb_shape () =
  (* The Table 4 index: 256 pages at fanout 128 is a 3-level tree. *)
  let t = Db_btree.create ~pages:256 () in
  check_int "three levels" 3 (Db_btree.depth t);
  check_bool "uses most of the budget" true (Db_btree.pages t > 250 && Db_btree.pages t <= 256);
  check_int "path length = depth" 3 (List.length (Db_btree.lookup_path t ~key:12345))

let test_btree_single_page () =
  let t = Db_btree.create ~pages:1 () in
  check_int "one level" 1 (Db_btree.depth t);
  check_int "path is the root" 1 (List.length (Db_btree.lookup_path t ~key:0));
  Alcotest.(check (list int)) "root only" [ 0 ] (Db_btree.lookup_path t ~key:7)

let test_btree_path_structure () =
  let t = Db_btree.create ~fanout:4 ~pages:30 () in
  (* Every path starts at the root, ends at the key's leaf, and every page
     is in range. *)
  for key = 0 to Db_btree.keys t - 1 do
    match Db_btree.lookup_path t ~key with
    | [] -> Alcotest.fail "empty path"
    | root :: _ as path ->
        check_int "starts at root" (Db_btree.root_page t) root;
        check_int "ends at leaf" (Db_btree.leaf_of_key t ~key)
          (List.nth path (List.length path - 1));
        List.iter
          (fun p ->
            if p < 0 || p >= Db_btree.pages t then
              Alcotest.failf "page %d out of range for key %d" p key)
          path
  done

let prop_btree_paths_valid =
  QCheck.Test.make ~name:"btree: every lookup path is root-to-leaf within bounds" ~count:100
    QCheck.(pair (int_range 2 16) (int_range 1 300))
    (fun (fanout, pages) ->
      let t = Db_btree.create ~fanout ~pages () in
      let ok = ref (Db_btree.pages t <= max pages 1) in
      for key = 0 to min (Db_btree.keys t - 1) 500 do
        let path = Db_btree.lookup_path t ~key in
        if List.length path <> Db_btree.depth t then ok := false;
        if List.hd path <> Db_btree.root_page t then ok := false;
        List.iter (fun p -> if p < 0 || p >= Db_btree.pages t then ok := false) path
      done;
      !ok)

let prop_btree_same_leaf_same_path =
  QCheck.Test.make ~name:"btree: keys in the same leaf share the whole path" ~count:100
    QCheck.(int_range 0 10_000)
    (fun key ->
      let t = Db_btree.create ~pages:256 () in
      let k1 = key - (key mod Db_btree.fanout t) in
      (* first key of the leaf *)
      Db_btree.lookup_path t ~key:k1 = Db_btree.lookup_path t ~key:(k1 + 1))

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let quick cfg = { cfg with Db_config.duration_s = 90.0; warmup_s = 10.0; seed = 7L }

let test_engine_smoke_all_configs () =
  List.iter
    (fun cfg ->
      let r = Db_engine.run (quick cfg) in
      check_bool (cfg.Db_config.label ^ ": transactions ran") true (r.Db_engine.txns > 500);
      check_bool (cfg.Db_config.label ^ ": avg positive") true (r.Db_engine.avg_ms > 0.0);
      check_bool (cfg.Db_config.label ^ ": worst >= avg") true
        (r.Db_engine.worst_ms >= r.Db_engine.avg_ms);
      check_bool (cfg.Db_config.label ^ ": frames conserved") true r.Db_engine.frames_conserved)
    Db_config.all_paper_configs

let test_engine_ordering_quick () =
  let run cfg = (Db_engine.run (quick cfg)).Db_engine.avg_ms in
  let in_mem = run Db_config.index_in_memory in
  let no_index = run Db_config.no_index in
  let paging = run Db_config.index_with_paging in
  let regen = run Db_config.index_regeneration in
  check_bool "in-memory at least as good as regeneration" true (in_mem <= regen *. 1.15);
  check_bool "regen beats paging by a lot" true (regen *. 3.0 < paging);
  check_bool "no-index an order worse than in-memory" true (no_index > in_mem *. 5.0)

let test_engine_paging_reloads_happen () =
  let r = Db_engine.run (quick Db_config.index_with_paging) in
  check_bool "page-ins observed" true (r.Db_engine.page_in_events > 0);
  check_int "no regenerations in paging mode" 0 r.Db_engine.regenerations

let test_engine_regen_mode_regenerates () =
  let r = Db_engine.run (quick Db_config.index_regeneration) in
  check_bool "regenerations observed" true (r.Db_engine.regenerations > 0);
  check_int "no disk page-ins in regen mode" 0 r.Db_engine.page_in_events

let test_engine_deterministic () =
  let a = Db_engine.run (quick Db_config.index_in_memory) in
  let b = Db_engine.run (quick Db_config.index_in_memory) in
  check_bool "same avg" true (a.Db_engine.avg_ms = b.Db_engine.avg_ms);
  check_int "same txns" a.Db_engine.txns b.Db_engine.txns

(* ------------------------------------------------------------------ *)
(* Write-ahead-log coordination                                       *)
(* ------------------------------------------------------------------ *)

let wal_setup () =
  let machine = Hw_machine.create ~memory_bytes:(256 * 4096) () in
  let kernel = Epcm_kernel.create machine in
  let source = Epcm_kernel.initial_source kernel in
  let wal = Db_wal.create machine.Hw_machine.disk () in
  let backing = Mgr_backing.memory () in
  let base = Mgr_generic.default_hooks ~backing in
  let hooks =
    {
      base with
      Mgr_generic.on_eviction =
        (fun ~seg ~page ~dirty ->
          Db_wal.eviction_hook wal ~inner:base.Mgr_generic.on_eviction ~seg ~page ~dirty);
    }
  in
  let g =
    Mgr_generic.create kernel ~name:"wal-mgr" ~mode:`In_process ~backing ~source ~hooks
      ~pool_capacity:64 ()
  in
  let seg =
    Mgr_generic.create_segment g ~name:"data" ~pages:8 ~kind:(Mgr_generic.File { file_id = 1 })
      ~high_water:8 ()
  in
  (machine, kernel, wal, g, seg)

let test_wal_group_commit () =
  let machine, _, wal, _, _ = wal_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let lsns = List.init 10 (fun _ -> Db_wal.append wal) in
      Db_wal.commit wal ~lsn:(List.nth lsns 9);
      check_int "one disk write for ten records" 1 (Db_wal.flushes wal);
      check_int "flushed through" 10 (Db_wal.flushed wal);
      (* Committing an already-flushed LSN is free. *)
      Db_wal.commit wal ~lsn:5;
      check_int "idempotent" 1 (Db_wal.flushes wal));
  Engine.run machine.Hw_machine.engine

let test_wal_eviction_forces_log_first () =
  let machine, kernel, wal, g, seg = wal_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* A transaction modifies page 2 under LSN 1, uncommitted. *)
      Epcm_kernel.touch kernel ~space:seg ~page:2 ~access:Epcm_manager.Write;
      let lsn = Db_wal.append wal in
      Db_wal.note_page_write wal ~seg ~page:2 ~lsn;
      check_int "log unflushed" 0 (Db_wal.flushed wal);
      (* Memory pressure evicts the dirty page: the WAL hook must flush
         the log before the data writeback. *)
      let got = Mgr_generic.reclaim g ~count:8 in
      check_bool "something evicted" true (got >= 1);
      check_bool "log flushed by the eviction" true (Db_wal.flushed wal >= lsn);
      check_int "no WAL violations" 0 (Db_wal.wal_violations wal));
  Engine.run machine.Hw_machine.engine

(* A page whose log records cannot be forced must not reach disk ahead of
   them: the hook vetoes the eviction, and the manager keeps the page
   resident and dirty and counts the skip. *)
let test_wal_failed_force_vetoes_eviction () =
  let machine, kernel, wal, g, seg = wal_setup () in
  Hw_disk.set_chaos machine.Hw_machine.disk
    (Some (Sim_chaos.create ~seed:66L { Sim_chaos.default_spec with write_error_p = 1.0 }));
  Epcm_kernel.touch kernel ~space:seg ~page:2 ~access:Epcm_manager.Write;
  Db_wal.note_page_write wal ~seg ~page:2 ~lsn:(Db_wal.append wal);
  let reclaimed = ref (-1) in
  Engine.spawn machine.Hw_machine.engine (fun () -> reclaimed := Mgr_generic.reclaim g ~count:1);
  Engine.run machine.Hw_machine.engine;
  let slot = Epcm_segment.page (Epcm_kernel.segment kernel seg) 2 in
  check_int "nothing reclaimed" 0 !reclaimed;
  check_bool "still resident" true (slot.Epcm_segment.frame <> None);
  check_bool "still dirty" true (Epcm_flags.mem slot.Epcm_segment.flags Epcm_flags.dirty);
  check_int "the skip is counted" 1 (Mgr_generic.stats g).Mgr_generic.writeback_failures;
  check_int "no block written" 0 (Mgr_backing.writes (Mgr_generic.backing g));
  check_int "the log is not durable" 0 (Db_wal.flushed wal);
  check_int "no WAL violation" 0 (Db_wal.wal_violations wal)

let test_wal_violation_detected_without_hook () =
  let machine, _, _, _, _ = wal_setup () in
  (* A manager that ignores the WAL rule is observable: writing back a
     page whose records are unflushed counts as a violation. *)
  let wal = Db_wal.create machine.Hw_machine.disk () in
  let lsn = Db_wal.append wal in
  Db_wal.note_page_write wal ~seg:42 ~page:0 ~lsn;
  Db_wal.note_data_writeback wal ~seg:42 ~page:0;
  check_int "violation counted" 1 (Db_wal.wal_violations wal)

let test_wal_clean_pages_need_no_flush () =
  let machine, kernel, wal, g, seg = wal_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      (* Read-only pages evict without touching the log. *)
      Epcm_kernel.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Read;
      ignore (Mgr_generic.reclaim g ~count:4);
      check_int "no log flushes" 0 (Db_wal.flushes wal));
  Engine.run machine.Hw_machine.engine

(* Group commit proper: committers that overlap a force in flight park
   behind it and ride the next one. Eight committers arrive together:
   the first leads a force carrying only its own record, the other seven
   park, and the head of the queue then leads one force carrying all
   seven — two transfers in all, where per-commit forcing issues eight. *)
let overlapping_commits ~group_commit =
  let e = Engine.create () in
  let disk = Hw_disk.create e () in
  let wal = Db_wal.create disk ~group_commit () in
  let acked = ref [] in
  for _ = 1 to 8 do
    Engine.spawn e (fun () ->
        let lsn = Db_wal.append wal in
        Db_wal.commit wal ~lsn;
        (* The commit point: durable before the commit returns. *)
        check_bool "durable on return" true (Db_wal.flushed wal >= lsn);
        acked := lsn :: !acked)
  done;
  Engine.run e;
  check_int "every committer returned" 8 (List.length !acked);
  check_int "no process left parked" 0 (Engine.live_processes e);
  check_int "everything durable" 8 (Db_wal.flushed wal);
  (wal, disk, Engine.now e)

let test_wal_overlapping_commits_coalesce () =
  let wal, disk, group_us = overlapping_commits ~group_commit:true in
  check_int "two forces for eight commits" 2 (Db_wal.flushes wal);
  check_int "seven committers parked" 7 (Db_wal.group_parks wal);
  check_int "one record, then the seven appended by the second force" (8 * 256)
    (Hw_disk.bytes_written disk);
  let forced, forced_disk, forced_us = overlapping_commits ~group_commit:false in
  check_int "per-commit forcing: one transfer each" 8 (Db_wal.flushes forced);
  check_int "per-commit forcing never parks" 0 (Db_wal.group_parks forced);
  check_int "per-commit forcing writes eight transfers" 8 (Hw_disk.writes forced_disk);
  check_bool "group commit finishes first" true (group_us < forced_us)

(* A torn force acknowledges nobody parked behind it: the leader gets
   Flush_failed, and the head of the queue leads a fresh force with its
   own retry budget. Here the device heals as the first failure
   surfaces, so that second force lands and covers every later record. *)
let test_wal_torn_force_hands_off () =
  let e = Engine.create () in
  let disk = Hw_disk.create e () in
  Hw_disk.set_chaos disk
    (Some (Sim_chaos.create ~seed:5L { Sim_chaos.default_spec with write_error_p = 1.0 }));
  let wal = Db_wal.create disk ~retry:{ Mgr_backing.attempts = 1; backoff_us = 0.0 } () in
  let outcomes = Array.make 4 None in
  for i = 0 to 3 do
    Engine.spawn e (fun () ->
        let lsn = Db_wal.append wal in
        match Db_wal.commit wal ~lsn with
        | () -> outcomes.(i) <- Some true
        | exception Db_wal.Flush_failed { lsn = failed; attempts } ->
            check_int "the failure names the caller's record" lsn failed;
            check_int "one attempt" 1 attempts;
            check_int "a torn force leaves the durable prefix" 0 (Db_wal.flushed wal);
            Hw_disk.set_chaos disk None;
            outcomes.(i) <- Some false)
  done;
  Engine.run e;
  Alcotest.(check (list (option bool)))
    "the leader tore; the three parked behind it committed on the next force"
    [ Some false; Some true; Some true; Some true ]
    (Array.to_list outcomes);
  check_int "one failed force" 1 (Db_wal.flush_failures wal);
  check_int "one landed force" 1 (Db_wal.flushes wal);
  check_int "durable through the last record" 4 (Db_wal.flushed wal);
  check_int "no process left parked" 0 (Engine.live_processes e)

(* The WAL rule holds when the eviction hook finds a commit's force in
   flight: the hook parks like any committer, and the data page reaches
   disk only once its record is durable. *)
let test_wal_eviction_parks_behind_force () =
  let machine, kernel, wal, g, seg = wal_setup () in
  let engine = machine.Hw_machine.engine in
  Engine.spawn engine (fun () ->
      let lsn = Db_wal.append wal in
      Db_wal.commit wal ~lsn);
  Engine.spawn engine (fun () ->
      Engine.delay 1.0;
      Epcm_kernel.touch kernel ~space:seg ~page:2 ~access:Epcm_manager.Write;
      let lsn = Db_wal.append wal in
      Db_wal.note_page_write wal ~seg ~page:2 ~lsn;
      let got = Mgr_generic.reclaim g ~count:8 in
      check_bool "something evicted" true (got >= 1);
      check_bool "log durable before the writeback" true (Db_wal.flushed wal >= lsn));
  Engine.run engine;
  check_bool "the hook parked behind the commit's force" true (Db_wal.group_parks wal >= 1);
  check_int "no WAL violations" 0 (Db_wal.wal_violations wal);
  check_int "no process left parked" 0 (Engine.live_processes engine)

(* Random concurrent commit schedules, with and without write faults:
   every acknowledged commit is durable when acknowledged, the durable
   prefix never moves backwards or past the appended tail, nothing stays
   parked, and a fault-free log forces at most once per commit and ends
   fully durable. *)
let prop_wal_group_commit_invariants =
  QCheck.Test.make ~name:"group commit: acked => durable, monotone prefix, drains" ~count:150
    QCheck.(triple (int_range 1 10) (int_range 1 5) (pair (int_bound 10_000) bool))
    (fun (procs, commits, (seed, faulty)) ->
      let e = Engine.create () in
      let disk = Hw_disk.create e () in
      if faulty then
        Hw_disk.set_chaos disk
          (Some
             (Sim_chaos.create ~seed:(Int64.of_int seed)
                { Sim_chaos.default_spec with write_error_p = 0.3 }));
      let wal = Db_wal.create disk ~retry:{ Mgr_backing.attempts = 2; backoff_us = 100.0 } () in
      let rng = Sim_rng.create (Int64.of_int seed) in
      let ok = ref true and acks = ref 0 and last_flushed = ref 0 in
      let observe () =
        let f = Db_wal.flushed wal in
        if f < !last_flushed || f > Db_wal.appended wal then ok := false;
        last_flushed := f
      in
      for _ = 1 to procs do
        let rng = Sim_rng.split rng in
        Engine.spawn e (fun () ->
            for _ = 1 to commits do
              Engine.delay (Sim_rng.uniform rng ~lo:0.0 ~hi:30_000.0);
              let lsn = Db_wal.append wal in
              (match Db_wal.commit wal ~lsn with
              | () ->
                  incr acks;
                  if Db_wal.flushed wal < lsn then ok := false
              | exception Db_wal.Flush_failed _ -> ());
              observe ()
            done)
      done;
      Engine.run e;
      !ok
      && Engine.live_processes e = 0
      && (faulty
         || (!acks = procs * commits
            && Db_wal.flushes wal <= !acks
            && Db_wal.flushed wal = Db_wal.appended wal)))

(* With one committer at a time nothing overlaps, so group commit and
   per-commit forcing must agree exactly: forces, bytes, simulated time. *)
let prop_wal_sequential_modes_agree =
  QCheck.Test.make ~name:"sequential commits: group commit = per-commit forcing" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 20) (int_range 1 4)) (int_bound 10_000))
    (fun (batches, seed) ->
      let run group_commit =
        let e = Engine.create () in
        let disk = Hw_disk.create e () in
        let wal = Db_wal.create disk ~group_commit () in
        let rng = Sim_rng.create (Int64.of_int seed) in
        Engine.spawn e (fun () ->
            List.iter
              (fun appends ->
                let lsn = ref 0 in
                for _ = 1 to appends do
                  lsn := Db_wal.append wal
                done;
                Engine.delay (Sim_rng.uniform rng ~lo:0.0 ~hi:5_000.0);
                Db_wal.commit wal ~lsn:!lsn)
              batches);
        Engine.run e;
        (Db_wal.flushes wal, Db_wal.flushed wal, Hw_disk.bytes_written disk, Engine.now e)
      in
      run true = run false)

let prop_ordered_acquisition_no_deadlock =
  (* Random transactions acquiring random resource sets in the canonical
     order (database, relations ascending, pages ascending) always drain:
     no deadlock, no lost wakeups. *)
  QCheck.Test.make ~name:"ordered acquisition always drains" ~count:40
    QCheck.(pair (int_range 2 12) (int_bound 1000))
    (fun (n_txns, seed) ->
      let e = Engine.create () in
      let locks = L.create () in
      let rng = Sim_rng.create (Int64.of_int seed) in
      let completed = ref 0 in
      for txn = 1 to n_txns do
        let wants_db_x = Sim_rng.bernoulli rng 0.1 in
        let rels =
          List.init 3 (fun r -> (r, Sim_rng.int rng 4))
          |> List.filter_map (fun (r, m) ->
                 match m with
                 | 0 -> None
                 | 1 -> Some (L.Relation r, L.IS)
                 | 2 -> Some (L.Relation r, L.IX)
                 | _ -> Some (L.Relation r, L.S))
        in
        let pages =
          List.filter_map
            (fun (res, m) ->
              match (res, m) with
              | L.Relation r, L.IX when Sim_rng.bernoulli rng 0.7 ->
                  Some (L.Page (r, Sim_rng.int rng 4), L.X)
              | _ -> None)
            rels
        in
        Engine.spawn e (fun () ->
            Engine.delay (Sim_rng.uniform rng ~lo:0.0 ~hi:50.0);
            if wants_db_x then L.acquire locks ~txn L.Database L.X
            else begin
              L.acquire locks ~txn L.Database L.IX;
              List.iter (fun (res, m) -> L.acquire locks ~txn res m) rels;
              List.iter (fun (res, m) -> L.acquire locks ~txn res m) pages
            end;
            Engine.delay (Sim_rng.uniform rng ~lo:0.0 ~hi:20.0);
            L.release_all locks ~txn;
            incr completed)
      done;
      Engine.run e;
      !completed = n_txns && Engine.live_processes e = 0 && L.waiting locks = 0)

let () =
  Alcotest.run "dbms"
    [
      ( "locks",
        [
          Alcotest.test_case "compat matrix" `Quick test_compat_matrix;
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "X blocks, FIFO" `Quick test_exclusive_blocks_and_fifo;
          Alcotest.test_case "shared coexist" `Quick test_shared_coexist;
          Alcotest.test_case "intention hierarchy conflict" `Quick
            test_intention_hierarchy_conflict;
          Alcotest.test_case "no overtaking" `Quick test_no_overtaking_x_waiter;
          Alcotest.test_case "reacquire noop" `Quick test_reacquire_held_is_noop;
          Alcotest.test_case "upgrade rejected" `Quick test_upgrade_rejected;
          Alcotest.test_case "upgrade messages" `Quick test_upgrade_messages;
          Alcotest.test_case "try acquire" `Quick test_try_acquire;
          Alcotest.test_case "resource ranges" `Quick test_resource_ranges;
          QCheck_alcotest.to_alcotest prop_locks_match_reference;
        ] );
      ( "wal",
        [
          Alcotest.test_case "group commit" `Quick test_wal_group_commit;
          Alcotest.test_case "eviction forces log first" `Quick
            test_wal_eviction_forces_log_first;
          Alcotest.test_case "failed force vetoes the eviction" `Quick
            test_wal_failed_force_vetoes_eviction;
          Alcotest.test_case "violation detectable" `Quick
            test_wal_violation_detected_without_hook;
          Alcotest.test_case "clean pages free" `Quick test_wal_clean_pages_need_no_flush;
          Alcotest.test_case "overlapping commits coalesce" `Quick
            test_wal_overlapping_commits_coalesce;
          Alcotest.test_case "torn force hands off" `Quick test_wal_torn_force_hands_off;
          Alcotest.test_case "eviction parks behind a force" `Quick
            test_wal_eviction_parks_behind_force;
          QCheck_alcotest.to_alcotest prop_wal_group_commit_invariants;
          QCheck_alcotest.to_alcotest prop_wal_sequential_modes_agree;
        ] );
      ( "btree",
        [
          Alcotest.test_case "1MB index shape" `Quick test_btree_1mb_shape;
          Alcotest.test_case "single page" `Quick test_btree_single_page;
          Alcotest.test_case "path structure" `Quick test_btree_path_structure;
        ] );
      ( "engine",
        [
          Alcotest.test_case "smoke all configs" `Slow test_engine_smoke_all_configs;
          Alcotest.test_case "ordering (quick)" `Slow test_engine_ordering_quick;
          Alcotest.test_case "paging reloads" `Slow test_engine_paging_reloads_happen;
          Alcotest.test_case "regen regenerates" `Slow test_engine_regen_mode_regenerates;
          Alcotest.test_case "deterministic" `Slow test_engine_deterministic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compat_symmetric;
            prop_btree_paths_valid;
            prop_btree_same_leaf_same_path;
            prop_ordered_acquisition_no_deadlock;
          ] );
    ]
