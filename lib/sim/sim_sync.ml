(* Every blocking primitive parks its waiters with one [park] callback
   built at creation, which queues the engine's [resume] itself: a
   blocking call allocates no closure of its own. *)
let parker waiters resume = Queue.add resume waiters

(* The error path of every bracket below: [release x], then re-raise [e]
   with its backtrace. Call it first thing in the handler, before anything
   else can replace the backtrace. *)
let release_reraise release x e =
  let bt = Printexc.get_raw_backtrace () in
  release x;
  Printexc.raise_with_backtrace e bt

module Semaphore = struct
  type t = {
    mutable count : int;
    waiters : (unit -> unit) Queue.t;
    park : (unit -> unit) -> unit;
  }

  let create n =
    if n < 0 then invalid_arg "Sim_sync.Semaphore.create: negative count";
    let waiters = Queue.create () in
    { count = n; waiters; park = parker waiters }

  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else Sim_engine.park t.park

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let release t =
    match Queue.take_opt t.waiters with
    | Some resume -> resume ()
    | None -> t.count <- t.count + 1

  let release_reraise t e = release_reraise release t e

  let use t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e -> release_reraise t e
end

module Resource = struct
  type t = {
    engine : Sim_engine.t;
    capacity : int;
    sem : Semaphore.t;
    mutable busy : int;
    busy_tw : Sim_stats.Time_weighted.t;
  }

  let create engine ~capacity =
    if capacity <= 0 then invalid_arg "Sim_sync.Resource.create: capacity must be positive";
    {
      engine;
      capacity;
      sem = Semaphore.create capacity;
      busy = 0;
      busy_tw = Sim_stats.Time_weighted.create ~now:(Sim_engine.now engine) ~init:0.0;
    }

  let in_use t = t.busy

  let set_busy t n =
    t.busy <- n;
    Sim_stats.Time_weighted.set t.busy_tw ~now:(Sim_engine.now t.engine) (float_of_int n)

  let acquire t =
    Semaphore.acquire t.sem;
    set_busy t (t.busy + 1)

  let release t =
    set_busy t (t.busy - 1);
    Semaphore.release t.sem

  let release_reraise t e = release_reraise release t e

  let use t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e -> release_reraise t e

  let hold t us =
    acquire t;
    match Sim_engine.delay us with () -> release t | exception e -> release_reraise t e

  let utilisation t =
    let avg = Sim_stats.Time_weighted.average t.busy_tw ~now:(Sim_engine.now t.engine) in
    avg /. float_of_int t.capacity
end

module Mailbox = struct
  type 'a t = { items : 'a Queue.t; readers : ('a -> unit) Queue.t; park : ('a -> unit) -> unit }

  let create () =
    let readers = Queue.create () in
    { items = Queue.create (); readers; park = parker readers }

  let send t v =
    match Queue.take_opt t.readers with
    | Some resume -> resume v
    | None -> Queue.add v t.items

  let recv t =
    match Queue.take_opt t.items with
    | Some v -> v
    | None -> Sim_engine.suspend t.park

  let length t = Queue.length t.items
end

module Gate = struct
  type t = {
    mutable opened : bool;
    waiters : (unit -> unit) Queue.t;
    park : (unit -> unit) -> unit;
  }

  let create () =
    let waiters = Queue.create () in
    { opened = false; waiters; park = parker waiters }

  let wait t = if not t.opened then Sim_engine.park t.park

  let open_ t =
    if not t.opened then begin
      t.opened <- true;
      Queue.iter (fun resume -> resume ()) t.waiters;
      Queue.clear t.waiters
    end

  let is_open t = t.opened
end

module Condition = struct
  type t = { waiters : (unit -> unit) Queue.t; park : (unit -> unit) -> unit }

  let create () =
    let waiters = Queue.create () in
    { waiters; park = parker waiters }

  let await t = Sim_engine.park t.park

  let signal_all t =
    (* Drain into a list first: a woken process may immediately await again,
       and it must not consume this same signal. *)
    let woken = List.of_seq (Queue.to_seq t.waiters) in
    Queue.clear t.waiters;
    List.iter (fun resume -> resume ()) woken
end
