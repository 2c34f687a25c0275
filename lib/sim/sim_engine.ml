exception Not_in_process

(* An all-float record is stored flat, so the clock can be written on
   every event without boxing a float (a float field of [t] itself would
   be boxed on each store). [wake] carries a heap-path delay's target from
   [delay] to the handler, so the effect value needs no payload. *)
type clock = { mutable now : float; mutable wake : float }

(* Heap payloads. Resuming a process is data, not a closure: [Resume] for
   a delay, [Resume_with] for a suspend's result. *)
type event =
  | Run of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation
  | Resume_with : ('a, unit) Effect.Deep.continuation * 'a -> event

type t = {
  clock : clock;
  heap : event Sim_heap.t;
  mutable seq : int;
  mutable live : int;
  mutable executed : int;
  mutable horizon : float option;  (* [run ~until] limit, while running *)
  delay_eff : unit Effect.t;  (* [E_delay] of this engine, built once *)
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
      (* its handler, built once *)
  park_eff : unit Effect.t;  (* [E_park] of this engine, built once *)
  on_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
      (* its handler, built once; the register callback rides in [parking] *)
  mutable parking : (unit -> unit) -> unit;
}

type _ Effect.t +=
  | E_delay : t -> unit Effect.t
  | E_park : t -> unit Effect.t
  | E_suspend : t * (('a -> unit) -> unit) -> 'a Effect.t
  | E_fork : t * string * (unit -> unit) -> unit Effect.t

(* The engine a process belongs to is threaded through the effects
   themselves; [current] lets the zero-argument public API find it. It is
   domain-local state: each simulation runs entirely on one domain, and
   independent simulations may run on different domains concurrently (the
   --jobs experiment driver), so the "engine being run here" must not be
   shared across domains. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let push t ~at ev =
  let at = if at < t.clock.now then t.clock.now else at in
  t.seq <- t.seq + 1;
  Sim_heap.push t.heap ~time:at ~seq:t.seq ev

(* A parked process's resume: the event is [Resume k], with no value to
   carry (see [resumer] for [suspend]'s). *)
let unit_resumer eng k =
  let resumed = ref false in
  fun () ->
    if !resumed then invalid_arg "Sim_engine: resume called twice";
    resumed := true;
    push eng ~at:eng.clock.now (Resume k)

let not_parking _ = ()

let create () =
  let clock = { now = 0.0; wake = 0.0 } and heap = Sim_heap.create () in
  let rec t =
    {
      clock;
      heap;
      seq = 0;
      live = 0;
      executed = 0;
      horizon = None;
      delay_eff = E_delay t;
      on_delay = Some (fun k -> push t ~at:t.clock.wake (Resume k));
      park_eff = E_park t;
      on_park =
        Some
          (fun k ->
            let register = t.parking in
            t.parking <- not_parking;
            register (unit_resumer t k));
      parking = not_parking;
    }
  in
  t

let now t = t.clock.now
let schedule t ~at thunk = push t ~at (Run thunk)

let resumer eng k =
  let resumed = ref false in
  fun v ->
    if !resumed then invalid_arg "Sim_engine: resume called twice";
    resumed := true;
    push eng ~at:eng.clock.now (Resume_with (k, v))

let rec start_process t _name body =
  let open Effect.Deep in
  t.live <- t.live + 1;
  match_with body ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun e ->
          t.live <- t.live - 1;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | E_delay eng -> eng.on_delay
          | E_park eng -> eng.on_park
          | E_suspend (eng, register) ->
              Some (fun (k : (a, unit) continuation) -> register (resumer eng k))
          | E_fork (eng, name, f) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  schedule eng ~at:eng.clock.now (fun () -> start_process eng name f);
                  continue k ())
          | _ -> None);
    }

let spawn t ?(name = "proc") body = schedule t ~at:t.clock.now (fun () -> start_process t name body)

let dispatch = function
  | Run f -> f ()
  | Resume k -> Effect.Deep.continue k ()
  | Resume_with (k, v) -> Effect.Deep.continue k v

let rec loop t until =
  let h = t.heap in
  if not (Sim_heap.is_empty h) then
    match until with
    | Some limit when not (Sim_heap.due h ~at:limit) ->
        (* Push back and stop at the horizon. *)
        let time = Float.Array.get h.Sim_heap.times 0 in
        let ev = Sim_heap.take h in
        t.seq <- t.seq + 1;
        Sim_heap.push h ~time ~seq:t.seq ev;
        t.clock.now <- limit
    | _ ->
        t.clock.now <- Float.Array.get h.Sim_heap.times 0;
        t.executed <- t.executed + 1;
        dispatch (Sim_heap.take h);
        loop t until

let run ?until t =
  let saved = Domain.DLS.get current in
  let saved_horizon = t.horizon in
  Domain.DLS.set current (Some t);
  t.horizon <- until;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set current saved;
      t.horizon <- saved_horizon)
    (fun () -> loop t until)

let live_processes t = t.live
let events_executed t = t.executed

let engine_of_process () =
  match Domain.DLS.get current with None -> raise Not_in_process | Some t -> t

(* Fast path: a delay is semantically "resume me at [target], after any
   event already due at or before it". When no such event is pending (and
   the run horizon is not crossed), nothing can interleave — no other
   process can become runnable in the meantime, because only the running
   process schedules — so the clock advances inline, skipping the
   continuation capture and two heap operations. The logical event still
   happened, so [executed] counts it: event counts and all interleavings
   are identical to the unconditionally-scheduled implementation. The
   pending check reads the heap's minimum in place (a [Sim_heap] call
   would box [target]); the heap path hands [target] over in
   [clock.wake] and performs the engine's prebuilt effect. *)
let delay d =
  let t = engine_of_process () in
  let target = t.clock.now +. if 0.0 >= d then 0.0 else d in
  let within_horizon = match t.horizon with None -> true | Some limit -> target <= limit in
  let h = t.heap in
  if within_horizon && (h.Sim_heap.len = 0 || Float.Array.get h.Sim_heap.times 0 > target)
  then begin
    t.clock.now <- target;
    t.executed <- t.executed + 1
  end
  else begin
    t.clock.wake <- target;
    Effect.perform t.delay_eff
  end

let time () = (engine_of_process ()).clock.now
let suspend register = Effect.perform (E_suspend (engine_of_process (), register))

(* [suspend] for a unit result, through the engine's prebuilt effect and
   handler: the register callback is handed over in [parking]. *)
let park register =
  let t = engine_of_process () in
  t.parking <- register;
  Effect.perform t.park_eff

let fork ?(name = "proc") f = Effect.perform (E_fork (engine_of_process (), name, f))
