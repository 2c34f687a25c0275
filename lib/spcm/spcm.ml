module K = Epcm_kernel
module Seg = Epcm_segment
module Phys = Hw_phys_mem

type constraint_ =
  | Unconstrained
  | Color of int
  | Phys_range of { lo_addr : int; hi_addr : int }
  | Tier of int

type decision = Granted of int | Deferred | Refused

type client_id = int

type client_stats = {
  cs_requests : int;
  cs_granted_frames : int;
  cs_deferred : int;
  cs_refused : int;
  cs_holding : int;
}

type client = {
  cl_id : client_id;
  cl_name : string;
  cl_account : Spcm_market.account_id;
  cl_priority : float;
  mutable cl_manager : Epcm_manager.id option;
  mutable cl_requests : int;
  mutable cl_granted : int;
  mutable cl_deferred : int;
  mutable cl_refused : int;
  mutable cl_holding : int;
}

(* A blocked [acquire]: the waiter's process sleeps on [w_gate] until the
   pump has granted its full remainder (or refused it). The admission key
   under which it was queued is kept so a partially served head entry can
   be re-queued at its original position. *)
type waiter = {
  w_client : client_id;
  w_dst : Seg.id;
  mutable w_dst_page : int;
  mutable w_remaining : int;
  w_constraint : constraint_;
  w_gate : Sim_sync.Semaphore.t;
  mutable w_granted : int;
  w_priority : float;
  w_balance : float;
  mutable w_seq : int;
}

type t = {
  kern : K.t;
  market : Spcm_market.t;
  horizon : float;
  clients : (client_id, client) Hashtbl.t;
  mutable next_client : int;
  admit : waiter Spcm_admit.t;
  mutable defers : int;
  (* The SPCM is a single-threaded server process: requests from
     concurrent clients are serialised, which also keeps multi-step grant
     scans atomic with respect to the simulation clock. *)
  serving : Sim_sync.Semaphore.t;
}

let create kern ?market ?(affordability_horizon = 10.0) () =
  let page_size = Hw_machine.page_size (K.machine kern) in
  {
    kern;
    market = Spcm_market.create ?config:market ~page_size ();
    horizon = affordability_horizon;
    clients = Hashtbl.create 16;
    next_client = 1;
    admit = Spcm_admit.create ();
    defers = 0;
    serving = Sim_sync.Semaphore.create 1;
  }

let market t = t.market
let now_us t = Hw_machine.now (K.machine t.kern)

let register_client ?income ?(priority = 0.0) ?manager t ~name () =
  let id = t.next_client in
  t.next_client <- t.next_client + 1;
  let account = Spcm_market.open_account ?income t.market ~name ~now_us:(now_us t) in
  Hashtbl.replace t.clients id
    {
      cl_id = id;
      cl_name = name;
      cl_account = account;
      cl_priority = priority;
      cl_manager = manager;
      cl_requests = 0;
      cl_granted = 0;
      cl_deferred = 0;
      cl_refused = 0;
      cl_holding = 0;
    };
  id

let client t id =
  match Hashtbl.find_opt t.clients id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Spcm.client: no client %d" id)

let set_client_manager t id mid = (client t id).cl_manager <- Some mid

let account_of t id = Spcm_market.account t.market (client t id).cl_account

let settle t = Spcm_market.settle t.market ~now_us:(now_us t)

let pending_acquires t = Spcm_admit.size t.admit
let defer_events t = t.defers

(* The SPCM is a server process: each request costs an IPC round trip. *)
let charge_rpc t =
  let c = (K.machine t.kern).Hw_machine.cost in
  Hw_machine.charge ~label:"spcm/rpc" (K.machine t.kern)
    (c.Hw_cost.ipc_send +. c.Hw_cost.context_switch +. c.Hw_cost.manager_server_dispatch
   +. c.Hw_cost.ipc_reply +. c.Hw_cost.context_switch)

(* Free frames live in the kernel's initial segment: a constraint is a
   tier or a frame filter on the kernel's one free-frame walk. *)
let free_slots t ~constraint_ ~limit =
  let mem = (K.machine t.kern).Hw_machine.mem in
  match constraint_ with
  | Unconstrained -> K.initial_slots t.kern ~limit
  | Tier k -> K.initial_slots ~tier:k t.kern ~limit
  | Color c -> K.initial_slots ~filter:(fun f -> Phys.color mem f = c) t.kern ~limit
  | Phys_range { lo_addr; hi_addr } ->
      K.initial_slots t.kern ~limit ~filter:(fun f ->
          let addr = Phys.addr mem f in
          addr >= lo_addr && addr < hi_addr)

let free_frames t =
  Seg.resident_pages (K.segment t.kern (K.initial_segment t.kern))

let grant_slots t cl ~dst ~dst_page slots =
  let init = K.initial_segment t.kern in
  (* Contiguous runs of free slots collapse into one MigratePages call
     each, amortising the syscall + migrate base cost — at thousands of
     grants per second the per-call overhead would otherwise dominate the
     SPCM server's occupancy. *)
  let rec go slots di =
    match slots with
    | [] -> ()
    | s0 :: rest ->
        let len = ref 1 and rest = ref rest and prev = ref s0 in
        let continue_ = ref true in
        while !continue_ do
          match !rest with
          | s :: tl when s = !prev + 1 ->
              prev := s;
              incr len;
              rest := tl
          | _ -> continue_ := false
        done;
        K.migrate_pages t.kern ~src:init ~dst ~src_page:s0 ~dst_page:di ~count:!len ();
        go !rest (di + !len)
  in
  go slots dst_page;
  let n = List.length slots in
  cl.cl_granted <- cl.cl_granted + n;
  cl.cl_holding <- cl.cl_holding + n;
  Spcm_market.note_holding_change t.market cl.cl_account ~delta_pages:n ~now_us:(now_us t);
  n

(* Ask other clients' managers to surrender frames (the managers choose
   which pages — paper §4). Returns frames recovered. *)
let reclaim_from_clients t ~need ~exempt =
  let recovered = ref 0 in
  let victims =
    Hashtbl.fold (fun _ c acc -> c :: acc) t.clients []
    |> List.filter (fun c -> Some c.cl_id <> exempt && c.cl_manager <> None && c.cl_holding > 0)
    (* Take from the largest holders first. *)
    |> List.sort (fun a b -> compare b.cl_holding a.cl_holding)
  in
  List.iter
    (fun c ->
      if !recovered < need then
        match c.cl_manager with
        | None -> ()
        | Some mid ->
            let m = K.manager t.kern mid in
            let ask = min (need - !recovered) c.cl_holding in
            let returned = m.Epcm_manager.on_pressure ~pages:ask in
            let returned = max 0 (min returned ask) in
            c.cl_holding <- c.cl_holding - returned;
            Spcm_market.note_holding_change t.market c.cl_account ~delta_pages:(-returned)
              ~now_us:(now_us t);
            recovered := !recovered + returned)
    victims;
  !recovered

(* Treat bankrupt accounts as faulty: demand their entire holdings. *)
let force_bankrupt_returns t =
  let recovered = ref 0 in
  Hashtbl.iter
    (fun _ c ->
      if c.cl_holding > 0 && Spcm_market.bankrupt t.market c.cl_account then
        match c.cl_manager with
        | None -> ()
        | Some mid ->
            let m = K.manager t.kern mid in
            let returned = m.Epcm_manager.on_pressure ~pages:c.cl_holding in
            let returned = max 0 (min returned c.cl_holding) in
            c.cl_holding <- c.cl_holding - returned;
            Spcm_market.note_holding_change t.market c.cl_account ~delta_pages:(-returned)
              ~now_us:(now_us t);
            recovered := !recovered + returned)
    t.clients;
  !recovered

let serialised t f = Sim_sync.Semaphore.use t.serving f

let set_market_demand t d = Spcm_market.set_demand t.market d ~now_us:(now_us t)

(* Serve queued waiters in admission order while the pool can cover the
   head's full remainder (all-or-nothing, so a blocked waiter never parks
   on a partial grant). A constrained head whose slot scan comes short
   keeps its place and stops the pump. Runs inside [serialised]. *)
let rec pump t =
  match Spcm_admit.peek t.admit with
  | None -> ()
  | Some (_, _, _, w) when free_frames t >= w.w_remaining -> (
      ignore (Spcm_admit.pop t.admit);
      let cl = client t w.w_client in
      Spcm_market.settle_lazy t.market cl.cl_account ~now_us:(now_us t);
      if
        not
          (Spcm_market.can_afford t.market cl.cl_account ~pages:w.w_remaining
             ~seconds:t.horizon)
      then begin
        (* The balance drained while queued: refuse rather than grant
           memory the account cannot carry. *)
        cl.cl_refused <- cl.cl_refused + 1;
        w.w_remaining <- 0;
        Sim_sync.Semaphore.release w.w_gate;
        pump t
      end
      else
        let slots = free_slots t ~constraint_:w.w_constraint ~limit:w.w_remaining in
        let n = grant_slots t cl ~dst:w.w_dst ~dst_page:w.w_dst_page slots in
        w.w_granted <- w.w_granted + n;
        w.w_dst_page <- w.w_dst_page + n;
        w.w_remaining <- w.w_remaining - n;
        if w.w_remaining = 0 then begin
          Sim_sync.Semaphore.release w.w_gate;
          pump t
        end
        else
          (* Only a constraint can leave a shortfall here; keep the
             waiter's position and wait for matching frames. *)
          Spcm_admit.push_seq t.admit ~priority:w.w_priority ~balance:w.w_balance ~seq:w.w_seq w)
  | Some _ -> ()

let note_free_frames t =
  if free_frames t > 0 && Spcm_admit.is_empty t.admit then begin
    set_market_demand t false
  end

let request t ~client:cid ~dst ~dst_page ~count ?(constraint_ = Unconstrained) () =
  if count <= 0 then invalid_arg "Spcm.request: count must be positive";
  serialised t @@ fun () ->
  let cl = client t cid in
  cl.cl_requests <- cl.cl_requests + 1;
  charge_rpc t;
  set_market_demand t true;
  Spcm_market.settle_lazy t.market cl.cl_account ~now_us:(now_us t);
  let affordable =
    Spcm_market.can_afford t.market cl.cl_account ~pages:count ~seconds:t.horizon
  in
  if not affordable then begin
    cl.cl_refused <- cl.cl_refused + 1;
    Refused
  end
  else begin
    let slots = free_slots t ~constraint_ ~limit:count in
    let slots =
      if List.length slots >= count then slots
      else begin
        (* Short: claw back from other clients, then rescan. The paper has
           the SPCM "force the return of memory" when needed. *)
        let missing = count - List.length slots in
        ignore (reclaim_from_clients t ~need:missing ~exempt:(Some cid));
        free_slots t ~constraint_ ~limit:count
      end
    in
    match slots with
    | [] ->
        cl.cl_deferred <- cl.cl_deferred + 1;
        t.defers <- t.defers + 1;
        Deferred
    | _ ->
        let n = grant_slots t cl ~dst ~dst_page slots in
        Granted n
  end

let enqueue t cl ~dst ~dst_page ~remaining ~constraint_ ~granted =
  cl.cl_deferred <- cl.cl_deferred + 1;
  t.defers <- t.defers + 1;
  let balance = (Spcm_market.account t.market cl.cl_account).Spcm_market.balance in
  let w =
    {
      w_client = cl.cl_id;
      w_dst = dst;
      w_dst_page = dst_page;
      w_remaining = remaining;
      w_constraint = constraint_;
      w_gate = Sim_sync.Semaphore.create 0;
      w_granted = granted;
      w_priority = cl.cl_priority;
      w_balance = balance;
      w_seq = 0;
    }
  in
  w.w_seq <- Spcm_admit.push t.admit ~priority:w.w_priority ~balance:w.w_balance w;
  w

let acquire t ~client:cid ~dst ~dst_page ~count ?(constraint_ = Unconstrained) () =
  if count <= 0 then invalid_arg "Spcm.acquire: count must be positive";
  let outcome =
    serialised t @@ fun () ->
    let cl = client t cid in
    cl.cl_requests <- cl.cl_requests + 1;
    charge_rpc t;
    set_market_demand t true;
    Spcm_market.settle_lazy t.market cl.cl_account ~now_us:(now_us t);
    if not (Spcm_market.can_afford t.market cl.cl_account ~pages:count ~seconds:t.horizon)
    then begin
      cl.cl_refused <- cl.cl_refused + 1;
      `Done 0
    end
    else if free_frames t >= count then begin
      let slots = free_slots t ~constraint_ ~limit:count in
      if List.length slots = count then `Done (grant_slots t cl ~dst ~dst_page slots)
      else
        (* Enough frames but not of the right color/range: take the
           matching ones now and queue for the rest. *)
        let n = grant_slots t cl ~dst ~dst_page slots in
        `Wait (enqueue t cl ~dst ~dst_page:(dst_page + n) ~remaining:(count - n) ~constraint_
                 ~granted:n)
    end
    else `Wait (enqueue t cl ~dst ~dst_page ~remaining:count ~constraint_ ~granted:0)
  in
  match outcome with
  | `Done n -> n
  | `Wait w ->
      Sim_sync.Semaphore.acquire w.w_gate;
      w.w_granted

let refuse_pending t =
  serialised t @@ fun () ->
  let n = ref 0 in
  let rec drain () =
    match Spcm_admit.pop t.admit with
    | None -> ()
    | Some (_, _, _, w) ->
        let cl = client t w.w_client in
        cl.cl_refused <- cl.cl_refused + 1;
        w.w_remaining <- 0;
        incr n;
        Sim_sync.Semaphore.release w.w_gate;
        drain ()
  in
  drain ();
  note_free_frames t;
  !n

let sweep t =
  serialised t @@ fun () ->
  let recovered = ref (force_bankrupt_returns t) in
  (match Spcm_admit.peek t.admit with
  | Some (_, _, _, w) when free_frames t < w.w_remaining ->
      recovered :=
        !recovered
        + reclaim_from_clients t ~need:(w.w_remaining - free_frames t) ~exempt:(Some w.w_client)
  | Some _ | None -> ());
  pump t;
  note_free_frames t;
  !recovered

let return_pages t ~client:cid ~seg ~page ~count =
  serialised t @@ fun () ->
  let cl = client t cid in
  let before = free_frames t in
  K.release_frames t.kern ~seg ~page ~count;
  let returned = free_frames t - before in
  let returned = min returned cl.cl_holding in
  cl.cl_holding <- cl.cl_holding - returned;
  Spcm_market.note_holding_change t.market cl.cl_account ~delta_pages:(-returned)
    ~now_us:(now_us t);
  pump t;
  note_free_frames t

let note_returned t ~client:cid ~count =
  serialised t @@ fun () ->
  let cl = client t cid in
  let returned = min count cl.cl_holding in
  cl.cl_holding <- cl.cl_holding - returned;
  Spcm_market.note_holding_change t.market cl.cl_account ~delta_pages:(-returned)
    ~now_us:(now_us t);
  pump t;
  note_free_frames t

let source_for t cid ~dst ~dst_page ~count =
  match request t ~client:cid ~dst ~dst_page ~count () with
  | Granted n -> n
  | Deferred | Refused -> 0

let client_stats t cid =
  let c = client t cid in
  {
    cs_requests = c.cl_requests;
    cs_granted_frames = c.cl_granted;
    cs_deferred = c.cl_deferred;
    cs_refused = c.cl_refused;
    cs_holding = c.cl_holding;
  }
