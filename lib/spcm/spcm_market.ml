type config = {
  charge_rate : float;
  default_income : float;
  savings_tax_rate : float;
  savings_tax_threshold : float;
  io_charge : float;
  free_when_idle : bool;
}

let default_config =
  {
    charge_rate = 1.0;
    default_income = 10.0;
    savings_tax_rate = 0.01;
    savings_tax_threshold = 100.0;
    io_charge = 0.01;
    free_when_idle = true;
  }

type account_id = int

type account = {
  acc_id : account_id;
  acc_name : string;
  mutable income : float;
  mutable balance : float;
  mutable holding_pages : int;
  mutable last_settle_us : float;
  mutable last_billable_s : float;
  mutable total_charged : float;
  mutable total_taxed : float;
  mutable total_income : float;
  mutable io_ops : int;
}

type t = {
  cfg : config;
  page_size : int;
  table : (account_id, account) Hashtbl.t;
  mutable next_id : int;
  mutable demand : bool;
  mutable demand_since_us : float;
      (* Wall time of the last demand-flag flip (valid while demand). *)
  mutable billable_acc_s : float;
      (* Billable seconds accumulated over closed demand intervals. *)
}

let check_rate what v =
  if not (Float.is_finite v) || v < 0.0 then
    invalid_arg (Printf.sprintf "Spcm_market.create: %s must be finite and non-negative" what)

let create ?(config = default_config) ~page_size () =
  if page_size <= 0 then invalid_arg "Spcm_market.create: page_size must be positive";
  check_rate "charge_rate" config.charge_rate;
  check_rate "default_income" config.default_income;
  check_rate "savings_tax_rate" config.savings_tax_rate;
  check_rate "savings_tax_threshold" config.savings_tax_threshold;
  check_rate "io_charge" config.io_charge;
  {
    cfg = config;
    page_size;
    table = Hashtbl.create 16;
    next_id = 1;
    demand = false;
    demand_since_us = 0.0;
    billable_acc_s = 0.0;
  }

let config t = t.cfg

let billable_s t ~now_us =
  if not t.cfg.free_when_idle then now_us /. 1_000_000.0
  else
    t.billable_acc_s
    +. (if t.demand then (now_us -. t.demand_since_us) /. 1_000_000.0 else 0.0)

let set_demand t d ~now_us =
  if d <> t.demand then begin
    if t.demand then begin
      if now_us < t.demand_since_us then
        invalid_arg "Spcm_market.set_demand: time went backwards";
      t.billable_acc_s <- t.billable_acc_s +. ((now_us -. t.demand_since_us) /. 1_000_000.0)
    end;
    t.demand <- d;
    t.demand_since_us <- now_us
  end


let open_account ?income t ~name ~now_us =
  let income = Option.value income ~default:t.cfg.default_income in
  if not (Float.is_finite income) || income < 0.0 then
    invalid_arg "Spcm_market.open_account: income must be finite and non-negative";
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.table id
    {
      acc_id = id;
      acc_name = name;
      income;
      balance = 0.0;
      holding_pages = 0;
      last_settle_us = now_us;
      last_billable_s = billable_s t ~now_us;
      total_charged = 0.0;
      total_taxed = 0.0;
      total_income = 0.0;
      io_ops = 0;
    };
  id

let account t id =
  match Hashtbl.find_opt t.table id with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Spcm_market.account: no account %d" id)

let accounts t =
  Hashtbl.fold (fun _ a acc -> a :: acc) t.table []
  |> List.sort (fun a b -> compare a.acc_id b.acc_id)

let n_accounts t = Hashtbl.length t.table

let megabytes t pages = float_of_int (pages * t.page_size) /. (1024.0 *. 1024.0)

let holding_cost_per_second t ~pages = megabytes t pages *. t.cfg.charge_rate

(* The exact flow of d(b)/dt = g - rate * max (b - threshold, 0) for [dt]
   seconds with constant net accrual [g]. Within each branch (below /
   above the threshold) the trajectory is monotone toward its equilibrium,
   so a window crosses the threshold at most once: the recursion takes at
   most two steps. *)
let rec flow ~g ~rate ~threshold b dt =
  if dt <= 0.0 then b
  else if rate = 0.0 then b +. (g *. dt)
  else if b > threshold || (b = threshold && g > 0.0) then begin
    (* Above the threshold: x = b - threshold obeys dx/dt = g - rate*x,
       x(dt) = xeq + (x0 - xeq) e^{-rate dt} with xeq = g/rate. *)
    let x0 = b -. threshold and xeq = g /. rate in
    let x at = xeq +. ((x0 -. xeq) *. exp (-.rate *. at)) in
    if xeq >= 0.0 then threshold +. x dt
    else
      (* Net drain: x hits 0 at t0, then the balance continues linearly
         below the threshold. *)
      let t0 = log ((x0 -. xeq) /. -.xeq) /. rate in
      if t0 >= dt then threshold +. x dt
      else flow ~g ~rate ~threshold threshold (dt -. t0)
  end
  else if g <= 0.0 then b +. (g *. dt)
  else
    let t_cross = (threshold -. b) /. g in
    if t_cross >= dt then b +. (g *. dt)
    else flow ~g ~rate ~threshold threshold (dt -. t_cross)

let settle_account t a ~now_us =
  if now_us < a.last_settle_us then
    invalid_arg
      (Printf.sprintf "Spcm_market.settle: time went backwards for account %S" a.acc_name);
  let b1 = billable_s t ~now_us in
  let db = Float.max 0.0 (b1 -. a.last_billable_s) in
  a.last_settle_us <- now_us;
  a.last_billable_s <- b1;
  if db > 0.0 then begin
    let cost = holding_cost_per_second t ~pages:a.holding_pages in
    let earned = a.income *. db in
    let charge = cost *. db in
    let settled =
      flow ~g:(a.income -. cost) ~rate:t.cfg.savings_tax_rate
        ~threshold:t.cfg.savings_tax_threshold a.balance db
    in
    if not (Float.is_finite settled) then
      invalid_arg
        (Printf.sprintf "Spcm_market.settle: balance of account %S is not finite" a.acc_name);
    (* The tax is whatever the flow removed beyond income and charge, so
       the conservation identity holds by construction. *)
    let tax = a.balance +. earned -. charge -. settled in
    a.balance <- settled;
    a.total_income <- a.total_income +. earned;
    a.total_charged <- a.total_charged +. charge;
    a.total_taxed <- a.total_taxed +. tax
  end

let settle t ~now_us = Hashtbl.iter (fun _ a -> settle_account t a ~now_us) t.table

let settle_lazy t id ~now_us = settle_account t (account t id) ~now_us

let note_holding_change t id ~delta_pages ~now_us =
  let a = account t id in
  settle_account t a ~now_us;
  let updated = a.holding_pages + delta_pages in
  if updated < 0 then invalid_arg "Spcm_market.note_holding_change: negative holdings";
  a.holding_pages <- updated

let note_io t id ~ops ~now_us =
  if ops < 0 then invalid_arg "Spcm_market.note_io: ops must be non-negative";
  let a = account t id in
  settle_account t a ~now_us;
  a.io_ops <- a.io_ops + ops;
  a.balance <- a.balance -. (float_of_int ops *. t.cfg.io_charge)

let can_afford t id ~pages ~seconds =
  let a = account t id in
  let cost = holding_cost_per_second t ~pages:(a.holding_pages + pages) *. seconds in
  let accrued = a.income *. seconds in
  a.balance +. accrued >= cost

let bankrupt t id = (account t id).balance < 0.0

let conservation_error t =
  Hashtbl.fold
    (fun _ a worst ->
      let io = float_of_int a.io_ops *. t.cfg.io_charge in
      let expect = a.total_income -. a.total_charged -. a.total_taxed -. io in
      let scale =
        1.0 +. Float.abs a.total_income +. Float.abs a.total_charged +. Float.abs a.total_taxed
        +. Float.abs io
      in
      Float.max worst (Float.abs (a.balance -. expect) /. scale))
    t.table 0.0
