(* Tests for the System Page Cache Manager and the dram memory market.

   Beyond the unit tests, two model-based suites pin the scaling rework
   (ROADMAP item 1):

   - A differential market model: a pure reference implementation of the
     dram accounting (income, holding charge, savings tax, I/O charge,
     free-when-idle billable clock, forced returns) is run against
     [Spcm_market] on random operation sequences, with one market instance
     settled eagerly after every operation and one settled only at the
     end — pinning that lazy settlement equals the full-scan reference up
     to float rounding of the exponential tax branch.
   - A property test of the admission priority structure ([Spcm_admit])
     against a sorted-list model, including deterministic FIFO ordering on
     full key ties and re-insertion at a preserved position. *)

module K = Epcm_kernel
module Seg = Epcm_segment
module M = Spcm_market
module Engine = Sim_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let sec s = s *. 1_000_000.0

(* ------------------------------------------------------------------ *)
(* Market                                                             *)
(* ------------------------------------------------------------------ *)

let market ?config () = M.create ?config ~page_size:4096 ()

let test_market_income_accrues () =
  let m = market () in
  let a = M.open_account m ~name:"a" ~income:10.0 ~now_us:0.0 in
  M.set_demand m true ~now_us:0.0;
  M.settle m ~now_us:(sec 5.0);
  check_float "5s of income" 50.0 (M.account m a).M.balance

let test_market_holding_charge () =
  (* 256 pages = 1 MB at rate D=1: one dram per second, against income
     10/s. *)
  let m = market () in
  let a = M.open_account m ~name:"a" ~income:10.0 ~now_us:0.0 in
  M.set_demand m true ~now_us:0.0;
  M.note_holding_change m a ~delta_pages:256 ~now_us:0.0;
  M.settle m ~now_us:(sec 10.0);
  let acc = M.account m a in
  check_float "income - M*D*T" (100.0 -. 10.0) acc.M.balance;
  check_float "charged total" 10.0 acc.M.total_charged

let test_market_free_when_idle () =
  let m = market () in
  let a = M.open_account m ~name:"a" ~income:0.0 ~now_us:0.0 in
  M.note_holding_change m a ~delta_pages:256 ~now_us:0.0;
  M.settle m ~now_us:(sec 10.0);
  check_float "no charge while idle" 0.0 (M.account m a).M.balance

let test_market_billable_clock () =
  (* Demand on for [2, 5] and [7, 8]: 4 billable seconds out of 10. *)
  let m = market () in
  let a = M.open_account m ~name:"a" ~income:10.0 ~now_us:0.0 in
  M.set_demand m true ~now_us:(sec 2.0);
  M.set_demand m false ~now_us:(sec 5.0);
  M.set_demand m true ~now_us:(sec 7.0);
  M.set_demand m false ~now_us:(sec 8.0);
  check_float "billable seconds" 4.0 (M.billable_s m ~now_us:(sec 10.0));
  M.settle m ~now_us:(sec 10.0);
  check_float "income only over billable time" 40.0 (M.account m a).M.balance

let test_market_savings_tax () =
  let cfg = { M.default_config with savings_tax_rate = 0.1; savings_tax_threshold = 10.0 } in
  let m = market ~config:cfg () in
  let a = M.open_account m ~name:"hoarder" ~income:100.0 ~now_us:0.0 in
  M.set_demand m true ~now_us:0.0;
  M.settle m ~now_us:(sec 1.0);
  (* Earned 100; excess over 10 gets taxed at 10%/s for the interval. *)
  let acc = M.account m a in
  check_bool "taxed" true (acc.M.total_taxed > 0.0);
  check_bool "balance below gross income" true (acc.M.balance < 100.0)

let test_market_io_charge () =
  let m = market () in
  let a = M.open_account m ~name:"scanner" ~income:0.0 ~now_us:0.0 in
  M.note_io m a ~ops:100 ~now_us:0.0;
  check_float "paid for I/O" (-.100.0 *. M.default_config.M.io_charge) (M.account m a).M.balance;
  check_int "ops recorded" 100 (M.account m a).M.io_ops

let test_market_can_afford_and_bankrupt () =
  let m = market () in
  let a = M.open_account m ~name:"a" ~income:1.0 ~now_us:0.0 in
  (* 2560 pages = 10MB at D=1 costs 10/s; income 1/s: not affordable. *)
  check_bool "cannot afford" false (M.can_afford m a ~pages:2560 ~seconds:10.0);
  check_bool "can afford small" true (M.can_afford m a ~pages:128 ~seconds:1.0);
  check_bool "not bankrupt" false (M.bankrupt m a);
  M.note_io m a ~ops:1000 ~now_us:0.0;
  check_bool "bankrupt after splurge" true (M.bankrupt m a)

let test_market_holdings_never_negative () =
  let m = market () in
  let a = M.open_account m ~name:"a" ~now_us:0.0 in
  Alcotest.check_raises "negative holdings rejected"
    (Invalid_argument "Spcm_market.note_holding_change: negative holdings") (fun () ->
      M.note_holding_change m a ~delta_pages:(-1) ~now_us:0.0)

(* ------------------------------------------------------------------ *)
(* Market input validation (a NaN or negative rate would silently mint
   or destroy drams; time running backwards would mint income)         *)
(* ------------------------------------------------------------------ *)

let test_market_rejects_bad_config () =
  let reject what cfg =
    match M.create ~config:cfg ~page_size:4096 () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  reject "NaN charge_rate" { M.default_config with charge_rate = Float.nan };
  reject "negative charge_rate" { M.default_config with charge_rate = -1.0 };
  reject "infinite income" { M.default_config with default_income = Float.infinity };
  reject "negative tax rate" { M.default_config with savings_tax_rate = -0.5 };
  reject "NaN tax threshold" { M.default_config with savings_tax_threshold = Float.nan };
  reject "negative io charge" { M.default_config with io_charge = -0.01 };
  (match M.create ~page_size:0 () with
  | _ -> Alcotest.fail "page_size 0 accepted"
  | exception Invalid_argument _ -> ());
  (* The default config itself must pass its own validation. *)
  ignore (M.create ~config:M.default_config ~page_size:4096 ())

let test_market_rejects_bad_account_ops () =
  let m = market () in
  (match M.open_account m ~name:"bad" ~income:(-5.0) ~now_us:0.0 with
  | _ -> Alcotest.fail "negative income accepted"
  | exception Invalid_argument _ -> ());
  (match M.open_account m ~name:"bad" ~income:Float.nan ~now_us:0.0 with
  | _ -> Alcotest.fail "NaN income accepted"
  | exception Invalid_argument _ -> ());
  let a = M.open_account m ~name:"a" ~now_us:(sec 1.0) in
  (match M.note_io m a ~ops:(-1) ~now_us:(sec 1.0) with
  | () -> Alcotest.fail "negative io ops accepted (a refund would mint drams)"
  | exception Invalid_argument _ -> ());
  match M.settle_lazy m a ~now_us:(sec 0.5) with
  | () -> Alcotest.fail "time running backwards accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Differential market model                                           *)
(* ------------------------------------------------------------------ *)

(* Pure reference implementation, written independently of the library:
   explicit per-account state, the same billable clock, and the same
   closed-form flow of d(b)/dB = g - rate * max (b - threshold, 0). *)
module Model = struct
  type acct = {
    mutable income : float;
    mutable balance : float;
    mutable holding : int;
    mutable last_billable : float;
    mutable t_income : float;
    mutable t_charged : float;
    mutable t_taxed : float;
    mutable io : int;
  }

  type t = {
    cfg : M.config;
    mutable accts : acct list; (* newest first *)
    mutable demand : bool;
    mutable demand_since : float;
    mutable billable : float;
  }

  let create cfg = { cfg; accts = []; demand = false; demand_since = 0.0; billable = 0.0 }

  let billable_at t now_us =
    if not t.cfg.M.free_when_idle then now_us /. 1e6
    else t.billable +. (if t.demand then (now_us -. t.demand_since) /. 1e6 else 0.0)

  let set_demand t d now_us =
    if d <> t.demand then begin
      if t.demand then t.billable <- t.billable +. ((now_us -. t.demand_since) /. 1e6);
      t.demand <- d;
      t.demand_since <- now_us
    end

  let nth t i = List.nth (List.rev t.accts) i

  let open_acct t income now_us =
    t.accts <-
      {
        income;
        balance = 0.0;
        holding = 0;
        last_billable = billable_at t now_us;
        t_income = 0.0;
        t_charged = 0.0;
        t_taxed = 0.0;
        io = 0;
      }
      :: t.accts

  (* The same two-branch exact flow, independently restated. *)
  let rec flow ~g ~rate ~threshold b dt =
    if dt <= 0.0 then b
    else if rate = 0.0 then b +. (g *. dt)
    else if b > threshold || (b = threshold && g > 0.0) then begin
      let x0 = b -. threshold and xeq = g /. rate in
      let x at = xeq +. ((x0 -. xeq) *. exp (-.rate *. at)) in
      if xeq >= 0.0 then threshold +. x dt
      else
        let t0 = log ((x0 -. xeq) /. -.xeq) /. rate in
        if t0 >= dt then threshold +. x dt
        else flow ~g ~rate ~threshold threshold (dt -. t0)
    end
    else if g <= 0.0 then b +. (g *. dt)
    else
      let t_cross = (threshold -. b) /. g in
      if t_cross >= dt then b +. (g *. dt)
      else flow ~g ~rate ~threshold threshold (dt -. t_cross)

  let settle t a now_us =
    let b1 = billable_at t now_us in
    let db = Float.max 0.0 (b1 -. a.last_billable) in
    a.last_billable <- b1;
    if db > 0.0 then begin
      let mbytes = float_of_int (a.holding * 4096) /. (1024.0 *. 1024.0) in
      let cost = mbytes *. t.cfg.M.charge_rate in
      let earned = a.income *. db in
      let charge = cost *. db in
      let settled =
        flow ~g:(a.income -. cost) ~rate:t.cfg.M.savings_tax_rate
          ~threshold:t.cfg.M.savings_tax_threshold a.balance db
      in
      let tax = a.balance +. earned -. charge -. settled in
      a.balance <- settled;
      a.t_income <- a.t_income +. earned;
      a.t_charged <- a.t_charged +. charge;
      a.t_taxed <- a.t_taxed +. tax
    end

  let hold t i delta now_us =
    let a = nth t i in
    settle t a now_us;
    a.holding <- a.holding + delta

  let io t i ops now_us =
    let a = nth t i in
    settle t a now_us;
    a.io <- a.io + ops;
    a.balance <- a.balance -. (float_of_int ops *. t.cfg.M.io_charge)
end

type mkt_op =
  | Advance of float (* microseconds *)
  | Demand of bool
  | Open of float (* income *)
  | Hold of int * int (* account index, signed delta (clamped) *)
  | Io of int * int
  | Touch of int (* settle_lazy one account *)
  | SettleAll
  | ReturnAll of int (* forced return: holdings back to zero *)

let mkt_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun dt -> Advance (float_of_int (dt + 1) *. 997.0)) (int_bound 500));
        (2, map (fun b -> Demand b) bool);
        (2, map (fun i -> Open (float_of_int i *. 3.0)) (int_bound 40));
        (4, map2 (fun a d -> Hold (a, d - 16)) (int_bound 7) (int_bound 280));
        (2, map2 (fun a n -> Io (a, n)) (int_bound 7) (int_bound 25));
        (2, map (fun a -> Touch a) (int_bound 7));
        (1, return SettleAll);
        (1, map (fun a -> ReturnAll a) (int_bound 7));
      ])

let mkt_op_print = function
  | Advance dt -> Printf.sprintf "Advance %.0f" dt
  | Demand b -> Printf.sprintf "Demand %b" b
  | Open i -> Printf.sprintf "Open %.1f" i
  | Hold (a, d) -> Printf.sprintf "Hold (%d, %d)" a d
  | Io (a, n) -> Printf.sprintf "Io (%d, %d)" a n
  | Touch a -> Printf.sprintf "Touch %d" a
  | SettleAll -> "SettleAll"
  | ReturnAll a -> Printf.sprintf "ReturnAll %d" a

(* Relative comparison: the eager and lazy instances chunk the
   exponential tax branch differently, so equality holds to rounding, not
   bit-for-bit. *)
let close what a b =
  let tol = 1e-9 *. (1.0 +. Float.abs a +. Float.abs b) in
  if Float.abs (a -. b) > tol then
    QCheck.Test.fail_reportf "%s differs: %.17g vs %.17g" what a b

let prop_market_differential =
  let cfg =
    {
      M.charge_rate = 2.0;
      default_income = 12.0;
      savings_tax_rate = 0.05;
      savings_tax_threshold = 20.0;
      io_charge = 0.02;
      free_when_idle = true;
    }
  in
  QCheck.Test.make ~name:"market matches pure model; lazy settlement == full scan" ~count:120
    QCheck.(
      pair bool
        (make ~print:(fun l -> String.concat "; " (List.map mkt_op_print l))
           (Gen.list_size (Gen.int_range 1 60) mkt_op_gen)))
    (fun (free_idle, ops) ->
      let cfg = { cfg with M.free_when_idle = free_idle } in
      (* Three parties: eager settles every account after every op, lazy
         settles only when the library itself needs to, the model is the
         pure reference (touched on the lazy schedule). *)
      let eager = M.create ~config:cfg ~page_size:4096 () in
      let lazy_ = M.create ~config:cfg ~page_size:4096 () in
      let model = Model.create cfg in
      let ids_e = ref [] and ids_l = ref [] in
      let now = ref 0.0 in
      let n_accts () = List.length !ids_e in
      let pick i = i mod n_accts () in
      let id_of ids i = List.nth (List.rev !ids) (pick i) in
      let holding m ids i = (M.account m (id_of ids i)).M.holding_pages in
      List.iter
        (fun op ->
          (match op with
          | Advance dt -> now := !now +. dt
          | Demand d ->
              M.set_demand eager d ~now_us:!now;
              M.set_demand lazy_ d ~now_us:!now;
              Model.set_demand model d !now
          | Open income ->
              ids_e := M.open_account eager ~income ~name:"m" ~now_us:!now :: !ids_e;
              ids_l := M.open_account lazy_ ~income ~name:"m" ~now_us:!now :: !ids_l;
              Model.open_acct model income !now
          | Hold (i, d) ->
              if n_accts () > 0 then begin
                (* Clamp so holdings stay non-negative; holdings are exact
                   ints, so all three parties clamp identically. *)
                let d = max d (-holding eager ids_e i) in
                M.note_holding_change eager (id_of ids_e i) ~delta_pages:d ~now_us:!now;
                M.note_holding_change lazy_ (id_of ids_l i) ~delta_pages:d ~now_us:!now;
                Model.hold model (pick i) d !now
              end
          | Io (i, n) ->
              if n_accts () > 0 then begin
                M.note_io eager (id_of ids_e i) ~ops:n ~now_us:!now;
                M.note_io lazy_ (id_of ids_l i) ~ops:n ~now_us:!now;
                Model.io model (pick i) n !now
              end
          | Touch i ->
              if n_accts () > 0 then begin
                M.settle_lazy eager (id_of ids_e i) ~now_us:!now;
                M.settle_lazy lazy_ (id_of ids_l i) ~now_us:!now;
                Model.settle model (Model.nth model (pick i)) !now
              end
          | SettleAll ->
              M.settle eager ~now_us:!now;
              M.settle lazy_ ~now_us:!now;
              List.iter (fun a -> Model.settle model a !now) model.Model.accts
          | ReturnAll i ->
              if n_accts () > 0 then begin
                let d = -holding eager ids_e i in
                M.note_holding_change eager (id_of ids_e i) ~delta_pages:d ~now_us:!now;
                M.note_holding_change lazy_ (id_of ids_l i) ~delta_pages:d ~now_us:!now;
                Model.hold model (pick i) d !now
              end);
          (* The eager instance runs the O(accounts) reference scan after
             EVERY op; the lazy one does not. *)
          M.settle eager ~now_us:!now)
        ops;
      (* Bring everyone current and compare account by account. *)
      now := !now +. 1_000_000.0;
      M.settle eager ~now_us:!now;
      M.settle lazy_ ~now_us:!now;
      List.iter (fun a -> Model.settle model a !now) model.Model.accts;
      List.iteri
        (fun i (ide, idl) ->
          let e = M.account eager ide and l = M.account lazy_ idl in
          let m = Model.nth model i in
          close (Printf.sprintf "acct %d balance (lazy vs eager)" i) l.M.balance e.M.balance;
          close (Printf.sprintf "acct %d balance (model)" i) m.Model.balance e.M.balance;
          close (Printf.sprintf "acct %d taxed" i) l.M.total_taxed e.M.total_taxed;
          close (Printf.sprintf "acct %d taxed (model)" i) m.Model.t_taxed e.M.total_taxed;
          close (Printf.sprintf "acct %d charged" i) l.M.total_charged e.M.total_charged;
          close (Printf.sprintf "acct %d income" i) l.M.total_income e.M.total_income;
          if l.M.holding_pages <> e.M.holding_pages || l.M.holding_pages <> m.Model.holding
          then QCheck.Test.fail_reportf "acct %d holdings diverged" i;
          if l.M.io_ops <> e.M.io_ops then QCheck.Test.fail_reportf "acct %d io diverged" i)
        (List.combine (List.rev !ids_e) (List.rev !ids_l));
      (* Neither instance minted or destroyed drams. *)
      if M.conservation_error eager > 1e-9 then
        QCheck.Test.fail_reportf "eager conservation residual %.3e" (M.conservation_error eager);
      if M.conservation_error lazy_ > 1e-9 then
        QCheck.Test.fail_reportf "lazy conservation residual %.3e" (M.conservation_error lazy_);
      true)

(* ------------------------------------------------------------------ *)
(* Admission heap vs sorted-list model                                 *)
(* ------------------------------------------------------------------ *)

(* Observable behaviour of Spcm_admit — including peek mid-stream and
   FIFO order on full (priority, balance) ties — is exactly a list kept
   sorted by (priority desc, balance desc, seq asc). Priorities and
   balances are drawn from tiny ranges to force ties constantly. *)
let prop_admit_model =
  QCheck.Test.make ~name:"admission heap matches sorted-list model under push/pop" ~count:300
    QCheck.(list (option (pair (int_bound 2) (int_bound 2))))
    (fun ops ->
      let h = Spcm_admit.create () in
      let model = ref [] in
      let next_payload = ref 0 in
      let key (p, b, s) = (-.p, -.b, s) in
      let insert e =
        let rec go = function
          | [] -> [ e ]
          | ((p', b', s', _) as hd) :: tl ->
              let (p, b, s, _) = e in
              if key (p, b, s) < key (p', b', s') then e :: hd :: tl else hd :: go tl
        in
        model := go !model
      in
      List.for_all
        (fun op ->
          (match op with
          | Some (p, b) ->
              let p = float_of_int p and bf = float_of_int b in
              incr next_payload;
              let seq = Spcm_admit.push h ~priority:p ~balance:bf !next_payload in
              insert (p, bf, seq, !next_payload)
          | None -> (
              match (Spcm_admit.pop h, !model) with
              | None, [] -> ()
              | Some got, expect :: rest when got = expect -> model := rest
              | _ -> QCheck.Test.fail_report "pop disagrees with model"));
          Spcm_admit.size h = List.length !model
          && Spcm_admit.peek h = (match !model with [] -> None | e :: _ -> Some e))
        ops)

let test_admit_fifo_ties_and_reinsert () =
  let h = Spcm_admit.create () in
  (* Three waiters with identical keys pop in arrival order. *)
  let s1 = Spcm_admit.push h ~priority:1.0 ~balance:5.0 "a" in
  let _s2 = Spcm_admit.push h ~priority:1.0 ~balance:5.0 "b" in
  let _s3 = Spcm_admit.push h ~priority:1.0 ~balance:5.0 "c" in
  (match Spcm_admit.pop h with
  | Some (_, _, s, "a") -> check_int "first in first out" s1 s
  | _ -> Alcotest.fail "expected a first");
  (* Re-inserting "a" at its original seq puts it back at the head, ahead
     of "b" — a partially-served constrained waiter keeps its turn. *)
  Spcm_admit.push_seq h ~priority:1.0 ~balance:5.0 ~seq:s1 "a";
  (match Spcm_admit.pop h with
  | Some (_, _, _, "a") -> ()
  | _ -> Alcotest.fail "re-inserted waiter lost its position");
  (* Higher priority beats higher balance; balance breaks priority ties. *)
  Spcm_admit.clear h;
  ignore (Spcm_admit.push h ~priority:0.0 ~balance:100.0 "rich");
  ignore (Spcm_admit.push h ~priority:5.0 ~balance:0.0 "urgent");
  ignore (Spcm_admit.push h ~priority:0.0 ~balance:200.0 "richer");
  let order = List.init 3 (fun _ -> match Spcm_admit.pop h with Some (_, _, _, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "priority then balance" [ "urgent"; "richer"; "rich" ] order

(* ------------------------------------------------------------------ *)
(* SPCM allocation                                                    *)
(* ------------------------------------------------------------------ *)

let spcm_setup ?(frames = 64) () =
  let machine = Hw_machine.create ~memory_bytes:(frames * 4096) () in
  let kernel = K.create machine in
  let spcm = Spcm.create kernel () in
  (machine, kernel, spcm)

let test_spcm_grant () =
  let _, kernel, spcm = spcm_setup () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"app" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:16 () in
  (match Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:8 () with
  | Spcm.Granted 8 -> ()
  | _ -> Alcotest.fail "expected full grant");
  check_int "resident" 8 (Seg.resident_pages (K.segment kernel seg));
  check_int "holding tracked" 8 (Spcm.client_stats spcm c).Spcm.cs_holding;
  check_int "market holdings" 8 (Spcm.account_of spcm c).M.holding_pages

let test_spcm_partial_grant () =
  let _, kernel, spcm = spcm_setup ~frames:16 () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"big" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:64 () in
  match Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:64 () with
  | Spcm.Granted n ->
      check_bool "partial" true (n < 64 && n > 0);
      check_int "granted all there was" 16 n
  | _ -> Alcotest.fail "expected partial grant"

let test_spcm_refused_when_broke () =
  let _, kernel, spcm = spcm_setup () in
  (* Income too low to pay for 32 pages over the 10s horizon. *)
  let c = Spcm.register_client ~income:0.0001 spcm ~name:"poor" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:64 () in
  match Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:32 () with
  | Spcm.Refused -> ()
  | _ -> Alcotest.fail "expected refusal"

let test_spcm_return_pages () =
  let _, kernel, spcm = spcm_setup () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"app" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:16 () in
  ignore (Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:8 ());
  let free_before = Spcm.free_frames spcm in
  Spcm.return_pages spcm ~client:c ~seg ~page:0 ~count:8;
  check_int "frames back" (free_before + 8) (Spcm.free_frames spcm);
  check_int "holding zero" 0 (Spcm.client_stats spcm c).Spcm.cs_holding

let test_spcm_color_constraint () =
  let machine, kernel, spcm = spcm_setup () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"colored" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:8 () in
  (match
     Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:3 ~constraint_:(Spcm.Color 5) ()
   with
  | Spcm.Granted 3 -> ()
  | _ -> Alcotest.fail "expected colored grant");
  let attrs = K.get_page_attributes kernel ~seg ~page:0 ~count:3 in
  Array.iter
    (fun a ->
      let f = Option.get a.K.pa_frame in
      check_int "right color" 5 (Hw_phys_mem.color machine.Hw_machine.mem f))
    attrs

let test_spcm_phys_range_constraint () =
  let _, kernel, spcm = spcm_setup () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"placed" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:8 () in
  let lo = 16 * 4096 and hi = 24 * 4096 in
  (match
     Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:4
       ~constraint_:(Spcm.Phys_range { lo_addr = lo; hi_addr = hi })
       ()
   with
  | Spcm.Granted 4 -> ()
  | _ -> Alcotest.fail "expected range grant");
  let attrs = K.get_page_attributes kernel ~seg ~page:0 ~count:4 in
  Array.iter
    (fun a ->
      let addr = Option.get a.K.pa_phys_addr in
      check_bool "in range" true (addr >= lo && addr < hi))
    attrs

let test_spcm_constrained_exhaustion_gives_partial () =
  (* Only 2 frames of color 7 exist in a 32-frame machine with 16 colors. *)
  let _, kernel, spcm = spcm_setup ~frames:32 () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"colored" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:8 () in
  match
    Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:5 ~constraint_:(Spcm.Color 7) ()
  with
  | Spcm.Granted 2 -> ()
  | Spcm.Granted n -> Alcotest.failf "expected 2, got %d" n
  | _ -> Alcotest.fail "expected partial colored grant"

let test_spcm_reclaims_from_other_clients () =
  let _, kernel, spcm = spcm_setup ~frames:32 () in
  (* Client A holds everything through a manager that returns on
     pressure. *)
  let seg_a = K.create_segment kernel ~name:"a-data" ~pages:32 () in
  let returned = ref 0 in
  let mid =
    K.register_manager kernel ~name:"a-mgr" ~mode:`In_process
      ~on_fault:(fun _ -> ())
      ~on_pressure:(fun ~pages ->
        let give = min pages (Seg.resident_pages (K.segment kernel seg_a)) in
        K.release_frames kernel ~seg:seg_a ~page:0 ~count:32 |> ignore;
        returned := give;
        give)
      ()
  in
  let a = Spcm.register_client ~income:1000.0 ~manager:mid spcm ~name:"hog" () in
  ignore (Spcm.request spcm ~client:a ~dst:seg_a ~dst_page:0 ~count:32 ());
  check_int "hog took everything" 0 (Spcm.free_frames spcm);
  (* Client B's request forces reclamation. *)
  let b = Spcm.register_client ~income:1000.0 spcm ~name:"newcomer" () in
  let seg_b = K.create_segment kernel ~name:"b-data" ~pages:8 () in
  (match Spcm.request spcm ~client:b ~dst:seg_b ~dst_page:0 ~count:8 () with
  | Spcm.Granted n -> check_bool "granted after reclaim" true (n > 0)
  | _ -> Alcotest.fail "expected grant after reclaim");
  check_bool "pressure callback ran" true (!returned > 0)

let test_spcm_source_adapter () =
  let _, kernel, spcm = spcm_setup () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"app" () in
  let source = Spcm.source_for spcm c in
  let seg = K.create_segment kernel ~name:"data" ~pages:8 () in
  check_int "adapter grants" 4 (source ~dst:seg ~dst_page:0 ~count:4)

let test_spcm_note_returned () =
  let _, kernel, spcm = spcm_setup () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"batch" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:16 () in
  ignore (Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:8 ());
  (* The client's manager releases directly to the initial segment (as
     swap_out does), then reconciles the account. *)
  K.release_frames kernel ~seg ~page:0 ~count:8;
  Spcm.note_returned spcm ~client:c ~count:8;
  check_int "holdings reconciled" 0 (Spcm.client_stats spcm c).Spcm.cs_holding;
  check_int "market agrees" 0 (Spcm.account_of spcm c).M.holding_pages

let test_spcm_frame_conservation () =
  let _, kernel, spcm = spcm_setup ~frames:32 () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"app" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:16 () in
  ignore (Spcm.request spcm ~client:c ~dst:seg ~dst_page:0 ~count:10 ());
  Spcm.return_pages spcm ~client:c ~seg ~page:0 ~count:5;
  let total = K.frame_owner_total kernel in
  check_int "every frame owned exactly once" 32 total

(* ------------------------------------------------------------------ *)
(* Blocking admission (acquire / pump / sweep)                         *)
(* ------------------------------------------------------------------ *)

let test_acquire_immediate_when_free () =
  let machine, kernel, spcm = spcm_setup () in
  let c = Spcm.register_client ~income:1000.0 spcm ~name:"app" () in
  let seg = K.create_segment kernel ~name:"data" ~pages:16 () in
  let got = ref (-1) in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      got := Spcm.acquire spcm ~client:c ~dst:seg ~dst_page:0 ~count:8 ());
  Engine.run machine.Hw_machine.engine;
  check_int "granted without queueing" 8 !got;
  check_int "nothing pending" 0 (Spcm.pending_acquires spcm)

let test_acquire_served_in_priority_order () =
  (* A holder takes all 16 frames; three waiters arrive in the order
     low, high, mid and must be served high, mid, low as the holder
     returns 6 frames at a time. *)
  let machine, kernel, spcm = spcm_setup ~frames:16 () in
  let holder = Spcm.register_client ~income:1000.0 spcm ~name:"holder" () in
  let hseg = K.create_segment kernel ~name:"hoard" ~pages:16 () in
  let mk name prio =
    ( Spcm.register_client ~income:1000.0 ~priority:prio spcm ~name (),
      K.create_segment kernel ~name:(name ^ "-seg") ~pages:6 () )
  in
  let lo, lo_seg = mk "lo" 0.0 in
  let hi, hi_seg = mk "hi" 10.0 in
  let mid, mid_seg = mk "mid" 5.0 in
  let order = ref [] in
  let waiter name client seg start =
    Engine.spawn machine.Hw_machine.engine ~name (fun () ->
        Engine.delay start;
        let got = Spcm.acquire spcm ~client ~dst:seg ~dst_page:0 ~count:6 () in
        check_int (name ^ " fully served") 6 got;
        order := name :: !order;
        (* Hand the grant back so the pump can serve the next waiter. *)
        Spcm.return_pages spcm ~client ~seg ~page:0 ~count:6)
  in
  Engine.spawn machine.Hw_machine.engine ~name:"holder" (fun () ->
      ignore (Spcm.request spcm ~client:holder ~dst:hseg ~dst_page:0 ~count:16 ());
      (* Arrival order: lo at 1ms, hi at 2ms, mid at 3ms; one return at
         10ms lets the queue drain head-first. *)
      Engine.delay 10_000.0;
      Spcm.return_pages spcm ~client:holder ~seg:hseg ~page:0 ~count:6);
  waiter "lo" lo lo_seg 1_000.0;
  waiter "hi" hi hi_seg 2_000.0;
  waiter "mid" mid mid_seg 3_000.0;
  Engine.run machine.Hw_machine.engine;
  Alcotest.(check (list string))
    "priority order, not arrival order" [ "hi"; "mid"; "lo" ] (List.rev !order);
  check_int "queue drained" 0 (Spcm.pending_acquires spcm);
  check_bool "defer events counted" true (Spcm.defer_events spcm >= 3)

let test_acquire_refuse_pending_unblocks () =
  let machine, kernel, spcm = spcm_setup ~frames:8 () in
  let holder = Spcm.register_client ~income:1000.0 spcm ~name:"holder" () in
  let hseg = K.create_segment kernel ~name:"hoard" ~pages:8 () in
  let w = Spcm.register_client ~income:1000.0 spcm ~name:"waiter" () in
  let wseg = K.create_segment kernel ~name:"w-seg" ~pages:4 () in
  let got = ref (-1) in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      ignore (Spcm.request spcm ~client:holder ~dst:hseg ~dst_page:0 ~count:8 ());
      Engine.delay 1_000.0;
      check_int "one waiter parked" 1 (Spcm.pending_acquires spcm);
      check_int "one refused" 1 (Spcm.refuse_pending spcm));
  Engine.spawn machine.Hw_machine.engine (fun () ->
      Engine.delay 500.0;
      got := Spcm.acquire spcm ~client:w ~dst:wseg ~dst_page:0 ~count:4 ());
  Engine.run machine.Hw_machine.engine;
  check_int "woken with zero grant" 0 !got;
  check_int "queue empty" 0 (Spcm.pending_acquires spcm)

let test_sweep_reclaims_for_waiter () =
  (* The holder exposes a manager but never returns voluntarily; only the
     sweeper's reclaim can serve the parked waiter. *)
  let machine, kernel, spcm = spcm_setup ~frames:16 () in
  let hseg = K.create_segment kernel ~name:"hoard" ~pages:16 () in
  let mid =
    K.register_manager kernel ~name:"holder-mgr" ~mode:`In_process
      ~on_fault:(fun _ -> ())
      ~on_pressure:(fun ~pages ->
        let give = min pages (Seg.resident_pages (K.segment kernel hseg)) in
        ignore (K.release_frames kernel ~seg:hseg ~page:0 ~count:16);
        give)
      ()
  in
  let holder = Spcm.register_client ~income:1000.0 ~manager:mid spcm ~name:"holder" () in
  let w = Spcm.register_client ~income:1000.0 spcm ~name:"waiter" () in
  let wseg = K.create_segment kernel ~name:"w-seg" ~pages:4 () in
  let got = ref (-1) in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      ignore (Spcm.request spcm ~client:holder ~dst:hseg ~dst_page:0 ~count:16 ());
      Engine.delay 2_000.0;
      check_int "waiter parked" 1 (Spcm.pending_acquires spcm);
      ignore (Spcm.sweep spcm));
  Engine.spawn machine.Hw_machine.engine (fun () ->
      Engine.delay 1_000.0;
      got := Spcm.acquire spcm ~client:w ~dst:wseg ~dst_page:0 ~count:4 ());
  Engine.run machine.Hw_machine.engine;
  check_int "served by sweep reclaim" 4 !got;
  check_int "frames conserved" 16 (K.frame_owner_total kernel)

let () =
  Alcotest.run "spcm"
    [
      ( "market",
        [
          Alcotest.test_case "income accrues" `Quick test_market_income_accrues;
          Alcotest.test_case "holding charge M*D*T" `Quick test_market_holding_charge;
          Alcotest.test_case "free when idle" `Quick test_market_free_when_idle;
          Alcotest.test_case "billable clock pauses" `Quick test_market_billable_clock;
          Alcotest.test_case "savings tax" `Quick test_market_savings_tax;
          Alcotest.test_case "io charge" `Quick test_market_io_charge;
          Alcotest.test_case "afford/bankrupt" `Quick test_market_can_afford_and_bankrupt;
          Alcotest.test_case "holdings nonnegative" `Quick test_market_holdings_never_negative;
          Alcotest.test_case "rejects bad config" `Quick test_market_rejects_bad_config;
          Alcotest.test_case "rejects bad account ops" `Quick test_market_rejects_bad_account_ops;
        ] );
      ( "market-model",
        List.map QCheck_alcotest.to_alcotest [ prop_market_differential ] );
      ( "admission",
        List.map QCheck_alcotest.to_alcotest [ prop_admit_model ]
        @ [
            Alcotest.test_case "FIFO ties and re-insert" `Quick
              test_admit_fifo_ties_and_reinsert;
          ] );
      ( "allocation",
        [
          Alcotest.test_case "grant" `Quick test_spcm_grant;
          Alcotest.test_case "partial grant" `Quick test_spcm_partial_grant;
          Alcotest.test_case "refused when broke" `Quick test_spcm_refused_when_broke;
          Alcotest.test_case "return pages" `Quick test_spcm_return_pages;
          Alcotest.test_case "color constraint" `Quick test_spcm_color_constraint;
          Alcotest.test_case "phys range constraint" `Quick test_spcm_phys_range_constraint;
          Alcotest.test_case "constrained exhaustion partial" `Quick
            test_spcm_constrained_exhaustion_gives_partial;
          Alcotest.test_case "reclaims from clients" `Quick test_spcm_reclaims_from_other_clients;
          Alcotest.test_case "source adapter" `Quick test_spcm_source_adapter;
          Alcotest.test_case "note returned" `Quick test_spcm_note_returned;
          Alcotest.test_case "frame conservation" `Quick test_spcm_frame_conservation;
        ] );
      ( "acquire",
        [
          Alcotest.test_case "immediate when free" `Quick test_acquire_immediate_when_free;
          Alcotest.test_case "served in priority order" `Quick
            test_acquire_served_in_priority_order;
          Alcotest.test_case "refuse_pending unblocks" `Quick test_acquire_refuse_pending_unblocks;
          Alcotest.test_case "sweep reclaims for waiter" `Quick test_sweep_reclaims_for_waiter;
        ] );
    ]
