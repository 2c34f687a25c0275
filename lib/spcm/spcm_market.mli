(** The memory market (paper §2.4).

    The SPCM charges a process [M * D * T] {e drams} for holding M
    megabytes over T seconds at charging rate D, pays each process an
    income of I drams per second, taxes savings so demand cannot
    indefinitely bank ahead of a fixed supply, and charges for I/O so
    scan-structured programs cannot dodge the memory charge by thrashing.
    Processes that exhaust their dram supply are treated as faulty and
    forced to return memory.

    {b Scaling model (ROADMAP item 1).} Settlement is {e lazy}: each
    account carries its own settlement horizon and is brought current in
    O(1) when (and only when) it is touched — a holding change, an I/O
    charge, an admission decision, or an explicit {!settle_lazy}. The
    full-scan {!settle} is kept as the O(accounts) reference; the
    differential market model in [test_spcm.ml] pins lazy == full-scan on
    random operation sequences. Laziness is sound because accounts are
    economically independent and accrual is {e schedule-invariant}: the
    balance trajectory is the exact closed-form flow of

    {v d(balance)/dB = income - holding_cost - tax_rate * max (balance - threshold, 0) v}

    over {e billable} time B, so settling in one step or many gives the
    same result (up to floating-point rounding of the exponential tax
    branch, which chunks differently).

    {b Billable time.} When [free_when_idle] is set, the market clock only
    ticks while memory requests are outstanding (the paper's "continue to
    use memory at no charge when there are no outstanding memory
    requests"): income, holding charges and the savings tax all pause
    while the system is idle. The demand flag feeds a cumulative
    billable-seconds accumulator ({!set_demand} is O(1), never a scan).
    With [free_when_idle] false, billable time is wall time.

    Time is supplied by the caller in {e microseconds} (the simulation
    clock); rates in the config are per second. *)

type config = {
  charge_rate : float;  (** D: drams per megabyte-second of holding. *)
  default_income : float;  (** I: drams per second per account. *)
  savings_tax_rate : float;
      (** Decay rate (per second) pulling the balance excess over the
          threshold back toward it. *)
  savings_tax_threshold : float;
  io_charge : float;  (** Drams per I/O operation. *)
  free_when_idle : bool;
      (** The market clock only ticks while requests are outstanding. *)
}

val default_config : config

type account_id = int

type account = {
  acc_id : account_id;
  acc_name : string;
  mutable income : float;  (** drams per second *)
  mutable balance : float;
  mutable holding_pages : int;
  mutable last_settle_us : float;
  mutable last_billable_s : float;
      (** Billable-clock reading at the last settlement. *)
  mutable total_charged : float;
  mutable total_taxed : float;
  mutable total_income : float;
  mutable io_ops : int;
}

type t

val create : ?config:config -> page_size:int -> unit -> t
(** Raises [Invalid_argument] unless [page_size] is positive and every
    config rate/threshold is finite and non-negative — a NaN or negative
    rate would let a mis-tuned market silently mint or destroy drams. *)

val config : t -> config

val open_account : ?income:float -> t -> name:string -> now_us:float -> account_id
(** Raises [Invalid_argument] if [income] is not finite and non-negative. *)

val account : t -> account_id -> account
val accounts : t -> account list
val n_accounts : t -> int

val settle : t -> now_us:float -> unit
(** Full-scan reference settlement: bring {e every} account current to
    [now_us]. O(accounts) — report/audit time only; the hot paths use
    {!settle_lazy}. *)

val settle_lazy : t -> account_id -> now_us:float -> unit
(** Bring one account current to [now_us] in O(1): accrue income, charge
    for holdings, and apply the savings tax over the account's own billable
    window. Raises [Invalid_argument] if [now_us] precedes the account's
    last settlement (time running backwards would mint income) or if the
    settled balance is not finite (underflow/overflow guard). *)

val set_demand : t -> bool -> now_us:float -> unit
(** Whether any memory requests are outstanding. Drives the billable
    clock; O(1) regardless of account count. *)

val billable_s : t -> now_us:float -> float
(** The billable-clock reading at [now_us] (seconds). *)

val note_holding_change : t -> account_id -> delta_pages:int -> now_us:float -> unit
(** Settle the account lazily, then adjust its holdings. *)

val note_io : t -> account_id -> ops:int -> now_us:float -> unit
(** Settle the account lazily, then charge [ops] I/O operations. Raises
    [Invalid_argument] if [ops] is negative (a refund would mint drams). *)

val can_afford : t -> account_id -> pages:int -> seconds:float -> bool
(** Would the account's balance cover holding [pages] more pages for
    [seconds], at current income? (Balance + income accrual vs charge.)
    Reads the stored balance; settle first for an up-to-date answer. *)

val bankrupt : t -> account_id -> bool
(** Balance below zero — the SPCM may force memory return. *)

val conservation_error : t -> float
(** The no-minting audit: for every account,
    [balance = total_income - total_charged - total_taxed - io_ops * io_charge]
    must hold. Returns the worst relative residual over all accounts
    (absolute residual scaled by [1 + ] the sum of the terms' magnitudes);
    anything above ~1e-9 means drams were created or destroyed outside the
    documented flows. *)
