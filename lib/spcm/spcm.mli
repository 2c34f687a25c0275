(** The System Page Cache Manager (paper §2.4): a process-level module that
    allocates the global memory pool among segment managers.

    Managers request page frames; the SPCM grants, defers or refuses based
    on availability and the dram market. Requests may be constrained by
    cache color or physical address range (for page coloring and placement
    control); when a constrained request cannot be fully satisfied it is
    treated like an oversized conventional request — the SPCM grants as
    many frames as it can. When the pool runs short, the SPCM claws frames
    back from other clients through their pressure callbacks, and it can
    force memory out of bankrupt accounts.

    Free frames are the initial segment's, and the SPCM finds them with
    the kernel's one free-frame walk ({!Epcm_kernel.initial_slots}): a
    [Tier] constraint scopes the walk to that tier (an unknown tier id
    finds nothing), [Color] and [Phys_range] become a frame filter on it.

    {b Admission control at scale (ROADMAP item 1).} Two request
    interfaces coexist:

    - {!request} decides immediately: grant (reclaiming from other clients
      if needed), defer (caller retries), or refuse. Unchanged from the
      original design.
    - {!acquire} queues: a shortage parks the caller on an O(log n)
      admission heap ({!Spcm_admit}) keyed by (client priority, settled
      balance) with deterministic FIFO tie-breaking, and blocks its
      process until returning frames are pumped to it in priority order
      (or it is refused). Grants through the queue are all-or-nothing for
      unconstrained requests, so blocked waiters never sit on partial
      holdings and deadlock the pool.

    Per-request market work is O(1): only the requesting account is
    settled ({!Spcm_market.settle_lazy}); the O(accounts) full scan runs
    only from the explicit {!settle} (reports, audits). *)

type constraint_ =
  | Unconstrained
  | Color of int
  | Phys_range of { lo_addr : int; hi_addr : int }
  | Tier of int  (** Frames from one memory tier ({!Hw_phys_mem.tier}). *)

type decision =
  | Granted of int  (** Frames migrated into the requested destination. *)
  | Deferred  (** Nothing available now; retry after others release. *)
  | Refused  (** The client's dram balance cannot carry the allocation. *)

type client_id = int

type client_stats = {
  cs_requests : int;
  cs_granted_frames : int;
  cs_deferred : int;
  cs_refused : int;
  cs_holding : int;
}

type t

val create : Epcm_kernel.t -> ?market:Spcm_market.config -> ?affordability_horizon:float -> unit -> t
(** [affordability_horizon] (seconds, default 10) is how long a client must
    be able to pay for a grant before it is approved. *)

val market : t -> Spcm_market.t

val register_client :
  ?income:float ->
  ?priority:float ->
  ?manager:Epcm_manager.id ->
  t ->
  name:string ->
  unit ->
  client_id
(** [manager] is the client's segment manager, used for pressure callbacks
    when the SPCM must reclaim. [priority] (default 0) is the first
    component of the admission key used by {!acquire}. *)

val set_client_manager : t -> client_id -> Epcm_manager.id -> unit
(** Attach a manager after registration — needed when the manager's frame
    source is built from the client id ({!source_for}). *)

val request :
  t ->
  client:client_id ->
  dst:Epcm_segment.id ->
  dst_page:int ->
  count:int ->
  ?constraint_:constraint_ ->
  unit ->
  decision
(** Grant up to [count] frames, migrating them into [dst] at
    [dst_page ..]. Partial grants return [Granted n] with [n < count]. *)

val acquire :
  t ->
  client:client_id ->
  dst:Epcm_segment.id ->
  dst_page:int ->
  count:int ->
  ?constraint_:constraint_ ->
  unit ->
  int
(** Like {!request}, but a shortage defers the caller on the admission
    queue instead of returning [Deferred]: the calling process blocks
    until frames returned by other clients are granted to it in priority
    order, or it is refused ({!refuse_pending}, or a balance that can no
    longer afford the grant when its turn comes). Returns the number of
    frames granted — [count] on success, [0] on refusal (partial only for
    constrained requests drained early). Must be called from inside a
    simulation process. *)

val pending_acquires : t -> int
(** Waiters parked on the admission queue. *)

val defer_events : t -> int
(** Total number of times a request or acquire was deferred. *)

val refuse_pending : t -> int
(** Wake every queued waiter with a refusal (end-of-run drain so no
    process is left blocked). Returns the number refused. *)

val sweep : t -> int
(** Periodic market enforcement: force bankrupt holdings back, and if
    waiters are queued and the pool cannot serve the head, reclaim the
    shortfall from other clients; then pump the queue. Returns frames
    recovered. O(clients) — call it from a low-frequency sweeper, not per
    request. *)

val source_for : t -> client_id -> Mgr_generic.source
(** Adapter: a {!Mgr_generic.source} that issues unconstrained requests on
    behalf of the client (granted-or-zero; defers/refusals read as 0). *)

val free_frames : t -> int
(** Frames currently in the kernel's initial segment. *)

val return_pages : t -> client:client_id -> seg:Epcm_segment.id -> page:int -> count:int -> unit
(** A client gives frames back ([release_frames] + market bookkeeping).
    Freed frames are immediately pumped to queued waiters in priority
    order. *)

val note_returned : t -> client:client_id -> count:int -> unit
(** Market bookkeeping for frames a client's manager released to the
    initial segment directly (e.g. {!Mgr_generic.swap_out} at the end of a
    batch time slice): decrement holdings without moving frames. Pumps the
    admission queue like {!return_pages}. *)

val settle : t -> unit
(** Run full-scan market settlement at the machine's current time
    (O(accounts); reports and audits only). *)

val client_stats : t -> client_id -> client_stats
val account_of : t -> client_id -> Spcm_market.account
