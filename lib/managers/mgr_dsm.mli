(** Distributed-shared-memory consistency as a segment manager.

    The paper's conclusion credits external page-cache management with
    letting V++ move "page reclamation, most copy-on-write support and
    distributed consistency" out of the kernel into process-level
    managers. This module is that consistency manager: an MSI
    (invalidate-based) protocol over per-node copy segments, built
    entirely from the exported primitives — faults deliver coherence
    events, [MigratePages] installs and revokes copies, [ModifyPageFlags]
    expresses the Shared (read-only) and Exclusive (writable) states, and
    remote traffic is charged a network latency per protocol message.

    Each logical node sees the shared region through its own segment.
    Reads fault a Shared copy in (downgrading a remote Exclusive holder);
    writes demand Exclusive, invalidating every other copy. The "home"
    keeps the authoritative data for pages nobody holds. *)

type t

type page_state = Invalid | Shared | Exclusive

val create :
  Epcm_kernel.t ->
  ?name:string ->
  source:Mgr_generic.source ->
  nodes:int ->
  pages:int ->
  ?net_latency_us:float ->
  unit ->
  t
(** [net_latency_us] (default 1000) is charged per protocol message; a
    copy transfer is two messages (request + data) plus a page copy.
    [name] (default ["dsm-manager"]) distinguishes several instances on
    one kernel (the sharded engine runs one per shard machine). *)

val read : t -> node:int -> page:int -> Hw_page_data.t
(** Coherent read: faults in a Shared copy if needed. *)

val write : t -> node:int -> page:int -> Hw_page_data.t -> unit
(** Coherent write: acquires Exclusive, invalidating other copies. *)

(** {!read} and {!write} from concurrent simulation processes serialise
    on the manager, one coherence step at a time: a step charges
    interconnect time and so can block, and an interleaved step could
    otherwise revoke the copy being installed or read. *)

val state : t -> node:int -> page:int -> page_state

val holders : t -> page:int -> int list
(** Nodes currently holding a copy. *)

(** {2 Protocol statistics} *)

val transfers : t -> int  (** Copies shipped between nodes/home. *)

val invalidations : t -> int
val downgrades : t -> int  (** Exclusive → Shared on a remote read. *)

val charge_messages : t -> messages:int -> unit
(** Charge [messages] non-coherence messages (two-phase-commit control
    traffic) at the same per-message latency as coherence traffic. This
    is the transport hook the cross-shard coordinator uses. *)
