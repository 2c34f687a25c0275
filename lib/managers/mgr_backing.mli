(** Backing store for segment managers: where page data comes from and goes
    to when it is not in memory.

    The paper's managers talk to a file server (Figure 2 steps 2–3) or to
    local disk. Two latency models are provided: [memory] (instant — used
    to reproduce the Tables 2–3 runs, where files were pre-cached exactly
    so that no I/O latency would mask VM costs) and [disk], which charges
    real simulated disk time and serialises on the disk arm.

    A [disk] store surfaces the device's injected faults ({!Hw_disk.Io_error})
    as a bounded retry-with-backoff loop: each failed attempt still costs
    full service time, retries wait an exponentially growing backoff, and
    exhaustion raises {!Backing_failed} for the manager above to degrade
    on. A [memory] store never fails.

    A block is addressed by a file id, [-2^30 <= file < 2^30] (swap areas
    use negative ids), and a block number, [0 <= block < 2^32]; the read,
    write and [has_block] operations raise [Invalid_argument] outside
    that range. *)

type t

(** Bounded-retry policy for faulted transfers. [attempts] is the total
    number of tries (minimum 1); [backoff_us] the wait before the first
    retry, doubling on each subsequent one. *)
type retry = { attempts : int; backoff_us : float }

val default_retry : retry
(** 3 attempts, 2 ms initial backoff. *)

exception Backing_failed of { op : Hw_disk.op; file : int; block : int; attempts : int }
(** All attempts failed. Carries the logical address so the manager can
    decide per-page (skip this writeback, demand-fill later, …). *)

val memory : unit -> t
val disk : ?retry:retry -> Hw_disk.t -> page_bytes:int -> t

val disk_block : file:int -> block:int -> int
(** The device block number a (file, block) pair maps to —
    [file * 1_000_000 + block]. Chaos specs use it to target a specific
    logical block as permanently bad. *)

val read_block : t -> file:int -> block:int -> Hw_page_data.t
(** Contents of a file block. Unwritten blocks read as the symbolic
    version-0 block. Blocks the calling process on a [disk] store.

    @raise Backing_failed after the retry budget is exhausted. *)

val write_block : t -> file:int -> block:int -> Hw_page_data.t -> unit
(** @raise Backing_failed after the retry budget is exhausted. *)

val has_block : t -> file:int -> block:int -> bool
(** Has this block ever been written? (No latency charged — the manager's
    own directory answers this.) Anonymous-page managers use it to
    distinguish "fresh page" from "paged out to swap". *)

val reads : t -> int
(** Logical reads (each counted once, however many device attempts). *)

val writes : t -> int

val retries : t -> Hw_disk.op -> int
(** Device attempts beyond the first, summed over the operations of one
    kind. *)

val failures : t -> Hw_disk.op -> int
(** Operations of one kind abandoned after exhausting the retry budget. *)

val io_retries : t -> int
(** {!retries} of reads and writes together. *)

val io_failures : t -> int
(** {!failures} of reads and writes together. *)
