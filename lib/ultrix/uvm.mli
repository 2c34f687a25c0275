(** The baseline: a conventional, transparent kernel virtual-memory system
    modelled on ULTRIX 4.1 — the comparator in every table of the paper.

    Differences from the V++ kernel that the paper calls out and that this
    model reproduces:
    - page allocation zero-fills for security (≈75 µs of every minimal
      fault);
    - all fault handling, replacement (global clock) and writeback live in
      the kernel — applications get no information or control;
    - file I/O moves 8 KB per [read]/[write] call (two 4 KB pages), so
      half as many system calls as V++ for the same bytes;
    - a user-level "fault handler" is only expressible as a SIGSEGV
      handler plus [mprotect] — the 152 µs path measured in §3.1. *)

type t

type access = Read | Write

type stats = {
  mutable faults : int;
  mutable zero_fills : int;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable read_calls : int;
  mutable write_calls : int;
  mutable user_faults : int;
  mutable touches : int;
}

val create : ?resident_limit:int -> Hw_machine.t -> t
(** [resident_limit] caps resident pages below the physical frame count
    (models memory pressure without building a huge machine); defaults to
    the full frame count. *)

val stats : t -> stats
val resident_pages : t -> int

(** {2 Processes and anonymous memory} *)

type pid

val create_process : t -> name:string -> pid

val touch : t -> pid -> vpn:int -> access:access -> unit
(** One memory reference. First touch zero-fills a fresh page (the kernel
    allocates transparently); a paged-out page comes back from swap with a
    disk read; replacement runs the global clock. *)

val exit_process : t -> pid -> unit
(** Free all the process's pages. *)

(** {2 Files (buffer cache)} *)

type fd

val open_file : t -> file_id:int -> size_kb:int -> fd
val preload : t -> fd -> unit
(** Pull the whole file into the cache (used to set up the Tables 2–3
    "files cached" condition outside the measured region). *)

val read : t -> fd -> offset_kb:int -> kb:int -> unit
(** Sequential read; each system call moves at most 8 KB. *)

val write : t -> fd -> offset_kb:int -> kb:int -> unit
(** Write/append; 8 KB per call, allocating cache pages as needed. *)

(** {2 User-level fault handling (Appel–Li style)} *)

val protect : t -> pid -> vpn:int -> unit
(** [mprotect PROT_NONE] one page. *)

val touch_protected : t -> pid -> vpn:int -> unit
(** Reference a protected page with a user handler installed that just
    unprotects it: SIGSEGV delivery + mprotect + sigreturn — the paper's
    152 µs measurement. *)
