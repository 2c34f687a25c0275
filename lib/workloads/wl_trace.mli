(** Virtual-memory activity traces for the Tables 2–3 applications.

    The paper runs diff, uncompress and latex with their input files
    pre-cached in memory, so the measured difference between V++ and
    Ultrix is pure VM-system activity: page allocations on first touch,
    file appends, cached-file read/write calls, plus open/close requests
    forwarded to the manager. A trace captures exactly that activity; the
    ALU work between VM events is a calibrated per-app compute time. *)

type op =
  | Compute of float  (** Microseconds of pure computation. *)
  | Open_input of { file : int; kb : int }
      (** Open an existing file (already cached when the trace runs). *)
  | Open_output of { file : int }  (** Create a new file. *)
  | Read_seq of { file : int; kb : int }  (** Sequential read from start. *)
  | Append of { file : int; kb : int }  (** Sequential append. *)
  | Touch_heap of { pages : int }  (** First touch of fresh heap pages. *)
  | Rescan_heap of { passes : int }
      (** Re-reference every heap page touched so far (the computation's
          data accesses). Warm touches: no faults, no manager calls — they
          exercise the TLB and mapping hash only. *)
  | Close of { file : int }
  | Admin of { requests : int }
      (** Other requests the kernel forwards to the manager (fstat, unlink,
          truncate) — the paper counts these among "Manager Calls". *)

type t = {
  name : string;
  ops : op list;
  heap_pages : int;  (** Total heap the trace touches (segment size). *)
  vpp_library_delta_us : float;
      (** Run-time-library time difference of the V++ build relative to the
          Ultrix build, {e outside} the VM system. The paper attributes the
          residual elapsed-time differences (notably latex's) to "the
          run-time library implementations in V++ and Ultrix"; this
          calibrated constant carries that attribution. The VM costs
          themselves are emergent. *)
}

val total_heap_touches : t -> int
val total_read_kb : t -> int
val total_append_kb : t -> int
val input_files : t -> (int * int) list
(** (file id, size kb) of every [Open_input]. *)

val output_files : t -> int list
