(** Segment-manager registration (paper §2.1–2.2).

    A manager is a process-level module responsible for the pages of the
    segments assigned to it with [SetSegmentManager]. The kernel forwards
    page-fault events to it and notifies it of segment closure; the System
    Page Cache Manager uses the pressure callback to demand frames back.

    [mode] selects the two fault-delivery paths the paper measures:
    [`In_process] executes the handler on the faulting process (upcall,
    no context switch — the 107 µs path); [`Separate_process] models a
    manager server reached by IPC with two context switches (the 379 µs
    path of the default manager). *)

type id = int

type fault_kind =
  | Missing  (** No frame mapped at the referenced page. *)
  | Protection  (** Flags forbid the access ([no_access] / [read_only]). *)
  | Cow_write  (** Write to a page reached through a copy-on-write binding. *)

type access = Read | Write

type fault = {
  f_seg : Epcm_segment.id;  (** Segment owning the faulting page slot. *)
  f_page : int;
  f_access : access;
  f_kind : fault_kind;
  f_space : Epcm_segment.id;
      (** Segment the reference was issued against (before binding
          resolution); equals [f_seg] for direct references. *)
}

type mode = [ `In_process | `Separate_process ]

type t = {
  mid : id;
  mname : string;
  mmode : mode;
  on_fault : fault -> unit;
      (** Must leave a frame mapped with compatible protection at
          ([f_seg], [f_page]) — normally by calling [MigratePages] — or
          raise. For [Cow_write] the kernel performs the data copy after
          the handler returns. *)
  on_close : Epcm_segment.id -> unit;
  on_pressure : pages:int -> int;
      (** The SPCM demands frames; returns how many the manager agreed to
          give back (it chooses which — paper §4). *)
}

val pp_fault : Format.formatter -> fault -> unit
