(** Machine cost model: microsecond charges for the primitive steps that
    kernel and manager code paths execute.

    The simulated kernels do not return benchmark numbers directly; they
    execute the same step sequences as the real code paths and charge each
    step from this table, so the Table 1 rows are {e emergent sums}.

    Calibration (DECstation 5000/200, 25 MHz R3000, 4 KB pages) is anchored
    on the paper's own measurements:

    - V++ minimal fault, handled by the faulting process = 107 µs
      = segment_walk + trap_entry + fault_decode + upcall_deliver
        + manager_fault_logic + (syscall_base + migrate_base
        + migrate_per_page) + resume_direct + pte_update
      = 9 + 5 + 5 + 10 + 12 + (25 + 15 + 6) + 16 + 4.
    - Ultrix minimal fault = 175 µs
      = segment_walk + trap_entry + fault_decode + ultrix_fault_service
        + zero_page + pte_update + trap_exit
      = 9 + 5 + 5 + 70 + 75 + 4 + 7 — the paper attributes ~75 µs of the
      V++/Ultrix difference to Ultrix's security page zeroing.
    - V++ minimal fault via the (separate-process) default manager = 379 µs
      = the in-process path with resume_direct replaced by IPC both ways:
        segment_walk + trap_entry + fault_decode + ipc_send
        + context_switch + manager_server_dispatch + manager_fault_logic
        + migrate syscall + ipc_reply + context_switch + resume_via_kernel
        + trap_exit + pte_update
      = 9 + 5 + 5 + 28 + 85 + 35 + 12 + 46 + 28 + 85 + 30 + 7 + 4.
    - Ultrix user-level reprotection fault (signal + mprotect) = 152 µs
      = trap_entry + fault_decode + signal_deliver + (syscall_base
        + mprotect_base + pte_update + tlb_flush_page) + sigreturn
      = 5 + 5 + 45 + (25 + 20 + 4 + 2) + 46.
    - Cached file 4 KB: V++ read 222 = syscall_base + uio_read_overhead
      + copy_page; V++ write 203 = syscall_base + uio_write_overhead
      + copy_page; Ultrix read 211 = syscall_base + vnode_lookup
      + copy_page; Ultrix write 311 adds ultrix_write_bookkeeping (buffer
      cache block handling with its 8 KB transfer unit).

    The SGI 4D/380 preset (Table 4) only needs MIPS rate, fault service
    time and disk parameters; the paper simulated that machine too. *)

type t = {
  (* traps and mode switches *)
  trap_entry : float;
  trap_exit : float;
  fault_decode : float;  (** Kernel identifies faulting segment + page. *)
  upcall_deliver : float;  (** Kernel transfers control to a user handler. *)
  resume_direct : float;  (** R3000-style resume without kernel re-entry. *)
  resume_via_kernel : float;  (** MC680x0-style resume through the kernel. *)
  signal_deliver : float;  (** Unix signal delivery to a user handler. *)
  sigreturn : float;
  context_switch : float;
  (* kernel calls *)
  syscall_base : float;  (** Entry+exit of any kernel operation. *)
  migrate_base : float;
  migrate_per_page : float;
  modify_flags_base : float;
  modify_flags_per_page : float;
  get_attributes_base : float;
  get_attributes_per_page : float;
  set_manager : float;
  bind_region : float;
  mprotect_base : float;
  (* memory-system micro-ops *)
  pte_update : float;  (** Per page-table/hash entry touched. *)
  tlb_flush_page : float;
  tlb_refill : float;  (** Software TLB miss refill. *)
  zero_page : float;  (** Zero-fill one 4 KB page. *)
  copy_page : float;  (** Copy one 4 KB page memory-to-memory. *)
  segment_walk : float;  (** Mapping-hash miss: walk segment structures. *)
  (* IPC between faulting process / kernel / manager *)
  ipc_send : float;
  ipc_reply : float;
  manager_server_dispatch : float;  (** Message demux in a manager server. *)
  manager_fault_logic : float;  (** Manager-internal bookkeeping per fault. *)
  (* file paths *)
  uio_read_overhead : float;
  uio_write_overhead : float;
  vnode_lookup : float;
  ultrix_fault_service : float;  (** Ultrix kernel fault service, sans zero. *)
  ultrix_write_bookkeeping : float;
  (* superpage (2 MB) translation micro-ops — charged {e only} on
     superpage paths (promotion, demotion/split, super TLB refills), so
     a machine that never installs a superpage charges none of these and
     the Table 1 identities above are untouched. *)
  tlb_refill_super : float;  (** Software refill of one 2 MB TLB entry. *)
  pte_update_super : float;  (** Install/update one 2 MB mapping entry. *)
  superpage_promote : float;
      (** Fold an aligned run of resident 4 KB mappings into one
          superpage (scan + merge bookkeeping), on top of
          [pte_update_super] for the install. *)
  superpage_demote : float;
      (** Split one superpage back to 4 KB granularity (the demoted
          pages rebuild their 4 KB entries lazily via segment walks). *)
  (* physically-indexed cache (attached via [Hw_machine.create ?cache]) *)
  cache_miss_penalty : float;
      (** Extra charged per cache-line miss when a machine carries a
          cache model (label ["kernel/cache_miss"]). Machines built
          without [?cache] never consult the model and charge none of
          this, so the Table 1 identities above are untouched. *)
  (* compute *)
  mips : float;  (** Instructions per microsecond of one CPU. *)
}

val decstation_5000_200 : t
(** The Table 1–3 machine: 25 MHz R3000, 4 KB pages. *)

val sgi_4d_380 : t
(** The Table 4 machine: eight 30-MIPS processors (the paper uses six). *)

(** {2 Memory-tier surcharges}

    Per-tier extras layered {e on top of} the flat charges above when a
    machine is built with several memory tiers ({!Hw_phys_mem.tier_spec}).
    A plain DRAM tier charges zero for both, and zero-valued charges are
    dropped by {!Hw_machine.charge} before they reach the engine — so a
    single-DRAM-tier machine is cost-identical to an untier-aware one and
    every pinned table stays byte-identical. *)

type tier_costs = {
  tier_access_us : float;
      (** Extra charged once per fault-path resolution that lands on a
          frame of this tier (label ["kernel/tier_access"]). *)
  tier_migrate_us : float;
      (** Extra charged per page of this tier moved by [MigratePages]
          (label ["kernel/tier_migrate"]). *)
}

val dram_tier_costs : tier_costs
(** All-zero: near DRAM, the 1992 baseline. *)

val slow_dram_tier_costs : tier_costs
(** CXL/NVM-like far memory: 2 µs access, 3 µs/page migrate extras. *)

(** Derived path costs — the sums documented above, recomputed from the
    fields so tests can assert the calibration identities. *)

val vpp_minimal_fault_in_process : t -> float
val vpp_minimal_fault_via_manager : t -> float
val ultrix_minimal_fault : t -> float
val ultrix_user_reprotect_fault : t -> float
val vpp_read_4kb : t -> float
val vpp_write_4kb : t -> float
val ultrix_read_4kb : t -> float
val ultrix_write_4kb : t -> float
