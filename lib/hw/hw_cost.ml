type t = {
  trap_entry : float;
  trap_exit : float;
  fault_decode : float;
  upcall_deliver : float;
  resume_direct : float;
  resume_via_kernel : float;
  signal_deliver : float;
  sigreturn : float;
  context_switch : float;
  syscall_base : float;
  migrate_base : float;
  migrate_per_page : float;
  modify_flags_base : float;
  modify_flags_per_page : float;
  get_attributes_base : float;
  get_attributes_per_page : float;
  set_manager : float;
  bind_region : float;
  mprotect_base : float;
  pte_update : float;
  tlb_flush_page : float;
  tlb_refill : float;
  zero_page : float;
  copy_page : float;
  segment_walk : float;
  ipc_send : float;
  ipc_reply : float;
  manager_server_dispatch : float;
  manager_fault_logic : float;
  uio_read_overhead : float;
  uio_write_overhead : float;
  vnode_lookup : float;
  ultrix_fault_service : float;
  ultrix_write_bookkeeping : float;
  tlb_refill_super : float;
  pte_update_super : float;
  superpage_promote : float;
  superpage_demote : float;
  cache_miss_penalty : float;
  mips : float;
}

let decstation_5000_200 =
  {
    trap_entry = 5.0;
    trap_exit = 7.0;
    fault_decode = 5.0;
    upcall_deliver = 10.0;
    resume_direct = 16.0;
    resume_via_kernel = 30.0;
    signal_deliver = 45.0;
    sigreturn = 46.0;
    context_switch = 85.0;
    syscall_base = 25.0;
    migrate_base = 15.0;
    migrate_per_page = 6.0;
    modify_flags_base = 12.0;
    modify_flags_per_page = 2.0;
    get_attributes_base = 10.0;
    get_attributes_per_page = 1.0;
    set_manager = 14.0;
    bind_region = 22.0;
    mprotect_base = 20.0;
    pte_update = 4.0;
    tlb_flush_page = 2.0;
    tlb_refill = 0.8;
    zero_page = 75.0;
    copy_page = 150.0;
    segment_walk = 9.0;
    ipc_send = 28.0;
    ipc_reply = 28.0;
    manager_server_dispatch = 35.0;
    manager_fault_logic = 12.0;
    uio_read_overhead = 47.0;
    uio_write_overhead = 28.0;
    vnode_lookup = 36.0;
    ultrix_fault_service = 70.0;
    ultrix_write_bookkeeping = 100.0;
    tlb_refill_super = 0.8;
    pte_update_super = 4.0;
    superpage_promote = 30.0;
    superpage_demote = 20.0;
    cache_miss_penalty = 0.5;
    mips = 25.0;
  }

let sgi_4d_380 =
  (* Same structural model; faster processors, similar memory system.
     Only the compute rate matters for Table 4 — fault latency there is
     dominated by the disk, modelled in Hw_disk. *)
  {
    decstation_5000_200 with
    mips = 30.0;
    copy_page = 110.0;
    zero_page = 55.0;
    context_switch = 70.0;
  }

type tier_costs = {
  tier_access_us : float;
  tier_migrate_us : float;
}

let dram_tier_costs = { tier_access_us = 0.0; tier_migrate_us = 0.0 }

let slow_dram_tier_costs =
  (* CXL/NVM-like far memory: roughly 3x DRAM load latency on the fault
     path and a per-page surcharge when moving frames that live there.
     Small against a 15 ms disk access, large against a 6 µs migrate. *)
  { tier_access_us = 2.0; tier_migrate_us = 3.0 }

let vpp_minimal_fault_in_process c =
  c.segment_walk +. c.trap_entry +. c.fault_decode +. c.upcall_deliver
  +. c.manager_fault_logic
  +. (c.syscall_base +. c.migrate_base +. c.migrate_per_page)
  +. c.resume_direct +. c.pte_update

let vpp_minimal_fault_via_manager c =
  c.segment_walk +. c.trap_entry +. c.fault_decode +. c.ipc_send +. c.context_switch
  +. c.manager_server_dispatch +. c.manager_fault_logic
  +. (c.syscall_base +. c.migrate_base +. c.migrate_per_page)
  +. c.ipc_reply +. c.context_switch +. c.resume_via_kernel +. c.trap_exit
  +. c.pte_update

let ultrix_minimal_fault c =
  c.segment_walk +. c.trap_entry +. c.fault_decode +. c.ultrix_fault_service +. c.zero_page
  +. c.pte_update +. c.trap_exit

let ultrix_user_reprotect_fault c =
  c.trap_entry +. c.fault_decode +. c.signal_deliver
  +. (c.syscall_base +. c.mprotect_base +. c.pte_update +. c.tlb_flush_page)
  +. c.sigreturn

let vpp_read_4kb c = c.syscall_base +. c.uio_read_overhead +. c.copy_page
let vpp_write_4kb c = c.syscall_base +. c.uio_write_overhead +. c.copy_page
let ultrix_read_4kb c = c.syscall_base +. c.vnode_lookup +. c.copy_page
let ultrix_write_4kb c = c.syscall_base +. c.vnode_lookup +. c.copy_page +. c.ultrix_write_bookkeeping
