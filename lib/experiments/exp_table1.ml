module K = Epcm_kernel
module Engine = Sim_engine

type row = {
  label : string;
  vpp_us : float option;
  ultrix_us : float option;
  paper_vpp : float option;
  paper_ultrix : float option;
}

type result = { rows : row list; checks : Exp_report.check list }

let timed machine f =
  let result = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      f ();
      result := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  !result

type path = {
  name : string;
  pinned : Hw_cost.t -> float;
  setup : unit -> Hw_machine.t * (unit -> unit);
}

(* A V++ setup with a warm manager pool so the measured fault is minimal. *)
let vpp_setup ~mode () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let backing = Mgr_backing.memory () in
  let gen = Mgr_generic.create kernel ~name:"bench-mgr" ~mode ~backing ~source () in
  let seg = Mgr_generic.create_segment gen ~name:"bench-heap" ~pages:64 ~kind:Mgr_generic.Anon () in
  Mgr_generic.ensure_pool gen ~count:16;
  (machine, kernel, seg)

let vpp_fault ~mode () =
  let machine, kernel, seg = vpp_setup ~mode () in
  (machine, fun () -> K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write)

(* In-process manager fields a protection fault and just reprotects. *)
let vpp_protection_clear () =
  let machine, kernel, seg = vpp_setup ~mode:`In_process () in
  K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write;
  K.modify_page_flags kernel ~seg ~page:0 ~count:1 ~set_flags:Epcm_flags.no_access ();
  (machine, fun () -> K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Read)

let vpp_uio access () =
  let machine, kernel, seg = vpp_setup ~mode:`In_process () in
  K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write;
  ( machine,
    match access with
    | `Read -> fun () -> ignore (K.uio_read kernel ~seg ~page:0)
    | `Write -> fun () -> K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "bench") )

let ultrix_setup () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) () in
  let uvm = Uvm.create machine in
  let pid = Uvm.create_process uvm ~name:"bench" in
  (machine, uvm, pid)

let ultrix_fault () =
  let machine, uvm, pid = ultrix_setup () in
  (machine, fun () -> Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write)

let ultrix_reprotect () =
  let machine, uvm, pid = ultrix_setup () in
  Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write;
  Uvm.protect uvm pid ~vpn:0;
  (machine, fun () -> Uvm.touch_protected uvm pid ~vpn:0)

let ultrix_io access () =
  let machine, uvm, _ = ultrix_setup () in
  let fd = Uvm.open_file uvm ~file_id:1 ~size_kb:64 in
  Uvm.preload uvm fd;
  ( machine,
    match access with
    | `Read -> fun () -> Uvm.read uvm fd ~offset_kb:0 ~kb:4
    | `Write -> fun () -> Uvm.write uvm fd ~offset_kb:0 ~kb:4 )

let paths =
  [
    { name = "vpp_minimal_fault_in_process"; pinned = Hw_cost.vpp_minimal_fault_in_process;
      setup = vpp_fault ~mode:`In_process };
    { name = "vpp_minimal_fault_via_manager"; pinned = Hw_cost.vpp_minimal_fault_via_manager;
      setup = vpp_fault ~mode:`Separate_process };
    { name = "ultrix_minimal_fault"; pinned = Hw_cost.ultrix_minimal_fault; setup = ultrix_fault };
    { name = "ultrix_user_reprotect_fault"; pinned = Hw_cost.ultrix_user_reprotect_fault;
      setup = ultrix_reprotect };
    { name = "vpp_read_4kb"; pinned = Hw_cost.vpp_read_4kb; setup = vpp_uio `Read };
    { name = "vpp_write_4kb"; pinned = Hw_cost.vpp_write_4kb; setup = vpp_uio `Write };
    { name = "ultrix_read_4kb"; pinned = Hw_cost.ultrix_read_4kb; setup = ultrix_io `Read };
    { name = "ultrix_write_4kb"; pinned = Hw_cost.ultrix_write_4kb; setup = ultrix_io `Write };
  ]

let measure setup =
  let machine, op = setup () in
  timed machine op

let run () =
  let measured = List.map (fun p -> (p.name, measure p.setup)) paths in
  let us name = List.assoc name measured in
  let fault_in_process = us "vpp_minimal_fault_in_process" in
  let fault_via_manager = us "vpp_minimal_fault_via_manager" in
  let ultrix_fault = us "ultrix_minimal_fault" in
  let vpp_read = us "vpp_read_4kb" in
  let vpp_write = us "vpp_write_4kb" in
  let ultrix_read = us "ultrix_read_4kb" in
  let ultrix_write = us "ultrix_write_4kb" in
  let vpp_reprotect = measure vpp_protection_clear in
  let ultrix_reprotect = us "ultrix_user_reprotect_fault" in
  let rows =
    [
      {
        label = "Faulting Process Minimal Fault";
        vpp_us = Some fault_in_process;
        ultrix_us = Some ultrix_fault;
        paper_vpp = Some 107.0;
        paper_ultrix = Some 175.0;
      };
      {
        label = "Default Segment Manager Minimal Fault";
        vpp_us = Some fault_via_manager;
        ultrix_us = Some ultrix_fault;
        paper_vpp = Some 379.0;
        paper_ultrix = Some 175.0;
      };
      {
        label = "Read 4KB (cached file)";
        vpp_us = Some vpp_read;
        ultrix_us = Some ultrix_read;
        paper_vpp = Some 222.0;
        paper_ultrix = Some 211.0;
      };
      {
        label = "Write 4KB (cached file)";
        vpp_us = Some vpp_write;
        ultrix_us = Some ultrix_write;
        paper_vpp = Some 203.0;
        paper_ultrix = Some 311.0;
      };
      {
        label = "User-level reprotect fault (text, 3.1)";
        vpp_us = Some vpp_reprotect;
        ultrix_us = Some ultrix_reprotect;
        paper_vpp = None;
        paper_ultrix = Some 152.0;
      };
    ]
  in
  let cost = Hw_cost.decstation_5000_200 in
  let checks =
    [
      Exp_report.check ~what:"V++ in-process fault beats the Ultrix fault"
        ~pass:(fault_in_process < ultrix_fault)
        ~detail:(Printf.sprintf "%.0f vs %.0f us" fault_in_process ultrix_fault);
      Exp_report.check ~what:"default-manager fault costs more than both"
        ~pass:(fault_via_manager > ultrix_fault && fault_via_manager > fault_in_process)
        ~detail:(Printf.sprintf "%.0f us" fault_via_manager);
      Exp_report.check ~what:"zeroing accounts for most of the Ultrix/V++ gap"
        ~pass:
          (Float.abs (ultrix_fault -. fault_in_process -. cost.Hw_cost.zero_page) < 20.0)
        ~detail:
          (Printf.sprintf "gap %.0f us, zero_page %.0f us"
             (ultrix_fault -. fault_in_process)
             cost.Hw_cost.zero_page);
      Exp_report.check ~what:"V++ write 4KB beats Ultrix (34% in the paper)"
        ~pass:(vpp_write < ultrix_write)
        ~detail:(Printf.sprintf "%.0f vs %.0f us" vpp_write ultrix_write);
      Exp_report.check ~what:"V++ read 4KB slightly dearer than Ultrix (5.2% in the paper)"
        ~pass:(vpp_read > ultrix_read && vpp_read < ultrix_read *. 1.15)
        ~detail:(Printf.sprintf "%.0f vs %.0f us" vpp_read ultrix_read);
      Exp_report.check
        ~what:"a full V++ fault is cheaper than an Ultrix user-level reprotect fault"
        ~pass:(fault_in_process < ultrix_reprotect)
        ~detail:(Printf.sprintf "%.0f vs %.0f us" fault_in_process ultrix_reprotect);
    ]
  in
  { rows; checks }

let render r =
  let cell = function Some v -> Exp_report.us v | None -> "-" in
  let table =
    Exp_report.fmt_table
      ~header:[ "Measurement"; "V++ (us)"; "Ultrix (us)"; "paper V++"; "paper Ultrix" ]
      ~rows:
        (List.map
           (fun row ->
             [ row.label; cell row.vpp_us; cell row.ultrix_us; cell row.paper_vpp;
               cell row.paper_ultrix ])
           r.rows)
  in
  "Table 1: System Primitive Times (microseconds)\n" ^ table ^ "\nShape checks:\n"
  ^ Exp_report.render_checks r.checks
