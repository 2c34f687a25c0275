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

(* A V++ setup with a warm manager pool so the measured fault is minimal. *)
let vpp_setup ~mode () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) () in
  let kernel = K.create machine in
  let source = K.initial_source kernel in
  let backing = Mgr_backing.memory () in
  let gen = Mgr_generic.create kernel ~name:"bench-mgr" ~mode ~backing ~source () in
  let seg = Mgr_generic.create_segment gen ~name:"bench-heap" ~pages:64 ~kind:Mgr_generic.Anon () in
  Mgr_generic.ensure_pool gen ~count:16;
  (machine, kernel, gen, seg)

let measure_vpp_fault ~mode () =
  let machine, kernel, _, seg = vpp_setup ~mode () in
  timed machine (fun () -> K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write)

let measure_vpp_protection_clear () =
  (* In-process manager fields a protection fault and just reprotects. *)
  let machine, kernel, gen, seg = vpp_setup ~mode:`In_process () in
  K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write;
  ignore gen;
  K.modify_page_flags kernel ~seg ~page:0 ~count:1 ~set_flags:Epcm_flags.no_access ();
  timed machine (fun () -> K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Read)

let measure_vpp_uio access =
  let machine, kernel, _, seg = vpp_setup ~mode:`In_process () in
  K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Write;
  match access with
  | `Read -> timed machine (fun () -> ignore (K.uio_read kernel ~seg ~page:0))
  | `Write ->
      timed machine (fun () ->
          K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "bench"))

let ultrix_setup () =
  let machine = Hw_machine.create ~memory_bytes:(4 * 1024 * 1024) () in
  let uvm = Uvm.create machine in
  let pid = Uvm.create_process uvm ~name:"bench" in
  (machine, uvm, pid)

let measure_ultrix_fault () =
  let machine, uvm, pid = ultrix_setup () in
  timed machine (fun () -> Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write)

let measure_ultrix_reprotect () =
  let machine, uvm, pid = ultrix_setup () in
  Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write;
  Uvm.protect uvm pid ~vpn:0;
  timed machine (fun () -> Uvm.touch_protected uvm pid ~vpn:0)

let measure_ultrix_io access =
  let machine, uvm, _ = ultrix_setup () in
  let fd = Uvm.open_file uvm ~file_id:1 ~size_kb:64 in
  Uvm.preload uvm fd;
  match access with
  | `Read -> timed machine (fun () -> Uvm.read uvm fd ~offset_kb:0 ~kb:4)
  | `Write -> timed machine (fun () -> Uvm.write uvm fd ~offset_kb:0 ~kb:4)

let run () =
  let fault_in_process = measure_vpp_fault ~mode:`In_process () in
  let fault_via_manager = measure_vpp_fault ~mode:`Separate_process () in
  let ultrix_fault = measure_ultrix_fault () in
  let vpp_read = measure_vpp_uio `Read in
  let vpp_write = measure_vpp_uio `Write in
  let ultrix_read = measure_ultrix_io `Read in
  let ultrix_write = measure_ultrix_io `Write in
  let vpp_reprotect = measure_vpp_protection_clear () in
  let ultrix_reprotect = measure_ultrix_reprotect () in
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
