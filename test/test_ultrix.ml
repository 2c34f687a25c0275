(* Tests for the Ultrix 4.1 baseline kernel model. *)

module Engine = Sim_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let setup ?resident_limit ?(frames = 256) () =
  let machine = Hw_machine.create ~memory_bytes:(frames * 4096) () in
  let uvm = Uvm.create ?resident_limit machine in
  (machine, uvm)

let test_fault_timing_175 () =
  let machine, uvm = setup () in
  let pid = Uvm.create_process uvm ~name:"p" in
  let t = Exp_table1.timed machine (fun () -> Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write) in
  check_float "the paper's 175us" 175.0 t

let test_zero_fill_counted () =
  let _, uvm = setup () in
  let pid = Uvm.create_process uvm ~name:"p" in
  for v = 0 to 9 do
    Uvm.touch uvm pid ~vpn:v ~access:Uvm.Write
  done;
  check_int "ten zero fills" 10 (Uvm.stats uvm).Uvm.zero_fills;
  check_int "ten faults" 10 (Uvm.stats uvm).Uvm.faults;
  (* Re-touching is free of faults. *)
  Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Read;
  check_int "warm touch no fault" 10 (Uvm.stats uvm).Uvm.faults

let test_reprotect_timing_152 () =
  let machine, uvm = setup () in
  let pid = Uvm.create_process uvm ~name:"p" in
  Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write;
  Uvm.protect uvm pid ~vpn:0;
  let t = Exp_table1.timed machine (fun () -> Uvm.touch_protected uvm pid ~vpn:0) in
  check_float "the paper's 152us" 152.0 t;
  check_int "user fault counted" 1 (Uvm.stats uvm).Uvm.user_faults

let test_io_timing () =
  let machine, uvm = setup () in
  let fd = Uvm.open_file uvm ~file_id:1 ~size_kb:64 in
  Uvm.preload uvm fd;
  let read4 = Exp_table1.timed machine (fun () -> Uvm.read uvm fd ~offset_kb:0 ~kb:4) in
  check_float "read 4KB = 211" 211.0 read4;
  let machine2, uvm2 = setup () in
  let fd2 = Uvm.open_file uvm2 ~file_id:1 ~size_kb:64 in
  Uvm.preload uvm2 fd2;
  let write4 = Exp_table1.timed machine2 (fun () -> Uvm.write uvm2 fd2 ~offset_kb:0 ~kb:4) in
  check_float "write 4KB = 311" 311.0 write4

let test_io_8kb_transfer_unit () =
  let _, uvm = setup () in
  let fd = Uvm.open_file uvm ~file_id:1 ~size_kb:64 in
  Uvm.preload uvm fd;
  (* 32KB read = four 8KB system calls (V++ would need eight). *)
  Uvm.read uvm fd ~offset_kb:0 ~kb:32;
  check_int "four read calls" 4 (Uvm.stats uvm).Uvm.read_calls;
  Uvm.write uvm fd ~offset_kb:0 ~kb:20;
  check_int "ceil(20/8)=3 write calls" 3 (Uvm.stats uvm).Uvm.write_calls

let test_clock_replacement_under_pressure () =
  let machine, uvm = setup ~resident_limit:8 () in
  let pid = Uvm.create_process uvm ~name:"p" in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for v = 0 to 15 do
        Uvm.touch uvm pid ~vpn:v ~access:Uvm.Write
      done);
  Engine.run machine.Hw_machine.engine;
  check_bool "resident capped" true (Uvm.resident_pages uvm <= 8);
  (* Evicted dirty pages were paged out to swap. *)
  check_bool "page outs happened" true ((Uvm.stats uvm).Uvm.page_outs > 0)

let test_swap_in_after_eviction () =
  let machine, uvm = setup ~resident_limit:4 () in
  let pid = Uvm.create_process uvm ~name:"p" in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for v = 0 to 7 do
        Uvm.touch uvm pid ~vpn:v ~access:Uvm.Write
      done;
      (* vpn 0 was evicted; touching it again must page in from disk,
         not zero-fill. *)
      let zeros_before = (Uvm.stats uvm).Uvm.zero_fills in
      Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Read;
      Alcotest.(check int) "no new zero fill" zeros_before (Uvm.stats uvm).Uvm.zero_fills);
  Engine.run machine.Hw_machine.engine;
  check_bool "page in from swap" true ((Uvm.stats uvm).Uvm.page_ins > 0)

let test_exit_frees_pages () =
  let _, uvm = setup () in
  let pid = Uvm.create_process uvm ~name:"p" in
  for v = 0 to 4 do
    Uvm.touch uvm pid ~vpn:v ~access:Uvm.Write
  done;
  check_int "five resident" 5 (Uvm.resident_pages uvm);
  Uvm.exit_process uvm pid;
  check_int "all freed" 0 (Uvm.resident_pages uvm)

let test_transparency_no_information () =
  (* The point of the whole paper: the Ultrix interface exposes no
     page-cache information or control — its API simply has no way to ask.
     This "test" documents the asymmetry: the V++ kernel exports
     attributes; Uvm exports only aggregate stats. *)
  let _, uvm = setup () in
  let pid = Uvm.create_process uvm ~name:"p" in
  Uvm.touch uvm pid ~vpn:0 ~access:Uvm.Write;
  check_bool "only aggregate visibility" true ((Uvm.stats uvm).Uvm.touches = 1)

let prop_fault_cost_constant =
  QCheck.Test.make ~name:"every fresh anon fault costs exactly 175us" ~count:30
    QCheck.(int_range 1 50)
    (fun pages ->
      let machine, uvm = setup () in
      let pid = Uvm.create_process uvm ~name:"p" in
      let elapsed = Exp_table1.timed machine (fun () ->
          for v = 0 to pages - 1 do
            Uvm.touch uvm pid ~vpn:v ~access:Uvm.Write
          done)
      in
      Float.abs (elapsed -. (175.0 *. float_of_int pages)) < 1e-6)

let () =
  Alcotest.run "ultrix"
    [
      ( "faults",
        [
          Alcotest.test_case "fault = 175us" `Quick test_fault_timing_175;
          Alcotest.test_case "zero fill counted" `Quick test_zero_fill_counted;
          Alcotest.test_case "reprotect = 152us" `Quick test_reprotect_timing_152;
        ] );
      ( "files",
        [
          Alcotest.test_case "read/write timing" `Quick test_io_timing;
          Alcotest.test_case "8KB transfer unit" `Quick test_io_8kb_transfer_unit;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "clock under pressure" `Quick test_clock_replacement_under_pressure;
          Alcotest.test_case "swap in after eviction" `Quick test_swap_in_after_eviction;
          Alcotest.test_case "exit frees" `Quick test_exit_frees_pages;
          Alcotest.test_case "transparency" `Quick test_transparency_no_information;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_fault_cost_constant ]);
    ]
