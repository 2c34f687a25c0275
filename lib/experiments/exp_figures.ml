module K = Epcm_kernel

type result = {
  figure1 : string;
  figure2_remote : string list;
  figure2_local : string list;
  checks : Exp_report.check list;
}

let figure1 () =
  (* Rebuild Figure 1: a virtual address space segment with code, data and
     stack segments bound in (data copy-on-write from a template, as for a
     forked process image). *)
  let machine = Hw_machine.create () in
  let kernel = K.create machine in
  let code = K.create_segment kernel ~name:"Code Segment" ~pages:16 () in
  let data = K.create_segment kernel ~name:"Data Segment" ~pages:32 () in
  let stack = K.create_segment kernel ~name:"Stack Segment" ~pages:8 () in
  let space = K.create_segment kernel ~name:"Virtual Address Space Segment" ~pages:256 () in
  K.bind_region kernel ~space ~at:0 ~len:16 ~target:code ~target_page:0 ~cow:false;
  K.bind_region kernel ~space ~at:64 ~len:32 ~target:data ~target_page:0 ~cow:true;
  K.bind_region kernel ~space ~at:248 ~len:8 ~target:stack ~target_page:0 ~cow:false;
  K.render_address_space kernel space

let figure2 ~local () =
  let machine = Hw_machine.create ~trace:true () in
  let kernel = K.create machine in
  let backing = Mgr_backing.memory () in
  let source = K.initial_source kernel in
  let gen = Mgr_generic.create kernel ~name:"fig2-mgr" ~mode:`In_process ~backing ~source () in
  let seg =
    if local then Mgr_generic.create_segment gen ~name:"heap" ~pages:8 ~kind:Mgr_generic.Anon ()
    else
      Mgr_generic.create_segment gen ~name:"file" ~pages:8
        ~kind:(Mgr_generic.File { file_id = 42 }) ~high_water:8 ()
  in
  Mgr_generic.ensure_pool gen ~count:4;
  Sim_trace.clear machine.Hw_machine.trace;
  K.touch kernel ~space:seg ~page:0 ~access:Epcm_manager.Read;
  Sim_trace.tags machine.Hw_machine.trace

let run () =
  let fig1 = figure1 () in
  let remote = figure2 ~local:false () in
  let local = figure2 ~local:true () in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  let checks =
    [
      Exp_report.check ~what:"figure 1: code, data and stack regions bound into the space"
        ~pass:
          (contains fig1 "Code Segment" && contains fig1 "Data Segment"
          && contains fig1 "Stack Segment")
        ~detail:"";
      Exp_report.check ~what:"figure 1: the data region is copy-on-write"
        ~pass:(contains fig1 "--cow-->") ~detail:"";
      Exp_report.check ~what:"figure 2: remote fill follows steps 1,2,3,4,5"
        ~pass:
          (remote
          = [
              "step1.fault_to_manager"; "step2.request_data"; "step3.data_reply"; "step4.migrate";
              "step5.resume";
            ])
        ~detail:(String.concat " -> " remote);
      Exp_report.check ~what:"figure 2: local data collapses steps 2-3 into a local fill"
        ~pass:
          (local
          = [ "step1.fault_to_manager"; "step2-3.local_fill"; "step4.migrate"; "step5.resume" ])
        ~detail:(String.concat " -> " local);
    ]
  in
  { figure1 = fig1; figure2_remote = remote; figure2_local = local; checks }

let render r =
  "Figure 1: Kernel Implementation of a Virtual Address Space\n" ^ r.figure1
  ^ "\nFigure 2: Page Fault Handling with External Page-Cache Management\n"
  ^ "  remote fill: " ^ String.concat " -> " r.figure2_remote ^ "\n"
  ^ "  local fill:  " ^ String.concat " -> " r.figure2_local ^ "\n" ^ "\nShape checks:\n"
  ^ Exp_report.render_checks r.checks
