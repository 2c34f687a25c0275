(* Semantics and timing tests for the epcm kernel: segments, bindings,
   MigratePages / ModifyPageFlags / GetPageAttributes, fault delivery,
   copy-on-write and the UIO block interface. *)

module K = Epcm_kernel
module Seg = Epcm_segment
module Mgr = Epcm_manager
module Flags = Epcm_flags
module Machine = Hw_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let small_machine ?(frames = 64) ?(trace = false) () =
  Machine.create ~memory_bytes:(frames * 4096) ~trace ()

let kernel ?frames ?trace () = K.create (small_machine ?frames ?trace ())

(* A trivial in-process manager that serves every missing/cow fault from a
   stash of initial-segment frames and records the faults it saw. *)
let spy_manager ?(mode = `In_process) k =
  let seen = ref [] in
  let kern = k in
  let init = K.initial_segment kern in
  let next_init = ref 0 in
  let mid =
    K.register_manager kern ~name:"spy" ~mode
      ~on_fault:(fun f ->
        seen := f :: !seen;
        match f.Mgr.f_kind with
        | Mgr.Missing | Mgr.Cow_write ->
            (* Take the next resident initial-segment slot, wrapping once
               to reuse slots that released frames have refilled. *)
            let rec find ~wrapped i =
              if i >= Seg.length (K.segment kern init) then
                if wrapped then Alcotest.fail "out of frames" else find ~wrapped:true 0
              else if (Seg.page (K.segment kern init) i).Seg.frame <> None then i
              else find ~wrapped (i + 1)
            in
            let slot = find ~wrapped:false !next_init in
            next_init := slot + 1;
            K.migrate_pages kern ~src:init ~dst:f.Mgr.f_seg ~src_page:slot
              ~dst_page:f.Mgr.f_page ~count:1 ()
        | Mgr.Protection ->
            K.modify_page_flags kern ~seg:f.Mgr.f_seg ~page:f.Mgr.f_page ~count:1
              ~clear_flags:(Flags.of_list [ Flags.no_access; Flags.read_only ])
              ())
      ()
  in
  (mid, seen)

(* ------------------------------------------------------------------ *)
(* Boot state and frame accounting                                     *)
(* ------------------------------------------------------------------ *)

let test_initial_segment () =
  let k = kernel ~frames:32 () in
  let init = K.segment k (K.initial_segment k) in
  check_int "initial segment holds every frame" 32 (Seg.resident_pages init);
  (* Frames are in physical-address order. *)
  let attrs = K.get_page_attributes k ~seg:(K.initial_segment k) ~page:0 ~count:32 in
  Array.iteri
    (fun i a ->
      check_int (Printf.sprintf "frame %d identity" i) i (Option.get a.K.pa_frame);
      check_int "phys addr" (i * 4096) (Option.get a.K.pa_phys_addr))
    attrs

let total_resident k =
  K.frame_owner_total k

let test_frame_conservation_after_migrates () =
  let k = kernel ~frames:32 () in
  let s = K.create_segment k ~name:"app" ~pages:10 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:s ~src_page:0 ~dst_page:0 ~count:5 ();
  check_int "conserved" 32 (total_resident k);
  check_int "segment got 5" 5 (Seg.resident_pages (K.segment k s));
  K.release_frames k ~seg:s ~page:0 ~count:5;
  check_int "conserved after release" 32 (total_resident k);
  check_int "initial whole again" 32 (Seg.resident_pages (K.segment k (K.initial_segment k)))

(* ------------------------------------------------------------------ *)
(* MigratePages semantics                                              *)
(* ------------------------------------------------------------------ *)

let test_migrate_moves_data_and_flags () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  let b = K.create_segment k ~name:"b" ~pages:4 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:2 ~count:1 ();
  (* Put data in and dirty the page. *)
  K.uio_write k ~seg:a ~page:2 (Hw_page_data.of_string "payload");
  let before = K.get_page_attributes k ~seg:a ~page:2 ~count:1 in
  check_bool "dirty after write" true (Flags.mem before.(0).K.pa_flags Flags.dirty);
  K.migrate_pages k ~src:a ~dst:b ~src_page:2 ~dst_page:0 ~count:1 ();
  let a_attr = K.get_page_attributes k ~seg:a ~page:2 ~count:1 in
  let b_attr = K.get_page_attributes k ~seg:b ~page:0 ~count:1 in
  check_bool "source slot empty" true (a_attr.(0).K.pa_frame = None);
  check_bool "dirty travelled with the frame" true (Flags.mem b_attr.(0).K.pa_flags Flags.dirty);
  let data = K.uio_read k ~seg:b ~page:0 in
  check_bool "data travelled" true (Hw_page_data.equal data (Hw_page_data.of_string "payload"))

let test_migrate_set_clear_flags () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:2 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:1
    ~set_flags:(Flags.of_list [ Flags.pinned ])
    ();
  let attr = K.get_page_attributes k ~seg:a ~page:0 ~count:1 in
  check_bool "pinned set by migrate" true (Flags.mem attr.(0).K.pa_flags Flags.pinned)

let test_migrate_errors () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  let b = K.create_segment k ~name:"b" ~pages:4 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:1 ();
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:b ~src_page:1 ~dst_page:0 ~count:1 ();
  (let f () = K.migrate_pages k ~src:a ~dst:b ~src_page:0 ~dst_page:0 ~count:1 () in
   match f () with
   | () -> Alcotest.fail "expected Frame_present"
   | exception K.Error (K.Frame_present { seg; page }) ->
       check_int "seg" b seg;
       check_int "page" 0 page);
  (let f () = K.migrate_pages k ~src:a ~dst:b ~src_page:3 ~dst_page:1 ~count:1 () in
   match f () with
   | () -> Alcotest.fail "expected No_frame"
   | exception K.Error (K.No_frame _) -> ());
  match K.migrate_pages k ~src:a ~dst:b ~src_page:0 ~dst_page:3 ~count:2 () with
  | () -> Alcotest.fail "expected Page_out_of_range"
  | exception K.Error (K.Page_out_of_range _) -> ()

let test_migrate_counts () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:8 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:4 ();
  check_int "one call" 1 (K.stats k).K.migrate_calls;
  check_int "four pages" 4 (K.stats k).K.migrated_pages

(* ------------------------------------------------------------------ *)
(* ModifyPageFlags / GetPageAttributes                                 *)
(* ------------------------------------------------------------------ *)

let test_modify_flags_dirty_control () =
  (* The paper's point: managers can clear even the dirty flag, which
     mprotect-style interfaces cannot. *)
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:1 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:1 ();
  K.uio_write k ~seg:a ~page:0 (Hw_page_data.of_string "x");
  check_bool "dirty" true
    (Flags.mem (K.get_page_attributes k ~seg:a ~page:0 ~count:1).(0).K.pa_flags Flags.dirty);
  K.modify_page_flags k ~seg:a ~page:0 ~count:1 ~clear_flags:Flags.dirty ();
  check_bool "dirty cleared without writeback" false
    (Flags.mem (K.get_page_attributes k ~seg:a ~page:0 ~count:1).(0).K.pa_flags Flags.dirty)

let test_get_attributes_range () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:6 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:1 ~count:2 ();
  let attrs = K.get_page_attributes k ~seg:a ~page:0 ~count:6 in
  check_int "six entries" 6 (Array.length attrs);
  check_bool "page 0 empty" true (attrs.(0).K.pa_frame = None);
  check_bool "page 1 mapped" true (attrs.(1).K.pa_frame <> None);
  check_bool "page 3 empty" true (attrs.(3).K.pa_frame = None)

(* ------------------------------------------------------------------ *)
(* Fault delivery                                                      *)
(* ------------------------------------------------------------------ *)

let test_fault_no_manager () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:1 () in
  match K.touch k ~space:a ~page:0 ~access:Mgr.Read with
  | () -> Alcotest.fail "expected No_manager"
  | exception K.Error (K.No_manager seg) -> check_int "segment" a seg

let test_fault_resolved_by_manager () =
  let k = kernel () in
  let mid, seen = spy_manager k in
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  K.set_segment_manager k a mid;
  K.touch k ~space:a ~page:2 ~access:Mgr.Write;
  check_int "one fault" 1 (List.length !seen);
  let f = List.hd !seen in
  check_bool "missing kind" true (f.Mgr.f_kind = Mgr.Missing);
  check_int "page" 2 f.Mgr.f_page;
  check_int "manager calls counted" 1 (K.manager_calls_of k mid);
  (* Second touch: no fault. *)
  K.touch k ~space:a ~page:2 ~access:Mgr.Read;
  check_int "still one fault" 1 (List.length !seen);
  (* Write set dirty and referenced. *)
  let attr = K.get_page_attributes k ~seg:a ~page:2 ~count:1 in
  check_bool "dirty" true (Flags.mem attr.(0).K.pa_flags Flags.dirty);
  check_bool "referenced" true (Flags.mem attr.(0).K.pa_flags Flags.referenced)

let test_unresolved_fault () =
  let k = kernel () in
  let mid =
    K.register_manager k ~name:"lazy" ~mode:`In_process ~on_fault:(fun _ -> ()) ()
  in
  let a = K.create_segment k ~name:"a" ~pages:1 () in
  K.set_segment_manager k a mid;
  match K.touch k ~space:a ~page:0 ~access:Mgr.Read with
  | () -> Alcotest.fail "expected Unresolved_fault"
  | exception K.Error (K.Unresolved_fault _) -> ()

let test_protection_fault_cycle () =
  let k = kernel () in
  let mid, seen = spy_manager k in
  let a = K.create_segment k ~name:"a" ~pages:1 () in
  K.set_segment_manager k a mid;
  K.touch k ~space:a ~page:0 ~access:Mgr.Read;
  (* Protect, then touch: protection fault, manager clears, reference
     succeeds. *)
  K.modify_page_flags k ~seg:a ~page:0 ~count:1 ~set_flags:Flags.no_access ();
  K.touch k ~space:a ~page:0 ~access:Mgr.Read;
  let kinds = List.map (fun f -> f.Mgr.f_kind) !seen in
  check_bool "protection fault delivered" true (List.mem Mgr.Protection kinds);
  check_int "protection faults counted" 1 (K.stats k).K.faults_protection

let test_read_only_write_fault () =
  let k = kernel () in
  let mid, seen = spy_manager k in
  let a = K.create_segment k ~name:"a" ~pages:1 () in
  K.set_segment_manager k a mid;
  K.touch k ~space:a ~page:0 ~access:Mgr.Read;
  K.modify_page_flags k ~seg:a ~page:0 ~count:1 ~set_flags:Flags.read_only ();
  (* Reads are fine. *)
  K.touch k ~space:a ~page:0 ~access:Mgr.Read;
  let before = List.length !seen in
  K.touch k ~space:a ~page:0 ~access:Mgr.Write;
  check_int "write faulted" (before + 1) (List.length !seen)

let test_fault_recursion_guard () =
  let k = kernel () in
  let a = ref (-1) in
  let mid =
    K.register_manager k ~name:"recursive" ~mode:`In_process
      ~on_fault:(fun f ->
        (* Handle the fault by faulting on the same page again. *)
        ignore f;
        K.touch k ~space:!a ~page:0 ~access:Mgr.Read)
      ()
  in
  a := K.create_segment k ~name:"a" ~pages:1 ();
  K.set_segment_manager k !a mid;
  match K.touch k ~space:!a ~page:0 ~access:Mgr.Read with
  | () -> Alcotest.fail "expected Fault_recursion"
  | exception K.Error (K.Fault_recursion _) -> ()

(* ------------------------------------------------------------------ *)
(* Bindings, address spaces, copy-on-write                             *)
(* ------------------------------------------------------------------ *)

let test_binding_resolution () =
  let k = kernel () in
  let mid, _ = spy_manager k in
  let code = K.create_segment k ~name:"code" ~pages:4 () in
  let space = K.create_segment k ~name:"space" ~pages:16 () in
  K.set_segment_manager k code mid;
  K.set_segment_manager k space mid;
  K.bind_region k ~space ~at:4 ~len:4 ~target:code ~target_page:0 ~cow:false;
  (* Touch through the space: frame must land in the code segment. *)
  K.touch k ~space ~page:5 ~access:Mgr.Read;
  check_int "code got the frame" 1 (Seg.resident_pages (K.segment k code));
  check_int "space has no private page" 0 (Seg.resident_pages (K.segment k space));
  check_bool "resolve_slot sees through" true
    (K.resolve_slot k ~space ~page:5 = Some (code, 1))

let test_binding_overlap_rejected () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:8 () in
  let b = K.create_segment k ~name:"b" ~pages:8 () in
  K.bind_region k ~space:a ~at:0 ~len:4 ~target:b ~target_page:0 ~cow:false;
  match K.bind_region k ~space:a ~at:2 ~len:2 ~target:b ~target_page:4 ~cow:false with
  | () -> Alcotest.fail "expected Binding_overlap"
  | exception K.Error (K.Binding_overlap _) -> ()

let test_binding_range_checked () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  let b = K.create_segment k ~name:"b" ~pages:4 () in
  match K.bind_region k ~space:a ~at:2 ~len:4 ~target:b ~target_page:0 ~cow:false with
  | () -> Alcotest.fail "expected Binding_out_of_range"
  | exception K.Error (K.Binding_out_of_range _) -> ()

(* The bound-region array is kept sorted so binding_covering and
   bindings_overlap are binary searches (they run on every fault-path
   segment walk). Build a layout in shuffled insertion order and pin both
   against the linear scans they replaced, over every page and a grid of
   candidate regions — boundaries included. *)
let test_binding_search_matches_linear () =
  let seg = Seg.make ~sid:99 ~name:"search" ~page_size:4096 ~pages:64 () in
  let regions = [ (40, 5); (0, 3); (20, 1); (8, 4); (58, 6); (30, 6) ] in
  List.iter
    (fun (at, len) ->
      Seg.add_binding seg { Seg.at; len; target = 1; target_page = at; cow = false })
    regions;
  let sorted = Seg.bindings_list seg in
  let ats = List.map (fun b -> b.Seg.at) sorted in
  Alcotest.(check (list int)) "insertion kept the array sorted" (List.sort compare ats) ats;
  let naive_covering page =
    List.find_opt (fun b -> b.Seg.at <= page && page < b.Seg.at + b.Seg.len) sorted
  in
  for page = 0 to Seg.length seg - 1 do
    check_bool
      (Printf.sprintf "covering(%d) matches the linear scan" page)
      true
      (Seg.binding_covering seg page = naive_covering page)
  done;
  let naive_overlap ~at ~len =
    List.exists (fun b -> at < b.Seg.at + b.Seg.len && b.Seg.at < at + len) sorted
  in
  for at = 0 to Seg.length seg - 1 do
    List.iter
      (fun len ->
        check_bool
          (Printf.sprintf "overlap(%d,%d) matches the linear scan" at len)
          true
          (Seg.bindings_overlap seg ~at ~len = naive_overlap ~at ~len))
      [ 1; 2; 5; 11 ]
  done;
  (* An empty segment for the degenerate cases. *)
  let bare = Seg.make ~sid:100 ~name:"bare" ~page_size:4096 ~pages:8 () in
  check_bool "no bindings: covering none" true (Seg.binding_covering bare 3 = None);
  check_bool "no bindings: no overlap" false (Seg.bindings_overlap bare ~at:0 ~len:8)

(* The per-segment resident counter (and the O(segments) owner audit built
   on it) must track the page-array scan through every mutation class:
   migrate in/out, release, destroy. *)
let test_resident_counter_matches_scan () =
  let k = kernel ~frames:32 () in
  let audits_agree what =
    Alcotest.(check (list (pair int int)))
      (what ^ ": incremental audit = scan audit")
      (K.frame_owner_audit_scan k) (K.frame_owner_audit k);
    List.iter
      (fun (sid, _) ->
        let seg = K.segment k sid in
        check_int
          (Printf.sprintf "%s: segment %d counter = scan" what sid)
          (Seg.resident_pages_scan seg) (Seg.resident_pages seg))
      (K.frame_owner_audit k)
  in
  audits_agree "boot";
  let a = K.create_segment k ~name:"a" ~pages:12 () in
  let b = K.create_segment k ~name:"b" ~pages:12 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:8 ();
  audits_agree "after migrate in";
  K.migrate_pages k ~src:a ~dst:b ~src_page:2 ~dst_page:0 ~count:4 ();
  audits_agree "after migrate across";
  K.release_frames k ~seg:b ~page:0 ~count:2;
  audits_agree "after release";
  K.destroy_segment k a;
  audits_agree "after destroy";
  check_int "still conserved" 32 (K.frame_owner_total k)

let test_cow_write_creates_private_copy () =
  let k = kernel () in
  let mid, seen = spy_manager k in
  let src = K.create_segment k ~name:"template" ~pages:2 () in
  let space = K.create_segment k ~name:"space" ~pages:2 () in
  K.set_segment_manager k src mid;
  K.set_segment_manager k space mid;
  (* Fill the template with known data. *)
  K.touch k ~space:src ~page:0 ~access:Mgr.Write;
  K.uio_write k ~seg:src ~page:0 (Hw_page_data.of_string "original");
  K.bind_region k ~space ~at:0 ~len:2 ~target:src ~target_page:0 ~cow:true;
  (* Reads go through to the template — no copy. *)
  K.touch k ~space ~page:0 ~access:Mgr.Read;
  check_int "no private page on read" 0 (Seg.resident_pages (K.segment k space));
  (* A write takes a cow fault and gets a private copy. *)
  K.touch k ~space ~page:0 ~access:Mgr.Write;
  check_int "private page exists" 1 (Seg.resident_pages (K.segment k space));
  check_bool "cow fault seen" true
    (List.exists (fun f -> f.Mgr.f_kind = Mgr.Cow_write) !seen);
  check_int "cow fault counted" 1 (K.stats k).K.faults_cow;
  (* The private copy carries the template data; writing through UIO to the
     space leaves the template untouched. *)
  let private_data = K.uio_read k ~seg:space ~page:0 in
  check_bool "copied data" true
    (Hw_page_data.equal private_data (Hw_page_data.of_string "original"));
  K.uio_write k ~seg:space ~page:0 (Hw_page_data.of_string "modified");
  let template = K.uio_read k ~seg:src ~page:0 in
  check_bool "template unchanged" true
    (Hw_page_data.equal template (Hw_page_data.of_string "original"))

let test_render_address_space () =
  let k = kernel () in
  let code = K.create_segment k ~name:"code" ~pages:4 () in
  let data = K.create_segment k ~name:"data" ~pages:4 () in
  let space = K.create_segment k ~name:"space" ~pages:32 () in
  K.bind_region k ~space ~at:0 ~len:4 ~target:code ~target_page:0 ~cow:false;
  K.bind_region k ~space ~at:8 ~len:4 ~target:data ~target_page:0 ~cow:true;
  let figure = K.render_address_space k space in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "mentions code segment" true (contains figure "code");
  check_bool "mentions data segment" true (contains figure "data");
  check_bool "cow binding rendered" true (contains figure "--cow-->");
  check_bool "plain binding rendered" true (contains figure "--bind-->")

(* ------------------------------------------------------------------ *)
(* Multiple page sizes (2.1: Alpha-style hardware)                     *)
(* ------------------------------------------------------------------ *)

let test_multiple_page_sizes () =
  (* "A parameter to the segment creation call optionally specifies the
     page size to support machines such as those using the Alpha
     microprocessor that support multiple page sizes." Segments of
     different page sizes coexist; migrating between mismatched sizes is
     rejected. *)
  let k = kernel () in
  let small = K.create_segment k ~name:"small" ~pages:4 () in
  let big = K.create_segment k ~page_size:8192 ~name:"big" ~pages:4 () in
  check_int "default page size" 4096 (K.segment k small).Seg.seg_page_size;
  check_int "alpha page size" 8192 (K.segment k big).Seg.seg_page_size;
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:small ~src_page:0 ~dst_page:0 ~count:1 ();
  match K.migrate_pages k ~src:small ~dst:big ~src_page:0 ~dst_page:0 ~count:1 () with
  | () -> Alcotest.fail "expected Page_size_mismatch"
  | exception K.Error (K.Page_size_mismatch _) -> ()

let test_page_size_mismatch_binding () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  let b = K.create_segment k ~page_size:8192 ~name:"b" ~pages:4 () in
  match K.bind_region k ~space:a ~at:0 ~len:2 ~target:b ~target_page:0 ~cow:false with
  | () -> Alcotest.fail "expected Page_size_mismatch"
  | exception K.Error (K.Page_size_mismatch _) -> ()

let test_fault_on_8kb_segment () =
  (* End-to-end fault handling on an Alpha-style 8KB-page segment: the
     spy manager cannot serve it (its frames are 4KB), but a same-size
     donor segment can. *)
  let k = kernel () in
  let donor = K.create_segment k ~page_size:8192 ~name:"donor" ~pages:4 () in
  (* Hand-build a donor frame: 8KB segments cannot take 4KB initial
     frames, so the donor starts empty and we check the error paths meet
     expectations. *)
  check_int "8kb segment empty" 0 (Seg.resident_pages (K.segment k donor));
  let big = K.create_segment k ~page_size:8192 ~name:"big" ~pages:4 () in
  let mid =
    K.register_manager k ~name:"8kb-mgr" ~mode:`In_process
      ~on_fault:(fun f ->
        (* No 8KB frames exist on this 4KB machine: the manager cannot
           resolve, which must surface as Unresolved_fault, not silent
           corruption. *)
        ignore f)
      ()
  in
  K.set_segment_manager k big mid;
  match K.touch k ~space:big ~page:0 ~access:Mgr.Read with
  | () -> Alcotest.fail "expected Unresolved_fault"
  | exception K.Error (K.Unresolved_fault _) -> ()

let test_grow_segment () =
  let k = kernel () in
  let mid, _ = spy_manager k in
  let a = K.create_segment k ~name:"a" ~pages:2 () in
  K.set_segment_manager k a mid;
  K.touch k ~space:a ~page:1 ~access:Mgr.Write;
  K.grow_segment k a ~pages:3;
  check_int "grown" 5 (Seg.length (K.segment k a));
  check_int "old content kept" 1 (Seg.resident_pages (K.segment k a));
  (* New range is faultable. *)
  K.touch k ~space:a ~page:4 ~access:Mgr.Write;
  check_int "new page resident" 2 (Seg.resident_pages (K.segment k a))

(* ------------------------------------------------------------------ *)
(* Random-operation properties                                         *)
(* ------------------------------------------------------------------ *)

(* A random sequence of migrate/release/destroy operations must conserve
   frames: every frame owned by exactly one live segment. *)
let prop_random_ops_conserve_frames =
  QCheck.Test.make ~name:"random migrate/release/destroy conserves frames" ~count:60
    QCheck.(list (pair (int_bound 3) (int_bound 15)))
    (fun ops ->
      let k = kernel ~frames:64 () in
      let mid, _ = spy_manager k in
      let segs =
        Array.init 4 (fun i ->
            let s = K.create_segment k ~name:(Printf.sprintf "s%d" i) ~pages:16 () in
            K.set_segment_manager k s mid;
            s)
      in
      let alive = Array.make 4 true in
      List.iter
        (fun (which, page) ->
          let seg = segs.(which) in
          if alive.(which) then
            match page mod 3 with
            | 0 -> ( try K.touch k ~space:seg ~page ~access:Mgr.Write with K.Error _ -> ())
            | 1 -> ( try K.release_frames k ~seg ~page:0 ~count:8 with K.Error _ -> ())
            | _ ->
                if page = 2 then begin
                  (try K.destroy_segment k seg with K.Error _ -> ());
                  alive.(which) <- false
                end
                else try K.touch k ~space:seg ~page ~access:Mgr.Read with K.Error _ -> ())
        ops;
      let total = K.frame_owner_total k in
      total = 64)

(* Flags algebra. *)
let flag_gen =
  QCheck.oneofl
    [ Flags.dirty; Flags.referenced; Flags.no_access; Flags.read_only; Flags.pinned;
      Flags.io_busy ]

let prop_flags_union_mem =
  QCheck.Test.make ~name:"flags: mem holds for every member of a union" ~count:200
    QCheck.(pair (list flag_gen) flag_gen)
    (fun (fs, f) ->
      let set = Flags.of_list (f :: fs) in
      Flags.mem set f)

let prop_flags_diff_removes =
  QCheck.Test.make ~name:"flags: diff removes exactly the subtracted flags" ~count:200
    QCheck.(pair (list flag_gen) flag_gen)
    (fun (fs, f) ->
      let set = Flags.of_list fs in
      let removed = Flags.diff set f in
      (not (Flags.mem removed f)) || Flags.equal f Flags.empty)

(* Migrating a page back and forth preserves its data. *)
let prop_migrate_roundtrip_data =
  QCheck.Test.make ~name:"migrate roundtrip preserves page data" ~count:100
    QCheck.string_small
    (fun text ->
      let k = kernel () in
      let a = K.create_segment k ~name:"a" ~pages:2 () in
      let b = K.create_segment k ~name:"b" ~pages:2 () in
      K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:1 ();
      K.uio_write k ~seg:a ~page:0 (Hw_page_data.of_string text);
      K.migrate_pages k ~src:a ~dst:b ~src_page:0 ~dst_page:1 ~count:1 ();
      K.migrate_pages k ~src:b ~dst:a ~src_page:1 ~dst_page:0 ~count:1 ();
      Hw_page_data.equal (K.uio_read k ~seg:a ~page:0) (Hw_page_data.of_string text))

(* ------------------------------------------------------------------ *)
(* UIO                                                                 *)
(* ------------------------------------------------------------------ *)

let test_uio_faults_page_in () =
  let k = kernel () in
  let mid, seen = spy_manager k in
  let f = K.create_segment k ~name:"file" ~pages:4 () in
  K.set_segment_manager k f mid;
  let _ = K.uio_read k ~seg:f ~page:1 in
  check_int "read faulted once" 1 (List.length !seen);
  check_int "uio reads counted" 1 (K.stats k).K.uio_reads;
  K.uio_write k ~seg:f ~page:1 (Hw_page_data.of_string "blk");
  check_int "write hit cache" 1 (List.length !seen)

(* ------------------------------------------------------------------ *)
(* Destroy and release                                                 *)
(* ------------------------------------------------------------------ *)

let test_destroy_returns_frames_and_notifies () =
  let k = kernel ~frames:16 () in
  let closed = ref [] in
  let mid =
    K.register_manager k ~name:"m" ~mode:`In_process
      ~on_fault:(fun _ -> ())
      ~on_close:(fun s -> closed := s :: !closed)
      ()
  in
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  K.set_segment_manager k a mid;
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:3 ();
  K.destroy_segment k a;
  check_bool "close notified" true (!closed = [ a ]);
  check_bool "segment gone" false (K.segment_exists k a);
  check_int "frames conserved in initial" 16
    (Seg.resident_pages (K.segment k (K.initial_segment k)))

let test_initial_segment_protected () =
  let k = kernel () in
  (match K.destroy_segment k (K.initial_segment k) with
  | () -> Alcotest.fail "expected Initial_segment_operation"
  | exception K.Error K.Initial_segment_operation -> ());
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  match K.bind_region k ~space:a ~at:0 ~len:1 ~target:(K.initial_segment k) ~target_page:0 ~cow:false with
  | () -> Alcotest.fail "expected Initial_segment_operation"
  | exception K.Error K.Initial_segment_operation -> ()

let test_zero_pages () =
  let k = kernel () in
  let a = K.create_segment k ~name:"a" ~pages:1 () in
  K.migrate_pages k ~src:(K.initial_segment k) ~dst:a ~src_page:0 ~dst_page:0 ~count:1 ();
  K.uio_write k ~seg:a ~page:0 (Hw_page_data.of_string "junk");
  K.zero_pages k ~seg:a ~page:0 ~count:1;
  let data = K.uio_read k ~seg:a ~page:0 in
  check_bool "zeroed" true (Hw_page_data.equal data Hw_page_data.Zero)

(* ------------------------------------------------------------------ *)
(* Translation coherence                                               *)
(* ------------------------------------------------------------------ *)

let test_stale_translation_after_migrate () =
  (* A cached translation must die with the migration: touching the old
     page after its frame moved away must fault again, not silently hit a
     stale TLB/hash entry. *)
  let k = kernel () in
  let mid, seen = spy_manager k in
  let a = K.create_segment k ~name:"a" ~pages:4 () in
  let b = K.create_segment k ~name:"b" ~pages:4 () in
  K.set_segment_manager k a mid;
  K.set_segment_manager k b mid;
  K.touch k ~space:a ~page:0 ~access:Mgr.Read;
  K.touch k ~space:a ~page:0 ~access:Mgr.Read;
  (* cached *)
  check_int "one fault so far" 1 (List.length !seen);
  K.migrate_pages k ~src:a ~dst:b ~src_page:0 ~dst_page:0 ~count:1 ();
  K.touch k ~space:a ~page:0 ~access:Mgr.Read;
  check_int "stale mapping invalidated: second fault" 2 (List.length !seen)

let test_stale_translation_after_protection_change () =
  let k = kernel () in
  let mid, seen = spy_manager k in
  let a = K.create_segment k ~name:"a" ~pages:1 () in
  K.set_segment_manager k a mid;
  K.touch k ~space:a ~page:0 ~access:Mgr.Write;
  K.touch k ~space:a ~page:0 ~access:Mgr.Write;
  let before = List.length !seen in
  K.modify_page_flags k ~seg:a ~page:0 ~count:1 ~set_flags:Flags.no_access ();
  K.touch k ~space:a ~page:0 ~access:Mgr.Write;
  check_int "protection change invalidated the cached mapping" (before + 1)
    (List.length !seen)

let test_stale_translation_through_binding () =
  (* The reverse index must also catch translations cached through a
     binding: space -> target slot. *)
  let k = kernel () in
  let mid, seen = spy_manager k in
  let target = K.create_segment k ~name:"target" ~pages:4 () in
  let space = K.create_segment k ~name:"space" ~pages:4 () in
  let pool = K.create_segment k ~name:"pool" ~pages:4 () in
  K.set_segment_manager k target mid;
  K.set_segment_manager k space mid;
  K.set_segment_manager k pool mid;
  K.bind_region k ~space ~at:0 ~len:4 ~target ~target_page:0 ~cow:false;
  K.touch k ~space ~page:1 ~access:Mgr.Read;
  K.touch k ~space ~page:1 ~access:Mgr.Read;
  let before = List.length !seen in
  (* Move the backing frame out from under the binding. *)
  K.migrate_pages k ~src:target ~dst:pool ~src_page:1 ~dst_page:0 ~count:1 ();
  K.touch k ~space ~page:1 ~access:Mgr.Read;
  check_int "binding-path translation invalidated" (before + 1) (List.length !seen)

(* One slot cached under three translations: its own key and two bound
   spaces (at different pages). Migrating the frame away must drop all
   three, so each next touch misses the mapping hash and walks the
   segments again; after one bound space is destroyed, the other still
   follows the slot. *)
let test_stale_translation_through_two_bindings () =
  let k = kernel () in
  let mid, seen = spy_manager k in
  let target = K.create_segment k ~name:"target" ~pages:4 () in
  let s1 = K.create_segment k ~name:"s1" ~pages:4 () in
  let s2 = K.create_segment k ~name:"s2" ~pages:4 () in
  let pool = K.create_segment k ~name:"pool" ~pages:4 () in
  List.iter (fun s -> K.set_segment_manager k s mid) [ target; s1; s2; pool ];
  K.bind_region k ~space:s1 ~at:0 ~len:4 ~target ~target_page:0 ~cow:false;
  K.bind_region k ~space:s2 ~at:2 ~len:2 ~target ~target_page:1 ~cow:false;
  let pt = (K.machine k).Machine.page_table in
  (* Touch through (space, page) and report whether it walked the
     segments (a mapping-hash miss) rather than hitting a cached
     translation. *)
  let walked space page =
    let misses = Hw_page_table.misses pt in
    K.touch k ~space ~page ~access:Mgr.Read;
    Hw_page_table.misses pt > misses
  in
  let keys = [ (s1, 1); (s2, 2); (target, 1) ] in
  List.iter (fun (space, page) -> ignore (walked space page)) keys;
  List.iter
    (fun (space, page) ->
      check_bool (Printf.sprintf "(%d, %d) cached" space page) false (walked space page))
    keys;
  check_int "one fault filled the slot" 1 (List.length !seen);
  K.migrate_pages k ~src:target ~dst:pool ~src_page:1 ~dst_page:0 ~count:1 ();
  List.iter
    (fun (space, page) ->
      check_bool (Printf.sprintf "(%d, %d) walks after the migrate" space page) true
        (walked space page))
    keys;
  check_int "the first walk faulted the slot back in" 2 (List.length !seen);
  let frame_of space page =
    let e = Hw_page_table.find pt ~space ~vpn:page in
    if e == Hw_page_table.vacant then -1 else e.Hw_page_table.frame
  in
  let current = Option.get (Seg.page (K.segment k target) 1).Seg.frame in
  List.iter
    (fun (space, page) ->
      check_int (Printf.sprintf "(%d, %d) maps the slot's frame" space page) current
        (frame_of space page))
    keys;
  K.destroy_segment k s2;
  K.migrate_pages k ~src:target ~dst:pool ~src_page:1 ~dst_page:1 ~count:1 ();
  check_bool "the other bound space walks after the second migrate" true (walked s1 1);
  check_int "its translation follows the slot" (Option.get (Seg.page (K.segment k target) 1).Seg.frame)
    (frame_of s1 1)

let test_touch_dead_binding_target () =
  let k = kernel () in
  let mid, _ = spy_manager k in
  let target = K.create_segment k ~name:"target" ~pages:4 () in
  let space = K.create_segment k ~name:"space" ~pages:4 () in
  K.set_segment_manager k space mid;
  K.bind_region k ~space ~at:0 ~len:4 ~target ~target_page:0 ~cow:false;
  K.destroy_segment k target;
  match K.touch k ~space ~page:0 ~access:Mgr.Read with
  | () -> Alcotest.fail "expected Dead_segment"
  | exception K.Error (K.Dead_segment _) -> ()

(* ------------------------------------------------------------------ *)
(* Timing: the Table 1 code paths                                      *)
(* ------------------------------------------------------------------ *)

let minimal_manager_setup ~mode () =
  let machine = small_machine ~frames:256 () in
  let k = K.create machine in
  let backing = Mgr_backing.memory () in
  let init = K.initial_segment k in
  let source ~dst ~dst_page ~count =
    (* Grant frames straight from the initial segment. *)
    let granted = ref 0 in
    let init_seg = K.segment k init in
    (try
       for slot = 0 to Seg.length init_seg - 1 do
         if !granted < count && (Seg.page init_seg slot).Seg.frame <> None then begin
           K.migrate_pages k ~src:init ~dst ~src_page:slot ~dst_page:(dst_page + !granted)
             ~count:1 ();
           incr granted
         end
       done
     with K.Error _ -> ());
    !granted
  in
  let g = Mgr_generic.create k ~name:"minimal" ~mode ~backing ~source ~pool_capacity:64 () in
  let seg = Mgr_generic.create_segment g ~name:"heap" ~pages:64 ~kind:Mgr_generic.Anon () in
  (machine, k, g, seg)

let test_timing_minimal_fault_in_process () =
  let machine, k, g, seg = minimal_manager_setup ~mode:`In_process () in
  Mgr_generic.ensure_pool g ~count:8;
  let elapsed =
    Exp_table1.timed machine (fun () -> K.touch k ~space:seg ~page:0 ~access:Mgr.Write)
  in
  check_float "paper: 107 us" (Hw_cost.vpp_minimal_fault_in_process machine.Machine.cost) elapsed;
  check_float "numerically 107" 107.0 elapsed

let test_timing_minimal_fault_via_manager () =
  let machine, k, g, seg = minimal_manager_setup ~mode:`Separate_process () in
  Mgr_generic.ensure_pool g ~count:8;
  let elapsed =
    Exp_table1.timed machine (fun () -> K.touch k ~space:seg ~page:0 ~access:Mgr.Write)
  in
  check_float "paper: 379 us" (Hw_cost.vpp_minimal_fault_via_manager machine.Machine.cost) elapsed;
  check_float "numerically 379" 379.0 elapsed

let test_timing_uio_cached () =
  let machine, k, g, seg = minimal_manager_setup ~mode:`In_process () in
  Mgr_generic.ensure_pool g ~count:8;
  (* Fault the page in outside the measurement. *)
  K.touch k ~space:seg ~page:0 ~access:Mgr.Write;
  ignore g;
  let read = Exp_table1.timed machine (fun () -> ignore (K.uio_read k ~seg ~page:0)) in
  check_float "read 4KB = 222" 222.0 read;
  let write =
    Exp_table1.timed machine (fun () -> K.uio_write k ~seg ~page:0 (Hw_page_data.of_string "x"))
  in
  check_float "write 4KB = 203" 203.0 write

let test_timing_second_touch_free () =
  let machine, k, g, seg = minimal_manager_setup ~mode:`In_process () in
  Mgr_generic.ensure_pool g ~count:8;
  K.touch k ~space:seg ~page:0 ~access:Mgr.Write;
  ignore g;
  (* Warm: mapping cached; cost at most a TLB refill. *)
  let elapsed =
    Exp_table1.timed machine (fun () -> K.touch k ~space:seg ~page:0 ~access:Mgr.Read)
  in
  check_bool "warm touch under 1us" true (elapsed <= 1.0)

(* Table 1 pin: the emergent fault/IO sums must not move when the fault
   injection machinery is present but disabled — no plan, the inert
   [Sim_chaos.none] plan, and an enabled all-zero-probability plan must
   all be observationally free. *)
let test_table1_rows_with_injection_disabled () =
  let plans =
    [
      ("no plan", None);
      ("inert plan", Some (Sim_chaos.none ()));
      ("zero-probability plan", Some (Sim_chaos.create ~seed:1L Sim_chaos.default_spec));
    ]
  in
  List.iter
    (fun (what, plan) ->
      let machine, k, g, seg = minimal_manager_setup ~mode:`In_process () in
      Hw_disk.set_chaos machine.Machine.disk plan;
      Mgr_generic.ensure_pool g ~count:8;
      let fault =
        Exp_table1.timed machine (fun () -> K.touch k ~space:seg ~page:0 ~access:Mgr.Write)
      in
      check_float (what ^ ": in-process fault = 107") 107.0 fault;
      let read = Exp_table1.timed machine (fun () -> ignore (K.uio_read k ~seg ~page:0)) in
      check_float (what ^ ": cached read = 222") 222.0 read;
      let write =
        Exp_table1.timed machine (fun () -> K.uio_write k ~seg ~page:0 (Hw_page_data.of_string "x"))
      in
      check_float (what ^ ": cached write = 203") 203.0 write)
    plans;
  let machine, k, g, seg = minimal_manager_setup ~mode:`Separate_process () in
  Hw_disk.set_chaos machine.Machine.disk (Some (Sim_chaos.none ()));
  Mgr_generic.ensure_pool g ~count:8;
  let fault = Exp_table1.timed machine (fun () -> K.touch k ~space:seg ~page:0 ~access:Mgr.Write) in
  check_float "inert plan: via-manager fault = 379" 379.0 fault;
  (* All eight Table 1 rows, as the cost-table identities they sum to. *)
  let c = Hw_cost.decstation_5000_200 in
  List.iter
    (fun (name, expect, got) -> check_float name expect got)
    [
      ("V++ fault in-process = 107", 107.0, Hw_cost.vpp_minimal_fault_in_process c);
      ("V++ fault via manager = 379", 379.0, Hw_cost.vpp_minimal_fault_via_manager c);
      ("Ultrix fault = 175", 175.0, Hw_cost.ultrix_minimal_fault c);
      ("Ultrix reprotect = 152", 152.0, Hw_cost.ultrix_user_reprotect_fault c);
      ("V++ read 4KB = 222", 222.0, Hw_cost.vpp_read_4kb c);
      ("V++ write 4KB = 203", 203.0, Hw_cost.vpp_write_4kb c);
      ("Ultrix read 4KB = 211", 211.0, Hw_cost.ultrix_read_4kb c);
      ("Ultrix write 4KB = 311", 311.0, Hw_cost.ultrix_write_4kb c);
    ]

(* ------------------------------------------------------------------ *)
(* Cost-model calibration identities                                   *)
(* ------------------------------------------------------------------ *)

let test_cost_calibration () =
  let c = Hw_cost.decstation_5000_200 in
  check_float "vpp in-process fault" 107.0 (Hw_cost.vpp_minimal_fault_in_process c);
  check_float "vpp via-manager fault" 379.0 (Hw_cost.vpp_minimal_fault_via_manager c);
  check_float "ultrix fault" 175.0 (Hw_cost.ultrix_minimal_fault c);
  check_float "ultrix reprotect" 152.0 (Hw_cost.ultrix_user_reprotect_fault c);
  check_float "vpp read" 222.0 (Hw_cost.vpp_read_4kb c);
  check_float "vpp write" 203.0 (Hw_cost.vpp_write_4kb c);
  check_float "ultrix read" 211.0 (Hw_cost.ultrix_read_4kb c);
  check_float "ultrix write" 311.0 (Hw_cost.ultrix_write_4kb c);
  (* The zeroing story: most of the Ultrix-vs-V++ difference is zero_page. *)
  check_float "zeroing is 75us" 75.0 c.Hw_cost.zero_page

(* ------------------------------------------------------------------ *)
(* Figure 2 protocol trace                                             *)
(* ------------------------------------------------------------------ *)

let test_figure2_protocol_trace () =
  let machine = small_machine ~frames:256 ~trace:true () in
  let k = K.create machine in
  let backing = Mgr_backing.memory () in
  let init = K.initial_segment k in
  let source ~dst ~dst_page ~count =
    let granted = ref 0 in
    let init_seg = K.segment k init in
    for slot = 0 to Seg.length init_seg - 1 do
      if !granted < count && (Seg.page init_seg slot).Seg.frame <> None then begin
        K.migrate_pages k ~src:init ~dst ~src_page:slot ~dst_page:(dst_page + !granted)
          ~count:1 ();
        incr granted
      end
    done;
    !granted
  in
  let g = Mgr_generic.create k ~name:"filemgr" ~mode:`In_process ~backing ~source () in
  let file =
    Mgr_generic.create_segment g ~name:"file" ~pages:8 ~kind:(Mgr_generic.File { file_id = 7 })
      ~high_water:8 ()
  in
  Mgr_generic.ensure_pool g ~count:4;
  Sim_trace.clear machine.Machine.trace;
  K.touch k ~space:file ~page:3 ~access:Mgr.Read;
  let tags = Sim_trace.tags machine.Machine.trace in
  (* The five steps of Figure 2, in order. *)
  let expected =
    [
      "step1.fault_to_manager"; "step2.request_data"; "step3.data_reply"; "step4.migrate";
      "step5.resume";
    ]
  in
  Alcotest.(check (list string)) "figure 2 sequence" expected tags

(* ------------------------------------------------------------------ *)
(* Golden span decompositions of the Table 1 identities                *)
(* ------------------------------------------------------------------ *)

(* The emergent Table 1 sums, broken into their span-attributed charges
   by the observability layer (Exp_profile re-runs each path with the
   metrics sink enabled). These lists are golden: a new charge on any of
   these code paths, or a moved constant, shows up here as an exact
   diff — rebalance per the hw_cost.mli identities before updating. *)
let check_string = Alcotest.(check string)

let table1_golden =
  [
    ( "vpp_minimal_fault_in_process",
      107.0,
      [
        ("fault/missing/kernel/migrate", 1, 46.0);
        ("fault/missing/kernel/resume", 1, 16.0);
        ("fault/missing/kernel/trap", 1, 10.0);
        ("fault/missing/kernel/upcall", 1, 10.0);
        ("fault/missing/mgr/fault_logic", 1, 12.0);
        ("kernel/pte_update", 1, 4.0);
        ("kernel/segment_walk", 1, 9.0);
      ] );
    ( "vpp_minimal_fault_via_manager",
      379.0,
      [
        ("fault/missing/kernel/ipc_call", 1, 148.0);
        ("fault/missing/kernel/ipc_return", 1, 150.0);
        ("fault/missing/kernel/migrate", 1, 46.0);
        ("fault/missing/kernel/trap", 1, 10.0);
        ("fault/missing/mgr/fault_logic", 1, 12.0);
        ("kernel/pte_update", 1, 4.0);
        ("kernel/segment_walk", 1, 9.0);
      ] );
    ( "ultrix_minimal_fault",
      175.0,
      [
        ("fault/ultrix/fault_service", 1, 80.0);
        ("fault/ultrix/pte_update", 1, 11.0);
        ("fault/ultrix/zero_fill", 1, 75.0);
        ("ultrix/segment_walk", 1, 9.0);
      ] );
    ( "ultrix_user_reprotect_fault",
      152.0,
      [
        ("fault/ultrix/mprotect", 1, 51.0);
        ("fault/ultrix/signal_deliver", 1, 55.0);
        ("fault/ultrix/sigreturn", 1, 46.0);
      ] );
    ( "vpp_read_4kb",
      222.0,
      [ ("kernel/copy_page", 1, 150.0); ("kernel/uio_read", 1, 72.0) ] );
    ( "vpp_write_4kb",
      203.0,
      [ ("kernel/copy_page", 1, 150.0); ("kernel/uio_write", 1, 53.0) ] );
    ( "ultrix_read_4kb",
      211.0,
      [ ("ultrix/copy_page", 1, 150.0); ("ultrix/read_syscall", 1, 61.0) ] );
    ( "ultrix_write_4kb",
      311.0,
      [ ("ultrix/copy_page", 1, 150.0); ("ultrix/write_syscall", 1, 161.0) ] );
  ]

let test_table1_span_decomposition () =
  let rows = (Exp_profile.run ()).Exp_profile.rows in
  check_int "eight rows profiled" (List.length table1_golden) (List.length rows);
  List.iter2
    (fun (name, pinned, golden) row ->
      check_string (name ^ ": row label") name row.Exp_profile.p_label;
      check_float (name ^ ": pinned total") pinned row.Exp_profile.p_pinned_us;
      check_float (name ^ ": measured = pinned") pinned row.Exp_profile.p_measured_us;
      let spans = row.Exp_profile.p_spans in
      let span_sum = List.fold_left (fun acc (_, _, us) -> acc +. us) 0.0 spans in
      check_float (name ^ ": spans sum to the identity") pinned span_sum;
      check_int (name ^ ": span count") (List.length golden) (List.length spans);
      List.iter2
        (fun (gp, gn, gus) (p, n, us) ->
          check_string (name ^ ": path " ^ gp) gp p;
          check_int (name ^ ": count of " ^ gp) gn n;
          check_float (name ^ ": cost of " ^ gp) gus us)
        golden spans)
    table1_golden rows

let test_table1_decomposition_matches_cost_constants () =
  (* Cross-check the attribution against hw_cost.ml directly: the charged
     parts are the documented constants, not merely numbers that happen
     to sum right. *)
  let c = Hw_cost.decstation_5000_200 in
  let rows = (Exp_profile.run ()).Exp_profile.rows in
  let span row path =
    match
      List.find_opt (fun (p, _, _) -> p = path) row.Exp_profile.p_spans
    with
    | Some (_, _, us) -> us
    | None -> Alcotest.fail (row.Exp_profile.p_label ^ ": missing span " ^ path)
  in
  let row name = List.find (fun r -> r.Exp_profile.p_label = name) rows in
  let inproc = row "vpp_minimal_fault_in_process" in
  check_float "migrate is the 1-page MigratePages cost"
    (c.Hw_cost.syscall_base +. c.Hw_cost.migrate_base +. c.Hw_cost.migrate_per_page)
    (span inproc "fault/missing/kernel/migrate");
  check_float "trap is entry + decode"
    (c.Hw_cost.trap_entry +. c.Hw_cost.fault_decode)
    (span inproc "fault/missing/kernel/trap");
  check_float "upcall constant" c.Hw_cost.upcall_deliver
    (span inproc "fault/missing/kernel/upcall");
  check_float "resume constant" c.Hw_cost.resume_direct
    (span inproc "fault/missing/kernel/resume");
  check_float "manager logic constant" c.Hw_cost.manager_fault_logic
    (span inproc "fault/missing/mgr/fault_logic");
  let via = row "vpp_minimal_fault_via_manager" in
  check_float "ipc call leg"
    (c.Hw_cost.ipc_send +. c.Hw_cost.context_switch +. c.Hw_cost.manager_server_dispatch)
    (span via "fault/missing/kernel/ipc_call");
  check_float "ipc return leg"
    (c.Hw_cost.ipc_reply +. c.Hw_cost.context_switch +. c.Hw_cost.resume_via_kernel
   +. c.Hw_cost.trap_exit)
    (span via "fault/missing/kernel/ipc_return");
  let ultrix = row "ultrix_minimal_fault" in
  check_float "zero-fill is the zero_page constant" c.Hw_cost.zero_page
    (span ultrix "fault/ultrix/zero_fill");
  check_float "copy is the copy_page constant" c.Hw_cost.copy_page
    (span (row "vpp_read_4kb") "kernel/copy_page")

let () =
  Alcotest.run "kernel"
    [
      ( "boot",
        [
          Alcotest.test_case "initial segment" `Quick test_initial_segment;
          Alcotest.test_case "frame conservation" `Quick test_frame_conservation_after_migrates;
          Alcotest.test_case "resident counter vs scan" `Quick test_resident_counter_matches_scan;
        ] );
      ( "migrate",
        [
          Alcotest.test_case "moves data and flags" `Quick test_migrate_moves_data_and_flags;
          Alcotest.test_case "set/clear flags" `Quick test_migrate_set_clear_flags;
          Alcotest.test_case "errors" `Quick test_migrate_errors;
          Alcotest.test_case "stats counts" `Quick test_migrate_counts;
        ] );
      ( "flags",
        [
          Alcotest.test_case "dirty control" `Quick test_modify_flags_dirty_control;
          Alcotest.test_case "attribute ranges" `Quick test_get_attributes_range;
        ] );
      ( "faults",
        [
          Alcotest.test_case "no manager" `Quick test_fault_no_manager;
          Alcotest.test_case "resolved by manager" `Quick test_fault_resolved_by_manager;
          Alcotest.test_case "unresolved" `Quick test_unresolved_fault;
          Alcotest.test_case "protection cycle" `Quick test_protection_fault_cycle;
          Alcotest.test_case "read-only write" `Quick test_read_only_write_fault;
          Alcotest.test_case "recursion guard" `Quick test_fault_recursion_guard;
        ] );
      ( "bindings",
        [
          Alcotest.test_case "resolution" `Quick test_binding_resolution;
          Alcotest.test_case "overlap rejected" `Quick test_binding_overlap_rejected;
          Alcotest.test_case "range checked" `Quick test_binding_range_checked;
          Alcotest.test_case "binary search vs linear scan" `Quick
            test_binding_search_matches_linear;
          Alcotest.test_case "cow private copy" `Quick test_cow_write_creates_private_copy;
          Alcotest.test_case "figure 1 render" `Quick test_render_address_space;
        ] );
      ("uio", [ Alcotest.test_case "faults page in" `Quick test_uio_faults_page_in ]);
      ( "page-sizes",
        [
          Alcotest.test_case "multiple page sizes" `Quick test_multiple_page_sizes;
          Alcotest.test_case "binding size mismatch" `Quick test_page_size_mismatch_binding;
          Alcotest.test_case "8KB fault path" `Quick test_fault_on_8kb_segment;
          Alcotest.test_case "grow segment" `Quick test_grow_segment;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_ops_conserve_frames;
            prop_flags_union_mem;
            prop_flags_diff_removes;
            prop_migrate_roundtrip_data;
          ] );
      ( "lifecycle",
        [
          Alcotest.test_case "destroy returns frames" `Quick test_destroy_returns_frames_and_notifies;
          Alcotest.test_case "initial protected" `Quick test_initial_segment_protected;
          Alcotest.test_case "zero pages" `Quick test_zero_pages;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "stale after migrate" `Quick test_stale_translation_after_migrate;
          Alcotest.test_case "stale after protection change" `Quick
            test_stale_translation_after_protection_change;
          Alcotest.test_case "stale through binding" `Quick test_stale_translation_through_binding;
          Alcotest.test_case "stale through two bindings" `Quick
            test_stale_translation_through_two_bindings;
          Alcotest.test_case "dead binding target" `Quick test_touch_dead_binding_target;
        ] );
      ( "timing",
        [
          Alcotest.test_case "in-process fault = 107us" `Quick test_timing_minimal_fault_in_process;
          Alcotest.test_case "via-manager fault = 379us" `Quick test_timing_minimal_fault_via_manager;
          Alcotest.test_case "Table 1 rows with injection disabled" `Quick
            test_table1_rows_with_injection_disabled;
          Alcotest.test_case "uio cached read/write" `Quick test_timing_uio_cached;
          Alcotest.test_case "warm touch ~free" `Quick test_timing_second_touch_free;
          Alcotest.test_case "calibration identities" `Quick test_cost_calibration;
        ] );
      ( "figure2",
        [ Alcotest.test_case "protocol trace" `Quick test_figure2_protocol_trace ] );
      ( "attribution",
        [
          Alcotest.test_case "golden Table 1 span decompositions" `Quick
            test_table1_span_decomposition;
          Alcotest.test_case "decomposition matches the cost constants" `Quick
            test_table1_decomposition_matches_cost_constants;
        ] );
    ]
