(* Tests for the segment managers: backing stores, free-page segments, the
   generic manager and its specialisations (default/UCDS, DBMS, prefetch,
   coloring). *)

module K = Epcm_kernel
module Seg = Epcm_segment
module Flags = Epcm_flags
module Mgr = Epcm_manager
module G = Mgr_generic
module Engine = Sim_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine_of ?(frames = 256) () = Hw_machine.create ~memory_bytes:(frames * 4096) ()

let kernel_with_source ?frames () =
  let machine = machine_of ?frames () in
  let kernel = K.create machine in
  (machine, kernel, K.initial_source kernel)

(* ------------------------------------------------------------------ *)
(* Backing store                                                      *)
(* ------------------------------------------------------------------ *)

(* Swap areas (negative files) and both ends of the addressable range
   keep their own contents; a block outside it is refused. *)
let test_backing_memory_roundtrip () =
  let b = Mgr_backing.memory () in
  let blocks =
    [
      (1, 5); (-1, 5); (0, 0); (-1, 0); (0, (1 lsl 32) - 1); (1, (1 lsl 32) - 1);
      (-(1 lsl 30), 7); ((1 lsl 30) - 1, (1 lsl 32) - 1);
    ]
  in
  let data (file, block) = Hw_page_data.of_string (Printf.sprintf "%d/%d" file block) in
  List.iter (fun (file, block) -> Mgr_backing.write_block b ~file ~block (data (file, block))) blocks;
  List.iter
    (fun (file, block) ->
      check_bool
        (Printf.sprintf "(%d, %d) read back" file block)
        true
        (Hw_page_data.equal (Mgr_backing.read_block b ~file ~block) (data (file, block))))
    blocks;
  check_int "reads" (List.length blocks) (Mgr_backing.reads b);
  check_int "writes" (List.length blocks) (Mgr_backing.writes b);
  List.iter
    (fun (file, block) ->
      match Mgr_backing.has_block b ~file ~block with
      | _ -> Alcotest.failf "(%d, %d) is outside the store's range" file block
      | exception Invalid_argument _ -> ())
    [ (0, 1 lsl 32); (0, -1); (1 lsl 30, 0); (-(1 lsl 30) - 1, 0) ]

let test_backing_unwritten_block () =
  let b = Mgr_backing.memory () in
  let d = Mgr_backing.read_block b ~file:3 ~block:7 in
  check_bool "symbolic default" true
    (Hw_page_data.equal d (Hw_page_data.block ~file:3 ~block:7 ~version:0))

let test_backing_disk_latency () =
  let e = Engine.create () in
  let disk = Hw_disk.create e () in
  let b = Mgr_backing.disk disk ~page_bytes:4096 in
  let elapsed = ref 0.0 in
  Engine.spawn e (fun () ->
      let t0 = Engine.time () in
      ignore (Mgr_backing.read_block b ~file:1 ~block:0);
      elapsed := Engine.time () -. t0);
  Engine.run e;
  check_bool "disk time charged" true (!elapsed > 10_000.0)

(* ------------------------------------------------------------------ *)
(* Free-page segment                                                  *)
(* ------------------------------------------------------------------ *)

let test_free_pages_grant_take () =
  let _, kernel, source = kernel_with_source () in
  let pool = Mgr_free_pages.create kernel ~name:"pool" ~capacity:8 in
  check_int "empty" 0 (Mgr_free_pages.available pool);
  let slot = Option.get (Mgr_free_pages.grant_slot pool) in
  let got = source ~dst:(Mgr_free_pages.segment pool) ~dst_page:slot ~count:5 in
  Mgr_free_pages.note_granted pool got;
  check_int "granted" 5 (Mgr_free_pages.available pool);
  let dst = K.create_segment kernel ~name:"dst" ~pages:8 () in
  let moved = Mgr_free_pages.take_to pool ~dst ~dst_page:2 ~count:3 () in
  check_int "moved" 3 moved;
  check_int "left" 2 (Mgr_free_pages.available pool);
  check_int "resident in dst" 3 (Seg.resident_pages (K.segment kernel dst));
  (* The one refill asks for at most [room] frames at the grant slot, and
     for none on a full pool. *)
  let asked = ref [] in
  let spy ~dst ~dst_page ~count =
    asked := (dst_page, count) :: !asked;
    source ~dst ~dst_page ~count
  in
  check_int "refill granted the room" 6 (Mgr_free_pages.refill pool ~source:spy ~count:32);
  check_int "refill on a full pool" 0 (Mgr_free_pages.refill pool ~source:spy ~count:1);
  Alcotest.(check (list (pair int int)))
    "one request, at the grant slot, for the room" [ (2, 6) ] (List.rev !asked);
  check_int "pool full" 8 (Mgr_free_pages.available pool)

let test_free_pages_take_more_than_available () =
  let _, kernel, source = kernel_with_source () in
  let pool = Mgr_free_pages.create kernel ~name:"pool" ~capacity:8 in
  let slot = Option.get (Mgr_free_pages.grant_slot pool) in
  Mgr_free_pages.note_granted pool
    (source ~dst:(Mgr_free_pages.segment pool) ~dst_page:slot ~count:2);
  let dst = K.create_segment kernel ~name:"dst" ~pages:8 () in
  check_int "clamped to available" 2 (Mgr_free_pages.take_to pool ~dst ~dst_page:0 ~count:5 ());
  check_int "now empty" 0 (Mgr_free_pages.take_to pool ~dst ~dst_page:5 ~count:1 ());
  (* A hand-out does not clamp: from an empty pool it raises. *)
  match Mgr_free_pages.hand_out pool ~dst ~dst_page:5 ~count:1 () with
  | () -> Alcotest.fail "hand-out from an empty pool must raise"
  | exception K.Error _ -> check_int "nothing moved" 2 (Seg.resident_pages (K.segment kernel dst))

let test_free_pages_put_and_data () =
  let _, kernel, source = kernel_with_source ~frames:32 () in
  let pool = Mgr_free_pages.create kernel ~name:"pool" ~capacity:2 in
  ignore (Mgr_free_pages.refill pool ~source ~count:1);
  let dst = K.create_segment kernel ~name:"dst" ~pages:2 () in
  Mgr_free_pages.hand_out pool ~data:(Hw_page_data.of_string "fill-me") ~dst ~dst_page:0 ~count:1
    ();
  let d = K.uio_read kernel ~seg:dst ~page:0 in
  check_bool "data set before migration" true
    (Hw_page_data.equal d (Hw_page_data.of_string "fill-me"));
  Mgr_free_pages.put_from pool ~src:dst ~src_page:0;
  check_int "reclaimed" 1 (Mgr_free_pages.available pool);
  (* The spill-on-full put: with room it is put_from; on a full pool it
     first returns [spill] frames to the initial segment. *)
  let initial () = Seg.resident_pages (K.segment kernel (K.initial_segment kernel)) in
  ignore (source ~dst ~dst_page:0 ~count:2);
  Mgr_free_pages.put_spill pool ~spill:2 ~src:dst ~src_page:0;
  check_int "room: nothing spilled" 29 (initial ());
  check_int "pool full" 0 (Mgr_free_pages.room pool);
  Mgr_free_pages.put_spill pool ~spill:2 ~src:dst ~src_page:1;
  check_int "full: two frames spilled" 31 (initial ());
  check_int "then the page's frame came in" 1 (Mgr_free_pages.available pool)

let test_free_pages_release_to_initial () =
  let _, kernel, source = kernel_with_source ~frames:32 () in
  let pool = Mgr_free_pages.create kernel ~name:"pool" ~capacity:8 in
  let slot = Option.get (Mgr_free_pages.grant_slot pool) in
  Mgr_free_pages.note_granted pool
    (source ~dst:(Mgr_free_pages.segment pool) ~dst_page:slot ~count:4);
  let released = Mgr_free_pages.release_to_initial pool ~count:10 in
  check_int "released what it had" 4 released;
  check_int "initial whole again" 32
    (Seg.resident_pages (K.segment kernel (K.initial_segment kernel)))

(* ------------------------------------------------------------------ *)
(* Generic manager                                                    *)
(* ------------------------------------------------------------------ *)

let generic ?hooks ?(frames = 256) ?(pool = 64) () =
  let machine, kernel, source = kernel_with_source ~frames () in
  let backing = Mgr_backing.memory () in
  let g =
    G.create kernel ~name:"test-mgr" ~mode:`In_process ~backing ~source ?hooks
      ~pool_capacity:pool ()
  in
  (machine, kernel, backing, g)

let test_generic_anon_fill_no_zero () =
  let _, kernel, _, g = generic () in
  let seg = G.create_segment g ~name:"heap" ~pages:8 ~kind:G.Anon () in
  K.touch kernel ~space:seg ~page:0 ~access:Mgr.Write;
  check_int "one fill" 1 (G.stats g).G.fills;
  check_int "no zero-fills" 0 (K.stats kernel).K.page_zeros

let test_generic_file_fill_from_backing () =
  let _, kernel, backing, g = generic () in
  Mgr_backing.write_block backing ~file:9 ~block:2 (Hw_page_data.of_string "block2");
  let seg =
    G.create_segment g ~name:"file" ~pages:8 ~kind:(G.File { file_id = 9 }) ~high_water:8 ()
  in
  K.touch kernel ~space:seg ~page:2 ~access:Mgr.Read;
  let d = K.uio_read kernel ~seg ~page:2 in
  check_bool "filled from backing" true (Hw_page_data.equal d (Hw_page_data.of_string "block2"))

let test_generic_reclaim_second_chance () =
  let _, kernel, _, g = generic () in
  let seg = G.create_segment g ~name:"heap" ~pages:8 ~kind:G.Anon () in
  for p = 0 to 7 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  let got = G.reclaim g ~count:3 in
  check_int "reclaimed despite reference bits" 3 got;
  check_int "resident dropped" 5 (G.resident g ~seg)

let test_generic_reclaim_skips_pinned () =
  let _, kernel, _, g = generic () in
  let seg = G.create_segment g ~name:"heap" ~pages:4 ~kind:G.Anon () in
  for p = 0 to 3 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  G.pin g ~seg ~page:0 ~count:2;
  let got = G.reclaim g ~count:4 in
  check_int "only unpinned evicted" 2 got;
  check_int "pinned stay" 2 (G.resident g ~seg)

let test_generic_eviction_writeback_dirty_only () =
  let _, kernel, backing, g = generic () in
  let seg =
    G.create_segment g ~name:"file" ~pages:4 ~kind:(G.File { file_id = 5 }) ~high_water:4 ()
  in
  K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read;
  K.uio_write kernel ~seg ~page:1 (Hw_page_data.of_string "dirty-data");
  let writes_before = Mgr_backing.writes backing in
  ignore (G.reclaim g ~count:2);
  check_int "one writeback (the dirty page)" (writes_before + 1) (Mgr_backing.writes backing);
  check_bool "dirty data reached backing" true
    (Hw_page_data.equal
       (Mgr_backing.read_block backing ~file:5 ~block:1)
       (Hw_page_data.of_string "dirty-data"));
  check_int "discard counted for the clean page" 1 (G.stats g).G.discards

let test_generic_protection_batching () =
  let _, kernel, _, g = generic () in
  let seg = G.create_segment g ~name:"heap" ~pages:16 ~kind:G.Anon () in
  for p = 0 to 15 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  G.protect_for_sampling g ~seg;
  let faults_before = (K.stats kernel).K.faults_protection in
  K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read;
  check_int "one protection fault" (faults_before + 1) (K.stats kernel).K.faults_protection;
  K.touch kernel ~space:seg ~page:7 ~access:Mgr.Read;
  check_int "batched re-enable" (faults_before + 1) (K.stats kernel).K.faults_protection;
  K.touch kernel ~space:seg ~page:8 ~access:Mgr.Read;
  check_int "next batch faults" (faults_before + 2) (K.stats kernel).K.faults_protection

let test_generic_pool_refill_from_source () =
  let _, kernel, _, g = generic ~pool:16 () in
  let seg = G.create_segment g ~name:"heap" ~pages:8 ~kind:G.Anon () in
  check_int "pool empty initially" 0 (Mgr_free_pages.available (G.pool g));
  K.touch kernel ~space:seg ~page:0 ~access:Mgr.Write;
  check_bool "pool refilled in a batch" true (Mgr_free_pages.available (G.pool g) > 0);
  check_int "one source request" 1 (G.stats g).G.refill_requests

let test_generic_out_of_frames () =
  let machine = machine_of ~frames:64 () in
  let kernel = K.create machine in
  let backing = Mgr_backing.memory () in
  let g = G.create kernel ~name:"starved" ~mode:`In_process ~backing ~pool_capacity:8 () in
  let seg = G.create_segment g ~name:"heap" ~pages:4 ~kind:G.Anon () in
  match K.touch kernel ~space:seg ~page:0 ~access:Mgr.Write with
  | () -> Alcotest.fail "expected Out_of_frames"
  | exception G.Out_of_frames _ -> ()

let test_generic_close_reclaims () =
  let _, kernel, _, g = generic () in
  let seg = G.create_segment g ~name:"temp" ~pages:4 ~kind:G.Anon () in
  for p = 0 to 3 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  let pool_before = Mgr_free_pages.available (G.pool g) in
  G.close_segment g seg;
  check_bool "segment gone" false (K.segment_exists kernel seg);
  check_int "frames back in the pool" (pool_before + 4) (Mgr_free_pages.available (G.pool g));
  check_int "close counted" 1 (G.stats g).G.closes

(* Closing a file segment writes every dirty page through the eviction
   hook, however little room the pool has; the frames the pool cannot
   take go back to the initial segment. *)
let close_dirty_file ?hooks () =
  let _, kernel, backing, g = generic ?hooks ~pool:4 () in
  let seg = G.create_segment g ~name:"file" ~pages:8 ~kind:(G.File { file_id = 7 }) () in
  for p = 0 to 7 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  K.modify_page_flags kernel ~seg ~page:0 ~count:8 ~set_flags:Flags.dirty ();
  G.close_segment g seg;
  check_int "pool took what it had room for" 4 (Mgr_free_pages.available (G.pool g));
  check_int "every frame accounted for" 256 (K.frame_owner_total kernel);
  (backing, g)

let test_generic_close_writes_every_dirty_page () =
  let backing, g = close_dirty_file () in
  check_int "all eight blocks written" 8 (Mgr_backing.writes backing);
  for p = 0 to 7 do
    check_bool (Printf.sprintf "block %d on backing" p) true
      (Mgr_backing.has_block backing ~file:7 ~block:p)
  done;
  check_int "writebacks" 8 (G.stats g).G.writebacks;
  check_int "no failures" 0 (G.stats g).G.writeback_failures

let test_generic_close_honours_discard_hook () =
  (* The file has no valid data (high-water mark 0), so the default fill
     never reads the store these hooks were built over. *)
  let hooks =
    {
      (G.default_hooks ~backing:(Mgr_backing.memory ())) with
      G.on_eviction = (fun ~seg:_ ~page:_ ~dirty:_ -> `Discard);
    }
  in
  let backing, g = close_dirty_file ~hooks () in
  check_int "nothing written" 0 (Mgr_backing.writes backing);
  check_int "eight discards" 8 (G.stats g).G.discards

let test_generic_close_counts_lost_writebacks () =
  (* Every writeback fails as an exhausted backing write does. *)
  let hooks =
    {
      (G.default_hooks ~backing:(Mgr_backing.memory ())) with
      G.on_eviction =
        (fun ~seg ~page ~dirty:_ ->
          raise
            (Mgr_backing.Backing_failed { op = `Write; file = seg; block = page; attempts = 3 }));
    }
  in
  let backing, g = close_dirty_file ~hooks () in
  check_int "nothing written" 0 (Mgr_backing.writes backing);
  check_int "eight pages lost" 8 (G.stats g).G.close_writeback_losses;
  check_int "no eviction skipped" 0 (G.stats g).G.writeback_failures

let test_generic_return_to_system () =
  let _, kernel, _, g = generic ~frames:64 () in
  let seg = G.create_segment g ~name:"heap" ~pages:8 ~kind:G.Anon () in
  for p = 0 to 7 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  let free_before = Seg.resident_pages (K.segment kernel (K.initial_segment kernel)) in
  let returned = G.return_to_system g ~pages:4 in
  check_bool "returned some" true (returned > 0);
  check_int "frames visible in initial segment" (free_before + returned)
    (Seg.resident_pages (K.segment kernel (K.initial_segment kernel)))

let test_generic_lock_in_memory () =
  let _, _, _, g = generic () in
  let seg = G.create_segment g ~name:"mgr-code" ~pages:4 ~kind:G.Anon () in
  G.lock_in_memory g ~seg;
  check_int "all resident" 4 (G.resident g ~seg);
  check_int "nothing evictable" 0 (G.reclaim g ~count:4)

let test_generic_cow_fill () =
  let _, kernel, _, g = generic () in
  let template = G.create_segment g ~name:"template" ~pages:2 ~kind:G.Anon () in
  let space = G.create_segment g ~name:"space" ~pages:2 ~kind:G.Anon () in
  K.touch kernel ~space:template ~page:0 ~access:Mgr.Write;
  K.uio_write kernel ~seg:template ~page:0 (Hw_page_data.of_string "shared");
  K.bind_region kernel ~space ~at:0 ~len:2 ~target:template ~target_page:0 ~cow:true;
  K.touch kernel ~space ~page:0 ~access:Mgr.Write;
  check_int "cow fill counted" 1 (G.stats g).G.cow_fills;
  check_bool "private copy has data" true
    (Hw_page_data.equal (K.uio_read kernel ~seg:space ~page:0) (Hw_page_data.of_string "shared"))

let test_generic_anon_swap_roundtrip () =
  (* Evicted dirty anonymous pages must come back from swap with their
     data, not as fresh pages. *)
  let _, kernel, _, g = generic () in
  let seg = G.create_segment g ~name:"heap" ~pages:4 ~kind:G.Anon () in
  K.touch kernel ~space:seg ~page:2 ~access:Mgr.Write;
  K.uio_write kernel ~seg ~page:2 (Hw_page_data.of_string "precious");
  let reclaimed = G.reclaim g ~count:4 in
  check_bool "evicted" true (reclaimed >= 1);
  check_int "page gone" 0 (G.resident g ~seg);
  (* Fault it back: the swap-aware fill restores the data. *)
  let d = K.uio_read kernel ~seg ~page:2 in
  check_bool "data survived the swap round trip" true
    (Hw_page_data.equal d (Hw_page_data.of_string "precious"))

let test_generic_swap_out_protocol () =
  let _, kernel, _, g = generic ~frames:128 () in
  let seg = G.create_segment g ~name:"data" ~pages:8 ~kind:G.Anon () in
  for p = 0 to 7 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  K.uio_write kernel ~seg ~page:3 (Hw_page_data.of_string "survives-suspension");
  let free_before = Seg.resident_pages (K.segment kernel (K.initial_segment kernel)) in
  let released = G.swap_out g in
  check_bool "released everything it held" true (released >= 8);
  check_int "nothing resident" 0 (G.resident g ~seg);
  check_bool "system got the frames" true
    (Seg.resident_pages (K.segment kernel (K.initial_segment kernel)) > free_before);
  (* Resume: eager swap-in restores the dirtied pages. *)
  G.swap_in g;
  check_bool "swapped data resident again" true (G.resident g ~seg >= 1);
  check_bool "data intact" true
    (Hw_page_data.equal (K.uio_read kernel ~seg ~page:3)
       (Hw_page_data.of_string "survives-suspension"))

(* ------------------------------------------------------------------ *)
(* Checkpoint manager                                                 *)
(* ------------------------------------------------------------------ *)

let checkpoint_setup () =
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let mgr = Mgr_checkpoint.create kernel ~source ~pool_capacity:128 () in
  let seg = Mgr_checkpoint.create_segment mgr ~name:"state" ~pages:16 in
  (machine, kernel, mgr, seg)

let write_page kernel seg page text =
  K.touch kernel ~space:seg ~page ~access:Mgr.Write;
  K.uio_write kernel ~seg ~page (Hw_page_data.of_string text)

let test_checkpoint_preserves_old_images () =
  let _, kernel, mgr, seg = checkpoint_setup () in
  for p = 0 to 7 do
    write_page kernel seg p (Printf.sprintf "v1-page%d" p)
  done;
  let gen = Mgr_checkpoint.begin_checkpoint mgr ~seg in
  (* Mutate half the pages after the snapshot. *)
  for p = 0 to 3 do
    write_page kernel seg p (Printf.sprintf "v2-page%d" p)
  done;
  check_int "only written pages copied" 4 (Mgr_checkpoint.pages_preserved mgr);
  (* The checkpoint view is the v1 state everywhere. *)
  for p = 0 to 7 do
    let d = Mgr_checkpoint.read_checkpoint mgr ~seg ~generation:gen ~page:p in
    check_bool
      (Printf.sprintf "page %d reads v1" p)
      true
      (Hw_page_data.equal d (Hw_page_data.of_string (Printf.sprintf "v1-page%d" p)))
  done;
  (* The live view is v2 where written. *)
  check_bool "live view moved on" true
    (Hw_page_data.equal (K.uio_read kernel ~seg ~page:0) (Hw_page_data.of_string "v2-page0"))

let test_checkpoint_end_freezes () =
  let _, kernel, mgr, seg = checkpoint_setup () in
  write_page kernel seg 0 "original";
  let gen = Mgr_checkpoint.begin_checkpoint mgr ~seg in
  Mgr_checkpoint.end_checkpoint mgr ~seg;
  (* Writes after end must not disturb the closed generation. *)
  write_page kernel seg 0 "later";
  let d = Mgr_checkpoint.read_checkpoint mgr ~seg ~generation:gen ~page:0 in
  check_bool "closed generation frozen" true (Hw_page_data.equal d (Hw_page_data.of_string "original"))

let test_checkpoint_generations_independent () =
  let _, kernel, mgr, seg = checkpoint_setup () in
  write_page kernel seg 0 "gen1-state";
  let g1 = Mgr_checkpoint.begin_checkpoint mgr ~seg in
  write_page kernel seg 0 "gen2-state";
  Mgr_checkpoint.end_checkpoint mgr ~seg;
  let g2 = Mgr_checkpoint.begin_checkpoint mgr ~seg in
  write_page kernel seg 0 "gen3-state";
  Mgr_checkpoint.end_checkpoint mgr ~seg;
  check_bool "gen1 view" true
    (Hw_page_data.equal
       (Mgr_checkpoint.read_checkpoint mgr ~seg ~generation:g1 ~page:0)
       (Hw_page_data.of_string "gen1-state"));
  check_bool "gen2 view" true
    (Hw_page_data.equal
       (Mgr_checkpoint.read_checkpoint mgr ~seg ~generation:g2 ~page:0)
       (Hw_page_data.of_string "gen2-state"))

let test_checkpoint_one_at_a_time () =
  let _, kernel, mgr, seg = checkpoint_setup () in
  write_page kernel seg 0 "x";
  ignore (Mgr_checkpoint.begin_checkpoint mgr ~seg);
  (match Mgr_checkpoint.begin_checkpoint mgr ~seg with
  | _ -> Alcotest.fail "expected rejection of nested checkpoint"
  | exception Invalid_argument _ -> ());
  Mgr_checkpoint.end_checkpoint mgr ~seg

let test_checkpoint_reads_do_not_fault () =
  let _, kernel, mgr, seg = checkpoint_setup () in
  write_page kernel seg 0 "read-me";
  ignore (Mgr_checkpoint.begin_checkpoint mgr ~seg);
  let faults0 = Mgr_checkpoint.checkpoint_faults mgr in
  (* Read-only protection: mutator reads proceed without faults. *)
  K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read;
  check_int "no checkpoint fault on read" faults0 (Mgr_checkpoint.checkpoint_faults mgr);
  Mgr_checkpoint.end_checkpoint mgr ~seg

(* ------------------------------------------------------------------ *)
(* Compressed-cache manager                                           *)
(* ------------------------------------------------------------------ *)

let compressed_setup ?config () =
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let mgr = Mgr_compressed.create kernel ?config ~source ~pool_capacity:128 () in
  let seg = Mgr_compressed.create_segment mgr ~name:"data" ~pages:32 in
  (machine, kernel, mgr, seg)

let test_compressed_roundtrip_beats_disk () =
  let machine, kernel, mgr, seg = compressed_setup () in
  let refault_time = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      K.touch kernel ~space:seg ~page:0 ~access:Mgr.Write;
      K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "squeeze");
      Mgr_compressed.evict mgr ~seg ~page:0;
      let t0 = Engine.time () in
      K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read;
      refault_time := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  check_int "compressed once" 1 (Mgr_compressed.compressions mgr);
  check_int "decompressed once" 1 (Mgr_compressed.decompressions mgr);
  check_int "no disk fill" 0 (Mgr_compressed.disk_fills mgr);
  check_bool "refault under 1ms (disk would be ~15ms)" true (!refault_time < 1000.0);
  check_bool "data intact" true
    (Hw_page_data.equal (K.uio_read kernel ~seg ~page:0) (Hw_page_data.of_string "squeeze"))

let test_compressed_budget_spills_to_disk () =
  let cfg = { Mgr_compressed.default_config with budget_pages = 2.0; compression_ratio = 1.0 } in
  let machine, kernel, mgr, seg = compressed_setup ~config:cfg () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for p = 0 to 5 do
        K.touch kernel ~space:seg ~page:p ~access:Mgr.Write;
        K.uio_write kernel ~seg ~page:p (Hw_page_data.of_string (string_of_int p));
        Mgr_compressed.evict mgr ~seg ~page:p
      done;
      (* Budget 2 page-equivalents at ratio 1.0: at most 2 stay compressed. *)
      check_bool "within budget" true (Mgr_compressed.pool_page_equivalents mgr <= 2.0);
      check_bool "older entries spilled" true (Mgr_compressed.spills mgr >= 4);
      (* A spilled page still comes back correctly — from disk. *)
      K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read);
  Engine.run machine.Hw_machine.engine;
  check_bool "spilled page refilled from disk" true (Mgr_compressed.disk_fills mgr >= 1);
  check_bool "data correct after spill" true
    (Hw_page_data.equal (K.uio_read kernel ~seg ~page:0) (Hw_page_data.of_string "0"))

(* ------------------------------------------------------------------ *)
(* Default (UCDS) manager                                             *)
(* ------------------------------------------------------------------ *)

let ucds_setup ?(frames = 2048) () =
  let machine, kernel, source = kernel_with_source ~frames () in
  let ucds = Mgr_default.create kernel ~source () in
  (machine, kernel, ucds)

let test_ucds_append_batching () =
  let _, kernel, ucds = ucds_setup () in
  let seg = Mgr_default.open_file ucds ~file_id:1 ~size_pages:16 ~empty:true () in
  Mgr_generic.ensure_pool (Mgr_default.generic ucds) ~count:20;
  let migrates0 = (K.stats kernel).K.migrate_calls in
  for p = 0 to 7 do
    K.uio_write kernel ~seg ~page:p (Hw_page_data.block ~file:1 ~block:p ~version:1)
  done;
  check_int "two append batches" 2 ((K.stats kernel).K.migrate_calls - migrates0)

let test_ucds_preload_then_reads_are_free () =
  let _, kernel, ucds = ucds_setup () in
  let seg = Mgr_default.open_file ucds ~file_id:2 ~size_pages:8 ~preload:true () in
  let calls0 = K.manager_calls_of kernel (Mgr_default.manager_id ucds) in
  for p = 0 to 7 do
    ignore (K.uio_read kernel ~seg ~page:p)
  done;
  check_int "no faults on cached file" calls0
    (K.manager_calls_of kernel (Mgr_default.manager_id ucds))

let test_ucds_open_is_cache_hit () =
  let _, _, ucds = ucds_setup () in
  let a = Mgr_default.open_file ucds ~file_id:3 ~size_pages:4 () in
  let b = Mgr_default.open_file ucds ~file_id:3 ~size_pages:4 () in
  check_int "same segment" a b

let test_ucds_close_keeps_cached_and_counts () =
  let _, kernel, ucds = ucds_setup () in
  let seg = Mgr_default.open_file ucds ~file_id:4 ~size_pages:4 ~preload:true () in
  let resident_before = Seg.resident_pages (K.segment kernel seg) in
  Mgr_default.close_file ucds seg;
  check_int "still cached" resident_before (Seg.resident_pages (K.segment kernel seg));
  check_int "close counted" 1 (Mgr_default.closes ucds);
  check_int "total includes closes" 1 (Mgr_default.total_manager_calls ucds)

let test_ucds_flush_writes_dirty () =
  let _, kernel, ucds = ucds_setup () in
  let seg = Mgr_default.open_file ucds ~file_id:5 ~size_pages:4 ~empty:true () in
  Mgr_generic.ensure_pool (Mgr_default.generic ucds) ~count:8;
  K.uio_write kernel ~seg ~page:0 (Hw_page_data.of_string "flushed");
  Mgr_default.flush_file ucds seg;
  let backing = Mgr_generic.backing (Mgr_default.generic ucds) in
  check_bool "on backing store" true
    (Hw_page_data.equal
       (Mgr_backing.read_block backing ~file:5 ~block:0)
       (Hw_page_data.of_string "flushed"))

let test_ucds_heap_minimal_fault () =
  let _, kernel, ucds = ucds_setup () in
  let heap = Mgr_default.create_heap ucds ~name:"heap" ~pages:8 in
  Mgr_generic.ensure_pool (Mgr_default.generic ucds) ~count:8;
  K.touch kernel ~space:heap ~page:0 ~access:Mgr.Write;
  check_int "fault delivered" 1 (K.manager_calls_of kernel (Mgr_default.manager_id ucds));
  check_int "no zeroing" 0 (K.stats kernel).K.page_zeros

(* ------------------------------------------------------------------ *)
(* DBMS manager                                                       *)
(* ------------------------------------------------------------------ *)

let dbms_setup () =
  let machine, kernel, source = kernel_with_source ~frames:2048 () in
  let mgr = Mgr_dbms.create kernel ~source ~pool_capacity:512 () in
  (machine, kernel, mgr)

let test_dbms_relation_pinned_resident () =
  let _, kernel, mgr = dbms_setup () in
  let rel = Mgr_dbms.create_relation mgr ~name:"rel" ~pages:32 in
  check_int "fully resident" 32 (Seg.resident_pages (K.segment kernel rel));
  let attrs = K.get_page_attributes kernel ~seg:rel ~page:0 ~count:1 in
  check_bool "pinned" true (Flags.mem attrs.(0).K.pa_flags Flags.pinned)

let test_dbms_index_lifecycle () =
  let _, _, mgr = dbms_setup () in
  let idx = Mgr_dbms.create_index mgr ~name:"ix" ~pages:16 () in
  check_bool "resident after build" true (Mgr_dbms.index_resident mgr idx);
  check_int "16 index pages" 16 (Mgr_dbms.resident_index_pages mgr);
  Mgr_dbms.evict_index mgr idx;
  check_bool "evicted" false (Mgr_dbms.index_resident mgr idx);
  check_int "no resident index pages" 0 (Mgr_dbms.resident_index_pages mgr);
  Mgr_dbms.regenerate_index mgr idx;
  check_bool "regenerated" true (Mgr_dbms.index_resident mgr idx);
  check_int "one regeneration" 1 (Mgr_dbms.regenerations mgr)

let test_dbms_load_from_disk_faults () =
  let machine, kernel, mgr = dbms_setup () in
  let idx = Mgr_dbms.create_index mgr ~name:"ix" ~pages:8 () in
  Mgr_dbms.evict_index mgr idx;
  let faults0 = (K.stats kernel).K.faults_missing in
  let elapsed = ref 0.0 in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      let t0 = Engine.time () in
      Mgr_dbms.load_index_from_disk mgr idx;
      elapsed := Engine.time () -. t0);
  Engine.run machine.Hw_machine.engine;
  check_int "8 faults" (faults0 + 8) (K.stats kernel).K.faults_missing;
  check_bool "disk time dominates" true (!elapsed > 8.0 *. 10_000.0);
  check_bool "resident again" true (Mgr_dbms.index_resident mgr idx)

let test_dbms_lru_eviction () =
  let _, _, mgr = dbms_setup () in
  let a = Mgr_dbms.create_index mgr ~name:"a" ~pages:4 () in
  let b = Mgr_dbms.create_index mgr ~name:"b" ~pages:4 () in
  let c = Mgr_dbms.create_index mgr ~name:"c" ~pages:4 () in
  Mgr_dbms.note_index_use mgr a ~now:100.0;
  Mgr_dbms.note_index_use mgr b ~now:10.0;
  Mgr_dbms.note_index_use mgr c ~now:50.0;
  let victim = Mgr_dbms.evict_lru_index mgr ~except:None in
  check_bool "coldest index chosen" true (victim = Some b)

(* ------------------------------------------------------------------ *)
(* Prefetch manager                                                   *)
(* ------------------------------------------------------------------ *)

let prefetch_setup () =
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let mgr = Mgr_prefetch.create kernel ~source ~pool_capacity:128 () in
  let seg = Mgr_prefetch.create_file_segment mgr ~name:"data" ~file_id:1 ~pages:64 in
  (machine, kernel, mgr, seg)

let test_prefetch_absorbs_fault () =
  let machine, kernel, mgr, seg = prefetch_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      Mgr_prefetch.prefetch mgr ~seg ~page:0 ~count:4;
      K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read);
  Engine.run machine.Hw_machine.engine;
  check_int "prefetches started" 4 (Mgr_prefetch.prefetches_started mgr);
  check_int "fault absorbed" 1 (Mgr_prefetch.absorbed_faults mgr);
  check_int "no inline fill" 0 (Mgr_prefetch.demand_fills mgr);
  check_int "resident" 4 (Mgr_prefetch.resident mgr ~seg)

let test_prefetch_demand_fill_without_prefetch () =
  let machine, kernel, mgr, seg = prefetch_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      K.touch kernel ~space:seg ~page:7 ~access:Mgr.Read);
  Engine.run machine.Hw_machine.engine;
  check_int "inline fill" 1 (Mgr_prefetch.demand_fills mgr)

let test_prefetch_discard_no_writeback () =
  let machine, kernel, mgr, seg = prefetch_setup () in
  let disk_writes_before = Hw_disk.writes machine.Hw_machine.disk in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      K.touch kernel ~space:seg ~page:0 ~access:Mgr.Write;
      Mgr_prefetch.discard mgr ~seg ~page:0 ~count:1);
  Engine.run machine.Hw_machine.engine;
  check_int "discarded" 1 (Mgr_prefetch.discards mgr);
  check_int "resident zero" 0 (Mgr_prefetch.resident mgr ~seg);
  check_int "no writeback" disk_writes_before (Hw_disk.writes machine.Hw_machine.disk)

let test_prefetch_idempotent () =
  let machine, _, mgr, seg = prefetch_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      Mgr_prefetch.prefetch mgr ~seg ~page:0 ~count:2;
      Mgr_prefetch.prefetch mgr ~seg ~page:0 ~count:2);
  Engine.run machine.Hw_machine.engine;
  check_int "no duplicate prefetches" 2 (Mgr_prefetch.prefetches_started mgr)

(* ------------------------------------------------------------------ *)
(* GC manager                                                         *)
(* ------------------------------------------------------------------ *)

let gc_setup () =
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let mgr = Mgr_gc.create kernel ~source ~pool_capacity:128 () in
  let heap = Mgr_gc.create_heap mgr ~name:"heap" ~pages:32 in
  (machine, kernel, mgr, heap)

let test_gc_discard_skips_writeback () =
  let machine, kernel, mgr, heap = gc_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for p = 0 to 7 do
        K.touch kernel ~space:heap ~page:p ~access:Mgr.Write;
        K.uio_write kernel ~seg:heap ~page:p (Hw_page_data.of_string "dead soon")
      done;
      Mgr_gc.declare_garbage mgr ~seg:heap ~page:0 ~count:8;
      let n = Mgr_gc.reclaim_garbage mgr ~seg:heap in
      check_int "all garbage reclaimed" 8 n);
  Engine.run machine.Hw_machine.engine;
  check_int "no disk writes despite dirty pages" 0 (Hw_disk.writes machine.Hw_machine.disk);
  check_int "writebacks avoided counted" 8 (Mgr_gc.writebacks_avoided mgr)

let test_gc_conventional_eviction_writes () =
  let machine, kernel, mgr, heap = gc_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      for p = 0 to 3 do
        K.touch kernel ~space:heap ~page:p ~access:Mgr.Write;
        K.uio_write kernel ~seg:heap ~page:p (Hw_page_data.of_string "live data")
      done;
      ignore (Mgr_gc.evict_conventional mgr ~seg:heap ~page:0 ~count:4);
      (* Conventionally evicted pages must come back with their data. *)
      let d = K.uio_read kernel ~seg:heap ~page:0 in
      check_bool "swap round trip" true (Hw_page_data.equal d (Hw_page_data.of_string "live data")));
  Engine.run machine.Hw_machine.engine;
  check_int "dirty pages written to swap" 4 (Hw_disk.writes machine.Hw_machine.disk)

let test_gc_garbage_refault_is_fresh () =
  let machine, kernel, mgr, heap = gc_setup () in
  Engine.spawn machine.Hw_machine.engine (fun () ->
      K.touch kernel ~space:heap ~page:0 ~access:Mgr.Write;
      K.uio_write kernel ~seg:heap ~page:0 (Hw_page_data.of_string "garbage");
      Mgr_gc.declare_garbage mgr ~seg:heap ~page:0 ~count:1;
      ignore (Mgr_gc.reclaim_garbage mgr ~seg:heap);
      (* Reallocating the page gives a fresh frame, not the old data, and
         costs no disk read. *)
      K.touch kernel ~space:heap ~page:0 ~access:Mgr.Write);
  Engine.run machine.Hw_machine.engine;
  check_int "no disk reads" 0 (Hw_disk.reads machine.Hw_machine.disk)

let test_gc_adaptive_frequency () =
  let _, _, mgr, _ = gc_setup () in
  check_bool "small budget collects" true (Mgr_gc.should_collect mgr ~live_pages:20 ~budget_pages:24);
  check_bool "big budget does not" false (Mgr_gc.should_collect mgr ~live_pages:20 ~budget_pages:96)

(* ------------------------------------------------------------------ *)
(* Coloring manager                                                   *)
(* ------------------------------------------------------------------ *)

let coloring_setup () =
  let machine, kernel, _ = kernel_with_source ~frames:256 () in
  let init = K.initial_segment kernel in
  let mem = machine.Hw_machine.mem in
  let source ~color ~dst ~dst_page ~count =
    let init_seg = K.segment kernel init in
    let granted = ref 0 in
    let slot = ref 0 in
    while !granted < count && !slot < Seg.length init_seg do
      (match (Seg.page init_seg !slot).Seg.frame with
      | Some f
        when (match color with
             | None -> true
             | Some c -> Hw_phys_mem.color mem f = c) ->
          K.migrate_pages kernel ~src:init ~dst ~src_page:!slot ~dst_page:(dst_page + !granted)
            ~count:1 ();
          incr granted
      | Some _ | None -> ());
      incr slot
    done;
    !granted
  in
  let mgr = Mgr_coloring.create kernel ~n_colors:16 ~source ~pool_capacity:64 () in
  (machine, kernel, mgr)

let test_coloring_matches_page_color () =
  let _, kernel, mgr = coloring_setup () in
  let seg = Mgr_coloring.create_segment mgr ~name:"ws" ~pages:32 in
  for p = 0 to 31 do
    K.touch kernel ~space:seg ~page:p ~access:Mgr.Write
  done;
  let good, total = Mgr_coloring.audit mgr ~seg in
  check_int "all resident" 32 total;
  check_int "all correctly colored" 32 good;
  check_int "no color misses" 0 (Mgr_coloring.color_misses mgr)

let test_coloring_falls_back_when_color_exhausted () =
  let machine, kernel, _ = kernel_with_source ~frames:32 () in
  let init = K.initial_segment kernel in
  let mem = machine.Hw_machine.mem in
  let source ~color ~dst ~dst_page ~count =
    match color with
    | Some 3 -> 0
    | _ ->
        let init_seg = K.segment kernel init in
        let granted = ref 0 in
        let slot = ref 0 in
        while !granted < count && !slot < Seg.length init_seg do
          (match (Seg.page init_seg !slot).Seg.frame with
          | Some f when Hw_phys_mem.color mem f <> 3 ->
              K.migrate_pages kernel ~src:init ~dst ~src_page:!slot
                ~dst_page:(dst_page + !granted) ~count:1 ();
              incr granted
          | Some _ | None -> ());
          incr slot
        done;
        !granted
  in
  let mgr = Mgr_coloring.create kernel ~n_colors:16 ~source ~pool_capacity:32 () in
  let seg = Mgr_coloring.create_segment mgr ~name:"ws" ~pages:4 in
  K.touch kernel ~space:seg ~page:3 ~access:Mgr.Write;
  check_int "page resident anyway" 1 (Seg.resident_pages (K.segment kernel seg));
  check_int "color miss recorded" 1 (Mgr_coloring.color_misses mgr)

(* ------------------------------------------------------------------ *)
(* Concurrency and failure injection                                   *)
(* ------------------------------------------------------------------ *)

let test_concurrent_faulting_clients () =
  (* Eight processes demand-fault a disk-backed file concurrently: the
     fills suspend on the disk mid-handler, so without serialisation the
     pool operations would interleave and corrupt the free segment. *)
  let machine, kernel, source = kernel_with_source ~frames:512 () in
  let backing = Mgr_backing.disk machine.Hw_machine.disk ~page_bytes:4096 in
  let g =
    G.create kernel ~name:"shared" ~mode:`In_process ~backing ~source ~pool_capacity:128 ()
  in
  let seg =
    G.create_segment g ~name:"file" ~pages:64 ~kind:(G.File { file_id = 3 }) ~high_water:64 ()
  in
  let completed = ref 0 in
  for client = 0 to 7 do
    Engine.spawn machine.Hw_machine.engine (fun () ->
        for i = 0 to 7 do
          K.touch kernel ~space:seg ~page:((client * 8) + i) ~access:Mgr.Read
        done;
        incr completed)
  done;
  Engine.run machine.Hw_machine.engine;
  check_int "all clients finished" 8 !completed;
  check_int "no stuck processes" 0 (Engine.live_processes machine.Hw_machine.engine);
  check_int "all pages resident" 64 (G.resident g ~seg);
  let total =
    K.frame_owner_total kernel
  in
  check_int "frames conserved under concurrency" 512 total

let test_concurrent_same_page_faults () =
  (* Two processes racing on the same missing page: one fills, the other
     finds it resolved; no Frame_present crash, one disk read. *)
  let machine, kernel, source = kernel_with_source ~frames:128 () in
  let backing = Mgr_backing.disk machine.Hw_machine.disk ~page_bytes:4096 in
  let g = G.create kernel ~name:"race" ~mode:`In_process ~backing ~source () in
  let seg =
    G.create_segment g ~name:"file" ~pages:4 ~kind:(G.File { file_id = 1 }) ~high_water:4 ()
  in
  let done_count = ref 0 in
  for _ = 1 to 2 do
    Engine.spawn machine.Hw_machine.engine (fun () ->
        K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read;
        incr done_count)
  done;
  Engine.run machine.Hw_machine.engine;
  check_int "both returned" 2 !done_count;
  check_int "exactly one disk read" 1 (Hw_disk.reads machine.Hw_machine.disk)

let test_failing_handler_leaves_kernel_consistent () =
  (* A manager whose handler raises must not wedge the kernel: the fault
     depth unwinds and later faults (with a fixed manager) succeed. *)
  let _, kernel, source = kernel_with_source ~frames:64 () in
  let blow_up = ref true in
  let backing = Mgr_backing.memory () in
  let pool = Mgr_free_pages.create kernel ~name:"fixit" ~capacity:16 in
  ignore backing;
  let mid =
    K.register_manager kernel ~name:"flaky" ~mode:`In_process
      ~on_fault:(fun f ->
        if !blow_up then failwith "manager crashed"
        else begin
          if Mgr_free_pages.available pool = 0 then begin
            let slot = Option.get (Mgr_free_pages.grant_slot pool) in
            Mgr_free_pages.note_granted pool
              (source ~dst:(Mgr_free_pages.segment pool) ~dst_page:slot ~count:4)
          end;
          ignore
            (Mgr_free_pages.take_to pool ~dst:f.Mgr.f_seg ~dst_page:f.Mgr.f_page ~count:1 ())
        end)
      ()
  in
  let seg = K.create_segment kernel ~name:"s" ~pages:4 () in
  K.set_segment_manager kernel seg mid;
  (match K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read with
  | () -> Alcotest.fail "expected the handler's exception"
  | exception Failure _ -> ());
  (* Recovery: the same fault now succeeds. *)
  blow_up := false;
  K.touch kernel ~space:seg ~page:0 ~access:Mgr.Read;
  check_int "resolved after recovery" 1 (Seg.resident_pages (K.segment kernel seg))

let test_pool_exhaustion_recovers () =
  (* Out_of_frames must not leave the manager wedged: granting frames
     afterwards lets the same fault succeed. *)
  let machine = machine_of ~frames:64 () in
  let kernel = K.create machine in
  let grants_enabled = ref false in
  let init = K.initial_segment kernel in
  let next = ref 0 in
  let source ~dst ~dst_page ~count =
    if not !grants_enabled then 0
    else begin
      let init_seg = K.segment kernel init in
      let granted = ref 0 in
      while !granted < count && !next < Seg.length init_seg do
        (if (Seg.page init_seg !next).Seg.frame <> None then begin
           K.migrate_pages kernel ~src:init ~dst ~src_page:!next
             ~dst_page:(dst_page + !granted) ~count:1 ();
           incr granted
         end);
        incr next
      done;
      !granted
    end
  in
  let backing = Mgr_backing.memory () in
  let g = G.create kernel ~name:"starved" ~mode:`In_process ~backing ~source () in
  let seg = G.create_segment g ~name:"heap" ~pages:4 ~kind:G.Anon () in
  (match K.touch kernel ~space:seg ~page:0 ~access:Mgr.Write with
  | () -> Alcotest.fail "expected Out_of_frames"
  | exception G.Out_of_frames _ -> ());
  grants_enabled := true;
  K.touch kernel ~space:seg ~page:0 ~access:Mgr.Write;
  check_int "fault served after memory arrived" 1 (G.resident g ~seg)

(* ------------------------------------------------------------------ *)
(* DSM consistency manager                                            *)
(* ------------------------------------------------------------------ *)

let dsm_setup ?(nodes = 3) ?(pages = 8) () =
  let machine, kernel, source = kernel_with_source ~frames:256 () in
  let dsm = Mgr_dsm.create kernel ~source ~nodes ~pages () in
  (machine, kernel, dsm)

let str s = Hw_page_data.of_string s

let test_dsm_write_then_remote_read () =
  let _, _, dsm = dsm_setup () in
  Mgr_dsm.write dsm ~node:0 ~page:3 (str "from-node-0");
  check_bool "writer exclusive" true (Mgr_dsm.state dsm ~node:0 ~page:3 = Mgr_dsm.Exclusive);
  let seen = Mgr_dsm.read dsm ~node:1 ~page:3 in
  check_bool "remote read sees the write" true (Hw_page_data.equal seen (str "from-node-0"));
  (* The writer was downgraded, both now share. *)
  check_bool "writer downgraded" true (Mgr_dsm.state dsm ~node:0 ~page:3 = Mgr_dsm.Shared);
  check_bool "reader shared" true (Mgr_dsm.state dsm ~node:1 ~page:3 = Mgr_dsm.Shared);
  check_int "one downgrade" 1 (Mgr_dsm.downgrades dsm)

let test_dsm_write_invalidates_sharers () =
  let _, _, dsm = dsm_setup () in
  Mgr_dsm.write dsm ~node:0 ~page:0 (str "v1");
  ignore (Mgr_dsm.read dsm ~node:1 ~page:0);
  ignore (Mgr_dsm.read dsm ~node:2 ~page:0);
  check_int "three holders" 3 (List.length (Mgr_dsm.holders dsm ~page:0));
  Mgr_dsm.write dsm ~node:2 ~page:0 (str "v2");
  Alcotest.(check (list int)) "only the writer holds it" [ 2 ] (Mgr_dsm.holders dsm ~page:0);
  check_bool "others invalidated" true (Mgr_dsm.invalidations dsm >= 2);
  (* And the new value propagates. *)
  let seen = Mgr_dsm.read dsm ~node:0 ~page:0 in
  check_bool "coherent after invalidation" true (Hw_page_data.equal seen (str "v2"))

let test_dsm_local_reuse_free () =
  let _, _, dsm = dsm_setup () in
  Mgr_dsm.write dsm ~node:0 ~page:1 (str "mine");
  let transfers = Mgr_dsm.transfers dsm in
  for _ = 1 to 5 do
    ignore (Mgr_dsm.read dsm ~node:0 ~page:1);
    Mgr_dsm.write dsm ~node:0 ~page:1 (str "mine again")
  done;
  check_int "no protocol traffic for local reuse" transfers (Mgr_dsm.transfers dsm)

let test_dsm_upgrade_in_place () =
  let _, _, dsm = dsm_setup () in
  ignore (Mgr_dsm.read dsm ~node:0 ~page:2);
  let transfers = Mgr_dsm.transfers dsm in
  check_bool "shared after read" true (Mgr_dsm.state dsm ~node:0 ~page:2 = Mgr_dsm.Shared);
  Mgr_dsm.write dsm ~node:0 ~page:2 (str "upgraded");
  check_bool "exclusive after write" true (Mgr_dsm.state dsm ~node:0 ~page:2 = Mgr_dsm.Exclusive);
  check_int "upgrade shipped no copy" transfers (Mgr_dsm.transfers dsm)

let test_dsm_remote_fetch_costs_network () =
  let machine, _, dsm = dsm_setup () in
  let elapsed = ref 0.0 in
  Sim_engine.spawn machine.Hw_machine.engine (fun () ->
      Mgr_dsm.write dsm ~node:0 ~page:0 (str "x");
      let t0 = Sim_engine.time () in
      ignore (Mgr_dsm.read dsm ~node:1 ~page:0);
      elapsed := Sim_engine.time () -. t0);
  Sim_engine.run machine.Hw_machine.engine;
  (* Downgrade message + request + data: at least 3 network latencies. *)
  check_bool "network charged" true (!elapsed >= 3000.0)

let test_dsm_ping_pong_counts () =
  let _, _, dsm = dsm_setup ~nodes:2 () in
  for i = 1 to 10 do
    Mgr_dsm.write dsm ~node:(i mod 2) ~page:0 (str (string_of_int i))
  done;
  (* Every ownership change after the first invalidates the other side. *)
  check_bool "ping-pong invalidations" true (Mgr_dsm.invalidations dsm >= 8);
  let final = Mgr_dsm.read dsm ~node:0 ~page:0 in
  check_bool "last write wins" true (Hw_page_data.equal final (str "10"))

let test_dsm_frame_conservation () =
  let _, kernel, dsm = dsm_setup () in
  Mgr_dsm.write dsm ~node:0 ~page:0 (str "a");
  ignore (Mgr_dsm.read dsm ~node:1 ~page:0);
  Mgr_dsm.write dsm ~node:2 ~page:0 (str "b");
  let total = K.frame_owner_total kernel in
  check_int "every frame owned once" 256 total

let () =
  Alcotest.run "managers"
    [
      ( "backing",
        [
          Alcotest.test_case "memory roundtrip" `Quick test_backing_memory_roundtrip;
          Alcotest.test_case "unwritten block" `Quick test_backing_unwritten_block;
          Alcotest.test_case "disk latency" `Quick test_backing_disk_latency;
        ] );
      ( "free-pages",
        [
          Alcotest.test_case "grant and take" `Quick test_free_pages_grant_take;
          Alcotest.test_case "take clamps" `Quick test_free_pages_take_more_than_available;
          Alcotest.test_case "put and data" `Quick test_free_pages_put_and_data;
          Alcotest.test_case "release to initial" `Quick test_free_pages_release_to_initial;
        ] );
      ( "generic",
        [
          Alcotest.test_case "anon fill, no zero" `Quick test_generic_anon_fill_no_zero;
          Alcotest.test_case "file fill from backing" `Quick test_generic_file_fill_from_backing;
          Alcotest.test_case "second-chance reclaim" `Quick test_generic_reclaim_second_chance;
          Alcotest.test_case "reclaim skips pinned" `Quick test_generic_reclaim_skips_pinned;
          Alcotest.test_case "writeback dirty only" `Quick
            test_generic_eviction_writeback_dirty_only;
          Alcotest.test_case "protection batching" `Quick test_generic_protection_batching;
          Alcotest.test_case "pool refill" `Quick test_generic_pool_refill_from_source;
          Alcotest.test_case "out of frames" `Quick test_generic_out_of_frames;
          Alcotest.test_case "close reclaims" `Quick test_generic_close_reclaims;
          Alcotest.test_case "close writes every dirty page" `Quick
            test_generic_close_writes_every_dirty_page;
          Alcotest.test_case "close honours a discard hook" `Quick
            test_generic_close_honours_discard_hook;
          Alcotest.test_case "close counts lost writebacks" `Quick
            test_generic_close_counts_lost_writebacks;
          Alcotest.test_case "return to system" `Quick test_generic_return_to_system;
          Alcotest.test_case "lock in memory (2.2 protocol)" `Quick test_generic_lock_in_memory;
          Alcotest.test_case "cow fill" `Quick test_generic_cow_fill;
          Alcotest.test_case "anon swap roundtrip" `Quick test_generic_anon_swap_roundtrip;
          Alcotest.test_case "swap-out protocol (2.2)" `Quick test_generic_swap_out_protocol;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "preserves old images" `Quick test_checkpoint_preserves_old_images;
          Alcotest.test_case "end freezes generation" `Quick test_checkpoint_end_freezes;
          Alcotest.test_case "generations independent" `Quick
            test_checkpoint_generations_independent;
          Alcotest.test_case "one at a time" `Quick test_checkpoint_one_at_a_time;
          Alcotest.test_case "reads do not fault" `Quick test_checkpoint_reads_do_not_fault;
        ] );
      ( "compressed",
        [
          Alcotest.test_case "roundtrip beats disk" `Quick test_compressed_roundtrip_beats_disk;
          Alcotest.test_case "budget spills to disk" `Quick test_compressed_budget_spills_to_disk;
        ] );
      ( "default-ucds",
        [
          Alcotest.test_case "16KB append batching" `Quick test_ucds_append_batching;
          Alcotest.test_case "preload makes reads free" `Quick
            test_ucds_preload_then_reads_are_free;
          Alcotest.test_case "open is cache hit" `Quick test_ucds_open_is_cache_hit;
          Alcotest.test_case "close keeps cached" `Quick test_ucds_close_keeps_cached_and_counts;
          Alcotest.test_case "flush writes dirty" `Quick test_ucds_flush_writes_dirty;
          Alcotest.test_case "heap minimal fault" `Quick test_ucds_heap_minimal_fault;
        ] );
      ( "dbms",
        [
          Alcotest.test_case "relation pinned" `Quick test_dbms_relation_pinned_resident;
          Alcotest.test_case "index lifecycle" `Quick test_dbms_index_lifecycle;
          Alcotest.test_case "load from disk" `Quick test_dbms_load_from_disk_faults;
          Alcotest.test_case "lru eviction" `Quick test_dbms_lru_eviction;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "absorbs in-flight fault" `Quick test_prefetch_absorbs_fault;
          Alcotest.test_case "demand fill" `Quick test_prefetch_demand_fill_without_prefetch;
          Alcotest.test_case "discard no writeback" `Quick test_prefetch_discard_no_writeback;
          Alcotest.test_case "idempotent" `Quick test_prefetch_idempotent;
        ] );
      ( "gc",
        [
          Alcotest.test_case "discard skips writeback" `Quick test_gc_discard_skips_writeback;
          Alcotest.test_case "conventional eviction writes" `Quick
            test_gc_conventional_eviction_writes;
          Alcotest.test_case "garbage refault fresh" `Quick test_gc_garbage_refault_is_fresh;
          Alcotest.test_case "adaptive frequency" `Quick test_gc_adaptive_frequency;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_faulting_clients;
          Alcotest.test_case "same-page race" `Quick test_concurrent_same_page_faults;
          Alcotest.test_case "failing handler recovers" `Quick
            test_failing_handler_leaves_kernel_consistent;
          Alcotest.test_case "pool exhaustion recovers" `Quick test_pool_exhaustion_recovers;
        ] );
      ( "dsm",
        [
          Alcotest.test_case "write then remote read" `Quick test_dsm_write_then_remote_read;
          Alcotest.test_case "write invalidates sharers" `Quick test_dsm_write_invalidates_sharers;
          Alcotest.test_case "local reuse free" `Quick test_dsm_local_reuse_free;
          Alcotest.test_case "upgrade in place" `Quick test_dsm_upgrade_in_place;
          Alcotest.test_case "remote fetch costs network" `Quick
            test_dsm_remote_fetch_costs_network;
          Alcotest.test_case "ping-pong counts" `Quick test_dsm_ping_pong_counts;
          Alcotest.test_case "frame conservation" `Quick test_dsm_frame_conservation;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "matches page color" `Quick test_coloring_matches_page_color;
          Alcotest.test_case "fallback on exhaustion" `Quick
            test_coloring_falls_back_when_color_exhausted;
        ] );
    ]
