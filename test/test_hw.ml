(* Tests for the hardware substrate: page data, physical memory, the V++
   mapping hash, the TLB, the disk model and the cache model. *)

module Data = Hw_page_data
module Phys = Hw_phys_mem
module Pt = Hw_page_table
module Tlb = Hw_tlb
module Disk = Hw_disk
module Cache = Hw_cache
module Engine = Sim_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Page data                                                          *)
(* ------------------------------------------------------------------ *)

let test_data_equal () =
  check_bool "zero = zero" true (Data.equal Data.Zero Data.Zero);
  check_bool "bytes equal" true (Data.equal (Data.of_string "abc") (Data.of_string "abc"));
  check_bool "bytes differ" false (Data.equal (Data.of_string "abc") (Data.of_string "abd"));
  check_bool "block identity" true
    (Data.equal (Data.block ~file:1 ~block:2 ~version:3) (Data.block ~file:1 ~block:2 ~version:3));
  check_bool "block version matters" false
    (Data.equal (Data.block ~file:1 ~block:2 ~version:3) (Data.block ~file:1 ~block:2 ~version:4));
  check_bool "kinds differ" false (Data.equal Data.Zero (Data.of_string ""))

let test_data_byte_observation () =
  check_bool "zero reads as 0" true (Data.byte Data.Zero 123 = '\000');
  check_bool "bytes read back" true (Data.byte (Data.of_string "xy") 1 = 'y');
  check_bool "bytes past end are 0" true (Data.byte (Data.of_string "xy") 5 = '\000');
  let b1 = Data.byte (Data.block ~file:1 ~block:2 ~version:1) 10 in
  let b1' = Data.byte (Data.block ~file:1 ~block:2 ~version:1) 10 in
  let b2 = Data.byte (Data.block ~file:1 ~block:2 ~version:2) 10 in
  check_bool "block bytes deterministic" true (b1 = b1');
  check_bool "version changes content" true (b1 <> b2 || Data.byte (Data.block ~file:1 ~block:2 ~version:2) 11 <> Data.byte (Data.block ~file:1 ~block:2 ~version:1) 11)

(* ------------------------------------------------------------------ *)
(* Physical memory                                                    *)
(* ------------------------------------------------------------------ *)

let test_phys_layout () =
  let m = Phys.create ~n_colors:4 ~page_size:4096 ~total_bytes:(16 * 4096) () in
  check_int "frames" 16 (Phys.n_frames m);
  check_int "addr of frame 3" (3 * 4096) (Phys.addr m 3);
  check_int "color cycles" 3 (Phys.color m 3);
  check_int "color wraps" 0 (Phys.color m 4);
  Alcotest.check_raises "index past the end"
    (Invalid_argument "Hw_phys_mem: frame 16 out of range") (fun () -> ignore (Phys.addr m 16))

let test_phys_queries () =
  let m = Phys.create ~n_colors:4 ~page_size:4096 ~total_bytes:(16 * 4096) () in
  Alcotest.(check (list int)) "frames of color 1" [ 1; 5; 9; 13 ] (Phys.frames_of_color m 1)

(* The color query is index arithmetic (a color's frames are an
   arithmetic progression). Pin it against a scan of the per-frame
   accessors, across awkward geometries: colors > frames, a single
   frame. *)
let test_phys_indexes_match_scan () =
  let geometries =
    [ (4, 4096, 16 * 4096); (16, 4096, 7 * 4096); (3, 8192, 11 * 8192); (16, 4096, 4096) ]
  in
  List.iter
    (fun (n_colors, page_size, total_bytes) ->
      let m = Phys.create ~n_colors ~page_size ~total_bytes () in
      let scan keep =
        List.filter keep (List.init (Phys.n_frames m) Fun.id)
      in
      for color = 0 to Phys.n_colors m - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "color %d of %d/%d frames" color n_colors (Phys.n_frames m))
          (scan (fun i -> Phys.color m i = color))
          (Phys.frames_of_color m color)
      done)
    geometries

let test_phys_copy_zero () =
  let m = Phys.create ~page_size:4096 ~total_bytes:(4 * 4096) () in
  Phys.set_data m 0 (Data.of_string "payload");
  Phys.copy_frame m ~src:0 ~dst:1;
  check_bool "copied" true (Data.equal (Phys.data m 1) (Data.of_string "payload"));
  Phys.zero_frame m 1;
  check_bool "zeroed" true (Data.equal (Phys.data m 1) Data.Zero)

let test_phys_bad_create () =
  Alcotest.check_raises "no pages"
    (Invalid_argument "Hw_phys_mem.create: need at least one page") (fun () ->
      ignore (Phys.create ~page_size:4096 ~total_bytes:100 ()))

(* Tiers partition the frame index space in declaration order; address
   and color arithmetic are unchanged across the tier boundary. *)
let test_phys_tiered_layout () =
  let m =
    Phys.create_tiered ~n_colors:4 ~page_size:4096
      ~tiers:[ Phys.dram_tier ~bytes:(6 * 4096); Phys.slow_dram_tier ~bytes:(10 * 4096) ]
      ()
  in
  check_int "frames" 16 (Phys.n_frames m);
  check_int "tiers" 2 (Phys.n_tiers m);
  check_bool "tier 0 interval" true (Phys.tier_bounds m 0 = (0, 6));
  check_bool "tier 1 interval" true (Phys.tier_bounds m 1 = (6, 10));
  check_int "last fast frame" 0 (Phys.tier_of_frame m 5);
  check_int "first slow frame" 1 (Phys.tier_of_frame m 6);
  (* Address/color arithmetic is tier-blind: same as the flat machine. *)
  check_int "addr crosses the boundary linearly" (7 * 4096) (Phys.addr m 7);
  check_int "color keeps cycling" 3 (Phys.color m 7);
  (* With three tiers every frame's tier is the interval holding it. *)
  let m3 =
    Phys.create_tiered ~page_size:4096
      ~tiers:
        [
          Phys.dram_tier ~bytes:(3 * 4096);
          Phys.slow_dram_tier ~bytes:4096;
          Phys.slow_dram_tier ~bytes:(5 * 4096);
        ]
      ()
  in
  Alcotest.(check (list int))
    "tier of each frame, three tiers" [ 0; 0; 0; 1; 2; 2; 2; 2; 2 ]
    (List.init (Phys.n_frames m3) (Phys.tier_of_frame m3));
  (* Cost surcharges come from the tier spec. *)
  check_float "dram access surcharge" 0.0 (Phys.tier_access_us m 0);
  check_bool "slow tier surcharges" true
    (Phys.tier_access_us m 1 > 0.0 && Phys.tier_migrate_us m 1 > 0.0);
  (* A flat [create] is exactly one zero-surcharge dram tier. *)
  let flat = Phys.create ~n_colors:4 ~page_size:4096 ~total_bytes:(16 * 4096) () in
  check_int "flat = one tier" 1 (Phys.n_tiers flat);
  check_bool "covering everything" true (Phys.tier_bounds flat 0 = (0, 16));
  check_float "with no surcharge" 0.0 (Phys.tier_access_us flat 0)

(* Tier-scoped color queries against the naive filter of the unscoped
   result. *)
let test_phys_tier_scoped_queries () =
  let m =
    Phys.create_tiered ~n_colors:4 ~page_size:4096
      ~tiers:[ Phys.dram_tier ~bytes:(6 * 4096); Phys.slow_dram_tier ~bytes:(10 * 4096) ]
      ()
  in
  for tier = 0 to 1 do
    for color = 0 to 3 do
      Alcotest.(check (list int))
        (Printf.sprintf "color %d of tier %d" color tier)
        (List.filter (fun i -> Phys.tier_of_frame m i = tier) (Phys.frames_of_color m color))
        (Phys.frames_of_color ~tier m color)
    done
  done

(* The owner tag is only writable through set_owner. *)
let test_phys_owner_tag () =
  let m = Phys.create ~page_size:4096 ~total_bytes:(4 * 4096) () in
  check_int "unowned at creation" (-1) (Phys.owner m 0);
  Phys.set_owner m 0 7;
  Phys.set_owner m 1 7;
  Phys.set_owner m 2 9;
  check_int "tag reads back" 7 (Phys.owner m 1);
  check_int "others untouched" (-1) (Phys.owner m 3)

(* Aligned-run search over the owner tags: the physical backing of one
   superpage. Alignment is absolute (frame index mod run), mismatches
   make the scan jump past the offending frame, and a tier restricts the
   window to that tier's frame interval. *)
let test_phys_find_aligned_run () =
  let m = Phys.create ~page_size:4096 ~total_bytes:(32 * 4096) () in
  for i = 0 to 31 do
    Phys.set_owner m i 5
  done;
  check_bool "first aligned window" true (Phys.find_aligned_run m ~start:0 ~run:8 ~owned_by:5 = Some 0);
  check_bool "start rounds up to alignment" true
    (Phys.find_aligned_run m ~start:1 ~run:8 ~owned_by:5 = Some 8);
  Phys.set_owner m 12 9;
  check_bool "mismatch skips the window" true
    (Phys.find_aligned_run m ~start:8 ~run:8 ~owned_by:5 = Some 16);
  check_bool "no window after the tail" true
    (Phys.find_aligned_run m ~start:25 ~run:8 ~owned_by:5 = None);
  check_bool "whole-machine run" true (Phys.find_aligned_run m ~start:0 ~run:32 ~owned_by:5 = None);
  let tiered =
    Phys.create_tiered ~page_size:4096
      ~tiers:[ Phys.dram_tier ~bytes:(8 * 4096); Phys.slow_dram_tier ~bytes:(24 * 4096) ]
      ()
  in
  for i = 0 to 31 do
    Phys.set_owner tiered i 5
  done;
  check_bool "tier 0 window" true
    (Phys.find_aligned_run ~tier:0 tiered ~start:0 ~run:8 ~owned_by:5 = Some 0);
  check_bool "tier 0 has no second window" true
    (Phys.find_aligned_run ~tier:0 tiered ~start:1 ~run:8 ~owned_by:5 = None);
  check_bool "tier 1 windows are absolute-aligned" true
    (Phys.find_aligned_run ~tier:1 tiered ~start:0 ~run:8 ~owned_by:5 = Some 8)

(* ------------------------------------------------------------------ *)
(* Mapping hash                                                       *)
(* ------------------------------------------------------------------ *)

let prot_rw = { Pt.readable = true; writable = true }

(* The frame and protection [Pt.find] resolves, [None] for [Pt.vacant]. *)
let pt_get pt ~space ~vpn =
  let e = Pt.find pt ~space ~vpn in
  if e == Pt.vacant then None else Some (e.Pt.frame, e.Pt.prot)

(* [Tlb.probe] as an option. *)
let tlb_get tlb ~space ~vpn =
  match Tlb.probe tlb ~space ~vpn with -1 -> None | frame -> Some frame

let test_pt_insert_lookup () =
  let pt = Pt.create () in
  Pt.insert pt ~space:1 ~vpn:10 ~frame:5 ~prot:prot_rw;
  (match pt_get pt ~space:1 ~vpn:10 with
  | Some (5, p) -> check_bool "prot" true p.Pt.writable
  | Some _ | None -> Alcotest.fail "expected hit");
  check_int "one hit" 1 (Pt.hits pt);
  check_bool "miss on other key" true (pt_get pt ~space:1 ~vpn:11 = None);
  check_int "one miss" 1 (Pt.misses pt)

let test_pt_remove () =
  let pt = Pt.create () in
  Pt.insert pt ~space:1 ~vpn:10 ~frame:5 ~prot:prot_rw;
  Pt.remove pt ~space:1 ~vpn:10;
  check_bool "gone" true (pt_get pt ~space:1 ~vpn:10 = None)

let test_pt_remove_space () =
  let pt = Pt.create () in
  Pt.insert pt ~space:1 ~vpn:10 ~frame:5 ~prot:prot_rw;
  Pt.insert pt ~space:1 ~vpn:11 ~frame:6 ~prot:prot_rw;
  Pt.insert pt ~space:2 ~vpn:10 ~frame:7 ~prot:prot_rw;
  Pt.remove_space pt ~space:1;
  check_bool "space 1 vpn 10 gone" true (pt_get pt ~space:1 ~vpn:10 = None);
  check_bool "space 2 survives" true (pt_get pt ~space:2 ~vpn:10 <> None)

let test_pt_collision_overflow () =
  (* A tiny direct-mapped table forces collisions; the displaced entry
     must survive in the overflow area. *)
  let pt = Pt.create ~slots:1 ~overflow:4 () in
  Pt.insert pt ~space:1 ~vpn:1 ~frame:10 ~prot:prot_rw;
  Pt.insert pt ~space:1 ~vpn:2 ~frame:20 ~prot:prot_rw;
  check_bool "collision recorded" true (Pt.collisions pt >= 1);
  check_bool "displaced entry still found" true
    (match pt_get pt ~space:1 ~vpn:1 with Some (10, _) -> true | _ -> false);
  check_bool "new entry found" true
    (match pt_get pt ~space:1 ~vpn:2 with Some (20, _) -> true | _ -> false)

let test_pt_overflow_eviction () =
  (* With the overflow full, the oldest overflow entry is discarded — a
     cache, not a store. *)
  let pt = Pt.create ~slots:1 ~overflow:2 () in
  for vpn = 1 to 5 do
    Pt.insert pt ~space:1 ~vpn ~frame:vpn ~prot:prot_rw
  done;
  check_int "resident bounded" 3 (Pt.resident pt)

(* Churn the overflow area hard (tiny table, interleaved inserts, removes
   and a remove_space) and hold the hash to its cache contract against a
   model map: a lookup may miss, but whatever it returns must be the live
   frame for that key, and removed keys must never resurface. The
   overflow scans run as plain loops on the fault path, so this is the
   regression net for those loops. *)
let test_pt_overflow_churn_matches_model () =
  let pt = Pt.create ~slots:8 ~overflow:4 () in
  let model = Hashtbl.create 64 in
  let insert space vpn frame =
    Pt.insert pt ~space ~vpn ~frame ~prot:prot_rw;
    Hashtbl.replace model (space, vpn) frame
  in
  let remove space vpn =
    Pt.remove pt ~space ~vpn;
    Hashtbl.remove model (space, vpn)
  in
  let audit what =
    Hashtbl.iter
      (fun (space, vpn) frame ->
        match pt_get pt ~space ~vpn with
        | Some (f, _) ->
            check_int (Printf.sprintf "%s: (%d,%d) serves the live frame" what space vpn) frame f
        | None -> ())
      model;
    (* Nothing cached that the model does not know about. *)
    check_bool (what ^ ": no ghost entries") true (Pt.resident pt <= Hashtbl.length model)
  in
  for vpn = 0 to 39 do
    insert (vpn mod 3) vpn (100 + vpn)
  done;
  audit "after fill";
  for vpn = 0 to 39 do
    if vpn mod 2 = 0 then remove (vpn mod 3) vpn
  done;
  audit "after removes";
  List.iter
    (fun (space, vpn) ->
      check_bool
        (Printf.sprintf "removed (%d,%d) stays gone" space vpn)
        true
        (pt_get pt ~space ~vpn = None))
    [ (0, 0); (2, 2); (1, 4) ];
  for vpn = 0 to 19 do
    insert (vpn mod 3) vpn (200 + vpn)
  done;
  audit "after reinserts";
  Pt.remove_space pt ~space:1;
  Hashtbl.iter
    (fun (space, vpn) _ ->
      if space = 1 then
        check_bool (Printf.sprintf "space 1 vpn %d flushed" vpn) true
          (pt_get pt ~space ~vpn = None))
    model;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
  List.iter (fun ((space, _) as k) -> if space = 1 then Hashtbl.remove model k) keys;
  audit "after remove_space"

(* Hw_machine sizes the mapping hash to the physical frame count once a
   machine outgrows the 64K-slot default, so frames map 1:1 to slots and
   warm scans at the perf record's sizes stay hash hits. Paper-scale
   machines keep the default — their records (substrate stats, Table 1)
   are unchanged. *)
let test_machine_pt_sized_to_memory () =
  let small = Hw_machine.create ~memory_bytes:(16 * 1024 * 1024) () in
  check_int "paper-scale machine keeps the 64K default" 65536
    (Pt.capacity small.Hw_machine.page_table);
  let frames = 65536 + 256 in
  let big = Hw_machine.create ~memory_bytes:(frames * 4096) () in
  check_int "large machine gets one slot per frame" frames
    (Pt.capacity big.Hw_machine.page_table)

let test_pt_update_in_place () =
  let pt = Pt.create () in
  Pt.insert pt ~space:1 ~vpn:1 ~frame:10 ~prot:prot_rw;
  Pt.insert pt ~space:1 ~vpn:1 ~frame:11 ~prot:{ Pt.readable = true; writable = false };
  match pt_get pt ~space:1 ~vpn:1 with
  | Some (11, p) -> check_bool "updated prot" false p.Pt.writable
  | Some _ | None -> Alcotest.fail "expected updated entry"

(* The 4 KB slots are allocated 32 at a time, as inserts reach them: an
   empty table holds one top-array word per 32 slots, a reached chunk its
   slots and a header (the last chunk cut to the slot count), and a live
   translation its 6-word entry, with no option box around it. *)
let test_pt_memory () =
  let words pt = Obj.reachable_words (Obj.repr pt) in
  let empty slots = words (Pt.create ~slots ~overflow:0 ~super_slots:1 ()) in
  check_int "an empty 64K-slot table: one word per 32 slots" (2048 - 1)
    (empty 65536 - empty 32);
  let slots = 100 in
  let pt = Pt.create ~slots ~overflow:0 ~super_slots:1 () in
  let slot vpn = abs ((1 * 0x9E3779B1) lxor (vpn * 0x85EBCA77)) mod slots in
  let rec vpn_where ?(vpn = 0) ok = if ok (slot vpn) then vpn else vpn_where ~vpn:(vpn + 1) ok in
  let cost vpn =
    let before = words pt in
    Pt.insert pt ~space:1 ~vpn ~frame:vpn ~prot:prot_rw;
    words pt - before
  in
  let first = vpn_where (fun i -> i < 32) in
  ignore (cost first);
  check_int "a new chunk: 32 slots, a header, the entry" (32 + 1 + 6)
    (cost (vpn_where (fun i -> i >= 32 && i < 64)));
  check_int "a reached chunk: the entry" 6 (cost (vpn_where (fun i -> i < 32 && i <> slot first)));
  check_int "the last chunk, cut to 4 slots" (4 + 1 + 6) (cost (vpn_where (fun i -> i >= 96)));
  check_int "an update in place" 0 (cost first)

(* Superpage entries resolve before the 4 KB probe and translate every
   base page of their aligned run. *)
let test_pt_super_basics () =
  let pt = Pt.create ~slots:16 ~overflow:4 ~super_slots:8 ~super_pages:8 () in
  Pt.insert_super pt ~space:1 ~svpn:2 ~frame:80 ~prot:prot_rw;
  check_int "one superpage resident" 1 (Pt.super_resident pt);
  (match Pt.find pt ~space:1 ~vpn:16 with
  | { Pt.frame = 80; size = Pt.Super; _ } -> ()
  | _ -> Alcotest.fail "expected super hit at run base");
  (match Pt.find pt ~space:1 ~vpn:23 with
  | { Pt.frame = 87; size = Pt.Super; _ } -> ()
  | _ -> Alcotest.fail "expected super hit at run end");
  check_int "super hits counted" 2 (Pt.super_hits pt);
  check_int "super hits also count as hits" 2 (Pt.hits pt);
  check_bool "outside the run misses" true (pt_get pt ~space:1 ~vpn:24 = None);
  check_bool "other space misses" true (pt_get pt ~space:2 ~vpn:16 = None);
  (* A super entry shadows any 4 KB entry under it. *)
  Pt.insert pt ~space:1 ~vpn:17 ~frame:999 ~prot:prot_rw;
  (match Pt.find pt ~space:1 ~vpn:17 with
  | { Pt.frame = 81; size = Pt.Super; _ } -> ()
  | _ -> Alcotest.fail "super entry must shadow the 4 KB entry");
  Pt.remove_super pt ~space:1 ~svpn:2;
  check_int "removed" 0 (Pt.super_resident pt);
  (match Pt.find pt ~space:1 ~vpn:17 with
  | { Pt.frame = 999; size = Pt.Base; _ } -> ()
  | _ -> Alcotest.fail "4 KB entry resurfaces after demotion")

let test_pt_super_collision_and_space () =
  let pt = Pt.create ~slots:16 ~super_slots:1 ~super_pages:8 () in
  Pt.insert_super pt ~space:1 ~svpn:0 ~frame:0 ~prot:prot_rw;
  Pt.insert_super pt ~space:1 ~svpn:1 ~frame:8 ~prot:prot_rw;
  check_int "collision displaces" 1 (Pt.super_resident pt);
  check_int "collision counted" 1 (Pt.super_collisions pt);
  check_bool "displaced run misses" true (pt_get pt ~space:1 ~vpn:0 = None);
  check_bool "winner serves" true (pt_get pt ~space:1 ~vpn:8 = Some (8, prot_rw));
  Pt.remove_space pt ~space:1;
  check_int "space teardown clears supers" 0 (Pt.super_resident pt);
  check_bool "gone after teardown" true (pt_get pt ~space:1 ~vpn:8 = None)

(* ------------------------------------------------------------------ *)
(* TLB                                                                *)
(* ------------------------------------------------------------------ *)

let test_tlb_basics () =
  let tlb = Tlb.create ~entries:8 () in
  check_bool "cold miss" true (tlb_get tlb ~space:1 ~vpn:3 = None);
  Tlb.fill tlb ~space:1 ~vpn:3 ~frame:7;
  check_bool "hit" true (tlb_get tlb ~space:1 ~vpn:3 = Some 7);
  Tlb.invalidate tlb ~space:1 ~vpn:3;
  check_bool "invalidated" true (tlb_get tlb ~space:1 ~vpn:3 = None);
  check_int "misses" 2 (Tlb.misses tlb);
  check_int "hits" 1 (Tlb.hits tlb)

let test_tlb_space_invalidation () =
  let tlb = Tlb.create () in
  Tlb.fill tlb ~space:1 ~vpn:1 ~frame:1;
  Tlb.fill tlb ~space:2 ~vpn:2 ~frame:2;
  Tlb.invalidate_space tlb ~space:1;
  check_bool "space 1 gone" true (tlb_get tlb ~space:1 ~vpn:1 = None);
  check_bool "space 2 stays" true (tlb_get tlb ~space:2 ~vpn:2 = Some 2)

let test_tlb_hit_rate () =
  let tlb = Tlb.create () in
  Tlb.fill tlb ~space:1 ~vpn:1 ~frame:1;
  ignore (tlb_get tlb ~space:1 ~vpn:1);
  ignore (tlb_get tlb ~space:1 ~vpn:9999);
  check_float "50%" 0.5 (Tlb.hit_rate tlb)

let test_tlb_super () =
  let tlb = Tlb.create ~entries:4 ~super_entries:2 ~super_pages:8 () in
  Tlb.fill_super tlb ~space:1 ~svpn:1 ~frame:40;
  check_bool "covers the run base" true (tlb_get tlb ~space:1 ~vpn:8 = Some 40);
  check_int "super-resolved hit at run end" 47 (Tlb.probe tlb ~space:1 ~vpn:15);
  check_int "super hits counted" 2 (Tlb.super_hits tlb);
  check_bool "outside the run misses" true (tlb_get tlb ~space:1 ~vpn:16 = None);
  (* Base fills still work alongside and are reported as base hits. *)
  Tlb.fill tlb ~space:1 ~vpn:16 ~frame:99;
  check_int "base hit" 99 (Tlb.probe tlb ~space:1 ~vpn:16);
  check_int "a base hit is no super hit" 2 (Tlb.super_hits tlb);
  Tlb.invalidate_super tlb ~space:1 ~svpn:1;
  check_bool "invalidated" true (tlb_get tlb ~space:1 ~vpn:8 = None);
  Tlb.fill_super tlb ~space:1 ~svpn:1 ~frame:40;
  Tlb.invalidate_space tlb ~space:1;
  check_bool "space invalidation clears supers" true (tlb_get tlb ~space:1 ~vpn:8 = None);
  Tlb.fill_super tlb ~space:1 ~svpn:1 ~frame:40;
  Tlb.flush tlb;
  check_bool "flush clears supers" true (tlb_get tlb ~space:1 ~vpn:8 = None)

(* ------------------------------------------------------------------ *)
(* Disk                                                               *)
(* ------------------------------------------------------------------ *)

let test_disk_service_time () =
  let e = Engine.create () in
  let d = Disk.create e () in
  let expected = Disk.access_time_us d ~bytes:4096 in
  let elapsed = ref 0.0 in
  Engine.spawn e (fun () ->
      let t0 = Engine.time () in
      Disk.read d ~bytes:4096;
      elapsed := Engine.time () -. t0);
  Engine.run e;
  check_float "one access" expected !elapsed;
  check_int "read counted" 1 (Disk.reads d);
  check_int "bytes counted" 4096 (Disk.bytes_read d)

let test_disk_serialises () =
  let e = Engine.create () in
  let d = Disk.create e () in
  let t_one = Disk.access_time_us d ~bytes:4096 in
  let finish = ref 0.0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Disk.read d ~bytes:4096;
        finish := Engine.time ())
  done;
  Engine.run e;
  check_float "three serialised accesses" (3.0 *. t_one) !finish

let test_disk_1992_latency () =
  (* Paper §1: a page fault to disk costs close to a million instruction
     times — tens of milliseconds. *)
  let e = Engine.create () in
  let d = Disk.create e () in
  let t = Disk.access_time_us d ~bytes:4096 in
  check_bool "in the 10-30ms range" true (t > 10_000.0 && t < 30_000.0)

(* ------------------------------------------------------------------ *)
(* Cache model                                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_conflicts () =
  let c = Cache.create ~size_bytes:(64 * 1024) () in
  (* Two addresses one cache-size apart collide in a direct-mapped
     cache. *)
  check_bool "cold miss" false (Cache.access c ~phys_addr:0);
  check_bool "conflict miss" false (Cache.access c ~phys_addr:(64 * 1024));
  check_bool "evicted: miss again" false (Cache.access c ~phys_addr:0);
  check_int "all misses" 3 (Cache.misses c);
  (* Two addresses in distinct sets do not (fresh cache: reset_stats keeps
     contents, so reuse would hit on the still-cached line). *)
  let c = Cache.create ~size_bytes:(64 * 1024) () in
  ignore (Cache.access c ~phys_addr:0);
  ignore (Cache.access c ~phys_addr:64);
  check_bool "warm hit" true (Cache.access c ~phys_addr:0);
  check_bool "warm hit" true (Cache.access c ~phys_addr:64);
  check_int "two cold misses" 2 (Cache.misses c);
  check_int "two hits" 2 (Cache.hits c);
  check_int "accesses = hits + misses" (Cache.hits c + Cache.misses c) (Cache.accesses c)

let test_cache_colors () =
  let c = Cache.create ~size_bytes:(64 * 1024) () in
  check_int "16 colors for 4KB pages" 16 (Cache.n_colors c ~page_bytes:4096);
  check_int "page color cycles" 1 (Cache.color_of c ~phys_addr:4096 ~page_bytes:4096);
  check_int "wraps at cache size" 0 (Cache.color_of c ~phys_addr:(64 * 1024) ~page_bytes:4096)

(* Pin the documented identity n_colors = sets * line_bytes / page_bytes
   (clamped at 1 when the page exceeds the cache) across geometries. *)
let test_cache_n_colors_identity () =
  List.iter
    (fun (size_bytes, line_bytes, page_bytes) ->
      let c = Cache.create ~line_bytes ~size_bytes () in
      check_int
        (Printf.sprintf "%dB cache, %dB lines, %dB pages" size_bytes line_bytes page_bytes)
        (max 1 (Cache.sets c * line_bytes / page_bytes))
        (Cache.n_colors c ~page_bytes))
    [
      (64 * 1024, 64, 4096);
      (64 * 1024, 32, 4096);
      (128 * 1024, 64, 8192);
      (8 * 1024, 64, 4096);
      (2 * 1024, 64, 4096) (* page bigger than the cache: one color *);
    ]

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let prop_pt_lookup_after_insert =
  QCheck.Test.make ~name:"mapping hash: insert then lookup finds the frame" ~count:200
    QCheck.(pair (int_bound 100) (int_bound 100_000))
    (fun (space, vpn) ->
      let pt = Pt.create () in
      Pt.insert pt ~space ~vpn ~frame:7 ~prot:prot_rw;
      match pt_get pt ~space ~vpn with Some (7, _) -> true | _ -> false)

(* With a single direct-mapped slot every insert collides, so the table
   holds the newest k+1 entries (slot + overflow) and a full overflow
   discards its oldest entry — a cache, never a store. *)
let prop_pt_overflow_oldest_discarded =
  QCheck.Test.make ~name:"mapping hash: full overflow discards the oldest entry" ~count:200
    QCheck.(pair (int_range 1 6) (int_range 1 20))
    (fun (k, n) ->
      let pt = Pt.create ~slots:1 ~overflow:k () in
      for vpn = 1 to n do
        Pt.insert pt ~space:7 ~vpn ~frame:(100 + vpn) ~prot:prot_rw
      done;
      let live = min n (k + 1) in
      let ok = ref (Pt.resident pt = live) in
      for vpn = 1 to n do
        let expect = if vpn > n - live then Some (100 + vpn) else None in
        let got = Option.map fst (pt_get pt ~space:7 ~vpn) in
        if got <> expect then ok := false
      done;
      !ok)

(* Differential model of the mapping hash: same geometry and hashes,
   naive reference code over one option array per area. Random insert/
   remove/remove_space/lookup churn, superpage installs and removals
   included, must leave both with identical contents (frame and
   protection), identical residency after every space teardown and
   identical statistics. The table sizes span one partial chunk, several
   chunks, and sizes that are not a multiple of the 32-slot chunk. *)
module Pt_model = struct
  type entry = { m_space : int; m_vpn : int; m_frame : int; m_prot : Pt.prot }

  type t = {
    slots : entry option array;
    overflow : entry option array;
    mutable next : int;
    super : entry option array;
    super_pages : int;
    mutable hits : int;
    mutable misses : int;
    mutable collisions : int;
    mutable super_hits : int;
    mutable super_collisions : int;
  }

  let create ~slots ~overflow ~super_slots ~super_pages =
    {
      slots = Array.make slots None;
      overflow = Array.make overflow None;
      next = 0;
      super = Array.make super_slots None;
      super_pages;
      hits = 0;
      misses = 0;
      collisions = 0;
      super_hits = 0;
      super_collisions = 0;
    }

  let slot_of t ~space ~vpn =
    abs ((space * 0x9E3779B1) lxor (vpn * 0x85EBCA77)) mod Array.length t.slots

  let super_slot_of t ~space ~svpn =
    abs ((space * 0x9E3779B1) lxor (svpn * 0xC2B2AE35)) mod Array.length t.super

  let matches e ~space ~vpn = e.m_space = space && e.m_vpn = vpn

  let overflow_insert t e =
    let n = Array.length t.overflow in
    if n > 0 then begin
      let empty = ref (-1) in
      for i = n - 1 downto 0 do
        if t.overflow.(i) = None then empty := i
      done;
      let i = if !empty >= 0 then !empty else t.next in
      if !empty < 0 then t.next <- (t.next + 1) mod n;
      t.overflow.(i) <- Some e
    end

  let overflow_drop t ~space ~vpn =
    Array.iteri
      (fun j o ->
        match o with Some e when matches e ~space ~vpn -> t.overflow.(j) <- None | _ -> ())
      t.overflow

  let insert t ~space ~vpn ~frame ~prot =
    let i = slot_of t ~space ~vpn in
    (match t.slots.(i) with
    | Some old when not (matches old ~space ~vpn) ->
        t.collisions <- t.collisions + 1;
        overflow_insert t old
    | Some _ | None -> ());
    overflow_drop t ~space ~vpn;
    t.slots.(i) <- Some { m_space = space; m_vpn = vpn; m_frame = frame; m_prot = prot }

  let insert_super t ~space ~svpn ~frame ~prot =
    let i = super_slot_of t ~space ~svpn in
    (match t.super.(i) with
    | Some old when not (matches old ~space ~vpn:svpn) ->
        t.super_collisions <- t.super_collisions + 1
    | Some _ | None -> ());
    t.super.(i) <- Some { m_space = space; m_vpn = svpn; m_frame = frame; m_prot = prot }

  let remove t ~space ~vpn =
    let i = slot_of t ~space ~vpn in
    (match t.slots.(i) with
    | Some e when matches e ~space ~vpn -> t.slots.(i) <- None
    | Some _ | None -> ());
    overflow_drop t ~space ~vpn

  let remove_super t ~space ~svpn =
    let i = super_slot_of t ~space ~svpn in
    match t.super.(i) with
    | Some e when matches e ~space ~vpn:svpn -> t.super.(i) <- None
    | Some _ | None -> ()

  let remove_space t ~space =
    let drop arr =
      Array.iteri
        (fun i o -> match o with Some e when e.m_space = space -> arr.(i) <- None | _ -> ())
        arr
    in
    drop t.slots;
    drop t.overflow;
    drop t.super

  (* The frame and protection the lookup resolves. *)
  let lookup t ~space ~vpn =
    let svpn = vpn / t.super_pages in
    match t.super.(super_slot_of t ~space ~svpn) with
    | Some e when matches e ~space ~vpn:svpn ->
        t.hits <- t.hits + 1;
        t.super_hits <- t.super_hits + 1;
        Some (e.m_frame + (vpn - (svpn * t.super_pages)), e.m_prot)
    | _ ->
        let found =
          match t.slots.(slot_of t ~space ~vpn) with
          | Some e when matches e ~space ~vpn -> Some (e.m_frame, e.m_prot)
          | _ ->
              Array.fold_left
                (fun acc o ->
                  match (acc, o) with
                  | None, Some e when matches e ~space ~vpn -> Some (e.m_frame, e.m_prot)
                  | _ -> acc)
                None t.overflow
        in
        (match found with None -> t.misses <- t.misses + 1 | Some _ -> t.hits <- t.hits + 1);
        found

  let count arr = Array.fold_left (fun acc o -> if o = None then acc else acc + 1) 0 arr
  let resident t = count t.slots + count t.overflow
  let super_resident t = count t.super
end

type pt_op =
  | P_insert of int * int * int * Pt.prot
  | P_insert_super of int * int * int
  | P_remove of int * int
  | P_remove_super of int * int
  | P_remove_space of int
  | P_lookup of int * int

let pt_prots =
  [
    { Pt.readable = true; writable = true };
    { Pt.readable = true; writable = false };
    { Pt.readable = false; writable = false };
  ]

(* (slots, overflow, super slots): one partial chunk, a table of a few
   chunks whose last one is partial (37, 100), whole chunks (64), and a
   one-slot table where every insert collides. *)
let pt_geometries = [ (4, 2, 2); (37, 4, 3); (100, 3, 2); (64, 2, 1); (1, 3, 1) ]
let pt_super_pages = 8

(* Keys cover about three entries per slot, so slots collide and the
   overflow area churns at every size. *)
let pt_vpn_bound slots = max 11 slots

let pt_op_gen slots =
  let v = pt_vpn_bound slots and s = QCheck.Gen.int_bound 2 in
  let sv = (v / pt_super_pages) + 1 in
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun (sp, vp) f prot -> P_insert (sp, vp, f, prot))
            (pair s (int_bound v)) (int_bound 99) (oneofl pt_prots) );
        (4, map (fun (sp, vp) -> P_lookup (sp, vp)) (pair s (int_bound v)));
        (2, map (fun (sp, vp) -> P_remove (sp, vp)) (pair s (int_bound v)));
        (1, map (fun sp -> P_remove_space sp) s);
        (1, map3 (fun sp sv f -> P_insert_super (sp, sv, f)) s (int_bound sv) (int_bound 99));
        (1, map (fun (sp, sv) -> P_remove_super (sp, sv)) (pair s (int_bound sv)));
      ])

let pt_case_gen =
  QCheck.Gen.(
    oneofl pt_geometries >>= fun ((slots, _, _) as g) ->
    map (fun ops -> (g, ops)) (list_size (int_range 0 200) (pt_op_gen slots)))

let prop_pt_stats_match_model =
  QCheck.Test.make ~name:"mapping hash: churn matches the reference model (contents and stats)"
    ~count:500 (QCheck.make pt_case_gen)
    (fun ((slots, overflow, super_slots), ops) ->
      let pt = Pt.create ~slots ~overflow ~super_slots ~super_pages:pt_super_pages () in
      let m = Pt_model.create ~slots ~overflow ~super_slots ~super_pages:pt_super_pages in
      let ok = ref true in
      let agree b = if not b then ok := false in
      List.iter
        (fun op ->
          match op with
          | P_insert (space, vpn, frame, prot) ->
              Pt.insert pt ~space ~vpn ~frame ~prot;
              Pt_model.insert m ~space ~vpn ~frame ~prot
          | P_insert_super (space, svpn, frame) ->
              Pt.insert_super pt ~space ~svpn ~frame ~prot:prot_rw;
              Pt_model.insert_super m ~space ~svpn ~frame ~prot:prot_rw
          | P_remove (space, vpn) ->
              Pt.remove pt ~space ~vpn;
              Pt_model.remove m ~space ~vpn
          | P_remove_super (space, svpn) ->
              Pt.remove_super pt ~space ~svpn;
              Pt_model.remove_super m ~space ~svpn
          | P_remove_space space ->
              Pt.remove_space pt ~space;
              Pt_model.remove_space m ~space;
              agree (Pt.resident pt = Pt_model.resident m);
              agree (Pt.super_resident pt = Pt_model.super_resident m)
          | P_lookup (space, vpn) -> agree (pt_get pt ~space ~vpn = Pt_model.lookup m ~space ~vpn))
        ops;
      (* Final sweep of the whole key universe: identical contents (the
         sweep itself advances both stat sets in lockstep). *)
      for space = 0 to 2 do
        for vpn = 0 to pt_vpn_bound slots do
          agree (pt_get pt ~space ~vpn = Pt_model.lookup m ~space ~vpn)
        done
      done;
      !ok
      && Pt.hits pt = m.Pt_model.hits
      && Pt.misses pt = m.Pt_model.misses
      && Pt.collisions pt = m.Pt_model.collisions
      && Pt.super_hits pt = m.Pt_model.super_hits
      && Pt.super_collisions pt = m.Pt_model.super_collisions
      && Pt.resident pt = Pt_model.resident m
      && Pt.super_resident pt = Pt_model.super_resident m)

(* Differential model of the TLB: the option-array TLB, one [Some entry]
   per cached translation, kept here as the reference the int-array one
   must match probe by probe (frame, or a miss) and in its hit, miss and
   superpage-hit counts. *)
module Tlb_model = struct
  type entry = { space : int; vpn : int; frame : int }

  type t = {
    slots : entry option array;
    super : entry option array;
    super_pages : int;
    mutable hits : int;
    mutable misses : int;
    mutable super_hits : int;
  }

  let create ~entries ~super_entries ~super_pages =
    {
      slots = Array.make entries None;
      super = Array.make super_entries None;
      super_pages;
      hits = 0;
      misses = 0;
      super_hits = 0;
    }

  let index t ~space ~vpn = abs ((vpn * 31) lxor space) mod Array.length t.slots
  let super_index t ~space ~svpn = abs ((svpn * 131) lxor space) mod Array.length t.super

  let lookup t ~space ~vpn =
    let svpn = vpn / t.super_pages in
    match t.super.(super_index t ~space ~svpn) with
    | Some s when s.space = space && s.vpn = svpn ->
        t.hits <- t.hits + 1;
        t.super_hits <- t.super_hits + 1;
        Some (s.frame + (vpn - (svpn * t.super_pages)))
    | _ -> (
        match t.slots.(index t ~space ~vpn) with
        | Some s when s.space = space && s.vpn = vpn ->
            t.hits <- t.hits + 1;
            Some s.frame
        | _ ->
            t.misses <- t.misses + 1;
            None)

  let fill t ~space ~vpn ~frame = t.slots.(index t ~space ~vpn) <- Some { space; vpn; frame }

  let fill_super t ~space ~svpn ~frame =
    t.super.(super_index t ~space ~svpn) <- Some { space; vpn = svpn; frame }

  let invalidate_in arr i ~space ~vpn =
    match arr.(i) with Some s when s.space = space && s.vpn = vpn -> arr.(i) <- None | _ -> ()

  let invalidate t ~space ~vpn = invalidate_in t.slots (index t ~space ~vpn) ~space ~vpn

  let invalidate_super t ~space ~svpn =
    invalidate_in t.super (super_index t ~space ~svpn) ~space ~vpn:svpn

  let invalidate_space t ~space =
    let drop arr =
      Array.iteri (fun i o -> match o with Some s when s.space = space -> arr.(i) <- None | _ -> ()) arr
    in
    drop t.slots;
    drop t.super

  let flush t =
    Array.fill t.slots 0 (Array.length t.slots) None;
    Array.fill t.super 0 (Array.length t.super) None
end

type tlb_op =
  | T_probe of int * int
  | T_fill of int * int * int
  | T_fill_super of int * int * int
  | T_invalidate of int * int
  | T_invalidate_super of int * int
  | T_invalidate_space of int
  | T_flush

(* (entries, superpage entries, pages per superpage). *)
let tlb_geometries = [ (1, 1, 4); (4, 2, 4); (8, 3, 8); (64, 16, 8) ]
let tlb_vpn_bound = 31

let tlb_op_gen super_pages =
  let s = QCheck.Gen.int_bound 2 and v = QCheck.Gen.int_bound tlb_vpn_bound in
  let sv = QCheck.Gen.int_bound (tlb_vpn_bound / super_pages) in
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun sp vp -> T_probe (sp, vp)) s v);
        (4, map3 (fun sp vp f -> T_fill (sp, vp, f)) s v (int_bound 99));
        (1, map3 (fun sp svpn f -> T_fill_super (sp, svpn, f)) s sv (int_bound 99));
        (2, map2 (fun sp vp -> T_invalidate (sp, vp)) s v);
        (1, map2 (fun sp svpn -> T_invalidate_super (sp, svpn)) s sv);
        (1, map (fun sp -> T_invalidate_space sp) s);
        (1, return T_flush);
      ])

let tlb_case_gen =
  QCheck.Gen.(
    oneofl tlb_geometries >>= fun ((_, _, super_pages) as g) ->
    map (fun ops -> (g, ops)) (list_size (int_range 0 200) (tlb_op_gen super_pages)))

let prop_tlb_matches_model =
  QCheck.Test.make ~name:"tlb: churn matches the option-array reference (probes and stats)"
    ~count:500 (QCheck.make tlb_case_gen)
    (fun ((entries, super_entries, super_pages), ops) ->
      let tlb = Tlb.create ~entries ~super_entries ~super_pages () in
      let m = Tlb_model.create ~entries ~super_entries ~super_pages in
      let ok = ref true in
      let probe space vpn =
        if tlb_get tlb ~space ~vpn <> Tlb_model.lookup m ~space ~vpn then ok := false
      in
      List.iter
        (function
          | T_probe (space, vpn) -> probe space vpn
          | T_fill (space, vpn, frame) ->
              Tlb.fill tlb ~space ~vpn ~frame;
              Tlb_model.fill m ~space ~vpn ~frame
          | T_fill_super (space, svpn, frame) ->
              Tlb.fill_super tlb ~space ~svpn ~frame;
              Tlb_model.fill_super m ~space ~svpn ~frame
          | T_invalidate (space, vpn) ->
              Tlb.invalidate tlb ~space ~vpn;
              Tlb_model.invalidate m ~space ~vpn
          | T_invalidate_super (space, svpn) ->
              Tlb.invalidate_super tlb ~space ~svpn;
              Tlb_model.invalidate_super m ~space ~svpn
          | T_invalidate_space space ->
              Tlb.invalidate_space tlb ~space;
              Tlb_model.invalidate_space m ~space
          | T_flush ->
              Tlb.flush tlb;
              Tlb_model.flush m)
        ops;
      for space = 0 to 2 do
        for vpn = 0 to tlb_vpn_bound do
          probe space vpn
        done
      done;
      !ok
      && Tlb.hits tlb = m.Tlb_model.hits
      && Tlb.misses tlb = m.Tlb_model.misses
      && Tlb.super_hits tlb = m.Tlb_model.super_hits)

let prop_cache_sequential_second_pass_hits =
  QCheck.Test.make ~name:"cache: a working set within capacity hits on the second sweep"
    ~count:50
    QCheck.(int_range 1 8)
    (fun pages ->
      let c = Cache.create ~size_bytes:(64 * 1024) () in
      (* Distinct colors: no conflicts. *)
      for p = 0 to pages - 1 do
        Cache.touch_page c ~phys_addr:(p * 4096) ~page_bytes:4096
      done;
      Cache.reset_stats c;
      for p = 0 to pages - 1 do
        Cache.touch_page c ~phys_addr:(p * 4096) ~page_bytes:4096
      done;
      Cache.misses c = 0)

(* Differential model of the physically-indexed cache: a pure reference
   (map of set -> resident line) replayed against access/touch_page/
   color_of on random address sequences over several geometries. Hit/miss
   verdicts must agree access-by-access and the accesses/hits/misses/
   miss_rate counters must match exactly at the end. *)
module Cache_model = struct
  type t = {
    line_bytes : int;
    sets : int;
    resident : (int, int) Hashtbl.t;  (* set -> resident line *)
    mutable accesses : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~line_bytes ~size_bytes =
    {
      line_bytes;
      sets = size_bytes / line_bytes;
      resident = Hashtbl.create 64;
      accesses = 0;
      hits = 0;
      misses = 0;
    }

  let access t addr =
    let line = addr / t.line_bytes in
    let set = line mod t.sets in
    t.accesses <- t.accesses + 1;
    if Hashtbl.find_opt t.resident set = Some line then begin
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      Hashtbl.replace t.resident set line;
      false
    end

  let touch_page t addr ~page_bytes =
    for i = 0 to (page_bytes / t.line_bytes) - 1 do
      ignore (access t (addr + (i * t.line_bytes)))
    done

  let miss_rate t =
    if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

  let color_of t addr ~page_bytes =
    addr / page_bytes mod max 1 (t.sets * t.line_bytes / page_bytes)
end

type cache_op = C_access of int | C_touch_page of int

let cache_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun a -> C_access a) (int_bound 0x7FFFF));
        (1, map (fun a -> C_touch_page a) (int_bound 0x7FFFF));
      ])

let cache_geometries = [ (16 * 1024, 64); (64 * 1024, 64); (8 * 1024, 32); (4 * 1024, 128) ]

let prop_cache_matches_model =
  QCheck.Test.make ~name:"cache: churn matches the reference model (verdicts and stats)"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair (oneofl cache_geometries) (list_size (int_range 0 120) cache_op_gen)))
    (fun ((size_bytes, line_bytes), ops) ->
      let c = Cache.create ~line_bytes ~size_bytes () in
      let m = Cache_model.create ~line_bytes ~size_bytes in
      let verdicts_ok = ref true in
      List.iter
        (fun op ->
          match op with
          | C_access addr ->
              if Cache.access c ~phys_addr:addr <> Cache_model.access m addr then
                verdicts_ok := false
          | C_touch_page addr ->
              Cache.touch_page c ~phys_addr:addr ~page_bytes:4096;
              Cache_model.touch_page m addr ~page_bytes:4096)
        ops;
      let colors_ok = ref true in
      List.iter
        (fun page_bytes ->
          for p = 0 to 40 do
            let addr = p * page_bytes in
            if
              Cache.color_of c ~phys_addr:addr ~page_bytes
              <> Cache_model.color_of m addr ~page_bytes
            then colors_ok := false
          done)
        [ 4096; 8192 ];
      !verdicts_ok && !colors_ok
      && Cache.accesses c = m.Cache_model.accesses
      && Cache.hits c = m.Cache_model.hits
      && Cache.misses c = m.Cache_model.misses
      && Cache.miss_rate c = Cache_model.miss_rate m)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pt_lookup_after_insert;
      prop_pt_overflow_oldest_discarded;
      prop_pt_stats_match_model;
      prop_tlb_matches_model;
      prop_cache_sequential_second_pass_hits;
      prop_cache_matches_model;
    ]

let () =
  Alcotest.run "hw"
    [
      ( "page-data",
        [
          Alcotest.test_case "equality" `Quick test_data_equal;
          Alcotest.test_case "byte observation" `Quick test_data_byte_observation;
        ] );
      ( "phys-mem",
        [
          Alcotest.test_case "layout" `Quick test_phys_layout;
          Alcotest.test_case "color/range queries" `Quick test_phys_queries;
          Alcotest.test_case "indexes match the naive scan" `Quick test_phys_indexes_match_scan;
          Alcotest.test_case "copy and zero" `Quick test_phys_copy_zero;
          Alcotest.test_case "bad create" `Quick test_phys_bad_create;
          Alcotest.test_case "tiered layout" `Quick test_phys_tiered_layout;
          Alcotest.test_case "tier-scoped queries" `Quick test_phys_tier_scoped_queries;
          Alcotest.test_case "owner tag" `Quick test_phys_owner_tag;
          Alcotest.test_case "find aligned run" `Quick test_phys_find_aligned_run;
        ] );
      ( "page-table",
        [
          Alcotest.test_case "insert/lookup" `Quick test_pt_insert_lookup;
          Alcotest.test_case "remove" `Quick test_pt_remove;
          Alcotest.test_case "remove space" `Quick test_pt_remove_space;
          Alcotest.test_case "collision to overflow" `Quick test_pt_collision_overflow;
          Alcotest.test_case "overflow eviction" `Quick test_pt_overflow_eviction;
          Alcotest.test_case "update in place" `Quick test_pt_update_in_place;
          Alcotest.test_case "overflow churn vs model" `Quick test_pt_overflow_churn_matches_model;
          Alcotest.test_case "sized to machine memory" `Quick test_machine_pt_sized_to_memory;
          Alcotest.test_case "slots allocated as reached" `Quick test_pt_memory;
          Alcotest.test_case "super basics" `Quick test_pt_super_basics;
          Alcotest.test_case "super collision + teardown" `Quick
            test_pt_super_collision_and_space;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "basics" `Quick test_tlb_basics;
          Alcotest.test_case "space invalidation" `Quick test_tlb_space_invalidation;
          Alcotest.test_case "hit rate" `Quick test_tlb_hit_rate;
          Alcotest.test_case "superpage entries" `Quick test_tlb_super;
        ] );
      ( "disk",
        [
          Alcotest.test_case "service time" `Quick test_disk_service_time;
          Alcotest.test_case "serialises" `Quick test_disk_serialises;
          Alcotest.test_case "1992 latency" `Quick test_disk_1992_latency;
        ] );
      ( "cache",
        [
          Alcotest.test_case "conflicts" `Quick test_cache_conflicts;
          Alcotest.test_case "colors" `Quick test_cache_colors;
          Alcotest.test_case "n_colors identity" `Quick test_cache_n_colors_identity;
        ] );
      ("properties", qcheck_cases);
    ]
