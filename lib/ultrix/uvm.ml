module Machine = Hw_machine
module Pt = Hw_page_table
module Tlb = Hw_tlb

type access = Read | Write

type page_id =
  | Anon of { pid : int; vpn : int }
  | File_page of { file : int; page : int }  (* page = 4KB block index *)

type page_state = {
  id : page_id;
  mutable referenced : bool;
  mutable dirty : bool;
  mutable protected_ : bool;
}

type stats = {
  mutable faults : int;
  mutable zero_fills : int;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable read_calls : int;
  mutable write_calls : int;
  mutable user_faults : int;
  mutable touches : int;
}

type t = {
  machine : Machine.t;
  resident_limit : int;
  (* resident pages keyed by identity *)
  core : (page_id, page_state) Hashtbl.t;
  (* pages that have existed and were evicted to swap / backing store *)
  swapped : (page_id, unit) Hashtbl.t;
  mutable clock : page_id list;  (* scan order; rebuilt lazily *)
  mutable hand : page_id list;
  mutable next_pid : int;
  files : (int, int) Hashtbl.t;  (* fd/file id -> size_kb *)
  stats : stats;
}

type pid = int
type fd = int

let create ?resident_limit machine =
  let limit = Option.value resident_limit ~default:(Machine.n_frames machine) in
  {
    machine;
    resident_limit = limit;
    core = Hashtbl.create 1024;
    swapped = Hashtbl.create 256;
    clock = [];
    hand = [];
    next_pid = 1;
    files = Hashtbl.create 16;
    stats =
      {
        faults = 0;
        zero_fills = 0;
        page_ins = 0;
        page_outs = 0;
        read_calls = 0;
        write_calls = 0;
        user_faults = 0;
        touches = 0;
      };
  }

let stats t = t.stats
let resident_pages t = Hashtbl.length t.core
let cost t = t.machine.Machine.cost
let charge ?label t us = Machine.charge ?label t.machine us

let create_process t ~name:_ =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  pid

(* ------------------------------------------------------------------ *)
(* Global clock replacement                                           *)
(* ------------------------------------------------------------------ *)

let page_bytes t = Machine.page_size t.machine

let evict_one t =
  let rec scan steps =
    if steps > 2 * (Hashtbl.length t.core + 1) then ()
    else begin
      if t.hand = [] then t.hand <- t.clock;
      match t.hand with
      | [] -> ()
      | id :: rest -> (
          t.hand <- rest;
          match Hashtbl.find_opt t.core id with
          | None ->
              t.clock <- List.filter (fun x -> x <> id) t.clock;
              scan (steps + 1)
          | Some st ->
              if st.referenced then begin
                st.referenced <- false;
                scan (steps + 1)
              end
              else begin
                (* Victim: write back if dirty, then free. *)
                if st.dirty then begin
                  Hw_disk.write t.machine.Machine.disk ~bytes:(page_bytes t);
                  t.stats.page_outs <- t.stats.page_outs + 1
                end;
                Hashtbl.remove t.core id;
                Hashtbl.replace t.swapped id ();
                (match id with
                | Anon { pid; vpn } ->
                    Pt.remove t.machine.Machine.page_table ~space:pid ~vpn;
                    Tlb.invalidate t.machine.Machine.tlb ~space:pid ~vpn
                | File_page _ -> ());
                t.clock <- List.filter (fun x -> x <> id) t.clock
              end)
    end
  in
  scan 0

let make_room t =
  while Hashtbl.length t.core >= t.resident_limit do
    evict_one t
  done

let install t id ~dirty =
  make_room t;
  let st = { id; referenced = true; dirty; protected_ = false } in
  Hashtbl.replace t.core id st;
  t.clock <- id :: t.clock;
  st

(* ------------------------------------------------------------------ *)
(* Anonymous memory                                                   *)
(* ------------------------------------------------------------------ *)

let fault_in_anon t pid vpn ~(access : access) =
  Machine.with_span t.machine "fault" @@ fun () ->
  let c = cost t in
  t.stats.faults <- t.stats.faults + 1;
  charge ~label:"ultrix/fault_service" t
    (c.Hw_cost.trap_entry +. c.Hw_cost.fault_decode +. c.Hw_cost.ultrix_fault_service);
  let id = Anon { pid; vpn } in
  let from_swap = Hashtbl.mem t.swapped id in
  if from_swap then begin
    (* Page back in from swap. *)
    Hashtbl.remove t.swapped id;
    Hw_disk.read t.machine.Machine.disk ~bytes:(page_bytes t);
    t.stats.page_ins <- t.stats.page_ins + 1
  end
  else begin
    (* Fresh allocation: security zeroing, the cost V++ avoids. *)
    charge ~label:"ultrix/zero_fill" t c.Hw_cost.zero_page;
    t.stats.zero_fills <- t.stats.zero_fills + 1
  end;
  let st = install t id ~dirty:(access = Write) in
  ignore st;
  charge ~label:"ultrix/pte_update" t (c.Hw_cost.pte_update +. c.Hw_cost.trap_exit)

let touch t pid ~vpn ~access =
  t.stats.touches <- t.stats.touches + 1;
  let c = cost t in
  let id = Anon { pid; vpn } in
  if Pt.find t.machine.Machine.page_table ~space:pid ~vpn != Pt.vacant && Hashtbl.mem t.core id
  then begin
    let st = Hashtbl.find t.core id in
    st.referenced <- true;
    if access = Write then st.dirty <- true;
    if Tlb.probe t.machine.Machine.tlb ~space:pid ~vpn < 0 then begin
      charge ~label:"ultrix/tlb_refill" t c.Hw_cost.tlb_refill;
      Tlb.fill t.machine.Machine.tlb ~space:pid ~vpn ~frame:0
    end
  end
  else begin
    charge ~label:"ultrix/segment_walk" t c.Hw_cost.segment_walk;
    (match Hashtbl.find_opt t.core id with
    | Some st ->
        st.referenced <- true;
        if access = Write then st.dirty <- true
    | None -> fault_in_anon t pid vpn ~access);
    Pt.insert t.machine.Machine.page_table ~space:pid ~vpn ~frame:0
      ~prot:{ Pt.readable = true; writable = true };
    Tlb.fill t.machine.Machine.tlb ~space:pid ~vpn ~frame:0
  end

let exit_process t pid =
  let mine = function Anon { pid = p; _ } -> p = pid | File_page _ -> false in
  Hashtbl.iter (fun id _ -> if mine id then Hashtbl.remove t.swapped id) t.swapped;
  let ids = Hashtbl.fold (fun id _ acc -> if mine id then id :: acc else acc) t.core [] in
  List.iter (Hashtbl.remove t.core) ids;
  t.clock <- List.filter (fun id -> not (mine id)) t.clock;
  t.hand <- List.filter (fun id -> not (mine id)) t.hand;
  Pt.remove_space t.machine.Machine.page_table ~space:pid;
  Tlb.invalidate_space t.machine.Machine.tlb ~space:pid

(* ------------------------------------------------------------------ *)
(* Files: buffer cache with 8KB transfer units                        *)
(* ------------------------------------------------------------------ *)

let transfer_unit_kb = 8

let open_file t ~file_id ~size_kb =
  Hashtbl.replace t.files file_id size_kb;
  file_id

let page_of_kb kb = kb * 1024 / 4096

let cache_file_page t file page ~for_write =
  let id = File_page { file; page } in
  match Hashtbl.find_opt t.core id with
  | Some st ->
      st.referenced <- true;
      if for_write then st.dirty <- true
  | None ->
      if not for_write then begin
        (* Cache miss on read: disk. *)
        Hw_disk.read t.machine.Machine.disk ~bytes:(page_bytes t);
        t.stats.page_ins <- t.stats.page_ins + 1
      end;
      ignore (install t id ~dirty:for_write)

let preload t fd =
  let size_kb = Hashtbl.find t.files fd in
  let pages = (size_kb * 1024 / 4096) + 1 in
  for p = 0 to pages - 1 do
    let id = File_page { file = fd; page = p } in
    if not (Hashtbl.mem t.core id) then ignore (install t id ~dirty:false)
  done

(* One read(2): at most 8KB, i.e. two 4KB page copies. *)
let read_call t fd ~offset_kb ~kb =
  let c = cost t in
  t.stats.read_calls <- t.stats.read_calls + 1;
  charge ~label:"ultrix/read_syscall" t (c.Hw_cost.syscall_base +. c.Hw_cost.vnode_lookup);
  let first = page_of_kb offset_kb in
  let pages = max 1 ((kb + 3) / 4) in
  for p = first to first + pages - 1 do
    cache_file_page t fd p ~for_write:false;
    charge ~label:"ultrix/copy_page" t c.Hw_cost.copy_page
  done

let write_call t fd ~offset_kb ~kb =
  let c = cost t in
  t.stats.write_calls <- t.stats.write_calls + 1;
  charge ~label:"ultrix/write_syscall" t
    (c.Hw_cost.syscall_base +. c.Hw_cost.vnode_lookup +. c.Hw_cost.ultrix_write_bookkeeping);
  let first = page_of_kb offset_kb in
  let pages = max 1 ((kb + 3) / 4) in
  for p = first to first + pages - 1 do
    cache_file_page t fd p ~for_write:true;
    charge ~label:"ultrix/copy_page" t c.Hw_cost.copy_page
  done

let split_chunks ~offset_kb ~kb =
  let rec go off remaining acc =
    if remaining <= 0 then List.rev acc
    else
      let n = min transfer_unit_kb remaining in
      go (off + n) (remaining - n) ((off, n) :: acc)
  in
  go offset_kb kb []

let read t fd ~offset_kb ~kb =
  List.iter (fun (off, n) -> read_call t fd ~offset_kb:off ~kb:n) (split_chunks ~offset_kb ~kb)

let write t fd ~offset_kb ~kb =
  List.iter (fun (off, n) -> write_call t fd ~offset_kb:off ~kb:n) (split_chunks ~offset_kb ~kb)

(* ------------------------------------------------------------------ *)
(* User-level fault handling                                          *)
(* ------------------------------------------------------------------ *)

let protect t pid ~vpn =
  let id = Anon { pid; vpn } in
  match Hashtbl.find_opt t.core id with
  | Some st -> st.protected_ <- true
  | None -> invalid_arg "Uvm.protect: page not resident"

let touch_protected t pid ~vpn =
  let id = Anon { pid; vpn } in
  match Hashtbl.find_opt t.core id with
  | Some st when st.protected_ ->
      let c = cost t in
      t.stats.user_faults <- t.stats.user_faults + 1;
      (* SIGSEGV to the handler, which calls mprotect and returns. The
         three charges sum to the single combined cost charged before the
         observability layer split them for attribution. *)
      Machine.with_span t.machine "fault" (fun () ->
          charge ~label:"ultrix/signal_deliver" t
            (c.Hw_cost.trap_entry +. c.Hw_cost.fault_decode +. c.Hw_cost.signal_deliver);
          charge ~label:"ultrix/mprotect" t
            (c.Hw_cost.syscall_base +. c.Hw_cost.mprotect_base +. c.Hw_cost.pte_update
           +. c.Hw_cost.tlb_flush_page);
          charge ~label:"ultrix/sigreturn" t c.Hw_cost.sigreturn);
      st.protected_ <- false;
      st.referenced <- true
  | Some _ | None -> invalid_arg "Uvm.touch_protected: page not resident and protected"
