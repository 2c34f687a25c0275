module K = Epcm_kernel
module Seg = Epcm_segment

type source = dst:Seg.id -> dst_page:int -> count:int -> int

type t = {
  kernel : K.t;
  seg : Seg.id;
  capacity : int;
  mutable full : int;  (* slots [0, full) hold frames *)
}

let create kernel ~name ~capacity =
  if capacity <= 0 then invalid_arg "Mgr_free_pages.create: capacity must be positive";
  let seg = K.create_segment kernel ~name ~pages:capacity () in
  { kernel; seg; capacity; full = 0 }

let segment t = t.seg
let available t = t.full
let room t = t.capacity - t.full
let grant_slot t = if t.full >= t.capacity then None else Some t.full
let note_granted t n =
  if n < 0 || t.full + n > t.capacity then invalid_arg "Mgr_free_pages.note_granted";
  t.full <- t.full + n

let refill t ~source ~count =
  if t.full >= t.capacity then 0
  else begin
    let got = source ~dst:t.seg ~dst_page:t.full ~count:(min count (room t)) in
    note_granted t got;
    got
  end

let take_to t ~dst ~dst_page ~count ?tier ?(set_flags = Epcm_flags.empty)
    ?(clear_flags = Epcm_flags.empty) () =
  let n = min count t.full in
  if n > 0 then begin
    K.migrate_pages t.kernel ~src:t.seg ~dst ~src_page:(t.full - n) ~dst_page ~count:n
      ?tier ~set_flags ~clear_flags ();
    t.full <- t.full - n
  end;
  n

let put_from t ~src ~src_page =
  if t.full >= t.capacity then
    raise (K.Error (K.Frame_present { seg = t.seg; page = t.full }));
  K.migrate_pages t.kernel ~src ~dst:t.seg ~src_page ~dst_page:t.full ~count:1
    ~clear_flags:(Epcm_flags.of_list [ Epcm_flags.referenced; Epcm_flags.no_access ])
    ();
  t.full <- t.full + 1

let hand_out t ?data ~dst ~dst_page ~count ?tier ?set_flags ?clear_flags () =
  if t.full < count then raise (K.Error (K.No_frame { seg = t.seg; page = t.full }));
  (match data with
  | None -> ()
  | Some data -> (
      let slot = t.full - 1 in
      match (Seg.page (K.segment t.kernel t.seg) slot).Seg.frame with
      | Some f -> Hw_phys_mem.set_data (K.machine t.kernel).Hw_machine.mem f data
      | None -> raise (K.Error (K.No_frame { seg = t.seg; page = slot }))));
  ignore (take_to t ~dst ~dst_page ~count ?tier ?set_flags ?clear_flags ())

let release_to_initial t ~count =
  let n = min count t.full in
  if n > 0 then begin
    K.release_frames t.kernel ~seg:t.seg ~page:(t.full - n) ~count:n;
    t.full <- t.full - n
  end;
  n

let put_spill t ~spill ~src ~src_page =
  if room t = 0 then ignore (release_to_initial t ~count:spill);
  put_from t ~src ~src_page
