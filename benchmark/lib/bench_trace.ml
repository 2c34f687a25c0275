module Hist = Sim_metrics.Hist

let raw_limit = 200_000

(* Both readers are unboxed externals: reading them allocates nothing, so
   they can bracket a measured region without disturbing its word count. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

type kind = {
  k_name : string;
  k_total : Hist.t;
  k_self : Hist.t;
  mutable k_count : int;
  mutable k_words : int;
}

type frame = {
  f_id : int;
  mutable f_kind : kind;
  f_key : int;
  f_parent : frame option;
  mutable f_start : int;
  mutable f_words0 : int;
  mutable f_child_ns : int;
  mutable f_book : int;  (* words the recorder allocated while this span was open *)
}

type raw = {
  r_id : int;
  r_name : string;
  r_key : int;
  r_parent : int;
  r_start : int;
  r_end : int;
  r_self : int;
  r_words : int;
}

type t = {
  t0 : int;
  kinds : (string, kind) Hashtbl.t;
  mutable next_id : int;
  mutable current : frame option;
  mutable raw : raw list;  (* newest first *)
  mutable n_raw : int;
  mutable closed : int;
  mutable root_ns : int;
}

let create () =
  {
    t0 = now_ns ();
    kinds = Hashtbl.create 32;
    next_id = 0;
    current = None;
    raw = [];
    n_raw = 0;
    closed = 0;
    root_ns = 0;
  }

let kind t name =
  match Hashtbl.find_opt t.kinds name with
  | Some k -> k
  | None ->
      let k =
        {
          k_name = name;
          k_total = Hist.create ();
          k_self = Hist.create ();
          k_count = 0;
          k_words = 0;
        }
      in
      Hashtbl.replace t.kinds name k;
      k

let close t fr =
  let t1 = now_ns () in
  let w1 = minor_words () in
  t.current <- fr.f_parent;
  let dur = t1 - fr.f_start in
  let self = max 0 (dur - fr.f_child_ns) in
  let words = w1 - fr.f_words0 - fr.f_book in
  let k = fr.f_kind in
  k.k_count <- k.k_count + 1;
  k.k_words <- k.k_words + words;
  Hist.add k.k_total (float_of_int dur);
  Hist.add k.k_self (float_of_int self);
  t.closed <- t.closed + 1;
  if t.n_raw < raw_limit then begin
    t.raw <-
      {
        r_id = fr.f_id;
        r_name = k.k_name;
        r_key = fr.f_key;
        r_parent = (match fr.f_parent with Some p -> p.f_id | None -> -1);
        r_start = fr.f_start - t.t0;
        r_end = t1 - t.t0;
        r_self = self;
        r_words = words;
      }
      :: t.raw;
    t.n_raw <- t.n_raw + 1
  end;
  let w2 = minor_words () in
  match fr.f_parent with
  | Some p ->
      p.f_child_ns <- p.f_child_ns + dur;
      p.f_book <- p.f_book + fr.f_book + (w2 - w1)
  | None -> t.root_ns <- t.root_ns + dur

let enter t k ~key =
  let w_open = minor_words () in
  let parent = t.current in
  let fr =
    {
      f_id = t.next_id;
      f_kind = k;
      f_key = key;
      f_parent = parent;
      f_start = 0;
      f_words0 = 0;
      f_child_ns = 0;
      f_book = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.current <- Some fr;
  fr.f_words0 <- minor_words ();
  (match parent with Some p -> p.f_book <- p.f_book + (fr.f_words0 - w_open) | None -> ());
  fr.f_start <- now_ns ()

let leave t = match t.current with Some fr -> close t fr | None -> invalid_arg "Bench_trace.leave"

let span t k ~key f =
  enter t k ~key;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let relabel t k = match t.current with Some fr -> fr.f_kind <- k | None -> ()

let spans t = t.closed

type summary = {
  name : string;
  count : int;
  total_ns : Hist.t;
  self_ns : Hist.t;
  words : int;
}

let summaries t =
  Hashtbl.fold
    (fun _ k acc ->
      if k.k_count = 0 then acc
      else
        {
          name = k.k_name;
          count = k.k_count;
          total_ns = k.k_total;
          self_ns = k.k_self;
          words = k.k_words;
        }
        :: acc)
    t.kinds []
  |> List.sort (fun a b -> compare a.name b.name)

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let layer_self_ns t =
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = layer_of s.name in
      let prev = Option.value (Hashtbl.find_opt by_layer l) ~default:0.0 in
      Hashtbl.replace by_layer l (prev +. Hist.total s.self_ns))
    (summaries t);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer [] |> List.sort compare

let root_ns t = float_of_int t.root_ns

(* Microseconds printed from integer nanoseconds, so no digit is lost. *)
let us_of_ns ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

let hist_json h =
  Printf.sprintf
    ("{\"count\":%d,\"total_ns\":%.0f,\"min_ns\":%.0f,\"p50_ns\":%.0f,\"p99_ns\":%.0f,"
   ^^ "\"max_ns\":%.0f}")
    (Hist.count h) (Hist.total h) (Hist.min_value h) (Hist.p50 h) (Hist.p99 h) (Hist.max_value h)

let write_chrome t oc ~extra =
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  List.iteri
    (fun i r ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        ("\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,"
       ^^ "\"args\":{\"id\":%d,\"parent\":%d,\"key\":%d,\"self_ns\":%d,\"words\":%d}}")
        r.r_name (layer_of r.r_name) (us_of_ns r.r_start)
        (us_of_ns (r.r_end - r.r_start))
        r.r_id r.r_parent r.r_key r.r_self r.r_words)
    (List.rev t.raw);
  Printf.fprintf oc "\n],\n\"vpp_bench\":{\"spans\":%d,\"raw_spans\":%d,\"aggregates\":[" t.closed
    t.n_raw;
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc "\n{\"name\":\"%s\",\"count\":%d,\"words\":%d,\"total\":%s,\"self\":%s}"
        s.name s.count s.words (hist_json s.total_ns) (hist_json s.self_ns))
    (summaries t);
  output_string oc "]";
  List.iter (fun (k, v) -> Printf.fprintf oc ",\n\"%s\":%s" k v) extra;
  output_string oc "}}\n"
