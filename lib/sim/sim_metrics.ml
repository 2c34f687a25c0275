(* Deterministic observability: hierarchical cost-attribution spans over
   Hw_machine.charge, and log-bucketed latency histograms keyed by
   operation kind. Disabled by default; when disabled every entry point is
   a cheap no-op so instrumented code behaves byte-identically. *)

module Hist = struct
  (* Log-bucketed: four buckets per octave (~19% relative resolution),
     which spans sub-microsecond TLB refills to multi-second disk convoys
     in a few hundred sparse buckets. Values <= 0 land in a dedicated
     bucket reported as the observed minimum. *)

  let buckets_per_octave = 4.0

  type t = {
    table : (int, int) Hashtbl.t;
    mutable zero_count : int;
    mutable count : int;
    mutable total : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    {
      table = Hashtbl.create 32;
      zero_count = 0;
      count = 0;
      total = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
    }

  let bucket_of v = int_of_float (Float.floor (Float.log2 v *. buckets_per_octave))
  let bucket_upper_bound i = Float.exp2 (float_of_int (i + 1) /. buckets_per_octave)

  let add t v =
    t.count <- t.count + 1;
    t.total <- t.total +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    if v <= 0.0 then t.zero_count <- t.zero_count + 1
    else begin
      let i = bucket_of v in
      Hashtbl.replace t.table i ((try Hashtbl.find t.table i with Not_found -> 0) + 1)
    end

  let count t = t.count
  let total t = t.total
  let min_value t = if t.count = 0 then 0.0 else t.min_v
  let max_value t = if t.count = 0 then 0.0 else t.max_v

  let buckets t =
    Hashtbl.fold (fun i c acc -> (i, c) :: acc) t.table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let merge a b =
    let t = create () in
    t.zero_count <- a.zero_count + b.zero_count;
    t.count <- a.count + b.count;
    t.total <- a.total +. b.total;
    t.min_v <- Float.min a.min_v b.min_v;
    t.max_v <- Float.max a.max_v b.max_v;
    let fold src =
      Hashtbl.iter
        (fun i c ->
          Hashtbl.replace t.table i ((try Hashtbl.find t.table i with Not_found -> 0) + c))
        src.table
    in
    fold a;
    fold b;
    t

  (* Nearest-rank over the sorted buckets; a bucket answers with its upper
     bound clamped into the observed [min, max], so quantiles never invent
     values outside the recorded range and remain monotone in [p]. *)
  let quantile t p =
    if t.count = 0 then 0.0
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
        Stdlib.max 1 (Stdlib.min t.count r)
      in
      if rank <= t.zero_count then t.min_v
      else begin
        let remaining = ref (rank - t.zero_count) in
        let answer = ref t.max_v in
        (try
           List.iter
             (fun (i, c) ->
               remaining := !remaining - c;
               if !remaining <= 0 then begin
                 answer := Float.min (Float.max (bucket_upper_bound i) t.min_v) t.max_v;
                 raise Exit
               end)
             (buckets t)
         with Exit -> ());
        !answer
      end
    end

  let p50 t = quantile t 50.0
  let p95 t = quantile t 95.0
  let p99 t = quantile t 99.0
end

(* Span paths are interned: a path is a trie node, created the first time
   it is seen. A span moves to its node; a charge goes to the node of its
   label under the current span — the slot of that (span, label) pair —
   and adds into the node's entry of the path table. The per-charge work
   is a walk over the current node's few children (physical equality
   first, then string equality) and two array updates: no list, no
   string, no hash. Path strings are built only when a node first gets
   an entry and when the sink is read. Two nodes whose paths spell the
   same string ("a" + "b/c", "a/b" + "c") share one entry, exactly as a
   table keyed by path strings would. *)
type node = {
  parent : node;  (* the root's parent is itself *)
  name : string;
  mutable kids : node list;
  mutable entry : int;  (* index into the sink's counts and totals; -1 until charged *)
}

type t = {
  mutable on : bool;
  mutable cur : node;  (* innermost open span; [unborn] until first use *)
  charges : (string, int) Hashtbl.t;  (* path -> entry, numbered from 0 *)
  mutable counts : int array;  (* per entry *)
  mutable totals : Float.Array.t;  (* per entry *)
  hists : (string, Hist.t) Hashtbl.t;
}

(* The root of a sink that has not recorded anything yet. It is shared by
   every such sink and never mutated: [current] replaces it with a fresh
   root before anything is added, so a sink allocates no trie until it
   is used. *)
let rec unborn = { parent = unborn; name = ""; kids = []; entry = -1 }

(* The innermost open span's node (the root at the top level). *)
let current t =
  if t.cur == unborn then begin
    let rec r = { parent = r; name = ""; kids = []; entry = -1 } in
    t.cur <- r
  end;
  t.cur

let create ?(enabled = false) () =
  {
    on = enabled;
    cur = unborn;
    charges = Hashtbl.create 64;
    counts = [||];
    totals = Float.Array.create 0;
    hists = Hashtbl.create 16;
  }

let enabled t = t.on
let set_enabled t on = t.on <- on

let reset t =
  t.cur <- unborn;
  Hashtbl.reset t.charges;
  Hashtbl.reset t.hists

(* The lookups answer [unborn] for "none", so a hit allocates nothing. *)
let rec kid_phys name = function
  | [] -> unborn
  | k :: rest -> if k.name == name then k else kid_phys name rest

let rec kid_equal name = function
  | [] -> unborn
  | k :: rest -> if String.equal k.name name then k else kid_equal name rest

let child node name =
  let k = kid_phys name node.kids in
  let k = if k != unborn then k else kid_equal name node.kids in
  if k != unborn then k
  else begin
    let k = { parent = node; name; kids = []; entry = -1 } in
    node.kids <- k :: node.kids;
    k
  end

(* Leaving a span pops the innermost open one, whichever process opened
   it; at the top level (after a [reset] inside a span) it does nothing. *)
let pop t = t.cur <- t.cur.parent

let with_span t name f =
  if not t.on then f ()
  else begin
    t.cur <- child (current t) name;
    match f () with
    | v ->
        pop t;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        pop t;
        Printexc.raise_with_backtrace e bt
  end

(* Span names from the outermost down to [node], followed by [tail]. *)
let rec names node tail = if node.parent == node then tail else names node.parent (node.name :: tail)

let current_path t = String.concat "/" (names t.cur [])

(* The entry of [node]'s path: the one already there for the same path
   string, or a new zeroed one. *)
let entry_of t node =
  let path = String.concat "/" (names node []) in
  let e =
    match Hashtbl.find_opt t.charges path with
    | Some e -> e
    | None ->
        let e = Hashtbl.length t.charges in
        if e = Array.length t.counts then begin
          let cap = max 16 (2 * e) in
          let counts = Array.make cap 0 and totals = Float.Array.make cap 0.0 in
          Array.blit t.counts 0 counts 0 e;
          Float.Array.blit t.totals 0 totals 0 e;
          t.counts <- counts;
          t.totals <- totals
        end;
        t.counts.(e) <- 0;
        Float.Array.set t.totals e 0.0;
        Hashtbl.replace t.charges path e;
        e
  in
  node.entry <- e;
  e

let record_charge t ?label us =
  if t.on then begin
    let leaf = child (current t) (match label with Some l -> l | None -> "unattributed") in
    let e = if leaf.entry >= 0 then leaf.entry else entry_of t leaf in
    t.counts.(e) <- t.counts.(e) + 1;
    Float.Array.set t.totals e (Float.Array.get t.totals e +. us)
  end

let observe t ~kind us =
  if t.on then begin
    let h =
      match Hashtbl.find_opt t.hists kind with
      | Some h -> h
      | None ->
          let h = Hist.create () in
          Hashtbl.replace t.hists kind h;
          h
    in
    Hist.add h us
  end

let charges t =
  Hashtbl.fold (fun path e acc -> (path, t.counts.(e), Float.Array.get t.totals e) :: acc) t.charges []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let charged_total ?(prefix = "") t =
  Hashtbl.fold
    (fun path e acc ->
      if prefix = "" || (String.length path >= String.length prefix
                         && String.sub path 0 (String.length prefix) = prefix)
      then acc +. Float.Array.get t.totals e
      else acc)
    t.charges 0.0

let kinds t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.hists [] |> List.sort compare

let hist t ~kind = Hashtbl.find_opt t.hists kind

let hist_to_json h =
  Sim_json.Obj
    [
      ("count", Sim_json.Num (float_of_int (Hist.count h)));
      ("total_us", Sim_json.Num (Hist.total h));
      ("min_us", Sim_json.Num (Hist.min_value h));
      ("p50_us", Sim_json.Num (Hist.p50 h));
      ("p95_us", Sim_json.Num (Hist.p95 h));
      ("p99_us", Sim_json.Num (Hist.p99 h));
      ("max_us", Sim_json.Num (Hist.max_value h));
      ( "buckets",
        Sim_json.List
          (List.map
             (fun (i, c) ->
               Sim_json.Obj
                 [
                   ("upper_us", Sim_json.Num (Hist.bucket_upper_bound i));
                   ("count", Sim_json.Num (float_of_int c));
                 ])
             (Hist.buckets h)) );
    ]

let to_json t =
  Sim_json.Obj
    [
      ( "charges",
        Sim_json.List
          (List.map
             (fun (path, n, us) ->
               Sim_json.Obj
                 [
                   ("path", Sim_json.Str path);
                   ("count", Sim_json.Num (float_of_int n));
                   ("us", Sim_json.Num us);
                 ])
             (charges t)) );
      ( "latency",
        Sim_json.List
          (List.map
             (fun kind ->
               match hist t ~kind with
               | None -> Sim_json.Null
               | Some h ->
                   (match hist_to_json h with
                   | Sim_json.Obj fields -> Sim_json.Obj (("kind", Sim_json.Str kind) :: fields)
                   | other -> other))
             (kinds t)) );
    ]
