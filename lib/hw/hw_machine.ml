module Engine = Sim_engine
module Trace = Sim_trace

type preset = Decstation_5000_200 | Sgi_4d_380

type cache_spec = { c_size_bytes : int; c_line_bytes : int }

let l2_cache ?(line_bytes = 64) ~size_bytes () =
  { c_size_bytes = size_bytes; c_line_bytes = line_bytes }

type t = {
  engine : Engine.t;
  mem : Hw_phys_mem.t;
  page_table : Hw_page_table.t;
  tlb : Hw_tlb.t;
  disk : Hw_disk.t;
  cost : Hw_cost.t;
  trace : Trace.t;
  metrics : Sim_metrics.t;
  super_pages : int;
  caches : Hw_cache.t array;
}

let create ?(preset = Decstation_5000_200) ?(memory_bytes = 16 * 1024 * 1024)
    ?(page_size = 4096) ?(n_colors = 16) ?tiers ?(super_pages = 512) ?(trace = false)
    ?disk_params ?cache () =
  if super_pages <= 0 then invalid_arg "Hw_machine.create: super_pages must be positive";
  let engine = Engine.create () in
  let cost =
    match preset with
    | Decstation_5000_200 -> Hw_cost.decstation_5000_200
    | Sgi_4d_380 -> Hw_cost.sgi_4d_380
  in
  let metrics = Sim_metrics.create () in
  let disk = Hw_disk.create engine ?params:disk_params () in
  Hw_disk.set_metrics disk (Some metrics);
  let mem =
    match tiers with
    | None -> Hw_phys_mem.create ~n_colors ~page_size ~total_bytes:memory_bytes ()
    | Some tiers -> Hw_phys_mem.create_tiered ~n_colors ~page_size ~tiers ()
  in
  (* The mapping hash is sized to physical memory, like the inverted /
     hashed page tables it models (one entry per frame, 64K minimum so
     every paper-scale machine keeps the historical geometry). Its slots
     are allocated 32 at a time as translations reach them, so creating
     the machine allocates only the table's top array (one word per 32
     slots), not the slots themselves. *)
  let pt_slots = max 65536 (Hw_phys_mem.n_frames mem) in
  let super_slots = max 1024 (Hw_phys_mem.n_frames mem / super_pages) in
  (* One physically-indexed cache per memory tier (a node-local L2), all
     of the same geometry. No [?cache] leaves the array empty, and every
     cache pass in the kernel is guarded on its length — the machine then
     behaves bit-identically to the pre-cache model. *)
  let caches =
    match cache with
    | None -> [||]
    | Some { c_size_bytes; c_line_bytes } ->
        Array.init (Hw_phys_mem.n_tiers mem) (fun _ ->
            Hw_cache.create ~line_bytes:c_line_bytes ~size_bytes:c_size_bytes ())
  in
  {
    engine;
    mem;
    page_table = Hw_page_table.create ~slots:pt_slots ~super_slots ~super_pages ();
    tlb = Hw_tlb.create ~super_pages ();
    disk;
    cost;
    trace = Trace.create ~enabled:trace ();
    metrics;
    super_pages;
    caches;
  }

let page_size t = Hw_phys_mem.page_size t.mem
let n_frames t = Hw_phys_mem.n_frames t.mem
let super_pages t = t.super_pages
let n_caches t = Array.length t.caches

let cache_colors t =
  if Array.length t.caches = 0 then None
  else Some (Hw_cache.n_colors t.caches.(0) ~page_bytes:(page_size t))

let cache_stats t =
  Array.fold_left
    (fun (a, h, m) c -> (a + Hw_cache.accesses c, h + Hw_cache.hits c, m + Hw_cache.misses c))
    (0, 0, 0) t.caches
let charge ?label t us =
  (* Outside a simulation process (plain unit tests) state transitions
     still happen; time simply does not advance. *)
  if us > 0.0 then begin
    (try Engine.delay us with Engine.Not_in_process -> ());
    if Sim_metrics.enabled t.metrics then Sim_metrics.record_charge t.metrics ?label us
  end
let with_span t name f = Sim_metrics.with_span t.metrics name f
let observe t ~kind us = Sim_metrics.observe t.metrics ~kind us
let metrics t = t.metrics
let set_profiling t on = Sim_metrics.set_enabled t.metrics on
let now t = Engine.now t.engine
let tracing t = Trace.enabled t.trace
let trace_emit t ~tag detail =
  if Trace.enabled t.trace then Trace.emit t.trace ~time:(Engine.now t.engine) ~tag detail
