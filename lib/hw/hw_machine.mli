(** A complete simulated machine: engine + memory + translation hardware +
    disk + cost table, bundled for the kernels to run on. *)

type preset = Decstation_5000_200 | Sgi_4d_380

type cache_spec = { c_size_bytes : int; c_line_bytes : int }
(** Geometry of the optional physically-indexed L2 attached at {!create}. *)

val l2_cache : ?line_bytes:int -> size_bytes:int -> unit -> cache_spec
(** Default 64-byte lines, matching {!Hw_cache.create}. *)

type t = {
  engine : Sim_engine.t;
  mem : Hw_phys_mem.t;
  page_table : Hw_page_table.t;
  tlb : Hw_tlb.t;
  disk : Hw_disk.t;
  cost : Hw_cost.t;
  trace : Sim_trace.t;
  metrics : Sim_metrics.t;
  super_pages : int;
  caches : Hw_cache.t array;
      (** One physically-indexed L2 per memory tier (a node-local cache),
          all of the [cache_spec] geometry; empty when the machine was
          built without [?cache]. Every kernel cache pass is guarded on
          [Array.length caches > 0], so a cache-less machine is
          bit-identical to the pre-cache model. *)
}

val create :
  ?preset:preset ->
  ?memory_bytes:int ->
  ?page_size:int ->
  ?n_colors:int ->
  ?tiers:Hw_phys_mem.tier_spec list ->
  ?super_pages:int ->
  ?trace:bool ->
  ?disk_params:Hw_disk.params ->
  ?cache:cache_spec ->
  unit ->
  t
(** Defaults: DECstation preset, 16 MB memory (large enough for the unit
    tests; experiments pass their own size), 4 KB pages, 16 colors, trace
    off. The paper's machines: DECstation 5000/200 with 128 MB (Tables
    1–3); SGI 4D/380 for Table 4. [tiers] builds a multi-tier memory
    ({!Hw_phys_mem.create_tiered}) and supersedes [memory_bytes]; without
    it, memory is one zero-surcharge DRAM tier and the machine behaves
    byte-identically to the pre-tier model. [super_pages] is the number
    of base pages per superpage (default 512, i.e. 2 MB of 4 KB pages),
    sizing the page table's and TLB's superpage areas; machines that
    never promote a superpage behave byte-identically regardless of its
    value. [cache] attaches one {!Hw_cache} per memory tier; kernel
    touch and UIO paths then feed physical addresses through it and
    charge {!Hw_cost.t.cache_miss_penalty} per miss — without it no
    cache state exists and nothing extra is charged. *)

val page_size : t -> int
val n_frames : t -> int

val super_pages : t -> int
(** Base pages per superpage mapping ([super_pages] at {!create}). *)

val n_caches : t -> int
(** [Array.length caches]: 0 exactly when no cache model is attached. *)

val cache_colors : t -> int option
(** Page colors the attached cache geometry induces at this machine's
    page size ({!Hw_cache.n_colors}); [None] without a cache. The live
    geometry {!Mgr_coloring} sizes its placement policy against. *)

val cache_stats : t -> int * int * int
(** [(accesses, hits, misses)] summed over the per-tier caches. *)

val charge : ?label:string -> t -> float -> unit
(** Advance the calling process by a cost-model amount (clamped at 0).
    Outside a simulation process this is a no-op, so semantics-only unit
    tests can drive the kernels without an engine. When profiling is on
    (see {!set_profiling}) the amount is also attributed to [label] under
    the open {!with_span} path; without profiling the label costs
    nothing. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Open a cost-attribution span around a thunk (see
    {!Sim_metrics.with_span}); identity when profiling is off. *)

val observe : t -> kind:string -> float -> unit
(** Feed a latency sample into the machine's metrics sink; no-op when
    profiling is off. *)

val metrics : t -> Sim_metrics.t
(** The machine's metrics sink (shared with its disk). *)

val set_profiling : t -> bool -> unit
(** Toggle the metrics sink. Off (the default) preserves byte-identical
    behaviour of all instrumented paths. *)

val now : t -> float

val tracing : t -> bool
(** Whether the protocol trace is on ([?trace] at {!create}; off by
    default). *)

val trace_emit : t -> tag:string -> string -> unit
(** Append a protocol-trace event; a no-op when tracing is off. Emit
    sites build their detail string only under [if tracing t], so with
    tracing off a site costs one branch and allocates nothing — a detail
    built before the test (a formatted string, or a thunk capturing the
    site's variables) would be allocated on every call. *)
