type indexing = No_index | Index_in_memory | Index_with_paging | Index_regeneration

type t = {
  label : string;
  indexing : indexing;
  seed : int64;
  duration_s : float;
  warmup_s : float;
  tps : float;
  join_fraction : float;
  n_cpus : int;
  dc_service_ms : float;
  join_index_ms : float;
  join_scan_ms : float;
  regen_ms : float;
  n_indices : int;
  index_pages : int;
  accounts_pages : int;
  summary_pages : int;
  dc_touch_pages : int;
  p_evicted_index_needed : float;
}

let base =
  {
    label = "base";
    indexing = Index_in_memory;
    seed = 424242L;
    duration_s = 300.0;
    warmup_s = 20.0;
    tps = 40.0;
    join_fraction = 0.05;
    n_cpus = 6;
    dc_service_ms = 18.0;
    join_index_ms = 450.0;
    join_scan_ms = 2400.0;
    regen_ms = 350.0;
    n_indices = 12;
    index_pages = 256;
    accounts_pages = 4096;
    summary_pages = 64;
    dc_touch_pages = 4;
    p_evicted_index_needed = 0.002;
  }

let no_index = { base with label = "No index"; indexing = No_index }
let index_in_memory = { base with label = "Index in memory"; indexing = Index_in_memory }
let index_with_paging = { base with label = "Index with paging"; indexing = Index_with_paging }

let index_regeneration =
  { base with label = "Index regeneration"; indexing = Index_regeneration }

let all_paper_configs = [ no_index; index_in_memory; index_with_paging; index_regeneration ]
