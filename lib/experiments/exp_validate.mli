(** Unified record validation: one validator per versioned record schema
    (vpp-perf/2, legacy vpp-perf/1, vpp-market/1, vpp-profile/1,
    vpp-tier/1, vpp-cache/1, vpp-shard/2), dispatched on the record's
    embedded
    ["schema"] tag. `vpp_repro validate` is a thin shell around this. *)

val validators : (string * (Sim_json.t -> (unit, string) result)) list
(** [(schema tag, validator)] for every known record schema. *)

val known_schemas : string list

val validate : Sim_json.t -> (string, string) result
(** Dispatch a parsed record to its schema's validator. [Ok tag] names
    the schema that validated; [Error] covers a missing ["schema"] tag,
    an unknown tag (both listing the known schemas) and validator
    failures (prefixed with the schema tag). *)

val validate_string : string -> (string, string) result
(** {!validate} after parsing; JSON syntax errors become [Error]. *)
