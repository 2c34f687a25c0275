(** The versioned records, declared once each.

    One entry per record schema drives every consumer: the [vpp_repro]
    subcommand that runs and writes it, the bench harness section, and
    validation. Validating a file decodes it with the record's codec and
    re-runs the record's own {!Exp_report.check} function on the result,
    so the in-memory checks and the file checks cannot drift apart. *)

type 'r spec = {
  name : string;  (** Subcommand name. *)
  doc : string;  (** Subcommand help. *)
  title : string;  (** Section heading in the bench report. *)
  schema : string;  (** The ["schema"] tag. *)
  out : string;  (** Default output file. *)
  writes : bool;
      (** The subcommand takes [--quick], [--jobs] and [--out] and writes
          the record to a file; otherwise (profile) it only prints. *)
  wall : string list;  (** Host-time field names, skipped by {!diff}. *)
  run : quick:bool -> jobs:int option -> 'r;
      (** [jobs = None] keeps the record's own default domain count. *)
  render : 'r -> string;
  codec : 'r Exp_codec.t;
  checks : 'r -> Exp_report.check list;
}

type t = Record : 'r spec -> t

val all : t list
(** profile, perf, market, tier, cache, shard: the bench report's order. *)

val known_schemas : string list

val validate : Sim_json.t -> (string, string) result
(** [Ok tag] when the record decodes under its schema's codec, every
    recomputed check passes, and the record's embedded [(what, pass)]
    list equals the recomputed one ([detail] is not compared: it formats
    rounded floats). [Error] names the missing or unknown schema (listing
    the known ones), the decode error, or the failing checks. *)

val validate_string : string -> (string, string) result
(** {!validate} after parsing; JSON syntax errors become [Error]. *)

val diff : string * Sim_json.t -> string * Sim_json.t -> (string list, string) result
(** Every path at which two records of the same known schema differ, one
    line each, skipping that schema's {!spec.wall} fields. Each record
    comes with the name it is reported under (its file): [Error] names
    the record whose schema tag is missing or unknown, or both records'
    schemas when they differ. *)

val paper : quick:bool -> (unit -> string) list
(** Tables 1-4 and the figures, rendered: the [all] command. [quick]
    shortens Table 4. *)

val ablations : (unit -> string) list
(** Each ablation rendered, with a trailing newline: the [ablate]
    command. *)
