(** Rendering helpers shared by the experiment runners: aligned text
    tables, paper-vs-measured comparisons and shape checks. *)

val fmt_table : header:string list -> rows:string list list -> string
(** Monospace table with a rule under the header; columns sized to
    content. *)

val us : float -> string
(** Microseconds, one decimal. *)

val seconds : float -> string

type check = { what : string; pass : bool; detail : string }

val check : what:string -> pass:bool -> detail:string -> check
val render_checks : check list -> string
val all_pass : check list -> bool
