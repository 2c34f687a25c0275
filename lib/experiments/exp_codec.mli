(** Two-way JSON codecs for the versioned records.

    A record is declared once, as a codec: one field list gives both the
    encoder that writes the record and the decoder that reads it back, so
    the two cannot drift apart. Objects are built applicatively:

    {[
      obj (fun name faults -> { name; faults })
      |> mem "name" string (fun r -> r.name)
      |> mem "faults" int (fun r -> r.faults)
      |> finish
    ]}

    Fields are encoded in declaration order. The decoder looks them up by
    name, so it ignores field order and unknown fields. Round trips are
    exact on the tree: [dec c (enc c v) = Ok v]. They are not exact on
    printed bytes, because {!Sim_json} prints non-integers through
    ["%.6g"]. *)

type 'a t

val enc : 'a t -> 'a -> Sim_json.t

val dec : 'a t -> Sim_json.t -> ('a, string) result
(** Errors name the path of the offending field, e.g.
    ["runs[0].managed.promotions: expected an integer"]. *)

val print : 'a t -> 'a -> string
(** [enc] printed stably: two-space indent, trailing newline. *)

(** {1 Leaves} *)

val int : int t
(** An integral number. *)

val float : float t
val bool : bool t
val string : string t
val list : 'a t -> 'a list t

val where : string -> ('a -> bool) -> 'a t -> 'a t
(** [where what ok c] decodes like [c], then rejects a value failing [ok]
    with the message [what]. Encoding is unchanged. *)

(** {1 Objects} *)

type ('r, 'k) obj
(** An object codec for ['r] under construction; ['k] is what the
    constructor still needs. *)

val obj : 'k -> ('r, 'k) obj
(** Start from the constructor, which takes the {!mem} fields in
    declaration order. *)

val mem : string -> 'a t -> ('r -> 'a) -> ('r, 'a -> 'k) obj -> ('r, 'k) obj
(** A field that is encoded and decoded. A missing field is an error. *)

val out : string -> 'a t -> ('r -> 'a) -> ('r, 'k) obj -> ('r, 'k) obj
(** A derived field: encoded, never decoded. *)

val tag : string -> string -> ('r, 'k) obj -> ('r, 'k) obj
(** [tag name value]: a constant string field; decoding requires that
    exact value. *)

val splice : ('s, 's) obj -> ('r -> 's) -> ('r, 's -> 'k) obj -> ('r, 'k) obj
(** [splice frag get]: the members of the unfinished object codec [frag],
    encoded from [get r] inline and flat at this position (no nested
    object); decoding builds the ['s] from those members and passes it to
    the constructor as one argument. *)

val finish : ('r, 'r) obj -> 'r t

(** {1 Shared pieces} *)

val observation : (Epcm_kernel.observation, Epcm_kernel.observation) obj
(** The members every record leg splices in for its kernel's
    {!Epcm_kernel.observe}: ["frames"], ["touches"], ["faults"],
    ["migrate_calls"], ["migrated_pages"], ["events"], ["sim_us"] and
    ["conserved"], in that order. *)

val check : Exp_report.check t
(** [{"what", "pass", "detail"}]. *)
