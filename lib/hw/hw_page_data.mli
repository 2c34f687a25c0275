(** Contents of one physical page frame.

    Unit tests want to check that migrate / copy-on-write / UIO transfers
    move the right bytes, but simulating a 120 MB database with real byte
    arrays would be wasteful. Pages therefore carry either real bytes (small
    tests), a symbolic file-block tag (large simulations), or zero. A
    deterministic [byte] observation function is defined over all three so
    data-integrity assertions work uniformly. *)

type t =
  | Zero  (** Freshly zero-filled page. *)
  | Bytes of bytes  (** Literal contents (tests, small files). *)
  | Block of { file : int; block : int; version : int }
      (** Symbolic contents: version [version] of block [block] of file
          [file]. Bumping [version] models overwriting the block. *)

val of_string : string -> t
val block : file:int -> block:int -> version:int -> t

val equal : t -> t -> bool

val byte : t -> int -> char
(** [byte t i] is a deterministic observation of byte [i]: ['\000'] for
    [Zero], the literal byte for [Bytes] (['\000'] past the end), and a hash
    of (file, block, version, i) for [Block]. *)

val describe : t -> string
