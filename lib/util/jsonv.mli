(** The system's one JSON codec, with no external dependency.

    Every document anyseq emits is built as a {!t} and written by
    {!to_buffer}: the admin endpoint's [/statusz] and [/debug/flight],
    flight-recorder dumps, Chrome traces and the CLI's [--json] lines.
    {!parse} reads them back — [anyseq top] polls [/statusz] with it, and
    the gates, tests and benchmark ledger validate documents with it. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** exact; e.g. raw nanosecond stamps *)
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-input parse; trailing bytes are an error. An integer literal
    that fits in an [int] reads as [Int], every other number as [Num].
    Strings decode the standard escapes ([\uXXXX] beyond ASCII degrades
    to ['?'] — status documents are ASCII). *)

val to_buffer : Buffer.t -> t -> unit
(** Compact encoding: [Int] as [%d]; a finite [Num] in the shortest form
    that reads back to the same float (with a [.0] when it is integral,
    so it reads back as a [Num]); a non-finite [Num] as [null]. String
    bytes of 0x80 and above are written raw, so [parse (to_string v)]
    gives back [v]. *)

val to_string : t -> string

val ints : (string * int) list -> (string * t) list
(** Object members that are all [Int]s. *)

val rows_to_buffer : Buffer.t -> string -> ('a -> t) -> 'a list -> unit
(** [rows_to_buffer b key f xs] writes [{"key":[f x1, …]}] with one
    element per line and a final newline, encoding one element at a time
    so a long list never becomes one value tree. *)

val member : string -> t -> t option
(** Object field by key ([None] on non-objects and missing keys). *)

val to_num : t -> float option
(** [Num] and [Int] both read as a float. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_bool : t -> bool option

val num : ?default:float -> string -> t -> float
(** [num key obj]: numeric field with a default — [member] + [to_num]. *)

val str : ?default:string -> string -> t -> string
