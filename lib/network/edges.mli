(** Edge-list spill writer: bounded memory, sorted binary runs on disk,
    one k-way merge into the final TSV.

    An edge is an undirected scored pair [(a, b)], [a < b]. {!add}
    buffers edges; when the buffer fills, it is sorted by [(a, b)] and
    written to a temporary run file, so peak memory is one buffer
    regardless of edge count. {!finish} merges the runs plus the
    residual buffer into the output TSV, dropping [(a, b)] duplicates —
    the pipeline records each surviving hit from both endpoints' top-k
    heaps, so every edge arrives at most twice.

    Runs are binary: fixed 40-byte little-endian records ([a], [b],
    [score], the IEEE-754 bits of [ident], [span]; eight bytes each), so
    reading one back is a fixed-offset decode and the identity
    round-trips bit-exactly. Each run is sorted by a stable merge sort,
    so edges with equal keys keep their [add] order, and the merge
    breaks ties toward the oldest run. Together these make the dedupe rule exact: of the records
    sharing an [(a, b)] key, the {e first added} is the one written.

    The TSV is EFI-filterblast-compatible in spirit: one edge per line,
    [query-id TAB subject-id TAB percent-identity TAB length TAB score],
    no header, sorted by the (query, subject) {e index} pair — a stable,
    diff-friendly order that the network gate compares byte-for-byte. *)

type edge = {
  a : int;  (** smaller sequence index *)
  b : int;  (** larger sequence index *)
  score : int;
  ident : float;  (** normalized identity in [0,1]; printed as percent *)
  span : int;  (** max of the two sequence lengths — the length column *)
}

type t

val default_buffer : int
(** 65536 edges per in-memory run: about 3.5 MB of records and buffer,
    a transient sorted copy of the buffer per spill, and a 2.5 MB run
    file per spill. *)

val create : ?buffer:int -> tmp_dir:string -> unit -> t
(** [buffer] (default {!default_buffer}) edges held in memory between
    spills. Run files ([anyseq-net-run-<pid>-<n>.bin]) are created under
    [tmp_dir] and deleted by {!finish} or {!discard}. *)

val add : t -> edge -> unit
(** Buffers one edge, spilling a sorted run first when the buffer is
    full. If the spill raises (an I/O error), the writer is spent and
    every run file it wrote is deleted before the exception propagates. *)

val discard : t -> unit
(** Deletes every run file and spends the writer, for a caller that
    gives up before {!finish}. Does nothing more on a spent writer. *)

val buffered : t -> int

val runs : t -> int
(** Run files spilled so far. *)

type stats = { written : int; duplicates : int; spilled_runs : int }

val finish :
  t -> out:string -> name:(int -> string) -> f:(edge -> unit) -> (stats, string) result
(** Merge runs and buffer into [out] (TSV, ids rendered via [name]),
    calling [f] on every surviving edge in order — the hook the
    clustering pass consumes, so components never need the file re-read.

    [Error] when a run file cannot be opened or is corrupt: shorter or
    longer than the records written to it, or holding a record out of
    [(a, b)] order or with a node index outside those the run was
    written with. Exceptions from [f] or from writing [out] propagate.
    In every case the run files are closed and deleted, [out] is removed
    unless the merge completed, and the writer is spent afterwards. *)
