(** Size-class scratch arena for DP workspaces (ISSUE 5 tentpole).

    Every engine in this library fills rows, strips or whole matrices
    that die the moment the alignment returns. Allocating them fresh
    per call makes the GC the dominant cost of batch execution — the
    same observation that drives the preallocated-profile discipline of
    the Farrar-lineage SIMD libraries. A [Scratch.t] keeps a free stack
    of buffers per power-of-two size class; engines acquire at entry
    and release on exit, so a warmed arena serves the steady state with
    zero allocation.

    Contracts:
    - buffers come back {e dirty} and {e longer} than requested (the
      pow2 class size, minimum 16). Callers must initialize the prefix
      they use and must never derive loop bounds from [Array.length].
    - an arena is single-owner; it performs no locking. Concurrent
      callers each check out their own arena via
      [Anyseq_runtime.Workspace].
    - [release] is tolerant: arrays that are not a pooled class size
      (foreign, or above {!max_pooled_len}) are silently dropped. *)

type t

val create : unit -> t
(** A fresh, empty arena. Cheap; holds nothing until releases occur. *)

val acquire : t -> int -> int array
(** [acquire t n] — a dirty int buffer of pow2 length [>= max n 16]. *)

val release : t -> int array -> unit
(** Return a buffer to its class stack. The caller must not touch the
    array afterwards. Non-class-sized arrays are dropped, not errors. *)

val acquire_bytes : t -> int -> Bytes.t
(** Same contract as {!acquire} for byte buffers (traceback matrices). *)

val release_bytes : t -> Bytes.t -> unit

val max_pooled_len : int
(** Buffers longer than this are served fresh and never retained, so a
    single huge alignment cannot pin its matrices in the arena. *)

(** {1 Counters} — flushed into [Metrics] by [Workspace.checkin]. *)

val hits : t -> int
(** Acquires served from a free stack. *)

val misses : t -> int
(** Acquires that had to allocate. *)

val resizes : t -> int
(** Free-stack storage growths. *)

val reset_stats : t -> unit

(** {1 Band tally} — what the certified global band
    ({!Anyseq_runtime.Native_kernel}) did with this arena. The batch
    executor zeroes it before a native score bucket and adds it to its
    [runtime/band_*] counters after; the arena's single owner makes the
    plain mutable fields safe. *)

type band_tally = {
  mutable certified : int;  (** global score jobs the band settled *)
  mutable dense : int;  (** global score jobs that ran the dense sweep *)
  mutable rounds : int;  (** band sweeps run, certified or not *)
}

val band_tally : t -> band_tally

val reset_band_tally : t -> unit
