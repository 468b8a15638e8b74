(** The continuous batcher: a bounded multi-producer queue whose consumer
    side hands out {e batches}, not items.

    The server's I/O thread {!push}es requests as they arrive; its
    dispatch worker blocks in {!next_batch}. A batch is handed out {e in flight}: it counts
    against the batcher until the consumer {!release}s it, once its
    replies have gone out. Two batches may be in flight — one executing,
    one submitted behind it — so the next batch is parsed and queued
    while the current one computes. Items accumulate only while both
    slots are taken, so batch size follows load. A queued batch closes on
    whichever comes first:

    - {b full} — [max_batch] items are waiting (a backlog is handed out
      immediately);
    - {b idle} — a slot is free (fewer than two batches in flight):
      whatever is queued leaves at once, so a lone request never waits;
    - {b window} — [max_wait_us] elapsed since the consumer found the
      forming batch's first item behind two batches in flight (an upper
      bound on formation, not a fixed delay);
    - {b drain} — the queue was {!close}d; whatever is left goes out,
      then [None] tells workers to exit.

    Generic in the item type so the unit tests can drive it with plain
    ints, deterministically. *)

type 'a t

(** Why {!next_batch} closed a batch; each batch has exactly one. When
    several hold, the first in this order wins. *)
type close =
  | Full  (** [max_batch] items were queued *)
  | Idle  (** fewer than two batches were in flight *)
  | Window  (** [max_wait_us] ran out behind two batches in flight *)
  | Drain  (** the batcher was closed *)

val close_name : close -> string
(** ["full"], ["idle"], ["window"], ["drain"]. *)

val create : ?max_batch:int -> ?max_wait_us:int -> ?max_pending:int -> unit -> 'a t
(** Defaults: [max_batch] 64, [max_wait_us] 2000, [max_pending] 8192.
    All must be positive ([max_wait_us] ≥ 0). *)

val push : 'a t -> 'a -> bool
(** False when the queue is at [max_pending] (backpressure — the caller
    answers [Rejected]) or closed. Never blocks. *)

val take_one : 'a t -> 'a option
(** Block for the next single item, in arrival order — no batching and
    no in-flight accounting. [None] after {!close} once the queue is
    empty. The server's completion queue uses this: tickets come back one
    at a time, as submitted. *)

val next_batch : 'a t -> ('a list * close) option
(** Block for the next batch, in arrival order, and why it closed. The
    batch is in flight until {!release}d. [None] after {!close} once the
    queue is empty — the consumer's termination signal. Safe for
    multiple concurrent consumers; each item goes to exactly one. *)

val release : 'a t -> unit
(** Mark one batch from {!next_batch} as done. Call it once per batch,
    after its replies, also when replying raised (under
    [Fun.protect ~finally]): a batch never released keeps every later
    batch waiting out its window. Raises [Invalid_argument] when no batch
    is in flight. *)

val close : 'a t -> unit
(** Stop accepting pushes and wake all waiting consumers. Items already
    queued are still handed out ("flush the queue" of graceful drain). *)

val depth : 'a t -> int
val is_closed : 'a t -> bool
