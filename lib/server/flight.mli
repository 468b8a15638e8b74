(** The flight recorder: a bounded ring of recent per-request records.

    Every request the server replies to leaves one {!record} — id,
    connection, config label, optional wire trace id, the monotonic
    stamps of each stage it passed through, and its outcome. The ring
    holds the most recent [capacity] of them and overwrites the oldest,
    so the cost is flat and the data is always the {e last} moments
    before whatever went wrong — the post-incident counterpart to the
    aggregated stage histograms.

    The server dumps the ring to disk on SIGUSR1 and on deadline-miss
    bursts, and serves it live at [/debug/flight] on the admin
    endpoint. *)

type record = {
  fr_rid : int64;
  fr_cid : int;  (** connection id *)
  fr_config : string;  (** human-readable config label *)
  fr_trace : int64 option;  (** wire trace id, when the client sent one *)
  fr_accept_ns : int64;  (** frame fully read off the socket *)
  fr_decode_ns : int64;  (** request view decoded, config interned *)
  fr_enqueue_ns : int64;  (** admitted into the batcher *)
  fr_submit_ns : int64;  (** batch submitted to the service *)
  fr_done_ns : int64;  (** batch results available *)
  fr_reply_ns : int64;  (** reply handed to the I/O thread *)
  fr_batch_jobs : int;
  fr_outcome : string;  (** "ok" or the wire error-code string *)
}

type t

val default_capacity : int
(** 1024 records. *)

val create : ?capacity:int -> unit -> t
(** Raises [Invalid_argument] on a non-positive capacity. *)

val capacity : t -> int

val record : t -> record -> unit
(** Append, overwriting the oldest record once full. Thread-safe. *)

val recorded : t -> int
(** Records ever written (not capped by capacity). *)

val snapshot : t -> record list
(** The ring's current contents, oldest first — at most [capacity]
    records. *)

val to_json : record list -> string
(** [{"records":[…]}], one {!Anyseq_util.Jsonv} record per line; stage
    stamps as exact nanosecond integers ([Jsonv.Int]), trace ids in the
    16-hex-digit form span attributes use. *)

val dump : t -> path:string -> (unit, string) result
(** Write [to_json (snapshot t)] to [path]. *)
