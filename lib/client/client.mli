(** Client library for the alignment server.

    A connection is a plain blocking socket speaking {!Wire} frames; it is
    not thread-safe — share nothing, or open one connection per thread.
    Three entry points:

    - {!align} — one request, one reply; the low-latency path.
    - {!align_many} — windowed pipelining: up to [window] requests are in
      flight at once, replies are matched by id (the server may reorder
      across batches). This is what makes server-side batching effective:
      a pipelining client fills the batcher's 2 ms window.
    - {!run_load} — {!align_many} plus measurement: per-request latency
      and the server-reported batch sizes, for the CLI's load mode and the
      smoke tests.

    Remote failures ([Rejected], [Timeout], …) are per-request values;
    [Protocol _] means the connection itself is broken and must be
    dropped.

    {b Distributed tracing}: when {!Anyseq_trace.Trace.enable} is on,
    every outgoing request carries a client-minted
    {!Wire.trace_context} (unique trace id + the span open at send
    time), and each reply commits a [client.request] span covering
    send → receive, tagged with the [trace_id] attribute. A server with
    tracing enabled stamps the same id onto its [server.request] span,
    so exporting both sides' spans yields one stitched cross-process
    trace. When tracing is off, requests carry no context and nothing is
    recorded. *)

type t

type response = {
  score : int;
  query_end : int;
  subject_end : int;
  cigar : string option;  (** [Some] iff the config asked for traceback *)
  queue_ns : int64;  (** server-side: time spent queued *)
  service_ns : int64;  (** server-side: executing batch wall time *)
  batch_jobs : int;  (** size of the batch the request rode in *)
}

type error =
  | Remote of Wire.error_code * string  (** the server answered with an error *)
  | Protocol of string  (** broken connection or undecodable reply *)

val error_to_string : error -> string

val connect : Addr.t -> (t, string) result
val close : t -> unit

val align :
  t ->
  ?timeout_s:float ->
  ?config:Wire.config ->
  query:string ->
  subject:string ->
  unit ->
  (response, error) result

val align_many :
  t ->
  ?window:int ->
  ?timeout_s:float ->
  ?config:Wire.config ->
  (string * string) array ->
  ((response, error) result array, string) result
(** Pipelined batch; result [i] answers pair [i]. [window] (default 64)
    bounds requests in flight. The outer [Error] is a connection-level
    failure — individual remote errors land in their slots. *)

type load_stats = {
  completed : int;
  ok : int;
  errors : (Wire.error_code * int) list;  (** error histogram *)
  latencies_us : int array;  (** per completed request, send → reply *)
  batch_jobs_sum : int;  (** sum of per-reply batch sizes *)
  queue_us_sum : int;  (** sum of server-side queue times *)
}

val run_load :
  t ->
  ?window:int ->
  ?timeout_s:float ->
  ?config:Wire.config ->
  (string * string) array ->
  (load_stats, string) result
(** Drive [pairs] through the connection under windowed pipelining and
    measure. Scores are discarded — use {!align_many} when results
    matter. *)
