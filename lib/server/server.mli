(** The network alignment server.

    One process serves {!Anyseq_client.Wire} frames over any mix of
    Unix-domain and TCP listeners, feeding every request through one
    shared {!Anyseq_runtime.Service} — so all connections share one warm
    specialization cache (replicated per shard), one admission budget,
    and one metrics registry.

    Thread architecture (OS threads; the compute parallelism lives in the
    service's shard worker {e domains} and the wavefront tier). The
    count is fixed, whatever the number of connections:

    - {b I/O thread} — one [select] loop (0.1 s timeout, so a stop
      request is noticed without signals-in-syscalls games) over the
      listeners, every connection, and a self-pipe the reply path writes
      to. Sockets are non-blocking. It accepts connections, reads and
      splits frames ({!Anyseq_client.Wire.split_frame}) and pushes the
      decoded requests into the shared {!Batcher}. A malformed frame
      costs exactly that connection. Config decoding happens here,
      against an interning table, so every distinct wire configuration
      maps to one physical [Config.t] and the specialization caches stay
      warm across connections. It also writes every reply, from a queue
      per connection: a client that stops reading is cut off once
      [4 × max_pending] replies wait for it
      ([server/slow_consumer_drops]), never stalling anyone else. A
      connection whose descriptor [select] cannot watch (at or past
      [FD_SETSIZE]) is closed at accept and counted in
      [server/connections_refused];
    - {b dispatch worker} — one thread looping
      [Batcher.next_batch] → parse → [Service.submit_seqs]. With fewer
      than two batches in flight the batcher hands out whatever is
      queued at once; behind two it closes the forming batch when one
      is released (after its replies), on max-size, on drain, or when
      max-wait (2 ms default, an upper bound) runs out — continuous
      batching: batch size follows load, lone requests never wait.
      Submit returns as soon as the batch's chunks are on the shard
      queues, so the worker forms the next batch while the shards
      execute this one;
    - {b completer} — one thread popping tickets off a completion queue
      in submission order, [Service.await]ing each and handing its
      replies to the I/O thread.

    Besides these three run the {!Admin} listener's thread, when one is
    configured, and at most one window ticker per {!Batcher}.

    Request deadlines propagate: a request's [timeout_s], minus the time
    it spent queued here, becomes the [Service.job] deadline.

    {b Graceful drain} (SIGTERM/SIGINT via {!install_signal_handlers}, or
    {!stop}): stop accepting connections, answer new requests with
    [Draining], flush every already-accepted request through the service,
    deliver all replies (for at most 5 s to a client that does not read
    them), then close. Accepted requests are never dropped.

    {b Observability.} Every request is stamped at accept, decode,
    enqueue, submit, done and reply; the deltas feed the five
    [server/stage_*_us] histograms (decode/admit/queue/execute/reply),
    whose per-stage counts match requests replied through the batch path
    and whose stages sum to the request's wall time. The same stamps,
    plus config and outcome, land in a bounded {!Flight} ring — dumped
    to [$TMPDIR/anyseq-flight-<pid>.json] on SIGUSR1 (via
    {!install_signal_handlers}) or on a deadline-miss burst (≥ 8
    timeouts within a second, 5 s cooldown). An optional {!Admin}
    listener ([config.admin]) serves [/metrics] (Prometheus, per-shard
    gauges refreshed at scrape time), [/healthz] (503 while draining —
    the admin endpoint outlives the data plane during a drain),
    [/statusz] (the JSON snapshot [anyseq top] renders) and
    [/debug/flight]. Requests carrying a {!Anyseq_client.Wire}
    trace context get a completed [server.request] span (accept → reply,
    parented under the client's span, tagged [trace_id]) when tracing is
    enabled, and the id is stamped down through [service.batch] and
    [service.exec] spans. *)

module Addr = Anyseq_client.Addr

type config = {
  addrs : Addr.t list;  (** listeners; at least one *)
  max_batch : int;  (** batch size bound (default 64) *)
  max_wait_us : int;
      (** upper bound on how long a batch forms while another executes
          (default 2000) *)
  max_pending : int;  (** request queue bound — beyond it, [Rejected] (default 8192) *)
  shards : int;
      (** service lanes when [start] creates the service itself (default
          1; ≥ 2 spawns one worker domain per shard). Ignored when an
          explicit [?service] is passed — its own shard count wins. *)
  admin : Addr.t option;  (** admin/metrics listener (default none) *)
  flight_capacity : int;
      (** flight-recorder ring size (default {!Flight.default_capacity}) *)
}

val default_config :
  ?addrs:Addr.t list -> ?shards:int -> ?admin:Addr.t -> unit -> config

type t

val start : ?service:Anyseq_runtime.Service.t -> config -> (t, string) result
(** Bind all listeners and start serving. [service] defaults to a fresh
    [Service.create ~shards:cfg.shards ()] whose worker domains the
    server also shuts down on stop; passing one shares its cache/metrics
    with in-process work (and leaves its lifecycle to the caller).
    [Error] if any address fails to bind (none are left half-bound). *)

val addresses : t -> Addr.t list
(** Actually-bound addresses (TCP port 0 resolved to the real port). *)

val service : t -> Anyseq_runtime.Service.t
val metrics : t -> Anyseq_runtime.Metrics.t
(** The service's registry; server instruments live under [server/]. *)

val connections : t -> int
(** Currently open connections. *)

val flight : t -> Flight.t
(** The flight recorder (always on; the ring is cheap). *)

val admin_address : t -> Addr.t option
(** The admin listener's bound address, when one was configured. *)

val stages : string list
(** The request stages in order — [decode], [admit], [queue], [execute],
    [reply] — as named in the [server/stage_<name>_us] histograms and
    the [stages] member of [/statusz]. *)

val service_routes :
  ?draining:(unit -> bool) ->
  ?server:(unit -> (string * Anyseq_util.Jsonv.t) list) ->
  ?status:(unit -> (string * Anyseq_util.Jsonv.t) list) ->
  started_at:float ->
  Anyseq_runtime.Service.t ->
  string ->
  Admin.response option
(** The admin routes of any process built on a {!Anyseq_runtime.Service}
    — the server's and [anyseq network --admin]'s:
    - [/metrics]: the service registry in Prometheus exposition, with
      per-shard and GC gauges refreshed at scrape time;
    - [/healthz]: 200 [ok], or 503 [draining] once [draining ()] (default
      false) or the service drains;
    - [/statusz]: one {!Anyseq_util.Jsonv} document with [server]
      ([uptime_s] since [started_at], [draining], [shards], plus the
      [server ()] fields), [shards], [cache], [tiers], [network] (while
      a {!Anyseq_network.Pipeline} reports into the service registry),
      [build], plus the [status ()] members.

    Other paths are [None] (a 404). The server adds [server.protocol_version],
    [server.connections], [server.dispatch_queue], [requests], [stages]
    and [flight], and mounts [/debug/flight] beside these. *)

val request_stop : t -> unit
(** Flag the server to drain. Async-signal-safe (one atomic store); the
    actual teardown happens on the thread inside {!wait}/{!stop}. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT → {!request_stop}. *)

val wait : t -> unit
(** Block until a stop is requested, then perform the graceful drain:
    listeners closed (Unix socket paths unlinked), request queue flushed
    through the service, replies delivered, connections closed, threads
    joined, [Service.drain] completed. Idempotent across threads. *)

val stop : t -> unit
(** {!request_stop} then {!wait}. *)

val is_stopped : t -> bool
