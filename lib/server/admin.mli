(** The live admin endpoint: a second listener speaking minimal HTTP/1.0.

    A production server must be observable while it runs; this is the
    window. {!start} binds one extra listener ([--admin tcp:HOST:PORT]
    or a Unix socket) and serves [GET]/[HEAD] requests through a routing
    callback, one request per connection, closing after each response —
    the smallest protocol a Prometheus scraper, a load balancer's health
    check, a browser and [anyseq top] all speak.

    {!Server.service_routes} mounts [/metrics] (Prometheus text
    exposition), [/healthz] (drain-aware 200/503) and [/statusz] (JSON:
    shards, cache, tiers, network progress, build info) for any
    service — [anyseq serve --admin] and [anyseq network --admin] both
    serve them; the server adds stage latencies, request counters and
    [/debug/flight] (the flight recorder's ring).

    Hostile-input posture matches the wire protocol's: a 2 s receive
    timeout, a 4 KiB request cap, and a malformed request costs its own
    connection only. The handler runs on the admin accept thread, so
    handlers must be quick snapshot renderers — all the mounted ones
    are. *)

type response = { status : int; content_type : string; body : string }

type t

val ok : ?content_type:string -> string -> response option
(** [Some { status = 200; … }] — handler convenience (default content
    type [text/plain; charset=utf-8]). *)

val start :
  addr:Anyseq_client.Addr.t ->
  handler:(string -> response option) ->
  (t, string) result
(** Bind [addr] and serve. The handler maps a bare path (query string
    stripped) to a response; [None] renders a 404. *)

val parse_request_line : string -> (string * string) option
(** [(method, path)] from a request head's first line: [GET] or [HEAD]
    only, query string stripped. Total: any other input is [None]. *)

val address : t -> Anyseq_client.Addr.t
(** The bound address (TCP port 0 resolved to the real port). *)

val stop : t -> unit
(** Close the listener and join the accept thread. Idempotent. *)

val http_get :
  Anyseq_client.Addr.t -> string -> (int * string, string) result
(** Matching one-shot client: [GET path] against an admin endpoint,
    returning (status, body). What [anyseq top] and the tests poll
    with. *)
