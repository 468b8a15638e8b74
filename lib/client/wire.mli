(** The alignment wire protocol (ISSUE 4 tentpole).

    Both sides of the network subsystem — {!Anyseq_server} and {!Client} —
    speak length-prefixed binary frames over a stream socket:

    {v
      +-------+---------+------+-------------+----------------+
      | magic | version | kind | payload len | payload ...    |
      | u16   | u8      | u8   | u32 (BE)    | len bytes      |
      +-------+---------+------+-------------+----------------+
    v}

    All integers are big-endian. A request payload carries a client-chosen
    id (echoed verbatim in the reply, so replies may be matched out of
    order under pipelining), the full alignment configuration (scheme,
    mode, traceback, backend hint), an optional deadline, and the two
    sequences. A reply carries either the alignment result (score, end
    coordinates, optional CIGAR) or a typed error code, plus server-side
    timing (nanoseconds spent queued and in the batch executor) and the
    size of the batch the request rode in — the observability hooks the
    CLI client and the smoke tests read.

    Schemes cross the wire either as the parameters of a simple
    match/mismatch + gap model ([Simple]) or as the name of a built-in
    scheme ([Named], resolved against {!Anyseq_scoring.Scheme.builtins}),
    because arbitrary scoring closures cannot be serialized.

    Decoding never raises on untrusted input: every decoder returns
    [result], truncated or trailing bytes are [Error], and payload lengths
    beyond {!max_frame} are rejected before any allocation — a malformed
    or hostile peer costs one connection, never the process.

    {b Version negotiation} is per frame: every header announces the
    version its payload was encoded under, and a decoder accepts any
    version in [[min_protocol_version, protocol_version]], parsing
    version-gated fields only when the frame's version carries them.
    Version 2 appended an optional {!trace_context} to requests; v1
    clients against a v2 server (and v2 requests encoded with
    [~version:1] against a v1 server) keep working — they just don't
    propagate trace ids. *)

val protocol_version : int
(** 2 — the newest version this build encodes and accepts. *)

val min_protocol_version : int
(** 1 — the oldest version still accepted on decode. *)

val header_bytes : int
(** 8: magic, version, kind, payload length. *)

val max_frame : int
(** Upper bound on a payload length (64 MiB). Longer announced frames are
    rejected at the header, before reading the payload. *)

(** A scheme as it crosses the wire. *)
type scheme_spec =
  | Simple of {
      alphabet : [ `Dna4 | `Dna5 ];
      match_ : int;
      mismatch : int;
      gap_open : int;  (** 0 = linear gaps *)
      gap_extend : int;
    }
  | Named of string  (** resolved against [Scheme.builtins] by name *)

type config = {
  scheme : scheme_spec;
  mode : Anyseq_core.Types.mode;
  traceback : bool;
  backend : Anyseq_runtime.Config.backend;
}

val default_config : config
(** dna5 wildcard +2/−1 linear gaps, global, score-only, auto backend. *)

val resolve_config : config -> (Anyseq_runtime.Config.t, string) result
(** Build the runtime configuration a server executes. [Error] on an
    unknown named scheme or invalid scoring parameters. Note each call
    with a [Simple] spec builds a fresh scheme value; servers intern the
    result per {!config_key} so the specialization cache sees one
    physical scheme per distinct wire configuration. *)

val config_key : config -> string
(** Canonical bytes of the configuration — the interning key. Two configs
    have equal keys iff they encode identically. *)

type error_code =
  | Bad_sequence
  | Overflow_bound
  | Rejected  (** server queue full — back off and retry *)
  | Timeout
  | Bad_request  (** undecodable configuration / invalid parameters *)
  | Draining  (** server is shutting down; connect elsewhere *)
  | Internal
  | Cutoff
      (** the job's distance cap was exceeded — score provably below the
          bound, exact value never computed (direct/runtime use only;
          wire requests carry no cap today, so a server never emits it) *)

val error_code_of_runtime : Anyseq_runtime.Error.t -> error_code
val code_to_string : error_code -> string

type trace_context = {
  trace_id : int64;  (** client-generated; labels every span of the request *)
  parent_span : int64;  (** client-side span open at send time; 0 = none *)
}
(** The wire form of a distributed trace identity (protocol ≥ 2). The
    client mints a [trace_id] per request when tracing is enabled; the
    server stamps it onto its [server.request] / dispatch spans, so one
    Chrome-trace export of both sides stitches under one id. *)

val trace_id_to_string : int64 -> string
(** Canonical rendering (16 lowercase hex digits) — the form used in span
    attributes on both sides, so exports match up textually. *)

type request = {
  id : int64;
  config : config;
  timeout_s : float option;
  query : string;
  subject : string;
  trace : trace_context option;  (** dropped when encoding at version 1 *)
}

type reply_payload =
  | Result of { score : int; query_end : int; subject_end : int; cigar : string option }
  | Failure of { code : error_code; message : string }

type reply = {
  rid : int64;  (** echo of {!request.id} *)
  payload : reply_payload;
  queue_ns : int64;  (** time spent in the server's request queue *)
  service_ns : int64;  (** wall time of the executing batch *)
  batch_jobs : int;  (** number of requests in that batch *)
}

type frame = Request of request | Reply of reply

type request_view = {
  rv_id : int64;
  rv_config : config;
  rv_timeout_s : float option;
  rv_payload : string;  (** the raw frame payload the ranges index into *)
  rv_query_pos : int;
  rv_query_len : int;
  rv_subject_pos : int;
  rv_subject_len : int;
  rv_trace : trace_context option;
}
(** A request decoded {e in place}: config and metadata are parsed, but
    the sequences stay as byte ranges of the payload, so a host can feed
    them to [Sequence.of_substring] and skip the intermediate string
    copies of {!request}. The server's decode path runs on this. *)

val kind_request : int
val kind_reply : int
(** Frame kind bytes, as {!split_frame} returns them. *)

val decode_request_view : ?version:int -> string -> (request_view, string) result
(** Decode a request payload (as returned by {!split_frame} for
    {!kind_request}) without copying the sequences. Same validation as the
    copying decoder, including the trailing-bytes check. [version]
    (default {!protocol_version}) is the version the frame's header
    announced; v1 payloads have no trace field. *)

val request_of_view : request_view -> request
(** Materialize the string copies (tests, logging). *)

val encode_request : ?version:int -> request -> string
(** Complete frame, header included, encoded at [version] (default
    {!protocol_version}; versions below 2 omit the trace context — how a
    new client talks to an old server). Raises [Invalid_argument] if a
    field is out of representable range (lengths over {!max_frame}, scores
    outside 32 bits) or the version is outside the supported range —
    encoding errors are caller bugs, unlike decoding. *)

val encode_reply : reply -> string

val decode_payload : ?version:int -> kind:int -> string -> (frame, string) result
(** Decode one complete payload as encoded under [version] (default
    {!protocol_version}). Trailing bytes are an error. *)

val split_frame :
  Bytes.t ->
  pos:int ->
  len:int ->
  (int * int * string * int, [ `Incomplete | `Malformed of string ]) result
(** Split one frame off the [len] bytes of [b] that start at [pos]:
    [(version, kind, payload, consumed)], the payload a fresh copy,
    undecoded. [`Incomplete] means more bytes are needed. [`Malformed]
    means the stream cannot be resynced: bad magic, a version outside
    [[min_protocol_version, protocol_version]], or a length beyond
    {!max_frame}, all judged from the header alone. The server splits its
    connections' input with this. *)

val decode_frame : string -> (frame * int, [ `Incomplete | `Malformed of string ]) result
(** {!split_frame} at the head of a string, then {!decode_payload}:
    one frame and the bytes it consumed. *)

(** {1 Blocking frame I/O}

    Writers must serialize calls per descriptor themselves. *)

val read_frame :
  Unix.file_descr -> (frame, [ `Eof | `Malformed of string | `Io of string ]) result
(** [`Eof] on a close before a whole header; a payload cut short is
    [`Malformed]. *)

val write_frame : Unix.file_descr -> string -> (unit, string) result
(** Write a whole encoded frame, handling short writes; [Error] wraps
    [EPIPE]/reset (the peer is gone). *)
