(** Structured span tracing for the staged alignment pipeline.

    A {e span} is a named, nested interval of wall time with integer/string
    attributes — "this specialization consumed 41 fuel", "this chunk ran 256
    jobs on the scalar tier". Spans form a tree per domain: starting a span
    while another is open makes it a child of the open one. Completed spans
    land in a {e per-domain ring buffer} (single writer, no locks on the hot
    path), so tracing is safe to use from inside the wavefront scheduler's
    worker domains, and a full buffer silently drops the {e oldest} spans
    rather than blocking or growing.

    Tracing is globally off by default. Every entry point is guarded by one
    [Atomic.get] on the enable flag, so instrumented code pays ~nothing when
    tracing is disabled (the [@trace-overhead] alias keeps the enabled
    cost below 5% on the runtime batch workload).

    Typical use:

    {[
      Trace.enable ();
      run_workload ();
      Out_channel.with_open_text "out.json" (fun oc ->
          output_string oc (Export.chrome_json (Trace.spans ())));
      Trace.disable ()
    ]} *)

type attr = Int of int | Str of string

type span = {
  id : int;  (** unique, process-wide, > 0 *)
  parent : int;  (** id of the enclosing span on the same domain; 0 = root *)
  name : string;
  start_ns : int64;  (** monotonic clock ({!Anyseq_util.Timer.now_ns}) *)
  end_ns : int64;
  domain : int;  (** domain the span ran on *)
  attrs : (string * attr) list;  (** in attachment order *)
}

val enabled : unit -> bool
(** The single hot-path guard: one [Atomic.get]. *)

val enable : ?buffer:int -> unit -> unit
(** Clear any previous trace and start recording. [buffer] is the
    per-domain ring capacity in spans (default {!default_buffer}); when a
    domain completes more spans than that, the oldest are dropped. *)

val disable : unit -> unit
(** Stop recording. Completed spans remain readable via {!spans}. *)

val default_buffer : int

val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span when tracing is enabled and
    is exactly [f ()] otherwise. The span closes when [f] returns or
    raises. *)

type frame
(** An open span, for call sites that cannot be expressed as a closure or
    that attach attributes computed mid-flight. *)

val start : ?attrs:(string * attr) list -> string -> frame option
(** [None] when tracing is disabled — thread it through to {!add} and
    {!finish}, which are no-ops on [None]. *)

val add : frame option -> string -> attr -> unit
(** Attach one attribute to an open span. *)

val finish : ?attrs:(string * attr) list -> frame option -> unit
(** Close the span and commit it to the ring buffer. Open spans that are
    never finished are not recorded. *)

val emit :
  ?attrs:(string * attr) list ->
  ?parent:int ->
  string ->
  start_ns:int64 ->
  end_ns:int64 ->
  int
(** Record an already-measured interval as a completed span on the calling
    domain's ring, bypassing the span stack — for intervals stamped across
    threads (a served request passes reader → dispatch → completer; the
    completer emits the whole request span from the stamps). Returns the
    new span id, or 0 when tracing is disabled. [parent] defaults to 0
    (root) — cross-process parentage travels in attributes, not ids. *)

val current_span_id : unit -> int
(** Id of the innermost open span on this domain (0 if none or tracing is
    disabled) — what a client stamps into an outgoing
    {!Anyseq_client.Wire.trace_context} as the remote parent. *)

val spans : unit -> span list
(** Snapshot of all completed spans across all domains, sorted by start
    time. Call after concurrent work has joined; a snapshot taken while
    other domains are still tracing is best-effort (whole spans, never torn
    ones, may be missing). *)

val dropped : unit -> int
(** Total completed spans lost to ring-buffer wraparound since {!enable}. *)

val clear : unit -> unit
(** Drop all recorded spans (keeps the enabled state and buffers). *)
