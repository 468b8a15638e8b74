(** Renderers for completed {!Trace.span}s.

    Two human paths and one machine path:

    - {!chrome_json} emits the Chrome trace-event format (JSON array of
      ["ph":"X"] complete events), loadable in Perfetto
      ({:https://ui.perfetto.dev}) or [chrome://tracing] — spans nest by
      time within their domain's track;
    - {!span_tree} renders an aggregated call-tree summary with per-node
      call counts and total/self wall time, for terminal use;
    - {!write_chrome} is {!chrome_json} straight to a file. *)

val chrome_json : ?pid:int -> Trace.span list -> string
(** Render spans as [{"traceEvents":[...]}], one {!Anyseq_util.Jsonv}
    event per line, encoded one span at a time. Timestamps are microseconds
    relative to the earliest span; one track (tid) per domain; span
    attributes appear under ["args"]. [pid] (default 1) labels the
    process track — export each process of a distributed trace under a
    distinct pid (e.g. its OS pid) and concatenate the [traceEvents]
    arrays to stitch a cross-process view; spans carrying the same
    [trace_id] attribute (see {!Anyseq_client.Wire.trace_context}) are
    one request's client and server halves. *)

val write_chrome : ?pid:int -> string -> Trace.span list -> unit
(** [write_chrome path spans] writes {!chrome_json} to [path]. *)

val span_tree : Trace.span list -> string
(** Aggregate spans into a tree keyed by name path (all spans with the
    same name under the same parent path collapse into one row) and render
    it with [count], [total ms], [self ms] columns, children sorted by
    total time. Spans whose parent was dropped by ring wraparound appear
    as roots. *)
