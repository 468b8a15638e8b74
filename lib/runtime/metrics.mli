(** Monotonic counters, gauges and histograms for the alignment runtime.

    A registry is a flat namespace of named instruments, all safe to update
    from concurrent domains (counters and histogram buckets are [Atomic]s;
    the registry itself is mutex-protected on first-use registration only).
    [dump] renders a plain-text snapshot — one instrument per line — wired
    into [anyseq batch/serve --metrics] and the bench harness. *)

type t

type counter
(** Monotonically increasing (use {!gauge_set} for level quantities). *)

type histogram
(** Power-of-two bucketed distribution of non-negative integers
    (nanoseconds, batch sizes, …). *)

val create : unit -> t

val counter : t -> string -> counter
(** Get or register. Instruments are identified by name; calling twice with
    one name returns the same instrument. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge_set : t -> string -> int -> unit
(** Set a level quantity (e.g. current queue depth). Registered on first
    use; rendered alongside a high-water mark. *)

val gauge_set_labeled : t -> string -> label:string * string -> int -> unit
(** [gauge_set_labeled t name ~label:(key, value) v]: one gauge {e series}
    per label value under a shared metric name — e.g.
    [gauge_set_labeled t "runtime/shard_jobs" ~label:("shard", "0") n]
    renders as [anyseq_runtime_shard_jobs{shard="0"}] in the Prometheus
    exposition and as [runtime/shard_jobs{shard=0}] in {!dump}. Each
    (name, value) pair is its own instrument; series of one name share a
    single [# TYPE] declaration. *)

val fold_labeled : t -> string -> ('a -> string -> int -> 'a) -> 'a -> 'a
(** Fold over the labeled series registered under [name]: [f acc
    label_value current]. Counters and gauges only. *)

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_max : histogram -> int

val hist_quantile : histogram -> float -> float
(** Estimate of quantile [q]: the log2 bucket holding the rank, linearly
    interpolated between the bucket's bounds, capped at the observed
    maximum (0 on an empty histogram). Worst-case error is the rank's
    position within one power-of-two bucket. *)

val find : t -> string -> int option
(** Current value of a counter or gauge by name (for tests and tools). *)

val find_hist : t -> string -> histogram option
(** Histogram by name, without registering one — for snapshot consumers
    (the admin endpoint's stage tables). *)

val record_gc : t -> unit
(** Refresh the GC gauges — [gc/minor_words], [gc/major_collections],
    [gc/heap_words] — from [Gc.quick_stat] (cheap; no heap traversal).
    Hosts call this wherever they snapshot the registry so allocation
    pressure shows up in {!dump} and {!dump_prometheus} next to the
    runtime's own counters. *)

val reset : t -> unit
(** Zero every instrument (keeps registrations). *)

val dump : t -> string
(** Text snapshot, sorted by instrument name:
    [counter <name> <value>], [gauge <name> <value> max=<high-water>],
    [hist <name> count=… mean=… p50=… p90=… p99=… max=…] (quantiles via
    {!hist_quantile}). Labeled series print as [name{key=value}]. *)

val dump_prometheus : t -> string
(** Prometheus text-exposition snapshot ([# TYPE] comment per metric,
    sorted by name). Registry names are sanitized to the Prometheus
    charset ('/' → '_') and prefixed with [anyseq_]. Counters and gauges
    render as single samples (a gauge also exports its high-water mark as
    [<name>_max]); histograms render cumulative [_bucket{le="…"}] series
    over the power-of-two bucket bounds (2{^i} - 1), then [_sum] and
    [_count]. *)
