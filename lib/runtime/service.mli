(** The batch alignment service — a domain-sharded runtime behind an
    async submit/await API.

    A service owns a {!Shard.pool}: [shards] independent lanes, each with
    its own slice of the admission budget, its own bounded chunk queue,
    its own {!Spec_cache} replica, and (for pools of two or more shards)
    its own worker domain whose domain-local {!Workspace} pool stays warm
    across chunks. {!submit} admits a job array against the sharded
    budget, parses and groups the admitted jobs by configuration, splits
    each group into [batch_size] chunks, spreads the chunks over the
    shard queues, and returns a {!ticket}; {!await} blocks until every
    chunk has landed and returns the results — always in submission
    order, one slot per job, regardless of which shard executed what.
    {!run} is the one-line submit+await wrapper.

    {b Admission.} Capacity is divided evenly across shards. A submit
    prefers a rotating home shard and overflows to siblings, so one
    saturated shard cannot reject work the pool as a whole could take;
    jobs beyond the pool-wide budget are answered [Error Rejected] —
    backpressure, never silent dropping — and admission is a prefix of
    the array (jobs [0..granted-1]).

    {b Dispatch and stealing.} Chunks are placed round-robin. A worker
    drains its own queue first, then steals the {e oldest} chunk from a
    sibling (oldest-first: nearest deadlines). On a single-shard service
    no domains are spawned — the awaiting caller executes the chunks
    itself, which keeps shards=1 on the exact pre-shard hot path.

    {b Tiers.} Each chunk runs on its executing shard. Its jobs are
    routed one by one by a single policy function, [select], over a
    fixed table of tiers: [bitparallel] (Myers edit distance),
    [banded] (Myers under the job's [max_dist] cap), [native] (the
    cached pre-generated residual, {!Spec_cache.get}), [simd]
    ({!Anyseq_simd.Inter_seq.batch_score}) and [wavefront]
    ({!Anyseq_wavefront.Scheduler.score_many}). [select] sends every
    traceback job to [native], whatever the backend hint. Score jobs
    follow an explicit [Simd] or [Wavefront] hint. Otherwise a
    [Unit_cost] certificate picks [bitparallel], or [banded] for a
    capped job, at any pair size. [Auto] escalates an uncertified pair
    to [wavefront] only when it is at least {!long_pair_cells} cells
    {e and} more than one domain is configured. Everything else runs
    [native]. [Simd] score jobs that fail the 16-bit overflow analysis
    of {!Anyseq_scoring.Bounds} are refused with [Overflow_bound] before
    routing. A chunk runs its buckets in table order.

    Per-job deadlines ([timeout_s]) are checked once per chunk, before
    routing, and again before each traceback alignment; an expired job is answered [Error Timeout] without being computed.
    Every chunk runs inside one {!Workspace} checkout on its executing
    domain, so a warmed service aligns without per-job DP allocations —
    per shard, which the shard gate enforces. An exception thrown by a
    chunk is parked on its ticket and re-raised by {!await} on the
    submitting side; worker domains survive it. *)

type job = {
  config : Config.t;
  query : string;
  subject : string;
  timeout_s : float option;  (** [None]: no deadline *)
  max_dist : int option;
      (** [Some k]: score-only jobs on a unit-cost-certified configuration
          run the {e banded} Myers kernel with edit-distance cap [k] —
          bit-identical outcome when the pair's distance is ≤ [k], and
          [Error Cutoff] (after only O(m·k/62) block steps) when the cap
          is provably exceeded. Derive [k] from a score threshold with
          {!Anyseq_analysis.Property.distance_cap}. Ignored (exact full
          result) on configurations without a [Unit_cost] certificate, on
          traceback jobs, and on the Simd/Wavefront backends. *)
}

val job :
  ?config:Config.t ->
  ?timeout_s:float ->
  ?max_dist:int ->
  query:string ->
  subject:string ->
  unit ->
  job

type seq_job = {
  sj_config : Config.t;
  sj_query : Anyseq_bio.Sequence.t;
  sj_subject : Anyseq_bio.Sequence.t;
  sj_timeout_s : float option;
  sj_max_dist : int option;  (** see {!type-job.max_dist} *)
}
(** A job whose sequences are already parsed (e.g. decoded straight from a
    wire frame into packed buffers). A sequence whose alphabet differs
    from the config's scheme alphabet is answered [Error (Bad_sequence _)]
    in its slot at admission. *)

val seq_job :
  ?config:Config.t ->
  ?timeout_s:float ->
  ?max_dist:int ->
  query:Anyseq_bio.Sequence.t ->
  subject:Anyseq_bio.Sequence.t ->
  unit ->
  seq_job

type outcome = {
  score : int;
  query_end : int;  (** end cell of the optimum, engine convention *)
  subject_end : int;
  alignment : Anyseq_bio.Alignment.t option;  (** [Some] iff the config asked for traceback *)
  query_seq : Anyseq_bio.Sequence.t;  (** the parsed inputs, for rendering *)
  subject_seq : Anyseq_bio.Sequence.t;
}

type t

type ticket
(** An in-flight batch: admission grants held, chunks queued or
    executing, a result slot per submitted job. Settled by {!await}. *)

val create :
  ?capacity:int ->
  ?batch_size:int ->
  ?shards:int ->
  ?domains:int ->
  ?cache_capacity:int ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** [capacity] (default 1024) bounds jobs in flight across concurrent
    submits, split evenly across shards; [batch_size] (default 256) is
    the dispatch chunk; [shards] (default 1) is the number of lanes —
    values ≥ 2 spawn one worker domain per shard; [domains] (default
    [Domain.recommended_domain_count ()]) sizes the wavefront tier;
    [cache_capacity] sizes {e each} shard's specialization-cache
    replica. *)

(** {1 Submit / await} *)

val submit :
  t -> ?attrs:(string * Anyseq_trace.Trace.attr) list -> job array -> ticket
(** Admit, parse, group and enqueue a batch; returns immediately once
    the chunks are on the shard queues. Thread-safe; concurrent
    submitters share the sharded budget. Jobs beyond it are answered
    [Error Rejected] in their slots (admission is a prefix).

    [attrs] (default empty) are extra span attributes stamped onto the
    batch's [service.batch] span and every one of its [service.exec]
    spans — how a server threads a wire-propagated trace id down to the
    chunks that execute on worker domains. *)

val submit_seqs :
  t -> ?attrs:(string * Anyseq_trace.Trace.attr) list -> seq_job array -> ticket
(** {!submit} for pre-parsed jobs: same admission, grouping, dispatch
    and result-slotting; only the parse phase is replaced by an alphabet
    check. *)

val await : ticket -> (outcome, Error.t) result array
(** Block until every chunk of the ticket has finished; result [i]
    answers job [i]. On a single-shard service the caller executes the
    queued chunks itself; on a sharded service it lends a hand while any
    chunk is queued, then sleeps. Safe to call from any thread; may be
    called more than once (subsequent calls return the settled array).
    Re-raises the first executor exception, if any. *)

val run : t -> job array -> (outcome, Error.t) result array
(** [run t jobs = await (submit t jobs)]. *)

val run_one : t -> job -> (outcome, Error.t) result

val run_seqs : t -> seq_job array -> (outcome, Error.t) result array
(** [run_seqs t jobs = await (submit_seqs t jobs)]. *)

(** {1 Introspection} *)

val queue_depth : t -> int
(** Jobs currently admitted and not yet finished (all shards). *)

val shards : t -> int

type shard_stat = {
  ss_shard : int;
  ss_capacity : int;  (** this shard's admission slice *)
  ss_in_flight : int;
  ss_queued : int;  (** chunks waiting in this shard's queue *)
  ss_enqueued : int;  (** chunks ever placed on this shard's queue *)
  ss_run_local : int;  (** chunks its worker popped from its own queue *)
  ss_steals : int;  (** chunks its worker stole from siblings *)
  ss_stolen_from : int;  (** chunks siblings/callers took from its queue *)
  ss_jobs : int;  (** jobs this shard executed *)
  ss_worker_minor_words : float;
      (** minor words its worker domain allocated (0 when no worker) *)
}

val shard_stats : t -> shard_stat array

val publish_shard_stats : t -> unit
(** Refresh the per-shard labeled gauge families
    ([runtime/shard_jobs{shard=…}], [shard_queued], [shard_in_flight],
    [shard_enqueued], [shard_run_local], [shard_steals],
    [shard_stolen_from], [shard_minor_words]) from a fresh
    {!shard_stats} snapshot. Runs automatically once per completed
    ticket; a metrics endpoint calls it again at scrape time so the
    exposed totals match the live pool. *)

val drain : t -> unit
(** Graceful shutdown: stop admitting (every subsequent or concurrent job
    is answered [Error Rejected]) and block until all already-admitted
    jobs have finished — executing queued chunks on the calling thread as
    needed, so drain cannot deadlock on an un-awaited ticket. Idempotent;
    a host that wants to serve again later calls {!reopen}. *)

val reopen : t -> unit
(** Re-open admissions after {!drain}. *)

val is_draining : t -> bool
(** True once {!drain} has flipped the admission gate. *)

val shutdown : t -> unit
(** {!drain}, then stop and join the worker domains. The service still
    works afterwards (caller-executed, as shards=1) once {!reopen}ed. *)

val cache_stats : t -> Spec_cache.stats
(** Aggregated over the per-shard replicas (sums; [capacity] is the sum
    of the replica capacities). *)

val metrics : t -> Metrics.t

val set_chunk_hook : t -> (int -> unit) option -> unit
(** Install (or clear, with [None]) a progress callback invoked with the
    job count of every chunk the moment it finishes executing — on the
    {e executing} domain, possibly a worker, so the callback must be
    domain-safe and cheap (an [Atomic]/{!Metrics} bump). Long-running
    batch drivers use it to publish live progress while blocked in
    {!await}: the network pipeline counts pairs dispatched here so an
    admin scrape mid-run sees movement. One hook per service; exceptions
    it raises are swallowed. *)

val long_pair_cells : int
(** Auto-escalation threshold to the wavefront tier (4 M cells). *)

val tier_names : string list
(** Every execution tier, in the order dashboards list them. Tier [n]
    counts its jobs under the [runtime/tier_n] counter. *)

val tier_counts : t -> (string * int) list
(** Each of {!tier_names} with its job count so far, in that order.

    The [native] tier's global score jobs are also counted by how the
    certified band ({!Native_kernel}) settled them:
    [runtime/band_certified] (the band's score was proven optimal) plus
    [runtime/band_dense] (the dense sweep ran) equals those jobs, and
    [runtime/band_rounds] counts the band sweeps run. *)

val default : unit -> t
(** Lazily-created shared service, used by [Anyseq.align_batch]. *)
