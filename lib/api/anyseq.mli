(** AnySeq — pairwise sequence alignment with interchangeable scoring,
    modes and execution mappings.

    This facade is the library's public API. Since the runtime redesign it
    is organized around one configuration record and two entry points:

    - {!Config.t} names a point in the configuration space the paper
      specializes over — scoring scheme, alignment mode, traceback or
      score-only, backend hint;
    - {!align} answers one pair under a configuration;
    - {!align_batch} streams many pairs through the runtime service
      ({!Anyseq_runtime.Service}), which amortizes kernel specialization
      across the batch via a bounded cache and dispatches each
      configuration group to its best engine.

    Both return [result] values over {!Error.t}; [_exn] twins raise
    {!Error.Error} instead. The historical [construct_*] /
    [*_alignment_score] functions of the paper's §III-C are kept as
    one-line wrappers over {!align_exn}.

    {1 Component namespaces} *)

module Alphabet = Anyseq_bio.Alphabet
module Sequence = Anyseq_bio.Sequence
module Substitution = Anyseq_bio.Substitution
module Gaps = Anyseq_bio.Gaps
module Cigar = Anyseq_bio.Cigar
module Alignment = Anyseq_bio.Alignment
module Scheme = Anyseq_scoring.Scheme
module Bounds = Anyseq_scoring.Bounds
module Types = Anyseq_core.Types
module Engine = Anyseq_core.Engine
module Scratch = Anyseq_core.Scratch
module Reference = Anyseq_core.Reference
module Hirschberg = Anyseq_core.Hirschberg
module Banded = Anyseq_core.Banded
module Tiling = Anyseq_core.Tiling
module Staged_kernel = Anyseq_core.Staged_kernel
module Analysis = Anyseq_analysis.Driver
module Findings = Anyseq_analysis.Findings
module Property = Anyseq_analysis.Property
module Costmodel = Anyseq_analysis.Costmodel
module Ends_free = Anyseq_core.Ends_free
module Myers = Anyseq_core.Myers
module Scheduler = Anyseq_wavefront.Scheduler
module Inter_seq = Anyseq_simd.Inter_seq
module Blocked = Anyseq_simd.Blocked
module Fasta = Anyseq_seqio.Fasta
module Fastq = Anyseq_seqio.Fastq
module Genome_gen = Anyseq_seqio.Genome_gen
module Read_sim = Anyseq_seqio.Read_sim
module Sam = Anyseq_seqio.Sam

(** {1 Similarity networks}

    The all-vs-all network pipeline ([anyseq network]): {!Minimizer}
    sketches prune the O(n²) pair space through the inverted
    {!Net_index}, {!Pipeline} streams the surviving candidate pairs
    through the batch service into per-sequence {!Topk} hit heaps, the
    {!Edges} spill writer externalizes the edge list as sorted binary
    runs merged into one TSV, and {!Components} reduces it to a cluster
    summary. *)

module Minimizer = Anyseq_network.Minimizer
module Net_index = Anyseq_network.Index
module Topk = Anyseq_network.Topk
module Edges = Anyseq_network.Edges
module Components = Anyseq_network.Components
module Pipeline = Anyseq_network.Pipeline

(** {1 Runtime namespaces} *)

module Config = Anyseq_runtime.Config
module Error = Anyseq_runtime.Error
module Service = Anyseq_runtime.Service
module Spec_cache = Anyseq_runtime.Spec_cache
module Metrics = Anyseq_runtime.Metrics
module Native_kernel = Anyseq_runtime.Native_kernel
module Bitparallel = Anyseq_runtime.Bitparallel
module Workspace = Anyseq_runtime.Workspace

(** {1 Observability}

    {!Trace.enable} turns on span collection across every layer (partial
    evaluator, specialization cache, batch service, wavefront scheduler,
    accelerator simulators); {!Trace.spans} snapshots them and
    {!Trace_export} renders Chrome-trace JSON (loadable in Perfetto) or a
    plain-text span tree. Disabled tracing costs one atomic load per
    instrumentation point. *)

module Trace = Anyseq_trace.Trace
module Trace_export = Anyseq_trace.Export

(** {1 Serving}

    The network subsystem: {!Server} binds Unix-domain and TCP listeners,
    continuously batches {!Wire} requests through one shared {!Service},
    and drains gracefully on SIGTERM; {!Client} is the matching
    connection handle with single-request and pipelined entry points.
    [anyseq serve --listen] / [anyseq client] are thin CLI shims over
    these. {!Admin} is the server's HTTP/1.0 observability listener
    ([/metrics], [/healthz], [/statusz], [/debug/flight] — enabled with
    [anyseq serve --admin]); {!Flight} its bounded ring of recent
    per-request records; {!Jsonv} the dependency-free JSON codec every
    emitted document is written with and [anyseq top] parses [/statusz]
    with; {!Top} renders that document as [anyseq top]'s dashboard. *)

module Wire = Anyseq_client.Wire
module Addr = Anyseq_client.Addr
module Client = Anyseq_client.Client
module Server = Anyseq_server.Server
module Batcher = Anyseq_server.Batcher
module Admin = Anyseq_server.Admin
module Flight = Anyseq_server.Flight
module Top = Anyseq_server.Top
module Jsonv = Anyseq_util.Jsonv

(** {1 Parallelism}

    Every parallelism knob in one place. {!Config.t}'s [backend] field
    stays a {e per-job} hint about which kernel family to use; the
    {!Runtime.t} record decides {e process} shape — how many service
    shards (worker domains) execute batches and how wide the wavefront
    tier may fan one long pair out. When the two meet, the runtime record
    has precedence: a [Wavefront] hint under [domains = 1] runs the tiled
    kernel sequentially, and an [Auto] job never escalates past
    [Runtime.domains]. *)

module Runtime : sig
  type t = {
    shards : int;
        (** service lanes, each with its own admission slice, spec-cache
            replica, queue and (when ≥ 2) worker domain *)
    domains : int;  (** wavefront-tier width for one long pair *)
    capacity : int;  (** admission bound across in-flight batches *)
    batch_size : int;  (** dispatch chunk size *)
  }

  val default : unit -> t
  (** [shards] and [domains] both [Domain.recommended_domain_count ()],
      [capacity] 1024, [batch_size] 256. *)

  val sequential : t
  (** Everything 1 — no domains spawned anywhere; the shape the unit
      tests and the alloc gate run under. *)

  val service : t -> Service.t
  (** Build a {!Service} of this shape ([Service.create] with the record
      fields). The caller owns it: {!shutdown} joins its worker domains. *)

  val shutdown : Service.t -> unit
  (** [Service.shutdown]: drain, then stop and join worker domains. *)
end

(** {1 Core entry points}

    Sequences are plain strings over the configuration scheme's alphabet
    (for the default DNA schemes: ACGT plus N, case-insensitive). *)

type aligned = {
  score : int;
  query_aligned : string;  (** gapped rendering, ['-'] in gaps; [""] for score-only *)
  subject_aligned : string;
  alignment : Alignment.t option;  (** [Some] iff the configuration asked for traceback *)
}

val align :
  config:Config.t -> query:string -> subject:string -> (aligned, Error.t) result
(** Align one pair under [config]. Fails with [Bad_sequence] on characters
    the scheme's alphabet rejects, and — like the batch path — with
    [Overflow_bound] when the configuration explicitly requests the [Simd]
    backend for a score-only job whose size fails the 16-bit feasibility
    analysis of {!Bounds}. The backend field is a hint: traceback always
    goes through {!Engine.align}, so single and batched alignments of the
    same pair produce identical transcripts. *)

val align_exn : config:Config.t -> query:string -> subject:string -> aligned
(** Raises {!Error.Error}. *)

val align_batch :
  ?service:Service.t ->
  ?runtime:Runtime.t ->
  ?timeout_s:float ->
  config:Config.t ->
  (string * string) array ->
  (aligned, Error.t) result array
(** Align many (query, subject) pairs through the runtime service;
    results in input order, one per pair. Jobs beyond the service's
    admission capacity fail with [Rejected]; [?timeout_s] puts a deadline
    on every job ([Timeout]). Batched score-only jobs hit the
    specialization caches and the pre-generated residual kernels, so a
    batch over few configurations runs substantially faster than a loop
    over {!align}.

    Execution shape, in precedence order: [?service] (its creation-time
    shape wins, [?runtime] is ignored); else [?runtime] (a service of
    that shape is created for this call and shut down after — callers
    with many batches should build one with {!Runtime.service} and pass
    it as [?service] instead of paying domain spawns per call); else the
    shared single-shard {!Service.default}. *)

val align_batch_exn :
  ?service:Service.t ->
  ?runtime:Runtime.t ->
  ?timeout_s:float ->
  config:Config.t ->
  (string * string) array ->
  aligned array
(** Raises {!Error.Error} on the first failed slot. *)

(** {1 Paper-compatible convenience API (§III-C)}

    The [construct_*] C-wrapper analogues of the original AnySeq API, kept
    as one-line wrappers over {!align_exn}. Default scoring is the paper's
    +2/−1 with linear gap −1; pass [~scheme] to change it. *)

val construct_global_alignment :
  ?scheme:Scheme.t -> query:string -> subject:string -> unit -> aligned
(** The paper's [construct_global_alignment] entry point. The [alignment]
    field is always [Some]. *)

val construct_local_alignment :
  ?scheme:Scheme.t -> query:string -> subject:string -> unit -> aligned

val construct_semiglobal_alignment :
  ?scheme:Scheme.t -> query:string -> subject:string -> unit -> aligned

val global_alignment_score : ?scheme:Scheme.t -> query:string -> subject:string -> unit -> int
(** Score-only (linear space). *)

val local_alignment_score : ?scheme:Scheme.t -> query:string -> subject:string -> unit -> int

val semiglobal_alignment_score :
  ?scheme:Scheme.t -> query:string -> subject:string -> unit -> int

val default_scheme : Scheme.t
(** The paper's +2/−1 with linear gap −1 over dna5 —
    [Scheme.wildcard_linear], the same value {!Config.make} defaults to
    (same physical substitution closure, so facade and runtime share cache
    entries). *)

val version : string
