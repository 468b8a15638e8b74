(** The all-vs-all similarity-network pipeline: FASTA in, clustered edge
    list out — the EFITools workload (blast → filterblast → cluster) on
    the anyseq runtime.

    Three phases, streamed and overlapped:

    + {b Index} ([network.index] span): fold the FASTA input one record
      at a time ({!Anyseq_seqio.Fasta.fold} — the file is never held in
      memory), sketch each sequence ({!Minimizer}), and stream it into
      the inverted {!Index}. Adding a sequence reports its candidate
      partners among the sequences already indexed, so candidate pairs
      flow out while the input is still being read.
    + {b Align} ([network.align] spans): candidate pairs are batched
      through {!Anyseq_runtime.Service.submit_seqs}/[await] as score-only
      jobs — up to two tickets kept in flight so worker shards stay busy
      while results are filtered. [Rejected] slots (admission
      backpressure) are resubmitted with the next batch; [Timeout] slots
      are counted and dropped. Hits passing the score and
      normalized-identity cutoffs enter both endpoints' bounded {!Topk}
      heaps, so memory for hits is O(n·top_k) however many pairs align.
    + {b Cluster} ([network.cluster] span): the surviving heap contents
      drain through the {!Edges} spill writer into the output TSV, and
      every merged edge feeds the {!Components} union-find; the report
      carries the cluster summary.

    Determinism: sketches, candidate order, admission order and scores
    are all independent of the shard count, and the top-k order is a
    strict total order — the same input produces a byte-identical edge
    list at [--shards 1] and [--shards 8], which the tier-1 network gate
    enforces.

    Progress is published to the {!Anyseq_runtime.Metrics} registry
    ([network/*] counters and the phase gauge) as the pipeline runs;
    {!status_json} renders the snapshot the admin endpoint and
    [anyseq top] consume. *)

type params = {
  k : int;  (** minimizer k-mer length *)
  w : int;  (** minimizer window *)
  min_shared : int;
      (** candidate threshold: shared minimizers required to align a
          pair; [<= 0] disables the prefilter (brute-force reference) *)
  min_score : int;  (** edge cutoff on the raw alignment score *)
  min_ident : float;  (** edge cutoff on normalized identity, [0..1] *)
  top_k : int;  (** best hits kept per sequence *)
  scheme : Anyseq_scoring.Scheme.t;
  mode : Anyseq_core.Types.mode;
  timeout_s : float option;  (** per-pair alignment deadline *)
  batch_size : int;  (** pairs per service submission *)
  edge_buffer : int;  (** edges buffered before a sorted spill run *)
  cutoff : bool;
      (** convert each pair's score thresholds — [min_score], the
          identity floor, and the current top-k floors of both endpoints
          — into a banded-Myers edit-distance cap via the scheme's
          [Unit_cost] certificate ({!Anyseq_analysis.Property.distance_cap}),
          so hopeless pairs abandon after a few columns. Conservative by
          construction: the edge list is byte-identical with the flag on
          or off (the band gate proves it). No effect on schemes without
          the certificate. *)
}

val default_params : params
(** [k]/[w] from {!Minimizer}, [min_shared] 4, [min_score] [min_int]
    (identity cutoff governs), [min_ident] 0.5, [top_k] 50, unit-cost
    global scoring (rides the certified Myers bit-parallel tier),
    no deadline, batches of 512, 65536-edge spill buffer, [cutoff] on. *)

type source =
  | File of string  (** FASTA path, streamed via {!Anyseq_seqio.Fasta.fold} *)
  | Seqs of (string * Anyseq_bio.Sequence.t) array
      (** in-memory records (tests, bench) *)

type report = {
  sequences : int;
  too_short : int;  (** sequences shorter than [k]: empty sketch, never candidates *)
  pairs_total : int;  (** n·(n−1)/2 *)
  pairs_pruned : int;  (** pairs the prefilter never aligned *)
  pairs_aligned : int;  (** pairs answered [Ok] by the service *)
  pairs_cutoff : int;
      (** pairs the banded kernel resolved by proving their distance cap
          — hence every edge threshold — unreachable (no exact score) *)
  pairs_timeout : int;
  pairs_failed : int;  (** non-timeout alignment errors (should be 0) *)
  resubmits : int;  (** slots re-queued after [Rejected] backpressure *)
  evictions : int;  (** top-k heap evictions *)
  edges : int;  (** edges in the output TSV *)
  edge_duplicates : int;  (** hits recorded from both endpoints, merged away *)
  spilled_runs : int;
  components : Components.summary;
  index_postings : int;
  elapsed_s : float;
  pairs_per_s : float;
      (** pairs resolved (aligned + cutoff) per second of alignment-phase
          time *)
}

val run :
  ?service:Anyseq_runtime.Service.t ->
  ?metrics:Anyseq_runtime.Metrics.t ->
  ?tmp_dir:string ->
  out:string ->
  params ->
  source ->
  (report, string) result
(** Run the pipeline, writing the edge TSV to [out]. [?service] defaults
    to a private single-shard service (callers wanting shards build one
    and pass it); [?metrics] defaults to the service's registry;
    [?tmp_dir] (spill runs) to the system temp directory. Errors are
    input-level: unreadable FASTA, bad record, unwritable output, or a
    corrupt spill run ({!Edges.finish}). *)

val status_json : Anyseq_runtime.Metrics.t -> Anyseq_util.Jsonv.t option
(** Progress snapshot as one {!Anyseq_util.Jsonv} object ([phase], [seqs_indexed],
    [pairs_total], [pairs_pruned], [pairs_aligned], [pairs_cutoff],
    [pairs_dispatched],
    [edges_written], [topk_evictions], [components]) — [None] until a
    pipeline has registered its counters in this registry. Mounted under
    the [network] member of [/statusz] and rendered by [anyseq top]. *)
