(** Banded global alignment.

    When two sequences are known to be similar (the long-genome pairs of
    Table I diverge by a few percent), restricting the DP to a diagonal band
    of half-width [band] turns O(nm) into O((n+m)·band). Cells outside the
    band are treated as −∞, so the result is the best score of the paths
    inside the band: a lower bound of the optimum, and equal to it when an
    optimal path stays inside. This module does not check that; with
    [band >= max(n,m)] it always holds, which is how the test suite
    cross-checks this engine against the oracle. The batch service's
    global score jobs take the native band of
    [Anyseq_runtime.Native_kernel] instead, which proves at run time that
    its band score is optimal and otherwise runs the dense sweep. *)

val min_band : query_len:int -> subject_len:int -> int
(** Smallest admissible half-width: the band must contain both (0,0) and
    (n,m), i.e. at least |n − m|. *)

val score_only :
  ?ws:Scratch.t ->
  Anyseq_scoring.Scheme.t ->
  band:int ->
  query:Anyseq_bio.Sequence.view ->
  subject:Anyseq_bio.Sequence.view ->
  Types.ends
(** Global score within the band; [?ws] pools the four band strips.
    Raises [Invalid_argument] when [band < min_band]. *)

val align :
  ?ws:Scratch.t ->
  Anyseq_scoring.Scheme.t ->
  band:int ->
  query:Anyseq_bio.Sequence.t ->
  subject:Anyseq_bio.Sequence.t ->
  Anyseq_bio.Alignment.t
(** Global alignment with traceback, O((n+1)·(2·band+1)) space; [?ws]
    pools the per-row strips and the traceback op buffer. *)

val cells : band:int -> query_len:int -> subject_len:int -> int
(** Number of DP cells actually relaxed — for banded GCUPS accounting. *)
