(** Pre-generated residual kernels — the runtime counterpart of the
    residuals AnySeq's partial evaluator emits as native code.

    {!Anyseq_core.Staged_kernel.specialize} produces a residual as a tree of
    closures, which re-enters the OCaml runtime on every relaxation; without
    a JIT that costs two orders of magnitude over the generic engine. This
    module holds the same residuals written out as straight-line OCaml —
    one per (gap model × best rule) point of the configuration space, with
    the substitution function folded into a flat lookup table at build time
    — so the specialization cache can serve a kernel with {e zero} per-cell
    configuration dispatch. The row sweeps themselves live in
    {!Anyseq_core.Row_residual}, shared with the wavefront tiles
    ({!Anyseq_core.Tiling.compute_tile}) and with the Hirschberg half-pass
    here; this module holds the loop nests around them and the traceback
    residuals:

    - linear gaps drop the E/F recurrences entirely (E(i,j) = H(i−1,j) − Ge
      when Go = 0), roughly halving the per-cell work of the generic
      affine-shaped loop;
    - local/semi-global best tracking is inlined instead of the generic
      engine's per-cell tracker closure (the dominant cost of those modes);
    - sequence codes are read straight from the packed byte buffers (no
      view closure per cell) and every DP row, predecessor strip and
      traceback op buffer comes from the caller's workspace arena, so a
      warmed batch runs with ~zero minor allocations per alignment.

    [score] results are bit-identical to {!Anyseq_core.Dp_linear.score_only}
    — same note order, same strictly-greater tie rule. A [Global] score
    first runs a band: the sweeps over the columns within w diagonals of
    the main one, w₀ = max 4 |m − n|. It returns the band's score L(w)
    only when L(w) ≥ U(w), the best score any path leaving the band can
    reach, which proves L(w) optimal. A failed first round jumps once to
    the smallest w whose U lies at or below L(w₀), and that round always
    certifies. Bands holding a quarter of the shorter side or more, and
    schemes whose best substitution is negative or for which U does not
    fall as w grows (s_max + 2·Ge ≤ 0), run the dense sweep instead. Each
    call records how it ended in the workspace's
    {!Anyseq_core.Scratch.band_tally}. Local and semi-global scores, and
    every [align], run dense. [align] replicates
    {!Anyseq_core.Engine.align}'s [Auto] dispatch with native residuals on
    both branches: a straight-line {!Anyseq_core.Dp_full} replica (same
    predecessor-byte layout and tie rules) under the dense-matrix limit,
    and {!Anyseq_core.Hirschberg} driven by a native forward half-pass
    above it — so scores, coordinates {e and} CIGARs match the generic
    engines exactly, which the test suite enforces. The batch executor runs
    every scalar job, score and traceback, on these residuals; the generic
    engines are their test oracles. *)

type t = {
  nk_scheme : Anyseq_scoring.Scheme.t;
  nk_mode : Anyseq_core.Types.mode;
  score :
    ws:Anyseq_core.Scratch.t ->
    query:Anyseq_bio.Sequence.t ->
    subject:Anyseq_bio.Sequence.t ->
    Anyseq_core.Types.ends;
  align :
    ws:Anyseq_core.Scratch.t ->
    query:Anyseq_bio.Sequence.t ->
    subject:Anyseq_bio.Sequence.t ->
    Anyseq_bio.Alignment.t;
}
(** [ws] is required, not optional: the residuals exist to run inside a
    workspace; one-shot callers pass a fresh {!Anyseq_core.Scratch.create}
    or bracket with {!Workspace.with_ws}. *)

val make : Anyseq_scoring.Scheme.t -> Anyseq_core.Types.mode -> t
(** Fold a configuration into its straight-line residuals. Total: every
    scheme admits a lookup-table fold and both gap models have a
    residual, so the specialization cache holds one for every entry. *)

val build : Anyseq_scoring.Scheme.t -> Anyseq_core.Types.mode -> t option
(** [Some (make scheme mode)]: the earlier, optional signature of {!make},
    still called by the ledger's [reads] workload. *)
