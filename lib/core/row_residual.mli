(** The native row residual: one specialized relaxation of a DP row, run
    unchanged under every loop nest that needs it (§III–IV: the mapping
    composes the loop nest, the relaxation stays the same).

    [Anyseq_runtime.Native_kernel]'s full-matrix kernels call these sweeps
    once per matrix row; {!Tiling.compute_tile} calls them once per row of
    a tile, over the tile's absolute columns. Each sweep is a straight-line,
    branch-free residual of one (gap model × clamp) point: linear gaps drop
    the E/F recurrences, the substitution function is a flat table from
    {!fold_subst}, and sequence codes are read from packed bytes. Results are
    bit-identical, cell for cell, to {!Dp_linear}'s generic sweep.

    Common arguments: [sub] and the row offset [qrow] (query code × alphabet
    size) index the folded table; [scodes] holds the subject codes, column
    [j] reading byte [j − 1]; [hrow] (and [erow]) hold row i − 1 at entry
    and row i at return, over columns [j .. m] only; [hdiag] is H(i−1, j−1),
    [hleft] is H(i, j−1) and [f] is F(i, j−1). [ge] is the gap extension
    magnitude and [goe] open + extension. Column [j − 1] is neither read nor
    written. *)

val fold_subst : Anyseq_scoring.Scheme.t -> int array * int
(** [(table, asize)]: the scheme's substitution score of codes [(a, b)] at
    [table.(a * asize + b)]. *)

val lin_row :
  int array -> bytes -> int array -> int -> int -> int -> int -> int -> int -> unit
(** [lin_row sub scodes hrow ge m j hdiag hleft qrow]: the linear-gap row,
    unclamped (global and semi-global). *)

val lin_row_clamp :
  int array ->
  bytes ->
  int array ->
  int ->
  int ->
  int ref ->
  int ref ->
  int ->
  int ->
  int ->
  int ->
  unit
(** [lin_row_clamp sub scodes hrow ge m row_best row_best_j j hdiag hleft
    qrow]: the local (clamped at 0) linear-gap row. Every cell strictly
    greater than [!row_best] becomes the new [row_best]/[row_best_j], so on
    return they hold the row's leftmost maximum if it beats the initial
    value. *)

val aff_row :
  int array ->
  bytes ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int
(** [aff_row sub scodes hrow erow ge goe m j hdiag f hleft qrow]: the Gotoh
    row, unclamped. Returns F(i, m) (or [f] when [j > m]). *)

val aff_row_clamp :
  int array ->
  bytes ->
  int array ->
  int array ->
  int ->
  int ->
  int ->
  int ref ->
  int ref ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int
(** [aff_row_clamp sub scodes hrow erow ge goe m row_best row_best_j j hdiag
    f hleft qrow]: the local Gotoh row, tracking the row's best as
    {!lin_row_clamp} does. Returns F(i, m). *)
