(** Tiled (submatrix) decomposition of the DP — the unit of parallel work
    (Fig. 2).

    The matrix is cut into [tile × tile] submatrices. Only border stripes
    are stored between tiles: every T-th row of H and E (tiles below need H
    for all three recurrences and E to continue vertical gaps across the
    boundary) and every T-th column of H and F. A tile [(ti, tj)] may be
    relaxed as soon as tiles [(ti−1, tj)] and [(ti, tj−1)] are done, which
    is exactly the dependency structure the wavefront schedulers exploit;
    [compute_tile] is safe to call concurrently for independent tiles
    because each writes disjoint border segments and its own best-slot.

    Every tile runs the native row residual ({!Row_residual}), the same
    sweeps the full-matrix native kernels run: [create] folds the scheme's
    substitution function into a flat table and packs both sequences'
    codes into bytes once per plan, so the relaxation a tile runs is fixed
    by the plan's scheme and mode. *)

type plan

val create :
  Anyseq_scoring.Scheme.t ->
  Types.mode ->
  tile:int ->
  query:Anyseq_bio.Sequence.view ->
  subject:Anyseq_bio.Sequence.view ->
  plan

val tile_rows : plan -> int
(** Number of tile rows (≥ 1 even for empty sequences). *)

val tile_cols : plan -> int

val compute_tile : plan -> ti:int -> tj:int -> unit
(** Relax one submatrix: one row-residual sweep per tile row over the
    tile's absolute columns, under a loop nest chosen by the mode's best
    rule. The tile is relaxed in place in its bottom border stripe (the
    top border is copied there first), so a warmed plan allocates nothing
    per tile. Linear gaps leave the E and F stripes untouched (neg_inf),
    which yields the same H because Go = 0. Requires its up/left
    neighbours to be complete; callers (sequential loop or wavefront
    scheduler) enforce the order. *)

val finish : plan -> Types.ends
(** Combine borders and per-tile bests into the final result. Call after
    every tile has been computed. Ends are those of
    {!Dp_linear.score_only}: the highest score wins, and among equal
    scores the cell that the reference notes first — row-major for local
    mode; for semi-global H(0,m), then the last column by row, then the
    last row by column. Each tile ranks its own cells the same way. *)

val run_sequential : plan -> Types.ends
(** Relax all tiles in anti-diagonal order on the calling thread. *)

val score_only :
  Anyseq_scoring.Scheme.t ->
  Types.mode ->
  tile:int ->
  query:Anyseq_bio.Sequence.view ->
  subject:Anyseq_bio.Sequence.view ->
  Types.ends
(** Convenience: [create] + [run_sequential]. *)

(** {1 Raw access for specialized tile kernels}

    The SIMD blocked kernel (lib/simd) relaxes several independent tiles of
    one plan in lockstep; it needs the same border stripes [compute_tile]
    uses. Mutating these arrays outside the tile-dependency discipline is
    undefined behaviour. *)

type raw = {
  r_scheme : Anyseq_scoring.Scheme.t;
  r_variant : Types.variant;
  r_tile : int;
  r_query : Anyseq_bio.Sequence.view;
  r_subject : Anyseq_bio.Sequence.view;
  r_h_rows : int array array;  (** r_h_rows.(ti).(j) = H(ti·tile, j) *)
  r_e_rows : int array array;
  r_h_cols : int array array;  (** r_h_cols.(tj).(i) = H(i, tj·tile) *)
  r_f_cols : int array array;
}

val raw : plan -> raw

val tile_span : plan -> ti:int -> tj:int -> int * int * int * int
(** [(i0, i1, j0, j1)]: the tile covers DP rows (i0, i1] and columns
    (j0, j1]. *)

val set_best : plan -> ti:int -> tj:int -> Types.ends -> unit
(** Record a tile's local optimum (kernels other than [compute_tile] must
    report through this for [finish] to see their cells). *)
