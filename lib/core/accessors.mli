(** The best-cell accessor (§III-C): the paper's [Scores] update tracking,
    which the generic engines ({!Dp_linear}, {!Dp_full}, {!Ends_free},
    {!Staged_kernel}) call once per noted cell.

    The §III-B memory layouts are not views here: the border stripe is
    updated in place by the row residual ({!Row_residual}, under
    {!Tiling}'s loop nest), and the GPU's coalesced versus strided border
    layout is the [layout] parameter of [Anyseq_gpusim.Align_kernel]. *)

type best_tracker = {
  note : int -> int -> int -> unit;  (** [note score i j] *)
  current : unit -> Types.ends;
}

val max_tracker : unit -> best_tracker
(** Keeps the running maximum and its position (strictly-greater updates,
    so earlier cells win ties). *)
