module Scheme = Anyseq_scoring.Scheme
module Gaps = Anyseq_bio.Gaps
module Sequence = Anyseq_bio.Sequence
open Types
open Row_residual

type plan = {
  scheme : Scheme.t;
  variant : variant;
  query : Sequence.view;
  subject : Sequence.view;
  tile : int;
  nti : int;
  ntj : int;
  (* The tile relaxation's operands, fixed per plan: the folded
     substitution table, both sequences' codes as packed bytes, and the
     gap costs. *)
  sub : int array;
  asize : int;
  qcodes : Bytes.t;
  scodes : Bytes.t;
  affine : bool;
  ge : int;
  goe : int;
  (* Border stripes: h_rows.(ti) is row i = ti·tile of H (length m+1);
     e_rows the matching E row; h_cols.(tj)/f_cols.(tj) the column
     j = tj·tile of H and F (length n+1). *)
  h_rows : int array array;
  e_rows : int array array;
  h_cols : int array array;
  f_cols : int array array;
  (* The local sweeps' row-best cells, one pair per tile column: two tiles
     of one column never run at once. *)
  row_best : int ref array;
  row_best_j : int ref array;
  (* Per-tile best cell, slot ti·ntj + tj, written by its owner only. *)
  best_score : int array;
  best_i : int array;
  best_j : int array;
}

let tile_rows p = p.nti
let tile_cols p = p.ntj

let codes (v : Sequence.view) =
  Bytes.init v.Sequence.len (fun k -> Char.unsafe_chr (v.Sequence.at k))

let create scheme mode ~tile ~query ~subject =
  if tile <= 0 then invalid_arg "Tiling.create: tile size must be positive";
  let n = query.Sequence.len and m = subject.Sequence.len in
  let v = variant_of_mode mode in
  let go = Gaps.open_cost scheme.Scheme.gap and ge = Gaps.extend_cost scheme.Scheme.gap in
  let nti = max 1 ((n + tile - 1) / tile) in
  let ntj = max 1 ((m + tile - 1) / tile) in
  let h_rows = Array.init (nti + 1) (fun _ -> Array.make (m + 1) neg_inf) in
  let e_rows = Array.init (nti + 1) (fun _ -> Array.make (m + 1) neg_inf) in
  let h_cols = Array.init (ntj + 1) (fun _ -> Array.make (n + 1) neg_inf) in
  let f_cols = Array.init (ntj + 1) (fun _ -> Array.make (n + 1) neg_inf) in
  (* Row 0 and column 0 of the DP matrix. *)
  for j = 0 to m do
    h_rows.(0).(j) <- (if v.free_start || j = 0 then 0 else -(go + (j * ge)))
  done;
  for i = 0 to n do
    h_cols.(0).(i) <- (if v.free_start || i = 0 then 0 else -(go + (i * ge)))
  done;
  let sub, asize = fold_subst scheme in
  {
    scheme;
    variant = v;
    query;
    subject;
    tile;
    nti;
    ntj;
    sub;
    asize;
    qcodes = codes query;
    scodes = codes subject;
    affine = Gaps.is_affine scheme.Scheme.gap;
    ge;
    goe = go + ge;
    h_rows;
    e_rows;
    h_cols;
    f_cols;
    row_best = Array.init ntj (fun _ -> ref 0);
    row_best_j = Array.init ntj (fun _ -> ref 0);
    best_score = Array.make (nti * ntj) neg_inf;
    best_i = Array.make (nti * ntj) 0;
    best_j = Array.make (nti * ntj) 0;
  }

(* Where the reference ({!Dp_linear}) notes cell (i, j): row-major over
   the whole matrix for All_cells; for Last_row_col H(0,m), then H(i,m) by
   i, then the last row by j. Among equal scores the lowest rank wins. *)
let rank p i j =
  let n = p.query.Sequence.len and m = p.subject.Sequence.len in
  match p.variant.best with
  | Last_row_col -> if j = m then i else n + 1 + j
  | Corner | All_cells -> (i * (m + 1)) + j

let note p slot score i j =
  let b = p.best_score.(slot) in
  if score > b || (score = b && rank p i j < rank p p.best_i.(slot) p.best_j.(slot)) then begin
    p.best_score.(slot) <- score;
    p.best_i.(slot) <- i;
    p.best_j.(slot) <- j
  end

let compute_tile p ~ti ~tj =
  let { sub; asize; qcodes; scodes; affine; ge; goe; _ } = p in
  let n = p.query.Sequence.len and m = p.subject.Sequence.len in
  let i0 = ti * p.tile and j0 = tj * p.tile in
  let i1 = min n (i0 + p.tile) and j1 = min m (j0 + p.tile) in
  let top_h = p.h_rows.(ti) and top_e = p.e_rows.(ti) in
  let left_h = p.h_cols.(tj) and left_f = p.f_cols.(tj) in
  let right_h = p.h_cols.(tj + 1) and right_f = p.f_cols.(tj + 1) in
  (* The tile is relaxed in place in its bottom border stripe, which holds
     row i1 once the last row is done. Column j0 belongs to the left
     neighbour (it writes H(·, j0) as its own last column): the sweeps
     take H(i, j0) as an argument and never touch it, except that a tj = 0
     tile owns column 0 and writes H(i, 0) itself. Linear gaps need no E
     or F, so their stripes stay neg_inf, which gives the same H when
     Go = 0. *)
  let hrow = p.h_rows.(ti + 1) and erow = p.e_rows.(ti + 1) in
  let c0 = if tj = 0 then 0 else j0 + 1 in
  Array.blit top_h c0 hrow c0 (j1 + 1 - c0);
  if affine then Array.blit top_e (j0 + 1) erow (j0 + 1) (j1 - j0);
  let slot = (ti * p.ntj) + tj in
  p.best_score.(slot) <- neg_inf;
  p.best_i.(slot) <- 0;
  p.best_j.(slot) <- 0;
  let row_best = p.row_best.(tj) and row_best_j = p.row_best_j.(tj) in
  let clamp = p.variant.clamp_zero and last_rc = p.variant.best = Last_row_col in
  let hdiag = ref top_h.(j0) in
  for i = i0 + 1 to i1 do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let hleft = left_h.(i) in
    if tj = 0 then hrow.(0) <- hleft;
    (if clamp then begin
       row_best := p.best_score.(slot);
       row_best_j := 0;
       (if affine then
          right_f.(i) <-
            aff_row_clamp sub scodes hrow erow ge goe j1 row_best row_best_j (j0 + 1) !hdiag
              left_f.(i) hleft qrow
        else lin_row_clamp sub scodes hrow ge j1 row_best row_best_j (j0 + 1) !hdiag hleft qrow);
       (* Rows run top-down, so the leftmost strict improvement of a later
          row never ties an earlier one. *)
       if !row_best > p.best_score.(slot) then note p slot !row_best i !row_best_j
     end
     else if affine then
       right_f.(i) <- aff_row sub scodes hrow erow ge goe j1 (j0 + 1) !hdiag left_f.(i) hleft qrow
     else lin_row sub scodes hrow ge j1 (j0 + 1) !hdiag hleft qrow);
    right_h.(i) <- hrow.(j1);
    if last_rc && j1 = m then note p slot hrow.(m) i m;
    hdiag := hleft
  done;
  if last_rc && i1 = n && i1 > i0 then
    for j = j0 + 1 to j1 do
      note p slot hrow.(j) n j
    done

let finish p =
  let n = p.query.Sequence.len and m = p.subject.Sequence.len in
  match p.variant.best with
  | Corner ->
      (* The bottom-right tile left H(n, ·) in h_rows.(nti). *)
      { score = p.h_rows.(p.nti).(m); query_end = n; subject_end = m }
  | All_cells | Last_row_col ->
      (* Cells on row 0 and column 0 belong to no tile. Every candidate is
         ranked as the reference notes it, so ties resolve as there. *)
      let bs = ref neg_inf and bi = ref 0 and bj = ref 0 in
      let consider score i j =
        if score > !bs || (score = !bs && rank p i j < rank p !bi !bj) then begin
          bs := score;
          bi := i;
          bj := j
        end
      in
      if p.variant.best = All_cells then begin
        for j = 0 to m do
          consider p.h_rows.(0).(j) 0 j
        done;
        for i = 1 to n do
          consider p.h_cols.(0).(i) i 0
        done
      end
      else begin
        for j = 0 to m do
          if j = m || n = 0 then consider p.h_rows.(0).(j) 0 j
        done;
        for i = 1 to n do
          if i = n || m = 0 then consider p.h_cols.(0).(i) i 0
        done
      end;
      Array.iteri (fun slot score -> consider score p.best_i.(slot) p.best_j.(slot)) p.best_score;
      { score = !bs; query_end = !bi; subject_end = !bj }

let run_sequential p =
  (* Anti-diagonal tile order respects both dependencies. *)
  Anyseq_staged.Gen.diagonal2 0 p.nti 0 p.ntj (fun ti tj -> compute_tile p ~ti ~tj);
  finish p

let score_only scheme mode ~tile ~query ~subject =
  run_sequential (create scheme mode ~tile ~query ~subject)

type raw = {
  r_scheme : Scheme.t;
  r_variant : variant;
  r_tile : int;
  r_query : Sequence.view;
  r_subject : Sequence.view;
  r_h_rows : int array array;
  r_e_rows : int array array;
  r_h_cols : int array array;
  r_f_cols : int array array;
}

let raw p =
  {
    r_scheme = p.scheme;
    r_variant = p.variant;
    r_tile = p.tile;
    r_query = p.query;
    r_subject = p.subject;
    r_h_rows = p.h_rows;
    r_e_rows = p.e_rows;
    r_h_cols = p.h_cols;
    r_f_cols = p.f_cols;
  }

let tile_span p ~ti ~tj =
  let n = p.query.Sequence.len and m = p.subject.Sequence.len in
  let i0 = ti * p.tile and j0 = tj * p.tile in
  (i0, min n (i0 + p.tile), j0, min m (j0 + p.tile))

let set_best p ~ti ~tj (e : ends) =
  let slot = (ti * p.ntj) + tj in
  p.best_score.(slot) <- e.score;
  p.best_i.(slot) <- e.query_end;
  p.best_j.(slot) <- e.subject_end
