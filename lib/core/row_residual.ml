module Alphabet = Anyseq_bio.Alphabet
module Scheme = Anyseq_scoring.Scheme

(* The substitution function folded to a flat asize×asize table; one
   unchecked load replaces a closure call per cell. *)
let fold_subst scheme =
  let asize = Alphabet.size (Scheme.alphabet scheme) in
  let sigma = Scheme.subst_score scheme in
  (Array.init (asize * asize) (fun k -> sigma (k / asize) (k mod asize)), asize)

(* The argument conventions are in the .mli. The sweeps are
   tail-recursive with the rolling cell state in arguments — registers,
   not boxed refs — and live at {e top level}: a fully-applied call to a
   top-level function allocates nothing, where a per-call [let rec]
   closure costs a heap block per invocation, which the minor-words gates
   would see. *)

(* ---------- linear gaps: no E/F state ---------- *)

(* One row of the linear-gap recurrence, columns [j .. m]; shared by the
   Corner and Last_row_col loop nests (their sweeps are identical — only
   borders and the final reduction differ).

   Two micro-architectural choices, both value-preserving:

   - Maxes are branchless: [max a b = a - (d land (d asr 62))] with
     [d = a - b] (sign-mask selection on 63-bit ints; all operands stay
     far inside [min_int/4], so the difference cannot wrap). The cell
     values the DP produces are data-dependent enough that the branching
     form mispredicts heavily in the Last_row_col and clamped sweeps.
   - The three-way max is reassociated as
     [max (max diag (up - ge)) (hleft - ge)]: [diag] and [up] come from
     the previous row, so [x = max diag (up - ge)] is off the
     loop-carried dependency chain and only the final max with
     [hleft - ge] — 5 data-dependent ops per cell instead of 8 — sits on
     it. Max is associative, so the stored values are unchanged.

   The body is unrolled 4x with the rolling state in locals; each cell
   computes exactly the expressions above in the same order as the
   single-step tail, so results stay bit-identical to the generic
   engines cell for cell. *)
let rec lin_row sub scodes hrow ge m j hdiag hleft qrow =
  if j + 3 <= m then begin
    let sc = Char.code (Bytes.unsafe_get scodes (j - 1)) in
    let up0 = Array.unsafe_get hrow j in
    let diag = hdiag + Array.unsafe_get sub (qrow + sc) in
    let a = up0 - ge in
    let dx = diag - a in
    let x = diag - (dx land (dx asr 62)) in
    let c = hleft - ge in
    let e = x - c in
    let b0 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow j b0;
    let sc = Char.code (Bytes.unsafe_get scodes j) in
    let up1 = Array.unsafe_get hrow (j + 1) in
    let diag = up0 + Array.unsafe_get sub (qrow + sc) in
    let a = up1 - ge in
    let dx = diag - a in
    let x = diag - (dx land (dx asr 62)) in
    let c = b0 - ge in
    let e = x - c in
    let b1 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow (j + 1) b1;
    let sc = Char.code (Bytes.unsafe_get scodes (j + 1)) in
    let up2 = Array.unsafe_get hrow (j + 2) in
    let diag = up1 + Array.unsafe_get sub (qrow + sc) in
    let a = up2 - ge in
    let dx = diag - a in
    let x = diag - (dx land (dx asr 62)) in
    let c = b1 - ge in
    let e = x - c in
    let b2 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow (j + 2) b2;
    let sc = Char.code (Bytes.unsafe_get scodes (j + 2)) in
    let up3 = Array.unsafe_get hrow (j + 3) in
    let diag = up2 + Array.unsafe_get sub (qrow + sc) in
    let a = up3 - ge in
    let dx = diag - a in
    let x = diag - (dx land (dx asr 62)) in
    let c = b2 - ge in
    let e = x - c in
    let b3 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow (j + 3) b3;
    lin_row sub scodes hrow ge m (j + 4) up3 b3 qrow
  end
  else if j <= m then begin
    let sc = Char.code (Bytes.unsafe_get scodes (j - 1)) in
    let up = Array.unsafe_get hrow j in
    let diag = hdiag + Array.unsafe_get sub (qrow + sc) in
    let a = up - ge in
    let dx = diag - a in
    let x = diag - (dx land (dx asr 62)) in
    let c = hleft - ge in
    let e = x - c in
    let best = x - (e land (e asr 62)) in
    Array.unsafe_set hrow j best;
    lin_row sub scodes hrow ge m (j + 1) up best qrow
  end

(* The clamped (local) row, tracking the row's leftmost strict best. *)
let rec lin_row_clamp sub scodes hrow ge m row_best row_best_j j hdiag hleft qrow =
  if j + 3 <= m then begin
    let sc = Char.code (Bytes.unsafe_get scodes (j - 1)) in
    let up0 = Array.unsafe_get hrow j in
    let diag = hdiag + Array.unsafe_get sub (qrow + sc) in
    let dz = diag - (diag land (diag asr 62)) in
    let a = up0 - ge in
    let dx = dz - a in
    let x = dz - (dx land (dx asr 62)) in
    let c = hleft - ge in
    let e = x - c in
    let v0 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow j v0;
    if v0 > !row_best then begin
      row_best := v0;
      row_best_j := j
    end;
    let sc = Char.code (Bytes.unsafe_get scodes j) in
    let up1 = Array.unsafe_get hrow (j + 1) in
    let diag = up0 + Array.unsafe_get sub (qrow + sc) in
    let dz = diag - (diag land (diag asr 62)) in
    let a = up1 - ge in
    let dx = dz - a in
    let x = dz - (dx land (dx asr 62)) in
    let c = v0 - ge in
    let e = x - c in
    let v1 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow (j + 1) v1;
    if v1 > !row_best then begin
      row_best := v1;
      row_best_j := (j + 1)
    end;
    let sc = Char.code (Bytes.unsafe_get scodes (j + 1)) in
    let up2 = Array.unsafe_get hrow (j + 2) in
    let diag = up1 + Array.unsafe_get sub (qrow + sc) in
    let dz = diag - (diag land (diag asr 62)) in
    let a = up2 - ge in
    let dx = dz - a in
    let x = dz - (dx land (dx asr 62)) in
    let c = v1 - ge in
    let e = x - c in
    let v2 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow (j + 2) v2;
    if v2 > !row_best then begin
      row_best := v2;
      row_best_j := (j + 2)
    end;
    let sc = Char.code (Bytes.unsafe_get scodes (j + 2)) in
    let up3 = Array.unsafe_get hrow (j + 3) in
    let diag = up2 + Array.unsafe_get sub (qrow + sc) in
    let dz = diag - (diag land (diag asr 62)) in
    let a = up3 - ge in
    let dx = dz - a in
    let x = dz - (dx land (dx asr 62)) in
    let c = v2 - ge in
    let e = x - c in
    let v3 = x - (e land (e asr 62)) in
    Array.unsafe_set hrow (j + 3) v3;
    if v3 > !row_best then begin
      row_best := v3;
      row_best_j := (j + 3)
    end;
    lin_row_clamp sub scodes hrow ge m row_best row_best_j (j + 4) up3 v3 qrow
  end
  else if j <= m then begin
    let sc = Char.code (Bytes.unsafe_get scodes (j - 1)) in
    let up = Array.unsafe_get hrow j in
    let diag = hdiag + Array.unsafe_get sub (qrow + sc) in
    let dz = diag - (diag land (diag asr 62)) in
    let a = up - ge in
    let dx = dz - a in
    let x = dz - (dx land (dx asr 62)) in
    let c = hleft - ge in
    let e = x - c in
    let v = x - (e land (e asr 62)) in
    Array.unsafe_set hrow j v;
    if v > !row_best then begin
      row_best := v;
      row_best_j := j
    end;
    lin_row_clamp sub scodes hrow ge m row_best row_best_j (j + 1) up v qrow
  end

(* ---------- affine gaps: E row + rolling F ---------- *)

(* One row of the Gotoh recurrence, columns [j .. m]; shared by the
   Corner and Last_row_col loop nests. Returns F at column [m], which a
   tile stores as its right border. *)
let rec aff_row sub scodes hrow erow ge goe m j hdiag f hleft qrow =
  if j <= m then begin
    let sc = Char.code (Bytes.unsafe_get scodes (j - 1)) in
    let hj = Array.unsafe_get hrow j in
    let e_ext = Array.unsafe_get erow j - ge and e_opn = hj - goe in
    let de = e_ext - e_opn in
    let e = e_ext - (de land (de asr 62)) in
    let f_ext = f - ge and f_opn = hleft - goe in
    let df = f_ext - f_opn in
    let fv = f_ext - (df land (df asr 62)) in
    let diag = hdiag + Array.unsafe_get sub (qrow + sc) in
    let d1 = diag - e in
    let best = diag - (d1 land (d1 asr 62)) in
    let d2 = best - fv in
    let best = best - (d2 land (d2 asr 62)) in
    Array.unsafe_set hrow j best;
    Array.unsafe_set erow j e;
    aff_row sub scodes hrow erow ge goe m (j + 1) hj fv best qrow
  end
  else f

(* The clamped (local) row, tracking the row's leftmost strict best. *)
let rec aff_row_clamp sub scodes hrow erow ge goe m row_best row_best_j j hdiag f hleft qrow =
  if j <= m then begin
    let sc = Char.code (Bytes.unsafe_get scodes (j - 1)) in
    let hj = Array.unsafe_get hrow j in
    let e_ext = Array.unsafe_get erow j - ge and e_opn = hj - goe in
    let de = e_ext - e_opn in
    let e = e_ext - (de land (de asr 62)) in
    let f_ext = f - ge and f_opn = hleft - goe in
    let df = f_ext - f_opn in
    let fv = f_ext - (df land (df asr 62)) in
    let diag = hdiag + Array.unsafe_get sub (qrow + sc) in
    let d1 = diag - e in
    let best = diag - (d1 land (d1 asr 62)) in
    let d2 = best - fv in
    let best = best - (d2 land (d2 asr 62)) in
    let best = best - (best land (best asr 62)) in
    Array.unsafe_set hrow j best;
    Array.unsafe_set erow j e;
    if best > !row_best then begin
      row_best := best;
      row_best_j := j
    end;
    aff_row_clamp sub scodes hrow erow ge goe m row_best row_best_j (j + 1) hj fv best qrow
  end
  else f
