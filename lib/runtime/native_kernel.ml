module Scheme = Anyseq_scoring.Scheme
module Gaps = Anyseq_bio.Gaps
module Seq = Anyseq_bio.Sequence
module Alignment = Anyseq_bio.Alignment
module Cigar = Anyseq_bio.Cigar
module Scratch = Anyseq_core.Scratch
module Engine = Anyseq_core.Engine
module Hirschberg = Anyseq_core.Hirschberg
open Anyseq_core.Types

open Anyseq_core.Row_residual

type t = {
  nk_scheme : Scheme.t;
  nk_mode : mode;
  score : ws:Scratch.t -> query:Seq.t -> subject:Seq.t -> ends;
  align : ws:Scratch.t -> query:Seq.t -> subject:Seq.t -> Alignment.t;
}

(* The kernels below are the full-matrix loop nests around the shared row
   residual ({!Anyseq_core.Row_residual}): they read sequence codes
   straight out of the packed [Seq.t] bytes (no view closure, no
   materialized code array) and pull their DP rows from the workspace
   arena. *)

(* ---------- linear gaps: no E/F state ---------- *)

let lin_corner ~sub ~asize ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let qcodes = Seq.unsafe_codes query and scodes = Seq.unsafe_codes subject in
  let hrow = Scratch.acquire ws (m + 1) in
  for j = 0 to m do
    hrow.(j) <- -(j * ge)
  done;
  for i = 1 to n do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let border = -(i * ge) in
    let hdiag0 = Array.unsafe_get hrow 0 in
    Array.unsafe_set hrow 0 border;
    lin_row sub scodes hrow ge m 1 hdiag0 border qrow
  done;
  let ends = { score = hrow.(m); query_end = n; subject_end = m } in
  Scratch.release ws hrow;
  ends

let lin_all ~sub ~asize ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let qcodes = Seq.unsafe_codes query and scodes = Seq.unsafe_codes subject in
  let hrow = Scratch.acquire ws (m + 1) in
  Array.fill hrow 0 (m + 1) 0;
  (* Borders are all 0 and noted first, so (0, 0, 0) seeds the tracker
     exactly as the generic engine's row-major strictly-greater scan does. *)
  let best_sc = ref 0 and best_i = ref 0 and best_j = ref 0 in
  let row_best = ref 0 and row_best_j = ref 0 in
  for i = 1 to n do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let hdiag0 = Array.unsafe_get hrow 0 in
    Array.unsafe_set hrow 0 0;
    row_best := 0;
    row_best_j := 0;
    lin_row_clamp sub scodes hrow ge m row_best row_best_j 1 hdiag0 0 qrow;
    (* Per-row reduction preserves the row-major first-strictly-greater
       position: within a row the leftmost strict improvement wins. *)
    if !row_best > !best_sc then begin
      best_sc := !row_best;
      best_i := i;
      best_j := !row_best_j
    end
  done;
  Scratch.release ws hrow;
  { score = !best_sc; query_end = !best_i; subject_end = !best_j }

let lin_lastrc ~sub ~asize ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let qcodes = Seq.unsafe_codes query and scodes = Seq.unsafe_codes subject in
  let hrow = Scratch.acquire ws (m + 1) in
  Array.fill hrow 0 (m + 1) 0;
  (* Note order of the generic engine: H(0,m), then H(i,m) for each row
     (H(i,0) when m = 0), then the last row left to right. *)
  let best_sc = ref 0 and best_i = ref 0 and best_j = ref m in
  for i = 1 to n do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let hdiag0 = Array.unsafe_get hrow 0 in
    Array.unsafe_set hrow 0 0;
    lin_row sub scodes hrow ge m 1 hdiag0 0 qrow;
    if hrow.(m) > !best_sc then begin
      best_sc := hrow.(m);
      best_i := i;
      best_j := m
    end
  done;
  for j = 0 to m do
    if hrow.(j) > !best_sc then begin
      best_sc := hrow.(j);
      best_i := n;
      best_j := j
    end
  done;
  Scratch.release ws hrow;
  { score = !best_sc; query_end = !best_i; subject_end = !best_j }

(* ---------- affine gaps: E row + rolling F ---------- *)

let aff_corner ~sub ~asize ~go:gopen ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let qcodes = Seq.unsafe_codes query and scodes = Seq.unsafe_codes subject in
  let hrow = Scratch.acquire ws (m + 1) in
  let erow = Scratch.acquire ws (m + 1) in
  hrow.(0) <- 0;
  for j = 1 to m do
    hrow.(j) <- -(gopen + (j * ge))
  done;
  Array.fill erow 0 (m + 1) neg_inf;
  let goe = gopen + ge in
  for i = 1 to n do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let border = -(gopen + (i * ge)) in
    let hdiag0 = Array.unsafe_get hrow 0 in
    Array.unsafe_set hrow 0 border;
    ignore (aff_row sub scodes hrow erow ge goe m 1 hdiag0 neg_inf border qrow)
  done;
  let ends = { score = hrow.(m); query_end = n; subject_end = m } in
  Scratch.release ws hrow;
  Scratch.release ws erow;
  ends

let aff_all ~sub ~asize ~go:gopen ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let qcodes = Seq.unsafe_codes query and scodes = Seq.unsafe_codes subject in
  let hrow = Scratch.acquire ws (m + 1) in
  let erow = Scratch.acquire ws (m + 1) in
  Array.fill hrow 0 (m + 1) 0;
  Array.fill erow 0 (m + 1) neg_inf;
  let goe = gopen + ge in
  let best_sc = ref 0 and best_i = ref 0 and best_j = ref 0 in
  let row_best = ref 0 and row_best_j = ref 0 in
  for i = 1 to n do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let hdiag0 = Array.unsafe_get hrow 0 in
    Array.unsafe_set hrow 0 0;
    row_best := 0;
    row_best_j := 0;
    ignore
      (aff_row_clamp sub scodes hrow erow ge goe m row_best row_best_j 1 hdiag0 neg_inf 0 qrow);
    if !row_best > !best_sc then begin
      best_sc := !row_best;
      best_i := i;
      best_j := !row_best_j
    end
  done;
  Scratch.release ws hrow;
  Scratch.release ws erow;
  { score = !best_sc; query_end = !best_i; subject_end = !best_j }

let aff_lastrc ~sub ~asize ~go:gopen ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let qcodes = Seq.unsafe_codes query and scodes = Seq.unsafe_codes subject in
  let hrow = Scratch.acquire ws (m + 1) in
  let erow = Scratch.acquire ws (m + 1) in
  Array.fill hrow 0 (m + 1) 0;
  Array.fill erow 0 (m + 1) neg_inf;
  let goe = gopen + ge in
  let best_sc = ref 0 and best_i = ref 0 and best_j = ref m in
  for i = 1 to n do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let hdiag0 = Array.unsafe_get hrow 0 in
    Array.unsafe_set hrow 0 0;
    ignore (aff_row sub scodes hrow erow ge goe m 1 hdiag0 neg_inf 0 qrow);
    if hrow.(m) > !best_sc then begin
      best_sc := hrow.(m);
      best_i := i;
      best_j := m
    end
  done;
  for j = 0 to m do
    if hrow.(j) > !best_sc then begin
      best_sc := hrow.(j);
      best_i := n;
      best_j := j
    end
  done;
  Scratch.release ws hrow;
  Scratch.release ws erow;
  { score = !best_sc; query_end = !best_i; subject_end = !best_j }

(* ---------- certified band for global scores ---------- *)

(* Global score of the paths that stay within [w] diagonals of the main
   one: row i covers columns [max 1 (i − w) .. min m (i + w)], every cell
   outside the band is −∞. The row sweeps are the dense ones run over the
   band's column window, so each band cell gets exactly the dense
   recurrence. Pooled rows come back dirty: column i + w enters the band
   at row i, and its "up" values must read −∞ there, or a stale value from
   an earlier call leaks in and the band can score above the optimum.
   Column 0 holds the true border H(i, 0) while i ≤ w and −∞ after. The
   caller guarantees w ≥ |m − n|, so (n, m) lies in the band.

   Every eighth row the sweep may stop early: any band path crosses row i
   at some band cell, so the row's largest H plus s_max per remaining row
   bounds the band's score from above. Once that bound falls below
   [floor], the sweep returns the bound, which is then below [floor] and
   at least the band's score. The rows are top-level recursions, so a
   call allocates nothing. *)
let rec row_max hrow j hi best =
  if j > hi then best
  else
    let h = Array.unsafe_get hrow j in
    row_max hrow (j + 1) hi (if h > best then h else best)

let rec lin_band_rows sub qcodes scodes asize hrow ge n m w smax floor i =
  if i > n then hrow.(m)
  else begin
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    if i + w <= m then Array.unsafe_set hrow (i + w) neg_inf;
    let lo = if i > w then i - w else 1 in
    let hi = if i + w < m then i + w else m in
    let hdiag = Array.unsafe_get hrow (lo - 1) in
    let hleft = if i <= w then -(i * ge) else neg_inf in
    Array.unsafe_set hrow 0 hleft;
    lin_row sub scodes hrow ge hi lo hdiag hleft qrow;
    let bound = if i land 7 = 0 then row_max hrow lo hi neg_inf + (smax * (n - i)) else floor in
    if bound < floor then bound
    else lin_band_rows sub qcodes scodes asize hrow ge n m w smax floor (i + 1)
  end

let rec aff_band_rows sub qcodes scodes asize hrow erow gopen ge n m w smax floor i =
  if i > n then hrow.(m)
  else begin
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    if i + w <= m then begin
      Array.unsafe_set hrow (i + w) neg_inf;
      Array.unsafe_set erow (i + w) neg_inf
    end;
    let lo = if i > w then i - w else 1 in
    let hi = if i + w < m then i + w else m in
    let hdiag = Array.unsafe_get hrow (lo - 1) in
    let hleft = if i <= w then -(gopen + (i * ge)) else neg_inf in
    Array.unsafe_set hrow 0 hleft;
    ignore (aff_row sub scodes hrow erow ge (gopen + ge) hi lo hdiag neg_inf hleft qrow);
    let bound = if i land 7 = 0 then row_max hrow lo hi neg_inf + (smax * (n - i)) else floor in
    if bound < floor then bound
    else aff_band_rows sub qcodes scodes asize hrow erow gopen ge n m w smax floor (i + 1)
  end

let lin_band ~sub ~asize ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) ~smax ~floor ~w =
  let n = Seq.length query and m = Seq.length subject in
  let hrow = Scratch.acquire ws (m + 1) in
  for j = 0 to min m w do
    hrow.(j) <- -(j * ge)
  done;
  let score =
    lin_band_rows sub (Seq.unsafe_codes query) (Seq.unsafe_codes subject) asize hrow ge n m w
      smax floor 1
  in
  Scratch.release ws hrow;
  score

let aff_band ~sub ~asize ~go:gopen ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) ~smax ~floor ~w
    =
  let n = Seq.length query and m = Seq.length subject in
  let hrow = Scratch.acquire ws (m + 1) in
  let erow = Scratch.acquire ws (m + 1) in
  hrow.(0) <- 0;
  for j = 1 to min m w do
    hrow.(j) <- -(gopen + (j * ge))
  done;
  Array.fill erow 0 (min m w + 1) neg_inf;
  let score =
    aff_band_rows sub (Seq.unsafe_codes query) (Seq.unsafe_codes subject) asize hrow erow gopen
      ge n m w smax floor 1
  in
  Scratch.release ws hrow;
  Scratch.release ws erow;
  score

(* A round whose band holds a quarter of the shorter side's columns or
   more costs too much next to the dense sweep it might still need. *)
let band_wide ~n ~m w = 4 * ((2 * w) + 1) >= min n m

(* U(w): the best score any global path leaving the w-band can reach.
   Such a path gets to diagonal ±(w + 1) and back to m − n, so it has at
   least g = 2(w + 1) − δ gap symbols in at least two runs, and at most
   (n + m − g)/2 aligned pairs (n + m − g is even). DESIGN.md has the
   argument and the admissibility condition. *)
let band_ceiling ~smax ~go ~ge ~n ~m w =
  let g = (2 * (w + 1)) - abs (m - n) in
  (smax * ((n + m - g) / 2)) - (2 * go) - (g * ge)

let dense_global ~affine ~sub ~asize ~go ~ge ~ws ~query ~subject =
  let tally = Scratch.band_tally ws in
  tally.dense <- tally.dense + 1;
  if affine then aff_corner ~sub ~asize ~go ~ge ~ws ~query ~subject
  else lin_corner ~sub ~asize ~ge ~ws ~query ~subject

let band_sweep ~affine ~sub ~asize ~smax ~go ~ge ~ws ~query ~subject ~floor ~w =
  let tally = Scratch.band_tally ws in
  tally.rounds <- tally.rounds + 1;
  if affine then aff_band ~sub ~asize ~go ~ge ~ws ~query ~subject ~smax ~floor ~w
  else lin_band ~sub ~asize ~ge ~ws ~query ~subject ~smax ~floor ~w

let certified ~ws ~n ~m score =
  let tally = Scratch.band_tally ws in
  tally.certified <- tally.certified + 1;
  { score; query_end = n; subject_end = m }

(* The global score: at most two band rounds, each returned only under
   the certificate L(w) ≥ U(w), else the dense corner sweep. Round one
   uses w₀ = max 4 δ. If it fails, each +1 in w lowers U by exactly
   [step] = s_max + 2·Ge, so round two jumps to the smallest w₁ with
   U(w₁) ≤ L(w₀); a wider band scores at least as well, so
   L(w₁) ≥ L(w₀) ≥ U(w₁) and round two always certifies. Round one may
   stop early once its bound drops below U(w_max), w_max the widest band
   that is not wide: the jump from such a score lands past w_max, so the
   job runs dense as it would have after the full sweep. The certificate
   needs s_max ≥ 0 and [step] > 0; other schemes run dense. *)
let band_global ~affine ~sub ~asize ~smax ~go ~ge ~ws ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let step = smax + (2 * ge) in
  let w0 = max 4 (abs (m - n)) in
  if smax < 0 || step <= 0 || band_wide ~n ~m w0 then
    dense_global ~affine ~sub ~asize ~go ~ge ~ws ~query ~subject
  else
    let floor = band_ceiling ~smax ~go ~ge ~n ~m ((min n m - 5) / 8) in
    let l0 = band_sweep ~affine ~sub ~asize ~smax ~go ~ge ~ws ~query ~subject ~floor ~w:w0 in
    let u0 = band_ceiling ~smax ~go ~ge ~n ~m w0 in
    if l0 >= u0 then certified ~ws ~n ~m l0
    else
      let w1 = w0 + ((u0 - l0 + step - 1) / step) in
      if band_wide ~n ~m w1 then dense_global ~affine ~sub ~asize ~go ~ge ~ws ~query ~subject
      else
        certified ~ws ~n ~m
          (band_sweep ~affine ~sub ~asize ~smax ~go ~ge ~ws ~query ~subject ~floor:min_int ~w:w1)

(* ---------- traceback residuals ---------- *)

(* Predecessor byte layout — must match {!Anyseq_core.Dp_full} exactly:
   bits 0-1 H source (0 diag, 1 E, 2 F, 3 start), bit 2 E opened here,
   bit 3 F opened here. *)
let h_diag = 0
let h_e = 1
let h_f = 2
let h_start = 3
let e_open_bit = 4
let f_open_bit = 8

(* Straight-line replica of [Dp_full.fill] + its walk over the flat
   substitution table: same recurrences, same tie rules (>= prefers the
   first operand), same strictly-greater best tracking in the generic
   note order, so scores, coordinates and CIGARs are bit-identical. *)
let full_align ~sub ~asize ~go:gopen ~ge ~ws mode ~(query : Seq.t) ~(subject : Seq.t) =
  let n = Seq.length query and m = Seq.length subject in
  let qcodes = Seq.unsafe_codes query and scodes = Seq.unsafe_codes subject in
  let v = variant_of_mode mode in
  let width = m + 1 in
  let preds = Scratch.acquire_bytes ws ((n + 1) * width) in
  let setp i j b = Bytes.unsafe_set preds ((i * width) + j) (Char.unsafe_chr b) in
  let hrow = Scratch.acquire ws width in
  let erow = Scratch.acquire ws width in
  Array.fill hrow 0 width 0;
  Array.fill erow 0 width neg_inf;
  let best_sc = ref neg_inf and best_i = ref 0 and best_j = ref 0 in
  let note x i j =
    if x > !best_sc then begin
      best_sc := x;
      best_i := i;
      best_j := j
    end
  in
  let goe = gopen + ge in
  setp 0 0 h_start;
  if v.best = All_cells || (v.best = Last_row_col && m = 0) then note 0 0 0;
  for j = 1 to m do
    if v.free_start then begin
      hrow.(j) <- 0;
      setp 0 j h_start
    end
    else begin
      hrow.(j) <- -(gopen + (j * ge));
      setp 0 j (h_f lor (if j = 1 then f_open_bit else 0))
    end;
    if v.best = All_cells || (v.best = Last_row_col && j = m) then note hrow.(j) 0 j
  done;
  for i = 1 to n do
    let qrow = Char.code (Bytes.unsafe_get qcodes (i - 1)) * asize in
    let hdiag = ref hrow.(0) in
    if v.free_start then begin
      hrow.(0) <- 0;
      setp i 0 h_start
    end
    else begin
      hrow.(0) <- -(gopen + (i * ge));
      setp i 0 (h_e lor (if i = 1 then e_open_bit else 0))
    end;
    if v.best = All_cells || (v.best = Last_row_col && m = 0) then note hrow.(0) i 0;
    let f = ref neg_inf in
    for j = 1 to m do
      let sc = Char.code (Bytes.unsafe_get scodes (j - 1)) in
      let e_ext = Array.unsafe_get erow j - ge and e_opn = Array.unsafe_get hrow j - goe in
      let e = if e_ext >= e_opn then e_ext else e_opn in
      let f_ext = !f - ge and f_opn = Array.unsafe_get hrow (j - 1) - goe in
      let fv = if f_ext >= f_opn then f_ext else f_opn in
      let diag = !hdiag + Array.unsafe_get sub (qrow + sc) in
      let best = if diag >= e then diag else e in
      let best = if best >= fv then best else fv in
      let clamped = v.clamp_zero && best < 0 in
      let best = if clamped then 0 else best in
      let src =
        if clamped then h_start
        else if best = diag then h_diag
        else if best = e then h_e
        else h_f
      in
      let b = src in
      let b = if e_opn >= e_ext then b lor e_open_bit else b in
      let b = if f_opn >= f_ext then b lor f_open_bit else b in
      setp i j b;
      hdiag := Array.unsafe_get hrow j;
      Array.unsafe_set hrow j best;
      Array.unsafe_set erow j e;
      f := fv;
      if v.best = All_cells || (v.best = Last_row_col && j = m) then note best i j
    done
  done;
  let ends =
    match v.best with
    | Corner -> { score = hrow.(m); query_end = n; subject_end = m }
    | All_cells -> { score = !best_sc; query_end = !best_i; subject_end = !best_j }
    | Last_row_col ->
        for j = 0 to m do
          note hrow.(j) n j
        done;
        { score = !best_sc; query_end = !best_i; subject_end = !best_j }
  in
  Scratch.release ws hrow;
  Scratch.release ws erow;
  let finish_empty () =
    Scratch.release_bytes ws preds;
    {
      Alignment.score = 0;
      mode;
      query_start = 0;
      query_end = 0;
      subject_start = 0;
      subject_end = 0;
      cigar = Cigar.empty;
    }
  in
  if mode = Local && ends.score = 0 then finish_empty ()
  else begin
    let getp i j = Char.code (Bytes.unsafe_get preds ((i * width) + j)) in
    let c_match = Cigar.op_to_code Cigar.Match
    and c_mismatch = Cigar.op_to_code Cigar.Mismatch
    and c_ins = Cigar.op_to_code Cigar.Ins
    and c_del = Cigar.op_to_code Cigar.Del in
    let ops = Scratch.acquire ws (n + m + 1) in
    let k = ref 0 in
    let push c =
      ops.(!k) <- c;
      incr k
    in
    let rec walk i j state =
      let b = getp i j in
      match state with
      | `M -> (
          match b land 3 with
          | x when x = h_start -> (i, j)
          | x when x = h_diag ->
              let q = Char.code (Bytes.unsafe_get qcodes (i - 1))
              and s = Char.code (Bytes.unsafe_get scodes (j - 1)) in
              push (if q = s then c_match else c_mismatch);
              walk (i - 1) (j - 1) `M
          | x when x = h_e -> walk i j `E
          | _ -> walk i j `F)
      | `E ->
          push c_ins;
          if b land e_open_bit <> 0 then walk (i - 1) j `M else walk (i - 1) j `E
      | `F ->
          push c_del;
          if b land f_open_bit <> 0 then walk i (j - 1) `M else walk i (j - 1) `F
    in
    let qs, ss = walk ends.query_end ends.subject_end `M in
    let cigar = Cigar.of_rev_op_codes ops !k in
    Scratch.release ws ops;
    Scratch.release_bytes ws preds;
    let result =
      {
        Alignment.score = ends.score;
        mode;
        query_start = qs;
        query_end = ends.query_end;
        subject_start = ss;
        subject_end = ends.subject_end;
        cigar;
      }
    in
    if mode = Local then Alignment.trim_boundary_gaps result else result
  end

(* Native forward half-pass for the Myers–Miller recursion: the Gotoh
   corner sweep of the row residual ({!Anyseq_core.Row_residual.aff_row};
   linear gaps are Go = 0), the vertical gap open charged at [tb] along
   column 0, and the E(n,0) boundary fixup — integer-identical to
   {!Anyseq_core.Dp_linear.last_rows}, so the divide-and-conquer takes the
   same joins and emits the same CIGAR. Views (not [Seq.t]) because the
   recursion hands us reversed sub-windows: their subject codes are copied
   once per call into workspace bytes for the sweep. The returned arrays
   are caller-owned (the documented [last_rows] contract), hence
   exact-length and unpooled. *)
let native_last_rows ~sub ~asize ~go:gopen ~ge ~ws ~tb ~(query : Seq.view)
    ~(subject : Seq.view) =
  let n = query.Seq.len and m = subject.Seq.len in
  let hrow = Array.make (m + 1) 0 in
  let erow = Array.make (m + 1) neg_inf in
  for j = 1 to m do
    hrow.(j) <- -(gopen + (j * ge))
  done;
  let scodes = Scratch.acquire_bytes ws m in
  let s_at = subject.Seq.at in
  for j = 0 to m - 1 do
    Bytes.unsafe_set scodes j (Char.unsafe_chr (s_at j))
  done;
  let goe = gopen + ge in
  let q_at = query.Seq.at in
  for i = 1 to n do
    let qrow = q_at (i - 1) * asize in
    let border = -(tb + (i * ge)) in
    let hdiag0 = Array.unsafe_get hrow 0 in
    Array.unsafe_set hrow 0 border;
    ignore (aff_row sub scodes hrow erow ge goe m 1 hdiag0 neg_inf border qrow)
  done;
  Scratch.release_bytes ws scodes;
  erow.(0) <- (if n = 0 then neg_inf else -(tb + (n * ge)));
  (hrow, erow)

let make scheme mode =
  let sub, asize = fold_subst scheme in
  let ge = Gaps.extend_cost scheme.Scheme.gap in
  let gopen = Gaps.open_cost scheme.Scheme.gap in
  let affine = Gaps.is_affine scheme.Scheme.gap in
  let smax = Array.fold_left max min_int sub in
  let score =
    match (mode, affine) with
    | Global, _ ->
        fun ~ws ~query ~subject ->
          band_global ~affine ~sub ~asize ~smax ~go:gopen ~ge ~ws ~query ~subject
    | Local, true ->
        fun ~ws ~query ~subject -> aff_all ~sub ~asize ~go:gopen ~ge ~ws ~query ~subject
    | Semiglobal, true ->
        fun ~ws ~query ~subject -> aff_lastrc ~sub ~asize ~go:gopen ~ge ~ws ~query ~subject
    | Local, false -> fun ~ws ~query ~subject -> lin_all ~sub ~asize ~ge ~ws ~query ~subject
    | Semiglobal, false ->
        fun ~ws ~query ~subject -> lin_lastrc ~sub ~asize ~ge ~ws ~query ~subject
  in
  let align ~ws ~query ~subject =
    (* The same shape dispatch as [Engine.align Auto], with both branches
       running on native residuals: dense predecessor walk for short
       pairs, Hirschberg over the native half-pass for long ones. *)
    let cells = (Seq.length query + 1) * (Seq.length subject + 1) in
    if cells <= Engine.auto_full_matrix_limit then
      full_align ~sub ~asize ~go:gopen ~ge ~ws mode ~query ~subject
    else
      let last_rows : Hirschberg.last_rows_fn =
       fun _scheme ~tb ~query ~subject ->
        native_last_rows ~sub ~asize ~go:gopen ~ge ~ws ~tb ~query ~subject
      in
      Hirschberg.align ~last_rows ~ws scheme mode ~query ~subject
  in
  { nk_scheme = scheme; nk_mode = mode; score; align }

let build scheme mode = Some (make scheme mode)
