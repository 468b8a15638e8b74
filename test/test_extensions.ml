(* Tests for the extension features: generalized ends-free policies, Myers'
   bit-parallel edit distance, and the database-search API. *)

module Sequence = Anyseq_bio.Sequence
module Alphabet = Anyseq_bio.Alphabet
module Alignment = Anyseq_bio.Alignment
module Gaps = Anyseq_bio.Gaps
module Scheme = Anyseq_scoring.Scheme
module T = Anyseq_core.Types
module EF = Anyseq_core.Ends_free
module Myers = Anyseq_core.Myers
module Rng = Anyseq_util.Rng

let dna = Sequence.of_string Alphabet.dna4

(* Brute-force ends-free oracle: dense Gotoh with per-spec borders and
   final-cell rule. *)
let brute scheme (spec : EF.spec) q s =
  let n = Sequence.length q and m = Sequence.length s in
  let sigma = Scheme.subst_score scheme in
  let go = Gaps.open_cost scheme.Scheme.gap and ge = Gaps.extend_cost scheme.Scheme.gap in
  let h = Array.make_matrix (n + 1) (m + 1) T.neg_inf in
  let e = Array.make_matrix (n + 1) (m + 1) T.neg_inf in
  let f = Array.make_matrix (n + 1) (m + 1) T.neg_inf in
  h.(0).(0) <- 0;
  for i = 1 to n do
    h.(i).(0) <- (if spec.EF.skip_query_prefix then 0 else -(go + (i * ge)));
    e.(i).(0) <- h.(i).(0)
  done;
  for j = 1 to m do
    h.(0).(j) <- (if spec.EF.skip_subject_prefix then 0 else -(go + (j * ge)));
    f.(0).(j) <- h.(0).(j)
  done;
  for i = 1 to n do
    for j = 1 to m do
      let ev = max (e.(i - 1).(j) - ge) (h.(i - 1).(j) - go - ge) in
      let fv = max (f.(i).(j - 1) - ge) (h.(i).(j - 1) - go - ge) in
      e.(i).(j) <- ev;
      f.(i).(j) <- fv;
      h.(i).(j) <-
        max (h.(i - 1).(j - 1) + sigma (Sequence.get q (i - 1)) (Sequence.get s (j - 1)))
          (max ev fv)
    done
  done;
  let best = ref T.neg_inf in
  for i = 0 to n do
    for j = 0 to m do
      if
        (i = n || spec.EF.skip_query_suffix)
        && (j = m || spec.EF.skip_subject_suffix)
        && (i = n || j = m)
        && h.(i).(j) > !best
      then best := h.(i).(j)
    done
  done;
  !best

let all_specs =
  [
    EF.global; EF.ends_free; EF.query_contained; EF.subject_contained;
    EF.dovetail_query_first; EF.dovetail_subject_first;
    { EF.skip_query_prefix = true; skip_query_suffix = false;
      skip_subject_prefix = false; skip_subject_suffix = true };
  ]

let pair_gen max_len =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create ~seed in
      Helpers.random_pair rng ~max_len)
    QCheck2.Gen.nat

let ends_free_matches_brute =
  Helpers.qtest ~count:150 "ends_free score = brute-force oracle (all specs)"
    QCheck2.Gen.(
      tup3 (pair_gen 30) (oneofl all_specs)
        (oneofl [ Scheme.paper_linear; Scheme.paper_affine ]))
    (fun ((q, s), spec, scheme) ->
      (EF.score_only scheme spec ~query:(Sequence.view q) ~subject:(Sequence.view s))
        .T.score = brute scheme spec q s)

let ends_free_align_consistent =
  Helpers.qtest ~count:120 "ends_free alignment scores and validates"
    QCheck2.Gen.(tup2 (pair_gen 30) (oneofl all_specs))
    (fun ((q, s), spec) ->
      let scheme = Scheme.paper_affine in
      let a = EF.align scheme spec ~query:q ~subject:s in
      a.Alignment.score = brute scheme spec q s
      && Result.is_ok
           (Alignment.rescore ~subst:scheme.Scheme.subst ~gap:scheme.Scheme.gap ~query:q
              ~subject:s a))

let ends_free_mode_correspondence =
  Helpers.qtest ~count:100 "ends_free global/ends_free = the classic modes"
    (pair_gen 35)
    (fun (q, s) ->
      let scheme = Scheme.paper_affine in
      let qv = Sequence.view q and sv = Sequence.view s in
      (EF.score_only scheme EF.global ~query:qv ~subject:sv).T.score
      = Helpers.reference_score scheme T.Global ~query:q ~subject:s
      && (EF.score_only scheme EF.ends_free ~query:qv ~subject:sv).T.score
         = Helpers.reference_score scheme T.Semiglobal ~query:q ~subject:s)

let ends_free_freedom_monotone =
  Helpers.qtest ~count:100 "freeing an end never lowers the score"
    (pair_gen 30)
    (fun (q, s) ->
      let scheme = Scheme.paper_linear in
      let qv = Sequence.view q and sv = Sequence.view s in
      let score spec = (EF.score_only scheme spec ~query:qv ~subject:sv).T.score in
      score EF.global <= score EF.dovetail_query_first
      && score EF.dovetail_query_first <= score EF.ends_free
      && score EF.global <= score EF.query_contained
      && score EF.query_contained <= score EF.ends_free)

let test_ends_free_containment () =
  (* A read inside a window: query_contained finds the exact placement. *)
  let window = dna "TTTTTTACGTACGTTTTTT" in
  let read = dna "ACGTACGT" in
  let a = EF.align Scheme.paper_affine EF.query_contained ~query:read ~subject:window in
  Alcotest.(check int) "perfect score" 16 a.Alignment.score;
  Alcotest.(check int) "subject start" 6 a.Alignment.subject_start;
  Alcotest.(check int) "subject end" 14 a.Alignment.subject_end;
  Alcotest.(check int) "query fully aligned" 8 (a.Alignment.query_end - a.Alignment.query_start)

let test_ends_free_dovetail () =
  (* query = ...XY, subject = XY...: suffix of query overlaps prefix of
     subject. *)
  let query = dna "GGGGGACGTACGT" and subject = dna "ACGTACGTCCCCC" in
  let a = EF.align Scheme.paper_linear EF.dovetail_query_first ~query ~subject in
  Alcotest.(check int) "overlap score" 16 a.Alignment.score;
  Alcotest.(check int) "query start (prefix skipped)" 5 a.Alignment.query_start;
  Alcotest.(check int) "query end (anchored)" 13 a.Alignment.query_end;
  Alcotest.(check int) "subject start (anchored)" 0 a.Alignment.subject_start

(* ------------------------------------------------------------------ *)
(* Myers                                                               *)
(* ------------------------------------------------------------------ *)

let myers_matches_dp =
  Helpers.qtest ~count:250 "Myers distance = unit-cost DP (incl. multi-word)"
    QCheck2.Gen.(map (fun seed ->
        let rng = Rng.create ~seed in
        (* occasionally exceed one 64-bit word *)
        let n = if Rng.int rng 5 = 0 then 64 + Rng.int rng 140 else Rng.int rng 64 in
        (Helpers.random_dna rng ~len:n, Helpers.random_dna rng ~len:(Rng.int rng 80))) nat)
    (fun (q, s) ->
      Myers.distance q s
      = -Helpers.reference_score Myers.unit_scheme T.Global ~query:q ~subject:s)

let myers_search_matches_ends_free =
  Helpers.qtest ~count:200 "Myers search = subject-flanks-free DP"
    QCheck2.Gen.(map (fun seed ->
        let rng = Rng.create ~seed in
        let n = 1 + Rng.int rng 90 in
        (Helpers.random_dna rng ~len:n, Helpers.random_dna rng ~len:(Rng.int rng 120))) nat)
    (fun (pattern, text) ->
      let d, pos = Myers.search ~pattern ~text in
      let expected =
        -(EF.score_only Myers.unit_scheme
            { EF.skip_query_prefix = false; skip_query_suffix = false;
              skip_subject_prefix = true; skip_subject_suffix = true }
            ~query:(Sequence.view pattern) ~subject:(Sequence.view text))
           .T.score
      in
      d = expected && pos >= 0 && pos <= Sequence.length text)

let test_myers_hand_cases () =
  Alcotest.(check int) "identical" 0 (Myers.distance (dna "ACGT") (dna "ACGT"));
  Alcotest.(check int) "substitution" 1 (Myers.distance (dna "ACGT") (dna "ACCT"));
  Alcotest.(check int) "indel" 1 (Myers.distance (dna "ACGT") (dna "ACT"));
  Alcotest.(check int) "empty vs x" 4 (Myers.distance (dna "") (dna "ACGT"));
  Alcotest.(check int) "x vs empty" 4 (Myers.distance (dna "ACGT") (dna ""));
  Alcotest.(check int) "kitten-style" 2 (Myers.distance (dna "ACGTACGT") (dna "AGGTACG"))

let test_myers_search_positions () =
  let pattern = dna "ACGT" in
  let text = dna "TTTTACGTTTTTACCTTT" in
  let d, pos = Myers.search ~pattern ~text in
  Alcotest.(check int) "exact hit distance" 0 d;
  Alcotest.(check int) "earliest exact end" 8 pos;
  let hits = Myers.occurrences ~pattern ~text ~k:1 in
  Alcotest.(check bool) "exact end present" true (List.mem_assoc 8 hits);
  Alcotest.(check bool) "1-error end present (ACCT)" true (List.mem_assoc 16 hits);
  List.iter (fun (_, d) -> Alcotest.(check bool) "within k" true (d <= 1)) hits

let test_myers_empty_pattern () =
  Alcotest.(check (pair int int)) "empty pattern" (0, 0)
    (Myers.search ~pattern:(dna "") ~text:(dna "ACGT"))

let myers_long_pattern_words =
  Helpers.qtest ~count:40 "multi-word boundary lengths (63..130)"
    QCheck2.Gen.(map (fun seed ->
        let rng = Rng.create ~seed in
        let n = 63 + Rng.int rng 68 in
        let q = Helpers.random_dna rng ~len:n in
        let s = Anyseq_seqio.Genome_gen.mutate rng q in
        (q, s)) nat)
    (fun (q, s) ->
      Myers.distance q s
      = -Helpers.reference_score Myers.unit_scheme T.Global ~query:q ~subject:s)

(* exact unit-cost distance from the general DP — the oracle for the
   banded suite *)
let exact_distance q s =
  -Helpers.reference_score Myers.unit_scheme T.Global ~query:q ~subject:s

(* banded/full/upto agreement on one pair: full sweep = banded = DP, and
   distance_upto behaves as a characteristic function of d ≤ k across
   the interesting bounds (0, d-1, d, d+1, ∞) *)
let upto_consistent q s =
  let d = exact_distance q s in
  let n = Sequence.length q and m = Sequence.length s in
  let upto k = Myers.distance_upto ~k q s in
  Myers.distance q s = d
  && Myers.distance_full q s = d
  && upto (n + m) = Some d
  && upto d = Some d
  && upto (d + 1) = Some d
  && (d = 0 || upto (d - 1) = None)
  && upto 0 = (if d = 0 then Some 0 else None)
  && upto (-1) = None

let myers_upto_matches_dp =
  Helpers.qtest ~count:250 "distance_upto = characteristic fn of DP distance"
    QCheck2.Gen.(map (fun seed ->
        let rng = Rng.create ~seed in
        (* mix multi-word patterns and very unequal lengths *)
        let n = if Rng.int rng 4 = 0 then 64 + Rng.int rng 140 else Rng.int rng 64 in
        let q = Helpers.random_dna rng ~len:n in
        let s =
          if Rng.int rng 2 = 0 then Anyseq_seqio.Genome_gen.mutate rng q
          else Helpers.random_dna rng ~len:(Rng.int rng 100)
        in
        (q, s)) nat)
    (fun (q, s) -> upto_consistent q s)

let myers_upto_band_edges =
  (* lengths that straddle the 62-bit block boundary, against both a
     light mutation (band stays narrow) and an unrelated sequence (band
     collapses) *)
  Helpers.qtest ~count:60 "distance_upto at block-boundary lengths (61,62,63,124)"
    QCheck2.Gen.(map (fun seed ->
        let rng = Rng.create ~seed in
        let n = List.nth [ 61; 62; 63; 124 ] (Rng.int rng 4) in
        let q = Helpers.random_dna rng ~len:n in
        let near = Anyseq_seqio.Genome_gen.mutate rng q in
        let far = Helpers.random_dna rng ~len:n in
        (q, near, far)) nat)
    (fun (q, near, far) -> upto_consistent q near && upto_consistent q far)

(* The one-word diagonal band tried first: pattern lengths that put its
   [Eq] window at bit offset 0 and across word boundaries, length gaps
   around its one-word limit, both orientations (m > n pins the band at
   row 1 for its first columns), and caps on both sides of that limit —
   ⌊(61+|δ|)/2⌋ and 61 — as well as of d. *)
let myers_upto_diagonal_edges =
  Helpers.qtest ~count:120 "distance_upto around the one-word band limit"
    QCheck2.Gen.(map (fun seed ->
        let rng = Rng.create ~seed in
        let n = List.nth [ 1; 61; 62; 63; 124; 125; 200 ] (Rng.int rng 7) in
        let gap = List.nth [ 0; 1; 30; 31; 61; 62 ] (Rng.int rng 6) in
        let m = if Rng.bool rng then n + gap else max 0 (n - gap) in
        let q = Helpers.random_dna rng ~len:n in
        let s =
          match Rng.int rng 3 with
          | 0 -> Helpers.random_dna rng ~len:m
          | _ ->
              (* a mutated copy, trimmed or padded with random bases to m *)
              let t = Anyseq_seqio.Genome_gen.mutate rng q in
              let tl = Sequence.length t in
              if tl >= m then Sequence.sub t ~pos:0 ~len:m
              else Sequence.concat t (Helpers.random_dna rng ~len:(m - tl))
        in
        (q, s)) nat)
    (fun (q, s) ->
      let d = exact_distance q s in
      let gap = abs (Sequence.length q - Sequence.length s) in
      let half = (61 + gap) / 2 in
      upto_consistent q s
      && List.for_all
           (fun k -> Myers.distance_upto ~k q s = if d <= k then Some d else None)
           [ gap - 1; gap; half; half + 1; 61; 62 ])

let test_myers_upto_hopeless () =
  (* unrelated pairs under tight caps: the corner diagonal overruns the
     cap within a few columns and the answer is None, not a wrong Some *)
  let rng = Rng.create ~seed:1017 in
  List.iter
    (fun (n, k) ->
      let q = Helpers.random_dna rng ~len:n and s = Helpers.random_dna rng ~len:n in
      let d = exact_distance q s in
      Alcotest.(check bool) "hopeless pair is far" true (d > k);
      Alcotest.(check (option int)) "refused under tight cap" None (Myers.distance_upto ~k q s);
      Alcotest.(check (option int)) "resolved under loose cap" (Some d)
        (Myers.distance_upto ~k:d q s))
    [ (150, 0); (150, 10); (600, 30); (2000, 61) ]

let test_myers_upto_degenerate () =
  let e = dna "" and x = dna "ACGT" in
  Alcotest.(check (option int)) "empty/empty" (Some 0) (Myers.distance_upto ~k:0 e e);
  Alcotest.(check (option int)) "empty query, k >= m" (Some 4)
    (Myers.distance_upto ~k:4 e x);
  Alcotest.(check (option int)) "empty query, k < m" None
    (Myers.distance_upto ~k:3 e x);
  Alcotest.(check (option int)) "empty subject, k >= n" (Some 4)
    (Myers.distance_upto ~k:9 x e);
  Alcotest.(check (option int)) "empty subject, k < n" None
    (Myers.distance_upto ~k:3 x e);
  Alcotest.(check (option int)) "negative k" None (Myers.distance_upto ~k:(-1) x x);
  Alcotest.(check (option int)) "identical at k=0" (Some 0)
    (Myers.distance_upto ~k:0 x x);
  Alcotest.(check (option int)) "length gap alone exceeds k" None
    (Myers.distance_upto ~k:2 (dna "ACGTACG") x)

let () =
  Alcotest.run "extensions"
    [
      ( "ends_free",
        [
          ends_free_matches_brute;
          ends_free_align_consistent;
          ends_free_mode_correspondence;
          ends_free_freedom_monotone;
          Alcotest.test_case "containment" `Quick test_ends_free_containment;
          Alcotest.test_case "dovetail" `Quick test_ends_free_dovetail;
        ] );
      ( "myers",
        [
          myers_matches_dp;
          myers_search_matches_ends_free;
          Alcotest.test_case "hand cases" `Quick test_myers_hand_cases;
          Alcotest.test_case "search positions" `Quick test_myers_search_positions;
          Alcotest.test_case "empty pattern" `Quick test_myers_empty_pattern;
          myers_long_pattern_words;
          myers_upto_matches_dp;
          myers_upto_band_edges;
          myers_upto_diagonal_edges;
          Alcotest.test_case "upto hopeless" `Quick test_myers_upto_hopeless;
          Alcotest.test_case "upto degenerate" `Quick test_myers_upto_degenerate;
        ] );
    ]
