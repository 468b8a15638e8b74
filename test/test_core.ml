module Sequence = Anyseq_bio.Sequence
module Alphabet = Anyseq_bio.Alphabet
module Alignment = Anyseq_bio.Alignment
module Cigar = Anyseq_bio.Cigar
module Scheme = Anyseq_scoring.Scheme
module T = Anyseq_core.Types
module Reference = Anyseq_core.Reference
module Dp_linear = Anyseq_core.Dp_linear
module Dp_full = Anyseq_core.Dp_full
module Hirschberg = Anyseq_core.Hirschberg
module Banded = Anyseq_core.Banded
module Tiling = Anyseq_core.Tiling
module Engine = Anyseq_core.Engine
module Accessors = Anyseq_core.Accessors
module Staged_kernel = Anyseq_core.Staged_kernel
module Rng = Anyseq_util.Rng

let dna = Sequence.of_string Alphabet.dna4
let view = Sequence.view

(* ------------------------------------------------------------------ *)
(* Hand-computed cases                                                 *)
(* ------------------------------------------------------------------ *)

let score scheme mode q s =
  (Reference.score_only scheme mode ~query:(dna q) ~subject:(dna s)).T.score

let test_hand_global_linear () =
  let lin = Scheme.paper_linear in
  Alcotest.(check int) "identical" 8 (score lin T.Global "ACGT" "ACGT");
  Alcotest.(check int) "one mismatch" 5 (score lin T.Global "ACGT" "ACCT");
  Alcotest.(check int) "one deletion" 5 (score lin T.Global "ACGT" "AGT");
  Alcotest.(check int) "empty vs empty" 0 (score lin T.Global "" "");
  Alcotest.(check int) "empty query" (-3) (score lin T.Global "" "ACG");
  Alcotest.(check int) "empty subject" (-4) (score lin T.Global "ACGT" "");
  (* 4 mismatches (-4) beat 8 gap columns (-8) *)
  Alcotest.(check int) "disjoint" (-4) (score lin T.Global "AAAA" "TTTT")

let test_hand_global_affine () =
  let aff = Scheme.paper_affine in
  (* AC--TA alignment: 4 matches (+8) minus a length-2 gap (2 + 2·1 = 4) *)
  Alcotest.(check int) "one long gap" 4 (score aff T.Global "ACGTTA" "ACTA");
  (* two separate gaps cost 2 opens: ACGTA/AC-T-A style *)
  Alcotest.(check int) "empty query affine" (-5) (score aff T.Global "" "ACG");
  (* affine never beats linear with same extend *)
  Alcotest.(check bool) "affine <= linear" true
    (score aff T.Global "ACGTACGT" "AGGTCGT" <= score Scheme.paper_linear T.Global "ACGTACGT" "AGGTCGT")

let test_hand_local () =
  let lin = Scheme.paper_linear in
  Alcotest.(check int) "island" 8 (score lin T.Local "TTTTACGTTTTT" "GGGACGTGGG");
  Alcotest.(check int) "no positive alignment" 0 (score lin T.Local "AAAA" "TTTT");
  Alcotest.(check int) "empty" 0 (score lin T.Local "" "ACGT");
  Alcotest.(check int) "local >= global" 8 (score lin T.Local "ACGT" "ACGT")

let test_hand_semiglobal () =
  let lin = Scheme.paper_linear in
  (* read inside a longer reference: free flanks *)
  Alcotest.(check int) "contained" 8 (score lin T.Semiglobal "ACGT" "TTTTACGTTTTT");
  Alcotest.(check int) "overlap" 6 (score lin T.Semiglobal "TTTACG" "ACGTTT");
  Alcotest.(check int) "empty query" 0 (score lin T.Semiglobal "" "ACGT")

let test_local_alignment_structure () =
  let lin = Scheme.paper_linear in
  let q = dna "TTTTACGTTTTT" and s = dna "GGGACGTGGG" in
  let a = Reference.align lin T.Local ~query:q ~subject:s in
  Alcotest.(check int) "score" 8 a.Alignment.score;
  Alcotest.(check int) "query start" 4 a.Alignment.query_start;
  Alcotest.(check int) "query end" 8 a.Alignment.query_end;
  Alcotest.(check int) "subject start" 3 a.Alignment.subject_start;
  Alcotest.(check string) "cigar" "4=" (Cigar.to_string a.Alignment.cigar)

let test_local_zero_is_empty () =
  let a =
    Reference.align Scheme.paper_linear T.Local ~query:(dna "AAAA") ~subject:(dna "TTTT")
  in
  Alcotest.(check int) "score 0" 0 a.Alignment.score;
  Alcotest.(check bool) "empty cigar" true (Cigar.is_empty a.Alignment.cigar)

let test_reference_guard () =
  let rng = Rng.create ~seed:1 in
  let q = Sequence.random rng Alphabet.dna4 ~len:9000 in
  Alcotest.check_raises "oracle size guard"
    (Invalid_argument "Reference: problem too large for the dense oracle") (fun () ->
      ignore (Reference.score_only Scheme.paper_linear T.Global ~query:q ~subject:q))

(* ------------------------------------------------------------------ *)
(* Differential properties: every engine vs the oracle                 *)
(* ------------------------------------------------------------------ *)

let pair_gen ~max_len =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create ~seed in
      Helpers.random_pair rng ~max_len)
    QCheck2.Gen.nat

let scheme_mode_gen =
  QCheck2.Gen.(
    tup2 (oneofl (List.map snd Helpers.schemes_under_test)) (oneofl Helpers.modes_under_test))

let diff_test name ~count ~max_len f =
  Helpers.qtest ~count name
    QCheck2.Gen.(tup2 (pair_gen ~max_len) scheme_mode_gen)
    (fun ((q, s), (scheme, mode)) ->
      let expected = Helpers.reference_score scheme mode ~query:q ~subject:s in
      f scheme mode q s expected)

let linear_matches_oracle =
  diff_test "dp_linear = oracle" ~count:250 ~max_len:48 (fun scheme mode q s expected ->
      (Dp_linear.score_only scheme mode ~query:(view q) ~subject:(view s)).T.score = expected)

let linear_ends_match_oracle =
  diff_test "dp_linear end cells = oracle" ~count:200 ~max_len:40
    (fun scheme mode q s _ ->
      let a = Reference.score_only scheme mode ~query:q ~subject:s in
      let b = Dp_linear.score_only scheme mode ~query:(view q) ~subject:(view s) in
      a = b)

let full_matches_oracle =
  diff_test "dp_full = oracle" ~count:250 ~max_len:48 (fun scheme mode q s expected ->
      (Dp_full.score_only scheme mode ~query:(view q) ~subject:(view s)).T.score = expected)

let full_alignment_valid =
  diff_test "dp_full alignment validates" ~count:200 ~max_len:40
    (fun scheme mode q s expected ->
      let a = Dp_full.align scheme mode ~query:q ~subject:s in
      a.Alignment.score = expected
      && Result.is_ok
           (Alignment.rescore ~subst:scheme.Scheme.subst ~gap:scheme.Scheme.gap ~query:q
              ~subject:s a))

let reference_alignment_valid =
  diff_test "oracle traceback validates" ~count:200 ~max_len:40
    (fun scheme mode q s expected ->
      let a = Reference.align scheme mode ~query:q ~subject:s in
      a.Alignment.score = expected
      && Result.is_ok
           (Alignment.rescore ~subst:scheme.Scheme.subst ~gap:scheme.Scheme.gap ~query:q
              ~subject:s a))

let hirschberg_matches_oracle =
  Helpers.qtest ~count:200 "hirschberg = oracle at random cutoffs"
    QCheck2.Gen.(tup3 (pair_gen ~max_len:44) scheme_mode_gen (oneofl [ 1; 16; 256; 4096 ]))
    (fun ((q, s), (scheme, mode), cutoff) ->
      let expected = Helpers.reference_score scheme mode ~query:q ~subject:s in
      let a = Hirschberg.align ~cutoff_cells:cutoff scheme mode ~query:q ~subject:s in
      a.Alignment.score = expected
      && Result.is_ok
           (Alignment.rescore ~subst:scheme.Scheme.subst ~gap:scheme.Scheme.gap ~query:q
              ~subject:s a))

let tiled_matches_oracle =
  Helpers.qtest ~count:1500 "tiled = oracle at random tile sizes"
    QCheck2.Gen.(
      tup4 nat (oneofl (List.map snd Helpers.oracle_schemes)) (oneofl Helpers.modes_under_test)
        (1 -- 20))
    (fun (seed, scheme, mode, tile) ->
      let q, s = Helpers.scheme_pair (Rng.create ~seed) scheme ~max_len:44 in
      Tiling.score_only scheme mode ~tile ~query:(view q) ~subject:(view s)
      = Dp_linear.score_only scheme mode ~query:(view q) ~subject:(view s))

(* A warmed plan relaxes every tile with no allocation beyond a fixed few
   words: the relaxation runs in the plan's border stripes, not in rows
   allocated per tile. 600×600 at tile 64 is 100 tiles, ragged at the
   right and bottom. *)
let test_tile_allocation () =
  let rng = Rng.create ~seed:24 in
  let scheme = Scheme.wildcard_affine in
  let q = Helpers.sprinkle_n rng (Helpers.random_dna rng ~len:600) in
  let s = Helpers.sprinkle_n rng (Helpers.random_dna rng ~len:600) in
  List.iter
    (fun mode ->
      let p = Tiling.create scheme mode ~tile:64 ~query:(view q) ~subject:(view s) in
      let rows = Tiling.tile_rows p and cols = Tiling.tile_cols p in
      let pass () =
        for ti = 0 to rows - 1 do
          for tj = 0 to cols - 1 do
            Tiling.compute_tile p ~ti ~tj
          done
        done
      in
      pass ();
      let before = Gc.minor_words () in
      pass ();
      let per_tile = (Gc.minor_words () -. before) /. float_of_int (rows * cols) in
      if per_tile > 4.0 then
        Alcotest.failf "%s: %.1f minor words per tile (budget 4)" (Alignment.mode_to_string mode) per_tile;
      Alcotest.(check bool) "warm pass keeps the result" true
        (Tiling.finish p = Dp_linear.score_only scheme mode ~query:(view q) ~subject:(view s)))
    Helpers.modes_under_test

let banded_full_band_matches_oracle =
  Helpers.qtest ~count:150 "banded(full band) = oracle (global)"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:40) (oneofl (List.map snd Helpers.schemes_under_test)))
    (fun ((q, s), scheme) ->
      let band =
        max
          (Banded.min_band ~query_len:(Sequence.length q) ~subject_len:(Sequence.length s))
          (max (Sequence.length q) (Sequence.length s))
      in
      let expected = Helpers.reference_score scheme T.Global ~query:q ~subject:s in
      (Banded.score_only scheme ~band ~query:(view q) ~subject:(view s)).T.score = expected
      &&
      let a = Banded.align scheme ~band ~query:q ~subject:s in
      a.Alignment.score = expected
      && Result.is_ok
           (Alignment.rescore ~subst:scheme.Scheme.subst ~gap:scheme.Scheme.gap ~query:q
              ~subject:s a))

let banded_lower_bound =
  Helpers.qtest ~count:150 "narrow band never exceeds the optimum"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:40) (1 -- 10))
    (fun ((q, s), extra) ->
      let scheme = Scheme.paper_affine in
      let band =
        Banded.min_band ~query_len:(Sequence.length q) ~subject_len:(Sequence.length s)
        + extra
      in
      let banded = (Banded.score_only scheme ~band ~query:(view q) ~subject:(view s)).T.score in
      banded <= Helpers.reference_score scheme T.Global ~query:q ~subject:s)

let staged_kernels_match_oracle =
  Helpers.qtest ~count:60 "staged kernels (all 3 forms) = oracle"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:24) scheme_mode_gen)
    (fun ((q, s), (scheme, mode)) ->
      let expected = Helpers.reference_score scheme mode ~query:q ~subject:s in
      List.for_all
        (fun kernel ->
          (Staged_kernel.score_only kernel scheme mode ~query:(view q) ~subject:(view s))
            .T.score = expected)
        [
          Staged_kernel.specialize scheme mode `Compiled;
          Staged_kernel.specialize scheme mode `Interpreted;
          Staged_kernel.generic_kernel scheme mode;
        ])

(* ------------------------------------------------------------------ *)
(* Alignment-level invariants                                          *)
(* ------------------------------------------------------------------ *)

let local_never_negative =
  diff_test "local score >= 0" ~count:150 ~max_len:40 (fun scheme _ q s _ ->
      Helpers.reference_score scheme T.Local ~query:q ~subject:s >= 0)

let mode_ordering =
  Helpers.qtest ~count:150 "local >= semiglobal >= global"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:40) (oneofl (List.map snd Helpers.schemes_under_test)))
    (fun ((q, s), scheme) ->
      let g = Helpers.reference_score scheme T.Global ~query:q ~subject:s in
      let sg = Helpers.reference_score scheme T.Semiglobal ~query:q ~subject:s in
      let l = Helpers.reference_score scheme T.Local ~query:q ~subject:s in
      l >= sg && sg >= g)

let swap_symmetry =
  Helpers.qtest ~count:150 "score symmetric under query/subject swap"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:40) scheme_mode_gen)
    (fun ((q, s), (scheme, mode)) ->
      Helpers.reference_score scheme mode ~query:q ~subject:s
      = Helpers.reference_score scheme mode ~query:s ~subject:q)

let reverse_symmetry =
  Helpers.qtest ~count:150 "global score invariant under reversing both"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:40) (oneofl (List.map snd Helpers.schemes_under_test)))
    (fun ((q, s), scheme) ->
      Helpers.reference_score scheme T.Global ~query:q ~subject:s
      = Helpers.reference_score scheme T.Global ~query:(Sequence.rev q)
          ~subject:(Sequence.rev s))

let linear_equals_affine_go0 =
  Helpers.qtest ~count:150 "linear gaps = affine with Go=0"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:40) (oneofl Helpers.modes_under_test))
    (fun ((q, s), mode) ->
      let lin = Scheme.dna_simple_linear ~match_:2 ~mismatch:(-1) ~gap_extend:1 in
      let aff0 = Scheme.dna_simple_affine ~match_:2 ~mismatch:(-1) ~gap_open:0 ~gap_extend:1 in
      Helpers.reference_score lin mode ~query:q ~subject:s
      = Helpers.reference_score aff0 mode ~query:q ~subject:s)

let self_alignment_is_perfect =
  Helpers.qtest ~count:100 "self-alignment is all matches"
    QCheck2.Gen.(map (fun seed ->
        let rng = Rng.create ~seed in
        Helpers.random_dna rng ~len:(1 + Rng.int rng 40)) nat)
    (fun q ->
      let a = Reference.align Scheme.paper_affine T.Global ~query:q ~subject:q in
      a.Alignment.score = 2 * Sequence.length q
      && Cigar.count a.Alignment.cigar Cigar.Match = Sequence.length q)

let match_bonus_monotone =
  Helpers.qtest ~count:100 "raising the match bonus never lowers the score"
    QCheck2.Gen.(tup2 (pair_gen ~max_len:30) (oneofl Helpers.modes_under_test))
    (fun ((q, s), mode) ->
      let s1 = Scheme.dna_simple_linear ~match_:1 ~mismatch:(-1) ~gap_extend:1 in
      let s2 = Scheme.dna_simple_linear ~match_:3 ~mismatch:(-1) ~gap_extend:1 in
      Helpers.reference_score s1 mode ~query:q ~subject:s
      <= Helpers.reference_score s2 mode ~query:q ~subject:s)

(* ------------------------------------------------------------------ *)
(* Engine dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let test_engine_backends_agree () =
  let rng = Rng.create ~seed:77 in
  let q = Helpers.random_dna rng ~len:120 and s = Helpers.random_dna rng ~len:133 in
  let scheme = Scheme.paper_affine in
  let expected = Helpers.reference_score scheme T.Global ~query:q ~subject:s in
  List.iter
    (fun (name, backend) ->
      Alcotest.(check int) name expected
        (Engine.score ~backend scheme T.Global ~query:q ~subject:s).T.score)
    [
      ("scalar", Engine.Scalar);
      ("tiled", Engine.Tiled { tile = 17 });
      ("full", Engine.Full);
      ("banded", Engine.Banded { band = 140 });
    ];
  List.iter
    (fun (name, backend) ->
      let a = Engine.align ~backend scheme T.Global ~query:q ~subject:s in
      Alcotest.(check int) name expected a.Alignment.score)
    [
      ("auto", Engine.Auto);
      ("full matrix", Engine.Full_matrix);
      ("linear space", Engine.Linear_space { cutoff_cells = 64 });
      ("banded align", Engine.Banded_align { band = 140 });
    ]

let test_engine_banded_mode_guard () =
  let q = dna "ACGT" in
  Alcotest.check_raises "banded local rejected"
    (Invalid_argument "Engine.score: banded backend supports global mode only") (fun () ->
      ignore
        (Engine.score ~backend:(Engine.Banded { band = 4 }) Scheme.paper_linear T.Local
           ~query:q ~subject:q))

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let test_trackers () =
  let t = Accessors.max_tracker () in
  t.Accessors.note 5 1 1;
  t.Accessors.note 3 2 2;
  t.Accessors.note 5 3 3;
  let best = t.Accessors.current () in
  Alcotest.(check int) "max" 5 best.T.score;
  Alcotest.(check int) "first max wins ties" 1 best.T.query_end

(* ------------------------------------------------------------------ *)
(* Hirschberg internals                                                *)
(* ------------------------------------------------------------------ *)

let test_cigar_score () =
  let scheme = Scheme.paper_affine in
  let q = dna "ACGTACGT" and s = dna "ACGCGT" in
  let a = Reference.align scheme T.Global ~query:q ~subject:s in
  Alcotest.(check int) "cigar_score agrees with engine" a.Alignment.score
    (Hirschberg.cigar_score scheme ~query:(view q) ~subject:(view s) a.Alignment.cigar)

let test_hirschberg_long_pair () =
  (* A pair too large for the dense oracle path of Auto but fine for the
     linear-space engine; verify against dp_linear. *)
  let rng = Rng.create ~seed:55 in
  let q = Helpers.random_dna rng ~len:1200 in
  let s = Anyseq_seqio.Genome_gen.mutate rng q in
  let scheme = Scheme.paper_affine in
  let expected =
    (Dp_linear.score_only scheme T.Global ~query:(view q) ~subject:(view s)).T.score
  in
  let a = Hirschberg.align scheme T.Global ~query:q ~subject:s in
  Alcotest.(check int) "score" expected a.Alignment.score;
  match
    Alignment.rescore ~subst:scheme.Scheme.subst ~gap:scheme.Scheme.gap ~query:q ~subject:s a
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "core"
    [
      ( "hand cases",
        [
          Alcotest.test_case "global linear" `Quick test_hand_global_linear;
          Alcotest.test_case "global affine" `Quick test_hand_global_affine;
          Alcotest.test_case "local" `Quick test_hand_local;
          Alcotest.test_case "semiglobal" `Quick test_hand_semiglobal;
          Alcotest.test_case "local structure" `Quick test_local_alignment_structure;
          Alcotest.test_case "local zero empty" `Quick test_local_zero_is_empty;
          Alcotest.test_case "oracle guard" `Quick test_reference_guard;
        ] );
      ( "engine equivalence",
        [
          linear_matches_oracle;
          linear_ends_match_oracle;
          full_matches_oracle;
          full_alignment_valid;
          reference_alignment_valid;
          hirschberg_matches_oracle;
          tiled_matches_oracle;
          banded_full_band_matches_oracle;
          banded_lower_bound;
          staged_kernels_match_oracle;
          Alcotest.test_case "no allocation per tile" `Quick test_tile_allocation;
        ] );
      ( "invariants",
        [
          local_never_negative;
          mode_ordering;
          swap_symmetry;
          reverse_symmetry;
          linear_equals_affine_go0;
          self_alignment_is_perfect;
          match_bonus_monotone;
        ] );
      ( "engine dispatch",
        [
          Alcotest.test_case "backends agree" `Quick test_engine_backends_agree;
          Alcotest.test_case "banded mode guard" `Quick test_engine_banded_mode_guard;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "trackers" `Quick test_trackers;
        ] );
      ( "hirschberg",
        [
          Alcotest.test_case "cigar score" `Quick test_cigar_score;
          Alcotest.test_case "long pair" `Quick test_hirschberg_long_pair;
        ] );
    ]
