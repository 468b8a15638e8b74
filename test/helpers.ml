(* Shared test utilities. *)

module Rng = Anyseq_util.Rng
module Alphabet = Anyseq_bio.Alphabet
module Sequence = Anyseq_bio.Sequence
module Alignment = Anyseq_bio.Alignment
module Scheme = Anyseq_scoring.Scheme
module T = Anyseq_core.Types

let schemes_under_test =
  [
    ("paper-linear", Scheme.paper_linear);
    ("paper-affine", Scheme.paper_affine);
    ("steep-affine", Scheme.dna_simple_affine ~match_:3 ~mismatch:(-2) ~gap_open:5 ~gap_extend:2);
    (* Unit_cost-certified: batches through the service additionally
       exercise the proof-gated Myers bit-parallel tier. *)
    ("unit-cost", Scheme.unit_cost);
  ]

let modes_under_test = [ T.Global; T.Semiglobal; T.Local ]

(* The simple schemes plus the dna5 wildcard ones, whose N-against-N
   mismatch makes them more than a two-value match/mismatch table. *)
let oracle_schemes =
  schemes_under_test
  @ [ ("wildcard-linear", Scheme.wildcard_linear); ("wildcard-affine", Scheme.wildcard_affine) ]

let random_dna rng ~len = Sequence.random rng Alphabet.dna4 ~len

(* A pair that is either unrelated or a mutated copy — correlated pairs
   exercise long match runs and realistic gap structure. *)
let random_pair rng ~max_len =
  let n = Rng.int rng (max_len + 1) in
  if Rng.bool rng then (random_dna rng ~len:n, random_dna rng ~len:(Rng.int rng (max_len + 1)))
  else
    let base = random_dna rng ~len:(max 1 n) in
    (base, Anyseq_seqio.Genome_gen.mutate rng base)

(* [s] over dna5 with about one base in eight replaced by N. *)
let sprinkle_n rng s =
  String.map (fun c -> if Rng.int rng 8 = 0 then 'N' else c) (Sequence.to_string s)
  |> Sequence.of_string Alphabet.dna5

(* A [random_pair] over the scheme's alphabet: N codes for dna5 schemes. *)
let scheme_pair rng scheme ~max_len =
  let q, s = random_pair rng ~max_len in
  if Alphabet.size (Scheme.alphabet scheme) = Alphabet.size Alphabet.dna5 then
    (sprinkle_n rng q, sprinkle_n rng s)
  else (q, s)

let reference_score scheme mode ~query ~subject =
  (Anyseq_core.Reference.score_only scheme mode ~query ~subject).T.score

(* Checks an alignment's internal consistency against the oracle score. *)
let check_alignment ~what scheme mode ~query ~subject (alignment : Alignment.t) =
  let expected = reference_score scheme mode ~query ~subject in
  Alcotest.(check int) (what ^ ": optimal score") expected alignment.Alignment.score;
  match
    Alignment.rescore ~subst:scheme.Scheme.subst ~gap:scheme.Scheme.gap ~query ~subject
      alignment
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: invalid alignment: %s" what msg

(* qcheck wrapper producing an alcotest case. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Deterministic seed generator for qcheck properties that want our Rng. *)
let seeded_rng_gen = QCheck2.Gen.map (fun seed -> Rng.create ~seed) QCheck2.Gen.nat

let contains_sub haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0
