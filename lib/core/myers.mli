(** Myers' bit-parallel edit-distance kernel (Myers 1999, multi-word form).

    For the unit-cost configuration (match 0, mismatch/indel cost 1 — the
    scheme-land scores are match 0, mismatch −1, linear gap penalty 1) the
    DP column fits in bit vectors: one word operation advances
    {!word_bits} cells. This is the ultimate form of the specialization
    story the paper tells — when the analyzer proves a scoring scheme is
    unit-cost ({!Anyseq_analysis.Property}'s [Unit_cost] certificate), a
    completely different, far faster kernel becomes admissible. The
    engines here are verified against the general DP under the equivalent
    scheme ([unit_scheme]): [distance q s = - global_score], and [search]
    matches the subject-contained ends-free policy.

    Patterns of any length are supported (vertical blocks with carry
    propagation). The vectors are 62-bit limbs of native [int] — the carry
    add of two limbs stays inside OCaml's 63-bit range — so the inner loop
    boxes nothing and the state buffers pool in a {!Scratch} arena. *)

val unit_scheme : Anyseq_scoring.Scheme.t
(** match 0, mismatch −1, linear gap penalty 1 over dna4 — the general-DP
    scheme whose global score is the negated edit distance. This is
    {!Anyseq_scoring.Scheme.unit_cost} itself (physically equal), so jobs
    naming the ["unit-cost"] builtin reuse its specialization-cache entry
    and bit-parallel eligibility. *)

val word_bits : int
(** Cells advanced per word operation (62: native-int limbs). *)

val distance : ?ws:Scratch.t -> Anyseq_bio.Sequence.t -> Anyseq_bio.Sequence.t -> int
(** Global (Levenshtein) edit distance. The first attempt is a one-word
    diagonal band at k = 61: with δ = n − m, a path of cost ≤ k only
    visits diagonals t with |t| + |δ − t| ≤ k — at most 62 of them — so
    one 62-bit word per column, sliding down the pattern, holds them
    all. The band tracks the cell on the corner diagonal (j + δ, j),
    which is exact whenever its true value is ≤ k and bounds d from
    below, so a pair with d ≤ 61 resolves in one word per column and a
    farther pair abandons the attempt as soon as that cell passes 61.
    Those pairs continue in the block band (Ukkonen block cut-off) under
    iterative deepening — k starts at 122 (at |n − m| when the length
    gap alone exceeds 61 and no one-word band fits) and doubles until
    the band survives — so the cost is O(m·d/62) block steps for true distance d
    instead of the full sweep's O(m·n/62): long low-divergence pairs
    skip almost every block. Bit-identical to {!distance_full}. With
    [ws], the pattern masks, column vectors and band scores come from
    the arena and the call is allocation-free in steady state — the form
    the runtime's bit-parallel tier uses. *)

val distance_full : ?ws:Scratch.t -> Anyseq_bio.Sequence.t -> Anyseq_bio.Sequence.t -> int
(** The pre-band full sweep: every block of every column, no cut-off.
    Kept as the differential baseline for the banded core (tier-1
    [@band-gate] checks [distance] ≡ [distance_full] ≡ the general DP)
    and as the bench comparison point for the banded speedup. *)

val distance_upto :
  ?ws:Scratch.t -> k:int -> Anyseq_bio.Sequence.t -> Anyseq_bio.Sequence.t -> int option
(** Bounded-distance form: [Some d] iff the edit distance d is ≤ [k] —
    bit-identical to [distance] whenever it returns [Some] — and [None]
    as soon as the bound is provably exceeded. The first attempt is the
    one-word diagonal band of {!distance} at min(k, 61); for a hopeless
    pair it stops after a few columns, when the corner-diagonal cell
    passes the cap, rather than after the full O(nm/62) sweep. Only a
    cap above 61 on a pair with d > 61 reaches the block band, which
    deepens from 122 with [k] as the ceiling, so the cost is
    O(m·min(k,d)/62) block steps regardless of how loose the cap is: a
    near-identical pair under a generous cap still resolves in one word
    per column. [k < 0] is always [None]. *)

val search :
  pattern:Anyseq_bio.Sequence.t -> text:Anyseq_bio.Sequence.t -> int * int
(** [(best_distance, end_position)]: the minimum edit distance between the
    pattern and any substring of the text, and the (exclusive, smallest)
    text end position achieving it — approximate string matching with free
    text ends. An empty pattern yields [(0, 0)]. *)

val occurrences :
  pattern:Anyseq_bio.Sequence.t -> text:Anyseq_bio.Sequence.t -> k:int -> (int * int) list
(** All text end positions with distance ≤ [k], as [(end_pos, distance)]
    in increasing position order — the classic k-errors matching problem. *)
