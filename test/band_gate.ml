(* band-gate: tier-1 gate for the Ukkonen-banded Myers engine, run by
   `dune build @band-gate`.

   The banded tier is an acceleration, never an approximation. Two
   assertion groups enforce that:

   1. {b Engine bit-identity.} Across a sweep of lengths straddling the
      62-bit word boundaries (61/62/63/124) plus random multi-word pairs,
      the banded iterative-deepening [Myers.distance], the full-sweep
      [Myers.distance_full] and the dense [Dp_linear] reference must
      agree exactly, and [Myers.distance_upto ~k] must answer [Some d]
      precisely when [k >= d] and [None] below it — the band may only
      ever prune rows that cannot hold the optimum. A second sweep aims
      at the one-word diagonal band that [distance_upto] tries first:
      pattern lengths around word boundaries, length gaps around the
      band's one-word limit, both orientations, caps on both sides of
      that limit and of d, and hopeless pairs under tight caps.

   2. {b Cutoff-driven network ≡ uncapped network, byte for byte.} The
      similarity-network pipeline on star-family input, once with the
      score/identity/top-k floors converted into per-pair distance caps
      ([cutoff = true]) and once aligning every candidate to completion
      ([cutoff = false]), must write byte-identical edge TSVs — and the
      capped run must actually cut pairs off ([pairs_cutoff > 0]), so
      the gate cannot silently pass with the caps disabled. *)

module Rng = Anyseq_util.Rng
module Sequence = Anyseq_bio.Sequence
module Alphabet = Anyseq_bio.Alphabet
module Scheme = Anyseq_scoring.Scheme
module T = Anyseq_core.Types
module Myers = Anyseq_core.Myers
module Dp_linear = Anyseq_core.Dp_linear
module Pipeline = Anyseq.Pipeline
module Genome_gen = Anyseq.Genome_gen

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL: %s\n" what
  end

(* ---- 1: engine bit-identity ---- *)

let dna = Sequence.of_string Alphabet.dna4

let reference_distance q s =
  let qv = Sequence.view (dna q) and sv = Sequence.view (dna s) in
  -(Dp_linear.score_only Myers.unit_scheme T.Global ~query:qv ~subject:sv).T.score

let random_dna rng len =
  String.init len (fun _ -> "ACGT".[Rng.int rng 4])

let mutate rng s rate =
  String.concat ""
    (List.filter_map
       (fun c ->
         if Rng.float rng 1.0 < rate then
           match Rng.int rng 3 with
           | 0 -> None (* deletion *)
           | 1 -> Some (Printf.sprintf "%c%c" "ACGT".[Rng.int rng 4] c) (* insertion *)
           | _ -> Some (String.make 1 "ACGT".[Rng.int rng 4]) (* substitution *)
         else Some (String.make 1 c))
       (List.init (String.length s) (String.get s)))

let engine_identity () =
  let rng = Rng.create ~seed:20260808 in
  let pairs = ref [] in
  (* word-boundary lengths, near pairs (small d, deep band pruning) and
     far pairs (random vs random, d ~ length) *)
  List.iter
    (fun n ->
      let q = random_dna rng n in
      pairs := (q, mutate rng q 0.05) :: (q, random_dna rng n) :: !pairs)
    [ 61; 62; 63; 124; 200 ];
  (* random mixed lengths, including empty and length-gapped *)
  for _ = 1 to 40 do
    let q = random_dna rng (Rng.int rng 180) in
    pairs := (q, mutate rng q 0.1) :: !pairs
  done;
  pairs := ("", "") :: ("", "ACGT") :: ("ACGTACGT", "") :: !pairs;
  let checked = ref 0 in
  List.iter
    (fun (q, s) ->
      let d_ref = reference_distance q s in
      let qs = dna q and ss = dna s in
      check "banded distance = Dp_linear" (Myers.distance qs ss = d_ref);
      check "full-sweep distance = Dp_linear" (Myers.distance_full qs ss = d_ref);
      check "upto at d succeeds" (Myers.distance_upto ~k:d_ref qs ss = Some d_ref);
      check "upto above d succeeds" (Myers.distance_upto ~k:(d_ref + 1) qs ss = Some d_ref);
      check "upto below d refuses"
        (d_ref = 0 || Myers.distance_upto ~k:(d_ref - 1) qs ss = None);
      incr checked)
    !pairs;
  !checked

(* ---- 1b: one-word diagonal band edges ---- *)

(* [q] with substitutions at [rate], then random single-base insertions
   or deletions until it is [target] long — a pair whose length gap is
   exactly |target - |q||. *)
let reshape rng q ~target ~rate =
  let b = Buffer.create (max target 1) in
  String.iter
    (fun c -> Buffer.add_char b (if Rng.float rng 1.0 < rate then "ACGT".[Rng.int rng 4] else c))
    q;
  let s = ref (Buffer.contents b) in
  while String.length !s <> target do
    let len = String.length !s in
    if len < target then begin
      let i = Rng.int rng (len + 1) in
      s := String.sub !s 0 i ^ String.make 1 "ACGT".[Rng.int rng 4] ^ String.sub !s i (len - i)
    end
    else begin
      let i = Rng.int rng len in
      s := String.sub !s 0 i ^ String.sub !s (i + 1) (len - i - 1)
    end
  done;
  !s

(* Caps on both sides of the one-word band's limit and of the true
   distance: the half-width limit ⌊(61+|δ|)/2⌋ of a band over the
   diagonals max(-k, δ-k)..min(k, δ+k), the full-width limit 61 of a
   band over the diagonals with |t| + |δ-t| ≤ k, |δ| itself (the smallest
   cap that can succeed), d-1/d/d+1, and 0. *)
let caps_around ~gap ~d =
  let half = (61 + gap) / 2 in
  [ 0; gap - 1; gap; half; half + 1; 61; 62; d - 1; d; d + 1 ]

let check_caps what q s =
  let d_ref = reference_distance q s in
  let qs = dna q and ss = dna s in
  let gap = abs (String.length q - String.length s) in
  check (what ^ ": distance = Dp_linear") (Myers.distance qs ss = d_ref);
  check (what ^ ": distance_full = Dp_linear") (Myers.distance_full qs ss = d_ref);
  List.iter
    (fun k ->
      let expected = if d_ref <= k then Some d_ref else None in
      check
        (Printf.sprintf "%s: upto ~k:%d (d=%d)" what k d_ref)
        (Myers.distance_upto ~k qs ss = expected))
    (caps_around ~gap ~d:d_ref)

(* Pattern lengths 1/61/62/63/124/125/200 put the band's [Eq] window at
   bit offset 0 and across word boundaries; length gaps 0/1/30/31/61/62
   straddle the one-word limit; both orientations (subject longer: the
   band starts pinned at row 1; pattern longer) at three divergences,
   the last an unrelated pair whose corner diagonal overruns any small
   cap within a few columns. *)
let diagonal_edges () =
  let rng = Rng.create ~seed:20261017 in
  let checked = ref 0 in
  List.iter
    (fun n ->
      let q = random_dna rng n in
      List.iter
        (fun gap ->
          List.iter
            (fun target ->
              if target >= 0 then
                List.iter
                  (fun (tag, s) ->
                    check_caps (Printf.sprintf "n=%d m=%d %s" n target tag) q s;
                    incr checked)
                  [
                    ("near", reshape rng q ~target ~rate:0.02);
                    ("mid", reshape rng q ~target ~rate:0.2);
                    ("far", random_dna rng target);
                  ])
            [ n + gap; n - gap ])
        [ 0; 1; 30; 31; 61; 62 ])
    [ 1; 61; 62; 63; 124; 125; 200 ];
  (* hopeless pairs under tight caps: the early exit must refuse *)
  List.iter
    (fun (n, k) ->
      let q = random_dna rng n and s = random_dna rng n in
      check_caps (Printf.sprintf "hopeless n=%d" n) q s;
      check (Printf.sprintf "hopeless n=%d refused at k=%d" n k)
        (Myers.distance_upto ~k (dna q) (dna s) = None);
      incr checked)
    [ (200, 5); (1000, 20); (3000, 61) ];
  !checked

(* ---- 2: cutoff-driven network byte-identity ---- *)

let families = 6
let members = 32
let len = 128

let star_families ~seed =
  let rng = Rng.create ~seed in
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let out =
    Array.make (families * members) ("", Sequence.of_string Alphabet.dna4 "A")
  in
  for f = 0 to families - 1 do
    let root = Genome_gen.generate rng ~len () in
    for m = 0 to members - 1 do
      let s = if m = 0 then root else Genome_gen.mutate rng ~divergence:div root in
      out.((f * members) + m) <- (Printf.sprintf "fam%d_%03d" f m, s)
    done
  done;
  out

let run_once ~tag ~cutoff seqs =
  let out =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "anyseq-bandgate-%d-%s.tsv" (Unix.getpid ()) tag)
  in
  let params =
    {
      Pipeline.default_params with
      scheme = Anyseq.Scheme.unit_cost;
      (* brute force: the minimizer prefilter would drop the divergent
         cross-family pairs before alignment, and those are exactly the
         pairs the distance caps must cut off *)
      min_shared = 0;
      min_ident = 0.7;
      top_k = 4;
      cutoff;
    }
  in
  let service = Anyseq.Service.create ~shards:1 ~capacity:4096 () in
  let r =
    Fun.protect
      ~finally:(fun () -> Anyseq.Service.shutdown service)
      (fun () -> Pipeline.run ~service ~out params (Pipeline.Seqs seqs))
  in
  match r with
  | Ok rep -> (out, rep)
  | Error msg ->
      Printf.eprintf "FAIL: %s run: %s\n" tag msg;
      exit 1

let read_bytes path = In_channel.with_open_text path In_channel.input_all

let () =
  let n_pairs = engine_identity () + diagonal_edges () in
  let seqs = star_families ~seed:808 in
  let cut_out, cut = run_once ~tag:"cutoff" ~cutoff:true seqs in
  let unc_out, unc = run_once ~tag:"uncapped" ~cutoff:false seqs in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ cut_out; unc_out ])
    (fun () ->
      check "caps actually fired" (cut.Pipeline.pairs_cutoff > 0);
      check "uncapped run has no cutoffs" (unc.Pipeline.pairs_cutoff = 0);
      check "edges exist" (cut.Pipeline.edges > 0);
      check "cutoff edge list ≡ uncapped edge list"
        (read_bytes cut_out = read_bytes unc_out);
      check "both runs resolve the same pair count"
        (cut.Pipeline.pairs_aligned + cut.Pipeline.pairs_cutoff
        = unc.Pipeline.pairs_aligned + unc.Pipeline.pairs_cutoff));
  if !failures = 0 then begin
    Printf.printf
      "band-gate OK: %d pairs banded ≡ full ≡ Dp_linear; network with cutoffs ≡ without \
       (%d aligned + %d cut off, %d edges)\n"
      n_pairs cut.Pipeline.pairs_aligned cut.Pipeline.pairs_cutoff cut.Pipeline.edges;
    exit 0
  end
  else begin
    Printf.eprintf "band-gate: %d failure(s)\n" !failures;
    exit 1
  end
