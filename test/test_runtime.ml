(* Tests of the runtime service layer: specialization cache, batch
   executor, metrics, and the redesigned facade entry points.

   The central property here is the API contract of the redesign:
   [align_batch] over any job array is observably identical to folding
   [align] over it — same scores, same transcripts, same errors — for
   every backend, mode, and gap model. *)

module Rng = Anyseq_util.Rng
module Alphabet = Anyseq_bio.Alphabet
module Sequence = Anyseq_bio.Sequence
module Substitution = Anyseq_bio.Substitution
module Gaps = Anyseq_bio.Gaps
module Cigar = Anyseq_bio.Cigar
module Alignment = Anyseq_bio.Alignment
module Scheme = Anyseq_scoring.Scheme
module T = Anyseq_core.Types
module Dp_linear = Anyseq_core.Dp_linear
module Domain_pool = Anyseq_wavefront.Domain_pool
module Wire = Anyseq_client.Wire
open Anyseq_runtime

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "jobs" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check int) "same name, same counter" 5 (Metrics.value (Metrics.counter m "jobs"));
  Metrics.gauge_set m "depth" 7;
  Metrics.gauge_set m "depth" 3;
  Alcotest.(check (option int)) "gauge current" (Some 3) (Metrics.find m "depth");
  let h = Metrics.histogram m "lat" in
  for v = 1 to 100 do
    Metrics.observe h v
  done;
  Alcotest.(check int) "hist count" 100 (Metrics.hist_count h);
  Alcotest.(check int) "hist max" 100 (Metrics.hist_max h);
  Alcotest.(check int) "hist sum" 5050 (Metrics.hist_sum h);
  let p50 = Metrics.hist_quantile h 0.5 in
  Alcotest.(check bool) "p50 bracket" true (p50 >= 32.0 && p50 <= 127.0);
  let dump = Metrics.dump m in
  Alcotest.(check bool) "dump lists all" true
    (Helpers.contains_sub dump "counter jobs 5"
    && Helpers.contains_sub dump "gauge depth 3 max=7"
    && Helpers.contains_sub dump "hist lat count=100");
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.value c)

(* Round-trip: render the registry as Prometheus text exposition, parse it
   back with a dumb line parser, and check the numbers survived. *)
let test_metrics_prometheus () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "runtime/jobs_ok") 12;
  Metrics.gauge_set m "runtime/queue_depth" 9;
  Metrics.gauge_set m "runtime/queue_depth" 4;
  let h = Metrics.histogram m "runtime/batch_us" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 500; 70_000 ];
  let text = Metrics.dump_prometheus m in
  let lines = String.split_on_char '\n' text in
  let types = Hashtbl.create 8 and values = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; name; kind ] -> Hashtbl.replace types name kind
      | [ series; v ] when line <> "" && line.[0] <> '#' ->
          Hashtbl.replace values series (float_of_string v)
      | _ -> ())
    lines;
  let value s = Hashtbl.find_opt values s in
  Alcotest.(check (option string)) "counter typed" (Some "counter")
    (Hashtbl.find_opt types "anyseq_runtime_jobs_ok");
  Alcotest.(check (option (float 0.))) "counter value" (Some 12.) (value "anyseq_runtime_jobs_ok");
  Alcotest.(check (option string)) "gauge typed" (Some "gauge")
    (Hashtbl.find_opt types "anyseq_runtime_queue_depth");
  Alcotest.(check (option (float 0.))) "gauge current" (Some 4.)
    (value "anyseq_runtime_queue_depth");
  Alcotest.(check (option (float 0.))) "gauge high-water" (Some 9.)
    (value "anyseq_runtime_queue_depth_max");
  Alcotest.(check (option string)) "histogram typed" (Some "histogram")
    (Hashtbl.find_opt types "anyseq_runtime_batch_us");
  Alcotest.(check (option (float 0.))) "hist count" (Some 6.)
    (value "anyseq_runtime_batch_us_count");
  Alcotest.(check (option (float 0.))) "hist sum" (Some 70506.)
    (value "anyseq_runtime_batch_us_sum");
  Alcotest.(check (option (float 0.))) "+Inf bucket carries the total" (Some 6.)
    (value {|anyseq_runtime_batch_us_bucket{le="+Inf"}|});
  (* Buckets are cumulative and ordered: extract them in file order. *)
  let buckets =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ series; v ]
          when Helpers.contains_sub series "anyseq_runtime_batch_us_bucket{le=\""
               && not (Helpers.contains_sub series "+Inf") ->
            Some (float_of_string v)
        | _ -> None)
      lines
  in
  Alcotest.(check bool) "at least one finite bucket" true (buckets <> []);
  let monotone =
    fst
      (List.fold_left (fun (ok, prev) v -> (ok && v >= prev, v)) (true, neg_infinity) buckets)
  in
  Alcotest.(check bool) "buckets cumulative" true monotone;
  Alcotest.(check (float 0.)) "last finite bucket <= count" 6. (List.nth buckets (List.length buckets - 1))

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "histogram over counter name"
    (Invalid_argument "Metrics: instrument kind mismatch for x") (fun () ->
      ignore (Metrics.histogram m "x"))

(* ------------------------------------------------------------------ *)
(* Native kernels: bit-identical to the generic linear-space engine    *)
(* ------------------------------------------------------------------ *)

let native_schemes =
  Helpers.schemes_under_test
  @ [ ("wildcard-linear", Scheme.wildcard_linear); ("blosum62", Scheme.blosum62_affine) ]

let native_matches_engine =
  Helpers.qtest ~count:60 "native kernel = Dp_linear (score and end cell)"
    QCheck2.Gen.(
      tup3 nat (oneofl native_schemes) (oneofl Helpers.modes_under_test))
    (fun (seed, (_, scheme), mode) ->
      let rng = Rng.create ~seed in
      let alphabet = Scheme.alphabet scheme in
      let nk = Native_kernel.make scheme mode in
      let ws = Anyseq_core.Scratch.create () in
      let ok = ref true in
      for _ = 1 to 10 do
        let q = Sequence.random rng alphabet ~len:(Rng.int rng 70) in
        let s = Sequence.random rng alphabet ~len:(Rng.int rng 70) in
        let qv = Sequence.view q and sv = Sequence.view s in
        let reference = Dp_linear.score_only scheme mode ~query:qv ~subject:sv in
        let native = nk.Native_kernel.score ~ws ~query:q ~subject:s in
        if reference <> native then ok := false
      done;
      !ok)

let align_repr (a : Alignment.t) =
  Printf.sprintf "%d %s q[%d,%d) s[%d,%d)" a.Alignment.score
    (Cigar.to_string a.Alignment.cigar)
    a.Alignment.query_start a.Alignment.query_end a.Alignment.subject_start
    a.Alignment.subject_end

let native_traceback_matches_engine =
  Helpers.qtest ~count:40 "native traceback = Engine.align (score, CIGAR, coords)"
    QCheck2.Gen.(
      tup3 nat (oneofl native_schemes) (oneofl Helpers.modes_under_test))
    (fun (seed, (_, scheme), mode) ->
      let rng = Rng.create ~seed in
      let alphabet = Scheme.alphabet scheme in
      let nk = Native_kernel.make scheme mode in
      let ws = Anyseq_core.Scratch.create () in
      let ok = ref true in
      for _ = 1 to 8 do
        let q = Sequence.random rng alphabet ~len:(Rng.int rng 70) in
        let s = Sequence.random rng alphabet ~len:(Rng.int rng 70) in
        let reference = Anyseq_core.Engine.align scheme mode ~query:q ~subject:s in
        let native = nk.Native_kernel.align ~ws ~query:q ~subject:s in
        if align_repr reference <> align_repr native then ok := false
      done;
      !ok)

let test_native_traceback_long_pairs () =
  (* Above [Engine.auto_full_matrix_limit] the native align must take the
     same Hirschberg route as the generic engine — and still match it
     bit-for-bit, CIGAR included — on unrelated pairs and on a mutated
     copy (long match runs, realistic gaps), under both gap models. *)
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun scheme ->
      let alphabet = Scheme.alphabet scheme in
      let base = Sequence.random rng alphabet ~len:1200 in
      let pairs =
        [
          ("random", Sequence.random rng alphabet ~len:1100, Sequence.random rng alphabet ~len:1050);
          ("mutated", base, Anyseq_seqio.Genome_gen.mutate rng base);
        ]
      in
      List.iter
        (fun mode ->
          let nk = Native_kernel.make scheme mode in
          List.iter
            (fun (label, q, s) ->
              let reference = Anyseq_core.Engine.align scheme mode ~query:q ~subject:s in
              let native =
                Workspace.with_ws (fun ws -> nk.Native_kernel.align ~ws ~query:q ~subject:s)
              in
              Alcotest.(check string)
                (Printf.sprintf "long %s pair, %s" label (Scheme.to_string scheme))
                (align_repr reference) (align_repr native))
            pairs)
        [ T.Global; T.Semiglobal; T.Local ])
    [ Scheme.paper_linear; Scheme.paper_affine; Scheme.wildcard_linear; Scheme.wildcard_affine ]

let test_steady_state_allocation_budget () =
  (* The tentpole's acceptance bar: once arenas and kernels are warm, a
     score-only batch must stay under 100 minor words per alignment —
     parse + result plumbing only, nothing per DP cell or row. *)
  let svc = Service.create () in
  let rng = Rng.create ~seed:11 in
  let config = Anyseq.Config.make ~traceback:false ~backend:Anyseq.Config.Scalar () in
  let pairs =
    Array.init 64 (fun _ ->
        let q, s = Helpers.random_pair rng ~max_len:150 in
        (Sequence.to_string q, Sequence.to_string s))
  in
  let jobs =
    Array.map (fun (query, subject) -> Service.job ~config ~query ~subject ()) pairs
  in
  for _ = 1 to 3 do
    ignore (Service.run svc jobs)
  done;
  let w0 = Gc.minor_words () in
  let iters = 10 in
  for _ = 1 to iters do
    ignore (Service.run svc jobs)
  done;
  let per =
    (Gc.minor_words () -. w0) /. float_of_int (iters * Array.length jobs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state %.1f minor words/alignment < 100" per)
    true (per < 100.0)

(* ------------------------------------------------------------------ *)
(* Certified global band                                               *)
(* ------------------------------------------------------------------ *)

(* U(w), the ceiling of every path leaving the band (DESIGN.md,
   "Certified band for global scores"). *)
let band_ceiling scheme ~n ~m w =
  let smax = Substitution.max_score scheme.Scheme.subst in
  let g = (2 * (w + 1)) - abs (m - n) in
  (smax * ((n + m - g) / 2))
  - (2 * Gaps.open_cost scheme.Scheme.gap)
  - (g * Gaps.extend_cost scheme.Scheme.gap)

let global_reference scheme q s =
  Dp_linear.score_only scheme T.Global ~query:(Sequence.view q) ~subject:(Sequence.view s)

(* Letters each pair is drawn from: protein pairs lean on W, the residue
   that reaches BLOSUM62's largest score, so that its band can certify. *)
let band_letters scheme =
  match Alphabet.size (Scheme.alphabet scheme) with
  | 4 -> "ACGT"
  | 5 -> "ACGTACGTACGTN"
  | _ -> "WWWWWWWWCHY"

let rand_str rng letters len =
  String.init len (fun _ -> letters.[Rng.int rng (String.length letters)])

(* A copy of [s] in which each position, with probability [div], is
   substituted, deleted or followed by one to three inserted letters. *)
let diverge rng letters div s =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      if Rng.float rng 1.0 >= div then Buffer.add_char b c
      else
        match Rng.int rng 3 with
        | 0 -> Buffer.add_char b letters.[Rng.int rng (String.length letters)]
        | 1 -> ()
        | _ ->
            Buffer.add_char b c;
            Buffer.add_string b (rand_str rng letters (1 + Rng.int rng 3)))
    s;
  Buffer.contents b

(* Pairs whose optimal path leaves the first band by a few diagonals:
   [x] is deleted before the homopolymer [hom] and [y] inserted after it,
   so the out-of-band path scores U(w₀) or close to it, and the in-band
   path that mismatches across [hom] scores a little less. *)
let excursion rng letters ~depth =
  let c = letters.[0] in
  let other () =
    let rec pick () =
      let x = letters.[Rng.int rng (String.length letters)] in
      if x = c then pick () else x
    in
    pick ()
  in
  let flank () = rand_str rng letters (20 + Rng.int rng 110) in
  let p = flank () and sfx = flank () in
  let hom = String.make (Rng.int rng 12) c in
  let x = String.init depth (fun _ -> other ()) and y = String.init depth (fun _ -> other ()) in
  (p ^ x ^ hom ^ sfx, p ^ hom ^ y ^ sfx)

let band_pair rng scheme =
  let letters = band_letters scheme in
  let a, b =
    match Rng.int rng 3 with
    | 0 -> excursion rng letters ~depth:(3 + Rng.int rng 5)
    | _ ->
        let base = rand_str rng letters (Rng.int rng 301) in
        let copy = diverge rng letters (Rng.float rng 0.3) base in
        (* sometimes push δ = |m − n| above w₀ = 4 *)
        let copy =
          if Rng.bool rng then copy
          else
            let k = Rng.int rng (String.length copy + 1) in
            String.sub copy 0 k ^ rand_str rng letters (1 + Rng.int rng 30)
            ^ String.sub copy k (String.length copy - k)
        in
        if Rng.bool rng then (base, copy) else (copy, base)
  in
  let seq x = Sequence.of_string (Scheme.alphabet scheme) x in
  (seq a, seq b)

let band_matches_reference =
  Helpers.qtest ~count:120 "global band score = Dp_linear (every builtin scheme)"
    QCheck2.Gen.(pair nat (oneofl Scheme.builtins))
    (fun (seed, scheme) ->
      let rng = Rng.create ~seed in
      let nk = Native_kernel.make scheme T.Global in
      let ws = Anyseq_core.Scratch.create () in
      let ok = ref true in
      for _ = 1 to 12 do
        let q, s = band_pair rng scheme in
        if global_reference scheme q s <> nk.Native_kernel.score ~ws ~query:q ~subject:s then
          ok := false
      done;
      !ok)

(* The excursion pairs alone, at a fixed seed: optima one to three
   diagonals past w₀, where a wrong ceiling or jump shows first. *)
let test_band_excursions () =
  let rng = Rng.create ~seed:1234 in
  List.iter
    (fun scheme ->
      let nk = Native_kernel.make scheme T.Global in
      let ws = Anyseq_core.Scratch.create () in
      let seq v = Sequence.of_string (Scheme.alphabet scheme) v in
      for k = 1 to 150 do
        let a, b = excursion rng (band_letters scheme) ~depth:(3 + (k mod 5)) in
        let q = seq a and s = seq b in
        Alcotest.(check int)
          (Printf.sprintf "%s excursion %d" (Scheme.to_string scheme) k)
          (global_reference scheme q s).T.score
          (nk.Native_kernel.score ~ws ~query:q ~subject:s).T.score
      done)
    Scheme.builtins

(* Pairs built so that the first band's score equals U(w₀) exactly: an
   in-band excursion of depth [a] and [t] mismatches with
   (5 − a)(s_max + 2·Ge) = t(s_max − mismatch), for n = m. The band must
   certify them in one round; every band score must be the optimum. *)
let test_band_certificate_at_equality () =
  let hits = ref 0 in
  List.iter
    (fun scheme ->
      let smax = Substitution.max_score scheme.Scheme.subst in
      let x = Scheme.subst_score scheme 0 1 in
      let ge = Gaps.extend_cost scheme.Scheme.gap in
      let plan =
        List.find_map
          (fun a ->
            let lhs = (5 - a) * (smax + (2 * ge)) in
            if lhs mod (smax - x) = 0 then Some (a, lhs / (smax - x)) else None)
          [ 1; 2; 3; 4 ]
      in
      match plan with
      | None -> Alcotest.failf "no equality plan for %s" (Scheme.to_string scheme)
      | Some (a, t) ->
          let rng = Rng.create ~seed:77 in
          let nk = Native_kernel.make scheme T.Global in
          let ws = Anyseq_core.Scratch.create () in
          for k = 1 to 60 do
            let p = rand_str rng "ACGT" (40 + Rng.int rng 60)
            and r = rand_str rng "ACGT" (12 + Rng.int rng 20)
            and sfx = rand_str rng "ACGT" (40 + Rng.int rng 60) in
            let x = rand_str rng "ACGT" a and y = rand_str rng "ACGT" a in
            let b = Bytes.of_string (p ^ r ^ y ^ sfx) in
            (* t substitutions on distinct flank positions *)
            let flank = String.length p in
            for i = 0 to t - 1 do
              let pos = i * (flank / t) in
              let c = Bytes.get b pos in
              Bytes.set b pos (if c = 'A' then 'C' else 'A')
            done;
            let seq v = Sequence.of_string (Scheme.alphabet scheme) v in
            let q = seq (p ^ x ^ r ^ sfx) and s = seq (Bytes.to_string b) in
            let n = Sequence.length q and m = Sequence.length s in
            let expected = global_reference scheme q s in
            Anyseq_core.Scratch.reset_band_tally ws;
            let got = nk.Native_kernel.score ~ws ~query:q ~subject:s in
            Alcotest.(check int)
              (Printf.sprintf "%s pair %d" (Scheme.to_string scheme) k)
              expected.T.score got.T.score;
            if expected.T.score = band_ceiling scheme ~n ~m (max 4 (abs (m - n))) then begin
              incr hits;
              let tally = Anyseq_core.Scratch.band_tally ws in
              Alcotest.(check (pair int int))
                (Printf.sprintf "%s pair %d: L = U certifies in one round"
                   (Scheme.to_string scheme) k)
                (1, 1)
                (tally.Anyseq_core.Scratch.certified, tally.Anyseq_core.Scratch.rounds)
            end
          done)
    [ Scheme.paper_linear; Scheme.paper_affine; Scheme.wildcard_linear; Scheme.wildcard_affine;
      Scheme.unit_cost ];
  Alcotest.(check bool) (Printf.sprintf "%d pairs at L = U" !hits) true (!hits >= 20)

(* Pooled rows come back dirty. A dense call that leaves high values in
   them must not leak into a later band call on the same workspace. *)
let test_band_dirty_workspace () =
  let rng = Rng.create ~seed:4242 in
  List.iter
    (fun scheme ->
      let ws = Anyseq_core.Scratch.create () in
      let global = Native_kernel.make scheme T.Global in
      let local = Native_kernel.make scheme T.Local in
      let seq v = Sequence.of_string (Scheme.alphabet scheme) v in
      let hot = seq (String.make 250 'A') in
      let hot_short = seq (String.make 60 'A') in
      for k = 1 to 8 do
        (* leave a local and a global (wide, hence dense) run's rows behind *)
        ignore (local.Native_kernel.score ~ws ~query:hot ~subject:hot);
        ignore (global.Native_kernel.score ~ws ~query:hot_short ~subject:hot);
        let base = rand_str rng "ACGT" (140 + Rng.int rng 100) in
        let q = seq base and s = seq (diverge rng "ACGT" 0.02 base) in
        Anyseq_core.Scratch.reset_band_tally ws;
        let got = global.Native_kernel.score ~ws ~query:q ~subject:s in
        Alcotest.(check bool) "the band ran" true
          ((Anyseq_core.Scratch.band_tally ws).Anyseq_core.Scratch.rounds > 0);
        Alcotest.(check int)
          (Printf.sprintf "%s pair %d" (Scheme.to_string scheme) k)
          (global_reference scheme q s).T.score got.T.score
      done)
    [ Scheme.paper_linear; Scheme.paper_affine; Scheme.unit_cost ]

(* The certificate needs s_max ≥ 0 and s_max + 2·Ge > 0: other schemes
   run every global score dense, and still score right. *)
let test_band_inadmissible_schemes () =
  let rng = Rng.create ~seed:31337 in
  List.iter
    (fun (label, scheme) ->
      let nk = Native_kernel.make scheme T.Global in
      let ws = Anyseq_core.Scratch.create () in
      for _ = 1 to 10 do
        let base = Helpers.random_dna rng ~len:150 in
        let q = base and s = Anyseq_seqio.Genome_gen.mutate rng base in
        Alcotest.(check int) label (global_reference scheme q s).T.score
          (nk.Native_kernel.score ~ws ~query:q ~subject:s).T.score
      done;
      let t = Anyseq_core.Scratch.band_tally ws in
      Alcotest.(check (triple int int int))
        (label ^ ": dense, no band round")
        (0, 10, 0)
        (t.Anyseq_core.Scratch.certified, t.Anyseq_core.Scratch.dense,
         t.Anyseq_core.Scratch.rounds))
    [
      ("negative best substitution",
       Scheme.dna_simple_linear ~match_:(-1) ~mismatch:(-3) ~gap_extend:1);
      ("free linear gaps", Scheme.dna_simple_linear ~match_:0 ~mismatch:(-1) ~gap_extend:0);
      ("free affine extension",
       Scheme.dna_simple_affine ~match_:0 ~mismatch:(-2) ~gap_open:3 ~gap_extend:0);
    ]

(* Through the service: [runtime/band_certified] + [runtime/band_dense]
   equals the native tier's global score jobs of a mixed batch. Local,
   semi-global, traceback and Myers jobs count in neither. *)
let test_band_counters_mixed_batch () =
  let rng = Rng.create ~seed:2718 in
  let svc = Service.create ~domains:1 () in
  let cfg ?(scheme = Scheme.wildcard_linear) ?(traceback = false) mode =
    Anyseq.Config.make ~scheme ~mode ~traceback ~backend:Anyseq.Config.Scalar ()
  in
  let configs =
    [|
      (cfg T.Global, true);
      (cfg ~scheme:Scheme.paper_affine T.Global, true);
      (cfg T.Local, false);
      (cfg ~scheme:Scheme.paper_affine T.Semiglobal, false);
      (cfg ~traceback:true T.Global, false);
      (cfg ~scheme:Scheme.unit_cost T.Global, false);
    |]
  in
  let jobs =
    Array.init 120 (fun i ->
        let base = Helpers.random_dna rng ~len:(60 + Rng.int rng 120) in
        let other =
          if i mod 3 = 0 then Helpers.random_dna rng ~len:(Sequence.length base)
          else Anyseq_seqio.Genome_gen.mutate rng base
        in
        Service.job ~config:(fst configs.(i mod Array.length configs))
          ~query:(Sequence.to_string base) ~subject:(Sequence.to_string other) ())
  in
  let global_score_jobs =
    Array.fold_left
      (fun n (j : Service.job) ->
        if Array.exists (fun (c, counted) -> counted && c == j.Service.config) configs then n + 1
        else n)
      0 jobs
  in
  Array.iter (fun r -> if Result.is_error r then Alcotest.fail "job failed") (Service.run svc jobs);
  let m = Service.metrics svc in
  let get name = Option.value ~default:(-1) (Metrics.find m ("runtime/" ^ name)) in
  let certified = get "band_certified" and dense = get "band_dense" in
  Alcotest.(check int) "certified + dense = native global score jobs" global_score_jobs
    (certified + dense);
  Alcotest.(check bool) "both outcomes occur" true (certified > 0 && dense > 0);
  Alcotest.(check bool) "a certified job ran at least one round" true
    (get "band_rounds" >= certified);
  let text = Metrics.dump_prometheus m in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exported") true
        (Helpers.contains_sub text ("anyseq_runtime_" ^ name ^ " ")))
    [ "band_certified"; "band_dense"; "band_rounds" ]

(* ------------------------------------------------------------------ *)
(* Specialization cache                                                *)
(* ------------------------------------------------------------------ *)

let mk_scheme ?name match_ =
  Scheme.make ?name (Substitution.simple Alphabet.dna4 ~match_ ~mismatch:(-1)) (Gaps.linear 1)

let test_cache_hits_and_misses () =
  let c = Spec_cache.create ~capacity:4 () in
  ignore (Spec_cache.get c Scheme.paper_linear T.Global);
  ignore (Spec_cache.get c Scheme.paper_linear T.Global);
  ignore (Spec_cache.get c Scheme.paper_linear T.Local);
  let st = Spec_cache.stats c in
  Alcotest.(check int) "misses" 2 st.Spec_cache.misses;
  Alcotest.(check int) "hits" 1 st.Spec_cache.hits;
  Alcotest.(check int) "size" 2 st.Spec_cache.size;
  Alcotest.(check (float 0.001)) "hit rate" (1.0 /. 3.0) (Spec_cache.hit_rate st)

let test_cache_lru_eviction () =
  let c = Spec_cache.create ~capacity:2 () in
  let a = mk_scheme ~name:"lru-a" 1
  and b = mk_scheme ~name:"lru-b" 2
  and d = mk_scheme ~name:"lru-d" 3 in
  ignore (Spec_cache.get c a T.Global);
  ignore (Spec_cache.get c b T.Global);
  ignore (Spec_cache.get c a T.Global);
  (* a is now more recent than b *)
  ignore (Spec_cache.get c d T.Global);
  (* capacity 2: b (least recently used) must go *)
  let st = Spec_cache.stats c in
  Alcotest.(check int) "one eviction" 1 st.Spec_cache.evictions;
  Alcotest.(check int) "bounded size" 2 st.Spec_cache.size;
  ignore (Spec_cache.get c a T.Global);
  let st = Spec_cache.stats c in
  Alcotest.(check int) "a survived (hit)" 2 st.Spec_cache.hits;
  ignore (Spec_cache.get c b T.Global);
  let st = Spec_cache.stats c in
  Alcotest.(check int) "b was evicted (miss)" 4 st.Spec_cache.misses

let test_cache_name_collision () =
  (* Two distinct schemes sharing a name must not share a kernel. *)
  let c = Spec_cache.create ~capacity:4 () in
  let s1 = mk_scheme ~name:"dup" 1 and s2 = mk_scheme ~name:"dup" 5 in
  let q = Sequence.of_string Alphabet.dna4 "AAAA" in
  let score scheme =
    let k = Spec_cache.get c scheme T.Global in
    (k.Spec_cache.native.Native_kernel.score
       ~ws:(Anyseq_core.Scratch.create ()) ~query:q ~subject:q)
      .T.score
  in
  Alcotest.(check int) "first scheme kernel" 4 (score s1);
  Alcotest.(check int) "same-name scheme rebuilt, not reused" 20 (score s2);
  let st = Spec_cache.stats c in
  Alcotest.(check int) "conflict counted" 1 st.Spec_cache.invalidations

(* ------------------------------------------------------------------ *)
(* Service: admission control, deadlines, error surfacing              *)
(* ------------------------------------------------------------------ *)

let score_config = Anyseq.Config.make ~traceback:false ()

let test_service_backpressure () =
  let svc = Service.create ~capacity:4 () in
  let jobs =
    Array.init 10 (fun _ -> Service.job ~config:score_config ~query:"ACGT" ~subject:"ACGT" ())
  in
  let results = Service.run svc jobs in
  let ok = Array.length (Array.of_seq (Seq.filter Result.is_ok (Array.to_seq results))) in
  Alcotest.(check int) "admitted = capacity" 4 ok;
  Array.iteri
    (fun i r ->
      if i < 4 then Alcotest.(check bool) (Printf.sprintf "job %d ok" i) true (Result.is_ok r)
      else
        match r with
        | Error Error.Rejected -> ()
        | _ -> Alcotest.failf "job %d should be rejected" i)
    results;
  Alcotest.(check int) "slots released" 0 (Service.queue_depth svc);
  (* capacity freed: a new submission is admitted again *)
  let r = Service.run_one svc (Service.job ~config:score_config ~query:"AC" ~subject:"AC" ()) in
  Alcotest.(check bool) "after release" true (Result.is_ok r)

let test_service_timeout () =
  let svc = Service.create () in
  let jobs =
    [|
      Service.job ~config:score_config ~timeout_s:0.0 ~query:"ACGT" ~subject:"ACGT" ();
      Service.job ~config:Anyseq.Config.default ~timeout_s:0.0 ~query:"ACGT" ~subject:"ACGT" ();
      Service.job ~config:score_config ~query:"ACGT" ~subject:"ACGT" ();
      (* past Int64 nanoseconds: no deadline, not an expired one *)
      Service.job ~config:score_config ~timeout_s:1e10 ~query:"ACGT" ~subject:"ACGT" ();
      Service.job ~config:Anyseq.Config.default ~timeout_s:infinity ~query:"ACGT" ~subject:"ACGT"
        ();
    |]
  in
  (match Service.run svc jobs with
  | [| Error Error.Timeout; Error Error.Timeout; Ok _; Ok _; Ok _ |] -> ()
  | r ->
      Alcotest.failf "expected [timeout; timeout; ok; ok; ok], got [%s]"
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (function Ok _ -> "ok" | Error e -> Error.to_string e)
                 r))));
  let m = Service.metrics svc in
  Alcotest.(check (option int)) "timeouts counted" (Some 2)
    (Metrics.find m "runtime/jobs_timed_out");
  (* a job whose deadline passed never ran, so no tier counts it — the
     timed-out traceback job included *)
  let count name = Option.value ~default:0 (Metrics.find m name) in
  Alcotest.(check int) "only the jobs that ran count on a tier" 3
    (count "runtime/tier_native")

let test_service_bad_sequence () =
  let svc = Service.create () in
  let strict = Anyseq.Config.make ~scheme:Scheme.paper_linear ~traceback:false () in
  let jobs =
    [|
      Service.job ~config:strict ~query:"ACGN" ~subject:"ACGT" ();
      Service.job ~config:strict ~query:"ACGT" ~subject:"ACGT" ();
    |]
  in
  match Service.run svc jobs with
  | [| Error (Error.Bad_sequence _); Ok o |] -> Alcotest.(check int) "good job unaffected" 8 o.Service.score
  | _ -> Alcotest.fail "expected [bad_sequence; ok]"

let overflow_scheme = mk_scheme ~name:"hot" 20000

let test_overflow_bound_parity () =
  let q = String.concat "" (List.init 10 (fun _ -> "A")) in
  let simd_score = Anyseq.Config.make ~scheme:overflow_scheme ~traceback:false ~backend:Anyseq.Config.Simd () in
  (* batch path *)
  let svc = Service.create () in
  (match Service.run_one svc (Service.job ~config:simd_score ~query:q ~subject:q ()) with
  | Error (Error.Overflow_bound _) -> ()
  | _ -> Alcotest.fail "batch: expected overflow_bound");
  (* single-align path fails identically *)
  (match Anyseq.align ~config:simd_score ~query:q ~subject:q with
  | Error (Error.Overflow_bound _) -> ()
  | _ -> Alcotest.fail "align: expected overflow_bound");
  (* scalar backend on the same job is fine... *)
  let scalar = { simd_score with Anyseq.Config.backend = Anyseq.Config.Scalar } in
  Alcotest.(check bool) "scalar ok" true
    (Result.is_ok (Anyseq.align ~config:scalar ~query:q ~subject:q));
  (* ...and so is traceback, which never uses the 16-bit kernels *)
  let simd_tb = { simd_score with Anyseq.Config.traceback = true } in
  Alcotest.(check bool) "traceback ok" true
    (Result.is_ok (Anyseq.align ~config:simd_tb ~query:q ~subject:q))

(* ------------------------------------------------------------------ *)
(* The API contract: align_batch = n independent aligns                *)
(* ------------------------------------------------------------------ *)

let repr (r : (Anyseq.aligned, Error.t) result) =
  match r with
  | Error e -> "error: " ^ Error.to_string e
  | Ok a ->
      Printf.sprintf "%d/%s/%s/%s" a.Anyseq.score a.Anyseq.query_aligned a.Anyseq.subject_aligned
        (match a.Anyseq.alignment with
        | None -> "-"
        | Some al ->
            Printf.sprintf "%s@q[%d,%d)s[%d,%d)" (Cigar.to_string al.Alignment.cigar)
              al.Alignment.query_start al.Alignment.query_end al.Alignment.subject_start
              al.Alignment.subject_end)

let backends_under_test =
  Anyseq.Config.[ Auto; Scalar; Simd; Wavefront ]

let batch_equals_sequential =
  Helpers.qtest ~count:48 "align_batch = sequential aligns (scores, CIGARs, errors)"
    QCheck2.Gen.(
      tup5 nat
        (oneofl Helpers.schemes_under_test)
        (oneofl Helpers.modes_under_test)
        (oneofl backends_under_test) bool)
    (fun (seed, (_, scheme), mode, backend, traceback) ->
      let rng = Rng.create ~seed in
      let pairs =
        Array.init 11 (fun _ ->
            let q, s = Helpers.random_pair rng ~max_len:40 in
            (Sequence.to_string q, Sequence.to_string s))
      in
      let config = Anyseq.Config.make ~scheme ~mode ~traceback ~backend () in
      let service = Service.create () in
      let batch = Anyseq.align_batch ~service ~config pairs in
      Array.for_all2
        (fun b (query, subject) -> repr b = repr (Anyseq.align ~config ~query ~subject))
        batch pairs)

(* ------------------------------------------------------------------ *)
(* Proof-directed bit-parallel tier                                    *)
(* ------------------------------------------------------------------ *)

let tier_count svc name = Metrics.find (Service.metrics svc) ("runtime/tier_" ^ name)

(* Global score-only batches under a Unit_cost-certified scheme must route
   through the Myers tier (visible in the per-tier counters) and stay
   bit-identical — score and end cell — to the generic engine, across
   multi-word (>64) lengths and empty/degenerate inputs. *)
let test_myers_tier_differential () =
  let rng = Rng.create ~seed:4242 in
  let config =
    Anyseq.Config.make ~scheme:Scheme.unit_cost ~mode:T.Global ~traceback:false ()
  in
  let lens = [| 0; 1; 2; 63; 64; 65; 127; 128; 200 |] in
  let pairs =
    Array.init 40 (fun i ->
        let pick () =
          if i < Array.length lens then lens.(i mod Array.length lens)
          else Rng.int rng 201
        in
        ( Sequence.to_string (Helpers.random_dna rng ~len:(pick ())),
          Sequence.to_string (Helpers.random_dna rng ~len:(pick ())) ))
  in
  let svc = Service.create () in
  let jobs =
    Array.map (fun (q, s) -> Service.job ~config ~query:q ~subject:s ()) pairs
  in
  Anyseq_trace.Trace.enable ();
  let results =
    Fun.protect ~finally:Anyseq_trace.Trace.disable (fun () -> Service.run svc jobs)
  in
  Alcotest.(check bool) "dispatch visible as backend.myers span" true
    (List.exists
       (fun (s : Anyseq_trace.Trace.span) -> s.Anyseq_trace.Trace.name = "backend.myers")
       (Anyseq_trace.Trace.spans ()));
  Anyseq_trace.Trace.clear ();
  Array.iteri
    (fun i r ->
      let query, subject = pairs.(i) in
      match r with
      | Error e -> Alcotest.failf "job %d failed: %s" i (Error.to_string e)
      | Ok o ->
          let qv = Sequence.view (Sequence.of_string Alphabet.dna4 query)
          and sv = Sequence.view (Sequence.of_string Alphabet.dna4 subject) in
          let reference = Dp_linear.score_only Scheme.unit_cost T.Global ~query:qv ~subject:sv in
          Alcotest.(check int) (Printf.sprintf "job %d score" i) reference.T.score o.Service.score;
          Alcotest.(check int) (Printf.sprintf "job %d qend" i) reference.T.query_end
            o.Service.query_end;
          Alcotest.(check int) (Printf.sprintf "job %d send" i) reference.T.subject_end
            o.Service.subject_end)
    results;
  Alcotest.(check (option int)) "all jobs on the bit-parallel tier"
    (Some (Array.length jobs)) (tier_count svc "bitparallel");
  Alcotest.(check bool) "no jobs on the native tier" true
    (match tier_count svc "native" with None | Some 0 -> true | Some _ -> false)

(* Certificates, not names, gate the tier: a non-unit scheme must never
   touch the bit-parallel counter, and unit-cost jobs asking for traceback
   or non-global modes stay off it too. *)
let test_myers_tier_gating () =
  let rng = Rng.create ~seed:77 in
  let pairs =
    Array.init 12 (fun _ ->
        let q, s = Helpers.random_pair rng ~max_len:50 in
        (Sequence.to_string q, Sequence.to_string s))
  in
  let run_config config =
    let svc = Service.create () in
    let jobs = Array.map (fun (q, s) -> Service.job ~config ~query:q ~subject:s ()) pairs in
    Array.iter
      (fun r -> if Result.is_error r then Alcotest.fail "job failed")
      (Service.run svc jobs);
    tier_count svc "bitparallel"
  in
  let off config name =
    match run_config config with
    | None | Some 0 -> ()
    | Some n -> Alcotest.failf "%s: %d jobs on the bit-parallel tier" name n
  in
  off (Anyseq.Config.make ~scheme:Scheme.paper_linear ~mode:T.Global ~traceback:false ())
    "paper-linear global";
  off (Anyseq.Config.make ~scheme:Scheme.unit_cost ~mode:T.Local ~traceback:false ())
    "unit-cost local";
  off (Anyseq.Config.make ~scheme:Scheme.unit_cost ~mode:T.Semiglobal ~traceback:false ())
    "unit-cost semiglobal";
  off (Anyseq.Config.make ~scheme:Scheme.unit_cost ~mode:T.Global ~traceback:true ())
    "unit-cost traceback";
  Alcotest.(check (option int)) "unit-cost global score-only routes" (Some (Array.length pairs))
    (run_config (Anyseq.Config.make ~scheme:Scheme.unit_cost ~mode:T.Global ~traceback:false ()))

(* The banded tier: score-only unit-cost global jobs carrying a
   [max_dist] cap route through the Ukkonen-banded Myers engine — visible
   as the [tier_banded] counter and the [backend.myers_banded] span — and
   must be bit-identical to the uncapped tier whenever the cap is not
   exceeded. A cap below the true distance answers [Error Cutoff] and
   bumps [tier_banded_cutoff]; a mixed batch splits across both
   counters. *)
let test_banded_tier_differential () =
  let rng = Rng.create ~seed:9191 in
  let config =
    Anyseq.Config.make ~scheme:Scheme.unit_cost ~mode:T.Global ~traceback:false ()
  in
  let lens = [| 0; 1; 61; 62; 63; 124; 130; 200 |] in
  let pairs =
    Array.init 32 (fun i ->
        let pick () =
          if i < Array.length lens then lens.(i mod Array.length lens)
          else Rng.int rng 201
        in
        ( Sequence.to_string (Helpers.random_dna rng ~len:(pick ())),
          Sequence.to_string (Helpers.random_dna rng ~len:(pick ())) ))
  in
  (* generous cap: never exceeded, so every job must succeed with the
     exact uncapped score *)
  let svc = Service.create () in
  let capped =
    Array.map
      (fun (q, s) ->
        Service.job ~config ~max_dist:(String.length q + String.length s) ~query:q
          ~subject:s ())
      pairs
  in
  Anyseq_trace.Trace.enable ();
  let results =
    Fun.protect ~finally:Anyseq_trace.Trace.disable (fun () -> Service.run svc capped)
  in
  Alcotest.(check bool) "dispatch visible as backend.myers_banded span" true
    (List.exists
       (fun (s : Anyseq_trace.Trace.span) ->
         s.Anyseq_trace.Trace.name = "backend.myers_banded")
       (Anyseq_trace.Trace.spans ()));
  Anyseq_trace.Trace.clear ();
  Array.iteri
    (fun i r ->
      let query, subject = pairs.(i) in
      match r with
      | Error e -> Alcotest.failf "capped job %d failed: %s" i (Error.to_string e)
      | Ok o ->
          let qv = Sequence.view (Sequence.of_string Alphabet.dna4 query)
          and sv = Sequence.view (Sequence.of_string Alphabet.dna4 subject) in
          let reference =
            Dp_linear.score_only Scheme.unit_cost T.Global ~query:qv ~subject:sv
          in
          Alcotest.(check int) (Printf.sprintf "job %d score" i) reference.T.score
            o.Service.score;
          Alcotest.(check int) (Printf.sprintf "job %d qend" i) reference.T.query_end
            o.Service.query_end;
          Alcotest.(check int) (Printf.sprintf "job %d send" i) reference.T.subject_end
            o.Service.subject_end)
    results;
  Alcotest.(check (option int)) "all capped jobs on the banded tier"
    (Some (Array.length capped)) (tier_count svc "banded");
  Alcotest.(check bool) "no cutoffs under the generous cap" true
    (match tier_count svc "banded_cutoff" with None | Some 0 -> true | Some _ -> false);
  Alcotest.(check bool) "uncapped tier untouched" true
    (match tier_count svc "bitparallel" with None | Some 0 -> true | Some _ -> false)

let test_banded_tier_cutoff_and_mix () =
  let config =
    Anyseq.Config.make ~scheme:Scheme.unit_cost ~mode:T.Global ~traceback:false ()
  in
  (* distance exactly 4: ACGTACGT vs TGCATGCA style divergent pair *)
  let q = "ACGTACGTACGT" and s = "ACGAACGAACGA" in
  let qv = Sequence.view (Sequence.of_string Alphabet.dna4 q)
  and sv = Sequence.view (Sequence.of_string Alphabet.dna4 s) in
  let exact =
    -(Dp_linear.score_only Scheme.unit_cost T.Global ~query:qv ~subject:sv).T.score
  in
  Alcotest.(check bool) "pair is genuinely divergent" true (exact > 0);
  let svc = Service.create () in
  let jobs =
    [|
      Service.job ~config ~max_dist:exact ~query:q ~subject:s ();
      Service.job ~config ~max_dist:(exact - 1) ~query:q ~subject:s ();
      Service.job ~config ~query:q ~subject:s ();
      Service.job ~config ~max_dist:0 ~query:q ~subject:s ();
    |]
  in
  let results = Service.run svc jobs in
  (match results.(0) with
  | Ok o -> Alcotest.(check int) "cap = distance succeeds exactly" (-exact) o.Service.score
  | Error e -> Alcotest.failf "cap-at-distance failed: %s" (Error.to_string e));
  (match results.(1) with
  | Error Error.Cutoff -> ()
  | _ -> Alcotest.fail "cap below distance must answer Cutoff");
  (match results.(2) with
  | Ok o -> Alcotest.(check int) "uncapped job rides the full tier" (-exact) o.Service.score
  | Error e -> Alcotest.failf "uncapped job failed: %s" (Error.to_string e));
  (match results.(3) with
  | Error Error.Cutoff -> ()
  | _ -> Alcotest.fail "zero cap on a divergent pair must answer Cutoff");
  Alcotest.(check (option int)) "three jobs banded" (Some 3) (tier_count svc "banded");
  Alcotest.(check (option int)) "two of them cut off" (Some 2)
    (tier_count svc "banded_cutoff");
  Alcotest.(check (option int)) "one job on the full tier" (Some 1)
    (tier_count svc "bitparallel")

let test_tier_counters_prometheus () =
  let rng = Rng.create ~seed:5150 in
  let svc = Service.create () in
  let submit scheme =
    let config = Anyseq.Config.make ~scheme ~mode:T.Global ~traceback:false () in
    let jobs =
      Array.init 9 (fun _ ->
          let q, s = Helpers.random_pair rng ~max_len:40 in
          Service.job ~config ~query:(Sequence.to_string q) ~subject:(Sequence.to_string s) ())
    in
    Array.iter (fun r -> if Result.is_error r then Alcotest.fail "job failed") (Service.run svc jobs)
  in
  submit Scheme.unit_cost;
  submit Scheme.paper_linear;
  let text = Metrics.dump_prometheus (Service.metrics svc) in
  let value series =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ s; v ] when s = series -> Some (float_of_string v)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check (option (float 0.))) "bitparallel tier exported" (Some 9.)
    (value "anyseq_runtime_tier_bitparallel");
  (* The same scrape shows the non-unit batch routed onto the native tier. *)
  Alcotest.(check (option (float 0.))) "non-unit batch on scalar tiers" (Some 9.)
    (value "anyseq_runtime_tier_native")

(* Tier routing, one row per job shape: the exact [runtime/tier_*]
   deltas a batch produces. Every tier counter missing from a row's
   expectation must stay unchanged. *)
let test_tier_routing_table () =
  Alcotest.(check (list string)) "tier names"
    [ "bitparallel"; "banded"; "banded_cutoff"; "native"; "simd"; "wavefront" ]
    Service.tier_names;
  let rng = Rng.create ~seed:1818 in
  let dna len = Sequence.to_string (Helpers.random_dna rng ~len) in
  let q = dna 60 and s = dna 70 in
  let long_q = dna 2000 and long_s = dna 2000 in
  let hot = String.make 10 'A' in
  let cfg ?(scheme = Scheme.wildcard_linear) ?(traceback = false) backend =
    Anyseq.Config.make ~scheme ~mode:T.Global ~traceback ~backend ()
  in
  let unit = cfg ~scheme:Scheme.unit_cost Anyseq.Config.Auto in
  let job ?max_dist config query subject = Service.job ~config ?max_dist ~query ~subject () in
  let ok = Result.is_ok in
  let overflow = function Error (Error.Overflow_bound _) -> true | _ -> false in
  let rows =
    Anyseq.Config.
      [
        ("scalar score", 1, [ job (cfg Scalar) q s ], ok, [ ("native", 1) ]);
        ("auto score", 1, [ job (cfg Auto) q s; job (cfg Auto) s q ], ok, [ ("native", 2) ]);
        ("unit-cost uncapped", 1, [ job unit q s ], ok, [ ("bitparallel", 1) ]);
        ("unit-cost capped", 1, [ job ~max_dist:200 unit q s ], ok, [ ("banded", 1) ]);
        ( "unit-cost mixed chunk", 1,
          [ job unit q s; job ~max_dist:200 unit q s; job unit s q ],
          ok, [ ("bitparallel", 2); ("banded", 1) ] );
        ( "auto long affine, one domain", 1,
          [ job (cfg ~scheme:Scheme.wildcard_affine Auto) long_q long_s ],
          ok, [ ("native", 1) ] );
        ( "auto long affine, two domains", 2,
          [ job (cfg ~scheme:Scheme.wildcard_affine Auto) long_q long_s ],
          ok, [ ("wavefront", 1) ] );
        ("auto long unit-cost, two domains", 2, [ job unit long_q long_s ], ok,
          [ ("bitparallel", 1) ]);
        ("scalar traceback", 1, [ job (cfg ~traceback:true Scalar) q s ], ok, [ ("native", 1) ]);
        ("simd traceback", 1, [ job (cfg ~traceback:true Simd) q s ], ok, [ ("native", 1) ]);
        ( "wavefront traceback", 1, [ job (cfg ~traceback:true Wavefront) q s ], ok,
          [ ("native", 1) ] );
        ("simd score", 1, [ job (cfg Simd) q s ], ok, [ ("simd", 1) ]);
        ("wavefront score", 2, [ job (cfg Wavefront) q s ], ok, [ ("wavefront", 1) ]);
        ( "simd over the 16-bit bound", 1,
          [ job (cfg ~scheme:overflow_scheme Simd) hot hot ], overflow, [] );
      ]
  in
  List.iter
    (fun (label, domains, jobs, expect, deltas) ->
      let svc = Service.create ~domains () in
      let before = Service.tier_counts svc in
      Array.iteri
        (fun i r ->
          if not (expect r) then
            Alcotest.failf "%s: job %d answered %s" label i
              (match r with Ok _ -> "ok" | Error e -> Error.to_string e))
        (Service.run svc (Array.of_list jobs));
      List.iter2
        (fun (n, b) (_, a) ->
          let want = Option.value ~default:0 (List.assoc_opt n deltas) in
          Alcotest.(check int) (Printf.sprintf "%s: tier_%s delta" label n) want (a - b))
        before (Service.tier_counts svc))
    rows

(* Remote unit-cost jobs must reach the fast tier: the wire config
   [Named "unit-cost"] survives encode/decode and resolves to the builtin
   scheme {e value} (physical equality is what the specialization cache
   and the certificate analysis key on). *)
let test_wire_unit_cost_round_trip () =
  let wire_config =
    { Wire.default_config with Wire.scheme = Wire.Named "unit-cost"; mode = T.Global }
  in
  let request =
    {
      Wire.id = 42L;
      config = wire_config;
      timeout_s = None;
      query = "ACGT";
      subject = "AGT";
      trace = None;
    }
  in
  let bytes = Wire.encode_request request in
  (match Wire.decode_frame bytes with
  | Error `Incomplete -> Alcotest.fail "incomplete frame"
  | Error (`Malformed m) -> Alcotest.failf "malformed frame: %s" m
  | Ok (Wire.Reply _, _) -> Alcotest.fail "expected a request frame"
  | Ok (Wire.Request r, _) ->
      Alcotest.(check bool) "scheme spec survives" true (r.Wire.config = wire_config));
  match Wire.resolve_config wire_config with
  | Error m -> Alcotest.failf "resolve failed: %s" m
  | Ok cfg ->
      Alcotest.(check bool) "resolves to the builtin value" true
        (cfg.Anyseq.Config.scheme == Scheme.unit_cost);
      (* A structurally unit-cost Simple spec also certifies — the analysis
         is semantic, so remote clients need not know the builtin's name. *)
      let simple =
        {
          wire_config with
          Wire.scheme =
            Wire.Simple
              { alphabet = `Dna4; match_ = 0; mismatch = -1; gap_open = 0; gap_extend = 1 };
        }
      in
      (match Wire.resolve_config simple with
      | Error m -> Alcotest.failf "simple resolve failed: %s" m
      | Ok cfg ->
          Alcotest.(check bool) "structural unit-cost certifies" true
            (Anyseq_analysis.Property.unit_cost
               (Anyseq_analysis.Property.analyze cfg.Anyseq.Config.scheme)
            <> None))

(* Two equal local optima. B ends first in the reference's row-major note
   order (query 300, subject 600); A ends later in the query but earlier in
   the subject (query 400, subject 100), so a tiled run that ranks ties in
   tile order reports A. Every tier must report B, as the dense reference
   does. *)
let test_tied_local_ends () =
  let rng = Rng.create ~seed:5 in
  let a = Sequence.to_string (Helpers.random_dna rng ~len:100) in
  let b = Sequence.to_string (Helpers.random_dna rng ~len:100) in
  let ns k = String.make k 'N' in
  let query = Sequence.of_string Alphabet.dna5 (ns 200 ^ b ^ a ^ ns 300) in
  let subject = Sequence.of_string Alphabet.dna5 (a ^ ns 400 ^ b ^ ns 300) in
  let scheme = Scheme.wildcard_affine in
  let ends backend =
    let svc = Service.create ~domains:2 () in
    let config = Anyseq.Config.make ~scheme ~mode:T.Local ~traceback:false ~backend () in
    let r = (Service.run_seqs svc [| Service.seq_job ~config ~query ~subject () |]).(0) in
    Service.shutdown svc;
    match r with
    | Ok o -> (o.Service.score, o.Service.query_end, o.Service.subject_end)
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let reference =
    Dp_linear.score_only scheme T.Local ~query:(Sequence.view query)
      ~subject:(Sequence.view subject)
  in
  let triple = Alcotest.(triple int int int) in
  Alcotest.check triple "reference" (200, 300, 600)
    (reference.T.score, reference.T.query_end, reference.T.subject_end);
  Alcotest.check triple "scalar" (200, 300, 600) (ends Anyseq.Config.Scalar);
  Alcotest.check triple "wavefront" (200, 300, 600) (ends Anyseq.Config.Wavefront)

let test_mixed_configs_one_batch () =
  (* One submission mixing configurations: grouping must dispatch each job
     under its own configuration and keep submission order. *)
  let rng = Rng.create ~seed:99 in
  let configs =
    [|
      Anyseq.Config.make ~mode:T.Global ~traceback:false ();
      Anyseq.Config.make ~mode:T.Local ();
      Anyseq.Config.make ~scheme:Scheme.paper_affine ~mode:T.Semiglobal ~traceback:false
        ~backend:Anyseq.Config.Simd ();
      Anyseq.Config.make ~mode:T.Global ~traceback:false ();
    |]
  in
  let svc = Service.create () in
  let jobs =
    Array.init 24 (fun i ->
        let q, s = Helpers.random_pair rng ~max_len:30 in
        Service.job ~config:configs.(i mod 4)
          ~query:(Sequence.to_string q) ~subject:(Sequence.to_string s) ())
  in
  let results = Service.run svc jobs in
  Array.iteri
    (fun i r ->
      let j = jobs.(i) in
      let expected =
        Anyseq.align ~config:j.Service.config ~query:j.Service.query ~subject:j.Service.subject
      in
      let got =
        Result.map
          (fun (o : Service.outcome) ->
            {
              Anyseq.score = o.Service.score;
              query_aligned = "";
              subject_aligned = "";
              alignment = o.Service.alignment;
            })
          r
      in
      let expected =
        Result.map (fun a -> { a with Anyseq.query_aligned = ""; subject_aligned = "" }) expected
      in
      Alcotest.(check string) (Printf.sprintf "job %d" i) (repr expected) (repr got))
    results

let test_service_drain () =
  let svc = Service.create () in
  (* A draining service rejects whole batches... *)
  Service.drain svc;
  Alcotest.(check bool) "draining" true (Service.is_draining svc);
  (match Service.run_one svc (Service.job ~config:score_config ~query:"AC" ~subject:"AC" ()) with
  | Error Error.Rejected -> ()
  | Ok _ -> Alcotest.fail "draining service admitted a job"
  | Error e -> Alcotest.failf "expected Rejected, got %s" (Error.to_string e));
  (* ...drain is idempotent, and reopen restores admission. *)
  Service.drain svc;
  Service.reopen svc;
  Alcotest.(check bool) "reopened" false (Service.is_draining svc);
  let r = Service.run_one svc (Service.job ~config:score_config ~query:"AC" ~subject:"AC" ()) in
  Alcotest.(check bool) "admitted after reopen" true (Result.is_ok r)

let test_service_drain_waits_for_in_flight () =
  (* Submitters run in domains; drain must block until their admitted jobs
     have released every slot, and late submitters must see Rejected. *)
  let svc = Service.create ~capacity:4096 () in
  let started = Atomic.make 0 in
  let rng = Rng.create ~seed:99 in
  let pairs =
    Array.init 64 (fun _ ->
        let q, s = Helpers.random_pair rng ~max_len:96 in
        (Sequence.to_string q, Sequence.to_string s))
  in
  let submitter () =
    Domain.spawn (fun () ->
        Atomic.incr started;
        let config = Anyseq.Config.make ~traceback:false () in
        Anyseq.align_batch ~service:svc ~config pairs)
  in
  let d1 = submitter () and d2 = submitter () in
  (* Wait until both submitters are live so drain races real work. *)
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  Service.drain svc;
  Alcotest.(check int) "no jobs in flight after drain" 0 (Service.queue_depth svc);
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  (* Every job either completed normally or was rejected by the gate —
     never lost, never half-done. *)
  Array.iter
    (fun results ->
      Array.iter
        (function
          | Ok _ | Error Error.Rejected -> ()
          | Error e -> Alcotest.failf "unexpected error during drain: %s" (Error.to_string e))
        results)
    [| r1; r2 |];
  Alcotest.(check int) "slots all released" 0 (Service.queue_depth svc)

let test_concurrent_submitters () =
  (* Several domains hammer one shared service: the cache mutex, the
     admission counter, and result slotting must all hold up. *)
  let svc = Service.create ~capacity:4096 () in
  let domains = 4 and per_domain = 40 in
  let mismatches = Array.make domains 0 in
  Domain_pool.run ~domains (fun id ->
      let rng = Rng.create ~seed:(1000 + id) in
      let pairs =
        Array.init per_domain (fun _ ->
            let q, s = Helpers.random_pair rng ~max_len:32 in
            (Sequence.to_string q, Sequence.to_string s))
      in
      let mode = Helpers.modes_under_test |> List.filteri (fun i _ -> i = id mod 3) |> List.hd in
      let config = Anyseq.Config.make ~mode ~traceback:false () in
      let results = Anyseq.align_batch ~service:svc ~config pairs in
      Array.iteri
        (fun i r ->
          let query, subject = pairs.(i) in
          if repr r <> repr (Anyseq.align ~config ~query ~subject) then
            mismatches.(id) <- mismatches.(id) + 1)
        results);
  Alcotest.(check (array int)) "all domains consistent" (Array.make domains 0) mismatches;
  Alcotest.(check int) "all slots released" 0 (Service.queue_depth svc);
  let st = Service.cache_stats svc in
  Alcotest.(check bool) "cache bounded" true (st.Spec_cache.size <= st.Spec_cache.capacity)

(* ------------------------------------------------------------------ *)
(* Sharded runtime: determinism, stealing, per-shard backpressure      *)
(* ------------------------------------------------------------------ *)

(* A skewed job-length mix: mostly short reads, every eighth pair an
   order of magnitude longer — the distribution that unbalances
   round-robin placement and makes stealing earn its keep. *)
let skewed_pairs rng count =
  Array.init count (fun i ->
      let len () = if i mod 8 = 0 then 200 + Rng.int rng 201 else 8 + Rng.int rng 33 in
      ( Sequence.to_string (Helpers.random_dna rng ~len:(len ())),
        Sequence.to_string (Helpers.random_dna rng ~len:(len ())) ))

(* Results must be independent of the shard count: scores, CIGARs and
   errors at shards 1/2/4 all equal the sequential facade answers, under
   both score-only and traceback configs over the skewed mix. *)
let test_shard_determinism () =
  let configs =
    [
      Anyseq.Config.make ~traceback:false ();
      Anyseq.Config.make ~mode:T.Local ~traceback:true ();
    ]
  in
  List.iter
    (fun shards ->
      let svc = Service.create ~shards () in
      Alcotest.(check int) "shard count" shards (Service.shards svc);
      Fun.protect
        ~finally:(fun () -> Service.shutdown svc)
        (fun () ->
          List.iter
            (fun config ->
              let rng = Rng.create ~seed:777 in
              let pairs = skewed_pairs rng 48 in
              let results = Anyseq.align_batch ~service:svc ~config pairs in
              Array.iteri
                (fun i r ->
                  let query, subject = pairs.(i) in
                  Alcotest.(check string)
                    (Printf.sprintf "shards=%d pair %d" shards i)
                    (repr (Anyseq.align ~config ~query ~subject))
                    (repr r))
                results)
            configs;
          Alcotest.(check int)
            (Printf.sprintf "shards=%d slots released" shards)
            0 (Service.queue_depth svc)))
    [ 1; 2; 4 ]

(* The submit/await seam itself: submit returns while chunks are queued,
   await settles them, a second await returns the settled array. *)
let test_submit_await () =
  let svc = Service.create () in
  let rng = Rng.create ~seed:31 in
  let pairs = skewed_pairs rng 24 in
  let config = Anyseq.Config.make ~traceback:false () in
  let jobs =
    Array.map (fun (query, subject) -> Service.job ~config ~query ~subject ()) pairs
  in
  let tk = Service.submit svc jobs in
  let results = Service.await tk in
  Alcotest.(check int) "one slot per job" (Array.length jobs) (Array.length results);
  let again = Service.await tk in
  Alcotest.(check bool) "await is idempotent" true (results == again);
  Array.iteri
    (fun i r ->
      let query, subject = pairs.(i) in
      match (r, Anyseq.align ~config ~query ~subject) with
      | Ok (o : Service.outcome), Ok a ->
          Alcotest.(check int) (Printf.sprintf "pair %d" i) a.Anyseq.score o.Service.score
      | _ -> Alcotest.failf "pair %d: unexpected failure" i)
    results;
  (* run is literally submit+await *)
  let direct = Service.run svc jobs in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "run = submit+await, job %d" i)
        true
        ((Result.is_ok r) = Result.is_ok results.(i)))
    direct

(* Work-stealing units over the generic pool with int chunks. *)
let test_shard_pool_units () =
  let p : int Shard.pool = Shard.create ~shards:3 ~capacity:10 () in
  Alcotest.(check int) "shards" 3 (Shard.shards p);
  (* capacity split 4/3/3 *)
  Alcotest.(check (list int)) "budget split" [ 4; 3; 3 ]
    (List.init 3 (Shard.capacity_of p));
  (* reserve prefers home, overflows in ring order *)
  let g = Shard.reserve p ~home:1 5 in
  Alcotest.(check (array int)) "home then ring" [| 0; 3; 2 |] g;
  Alcotest.(check int) "in flight" 5 (Shard.in_flight p);
  Shard.release p 1 3;
  Shard.release p 2 2;
  Alcotest.(check int) "released" 0 (Shard.in_flight p);
  (* queues: own pop first, then ring-order steal-half, FIFO within a
     queue. Shard 0 holds three chunks; the thief takes the oldest and
     migrates half the remainder (ceil(2/2) = 1 chunk) to its own queue. *)
  Alcotest.(check bool) "push 0" true (Shard.push p 0 100);
  Alcotest.(check bool) "push 0 again" true (Shard.push p 0 101);
  Alcotest.(check bool) "push 0 third" true (Shard.push p 0 102);
  Alcotest.(check bool) "push 1" true (Shard.push p 1 200);
  (match Shard.try_take ~self:1 p with
  | Some (200, 1) -> ()
  | _ -> Alcotest.fail "own queue first");
  (match Shard.try_take ~self:1 p with
  | Some (100, 0) -> () (* oldest chunk of the victim *)
  | _ -> Alcotest.fail "steals the oldest sibling chunk");
  (match Shard.try_take ~self:1 p with
  | Some (101, 1) -> () (* migrated by the steal, FIFO order preserved *)
  | _ -> Alcotest.fail "batch-stolen chunk sits in the thief's own queue");
  (match Shard.try_take p with
  | Some (102, 0) -> () (* the un-migrated half stayed behind *)
  | _ -> Alcotest.fail "caller help finds the chunk left on the victim");
  Alcotest.(check (option (pair int int))) "empty" None (Shard.try_take p);
  let st = Shard.stats p in
  Alcotest.(check int) "victim counts taken + migrated + helped" 3
    st.(0).Shard.s_stolen_from;
  Alcotest.(check int) "thief counts taken + migrated" 2 st.(1).Shard.s_steals;
  Alcotest.(check int) "local pops counted" 2 st.(1).Shard.s_run_local;
  Alcotest.(check int) "caller help counted" 1 (Shard.helped p);
  (* queue bound: a full queue refuses, place overflows to a sibling *)
  let q : int Shard.pool = Shard.create ~shards:2 ~capacity:64 ~queue_bound:1 () in
  Alcotest.(check bool) "first fits" true (Shard.push q 0 1);
  Alcotest.(check bool) "bound enforced" false (Shard.push q 0 2);
  (match Shard.place q 3 with
  | Some s -> Alcotest.(check int) "overflowed to the free shard" 1 s
  | None -> Alcotest.fail "place must overflow before giving up");
  (match Shard.place q 4 with
  | None -> ()
  | Some _ -> Alcotest.fail "every queue full must refuse");
  (* closed pool grants nothing, from any entry point *)
  Shard.close p;
  Alcotest.(check (array int)) "closed grants zeros" [| 0; 0; 0 |] (Shard.reserve p ~home:0 4);
  Alcotest.(check int) "closed reserve_on" 0 (Shard.reserve_on p 2 1);
  Shard.reopen p;
  Alcotest.(check int) "reopened" 1 (Shard.reserve_on p 2 1)

(* One saturated shard must not poison its siblings: budget exhausted on
   shard 0 still leaves shard 1's slots reachable through overflow. *)
let test_shard_backpressure_isolation () =
  let p : unit Shard.pool = Shard.create ~shards:2 ~capacity:8 () in
  Alcotest.(check int) "saturate shard 0" 4 (Shard.reserve_on p 0 4);
  Alcotest.(check int) "shard 0 exhausted" 0 (Shard.reserve_on p 0 1);
  let g = Shard.reserve p ~home:0 6 in
  Alcotest.(check (array int)) "sibling still grants its slice" [| 0; 4 |] g;
  Shard.release p 0 4;
  Alcotest.(check int) "shard 0 usable again" 2 (Shard.reserve_on p 0 2);
  (* and through the service: a 2-shard pool still answers the classic
     backpressure contract — prefix admission, Rejected beyond the pool
     budget, slots released afterwards *)
  let svc = Service.create ~capacity:4 ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let jobs =
        Array.init 10 (fun _ ->
            Service.job ~config:score_config ~query:"ACGT" ~subject:"ACGT" ())
      in
      let results = Service.run svc jobs in
      Array.iteri
        (fun i r ->
          if i < 4 then
            Alcotest.(check bool) (Printf.sprintf "job %d admitted" i) true (Result.is_ok r)
          else
            match r with
            | Error Error.Rejected -> ()
            | _ -> Alcotest.failf "job %d should be rejected" i)
        results;
      Alcotest.(check int) "slots released" 0 (Service.queue_depth svc))

(* Force a deterministic batch theft with real worker domains: one
   blocking chunk per shard pins both workers, a three-chunk backlog
   lands on shard 0 while they are pinned, then only worker 1 is
   released. Its own queue is empty, so its first take MUST be a
   steal-half from shard 0 — chunk 2 to run plus chunk 3 migrated into
   its own queue — followed by a local pop of chunk 3 and a lone steal
   of chunk 4. Stats are asserted as deltas against a snapshot taken
   while both workers were pinned, so the start-up race over the
   blockers cannot leak into the counts. *)
let test_shard_workers_steal () =
  let p : int Shard.pool = Shard.create ~shards:2 ~capacity:8 () in
  let gates = [| Atomic.make false; Atomic.make false |] in
  let started = Atomic.make 0 in
  let ran = Atomic.make 0 in
  let log = Array.make 5 (-1, -1) in
  Shard.start_workers p ~exec:(fun ~executor ~home x ->
      log.(x) <- (executor, home);
      if x < 2 then begin
        Atomic.incr started;
        while not (Atomic.get gates.(x)) do
          Domain.cpu_relax ()
        done
      end
      else Atomic.incr ran);
  Alcotest.(check bool) "blocker 0 queued" true (Shard.push p 0 0);
  Alcotest.(check bool) "blocker 1 queued" true (Shard.push p 1 1);
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  (* whichever way the start-up race assigned the blockers, each worker
     is pinned inside exactly one of them *)
  let blocker_of w = if fst log.(0) = w then 0 else 1 in
  Alcotest.(check bool) "each worker pinned on one blocker" true
    (List.sort compare [ fst log.(0); fst log.(1) ] = [ 0; 1 ]);
  let base = Shard.stats p in
  Alcotest.(check bool) "chunk 2 queued" true (Shard.push p 0 2);
  Alcotest.(check bool) "chunk 3 queued" true (Shard.push p 0 3);
  Alcotest.(check bool) "chunk 4 queued" true (Shard.push p 0 4);
  Atomic.set gates.(blocker_of 1) true;
  while Atomic.get ran < 3 do
    Domain.cpu_relax ()
  done;
  let st = Shard.stats p in
  Atomic.set gates.(blocker_of 0) true;
  Shard.shutdown p;
  (* worker 1 executed the whole backlog *)
  Array.iteri
    (fun x (executor, _) ->
      if x >= 2 then Alcotest.(check int) (Printf.sprintf "chunk %d on worker 1" x) 1 executor)
    log;
  (* chunk 3 was batch-migrated: it came out of the thief's own queue *)
  Alcotest.(check int) "chunk 2 stolen from shard 0" 0 (snd log.(2));
  Alcotest.(check int) "chunk 3 popped from thief's queue" 1 (snd log.(3));
  Alcotest.(check int) "chunk 4 stolen from shard 0" 0 (snd log.(4));
  let d field = field st.(0) - field base.(0) and d1 field = field st.(1) - field base.(1) in
  Alcotest.(check int) "victim counts taken + migrated + lone steal" 3
    (d (fun s -> s.Shard.s_stolen_from));
  Alcotest.(check int) "thief counts taken + migrated + lone steal" 3
    (d1 (fun s -> s.Shard.s_steals));
  Alcotest.(check int) "migrated chunk ran as a local pop" 1
    (d1 (fun s -> s.Shard.s_run_local));
  Alcotest.(check int) "pinned worker 0 stole nothing" 0 (d (fun s -> s.Shard.s_steals));
  Alcotest.(check int) "nothing left shard 1's queue" 0
    (d1 (fun s -> s.Shard.s_stolen_from))

(* ------------------------------------------------------------------ *)
(* Facade                                                              *)
(* ------------------------------------------------------------------ *)

let test_align_exn_raises () =
  let strict = Anyseq.Config.make ~scheme:Scheme.paper_linear () in
  match Anyseq.align_exn ~config:strict ~query:"ACGU" ~subject:"ACGT" with
  | _ -> Alcotest.fail "expected Error.Error"
  | exception Error.Error (Error.Bad_sequence _) -> ()

let test_facade_shares_default_scheme () =
  (* Cache identity depends on the default schemes being one value. *)
  Alcotest.(check bool) "physically equal" true
    (Anyseq.default_scheme == Anyseq.Config.default.Anyseq.Config.scheme)

let test_wrappers_still_paper_compatible () =
  let r = Anyseq.construct_global_alignment ~query:"ACGT" ~subject:"ACGT" () in
  Alcotest.(check int) "score" 8 r.Anyseq.score;
  Alcotest.(check bool) "traceback present" true (r.Anyseq.alignment <> None);
  Alcotest.(check int) "score-only wrapper" 8
    (Anyseq.global_alignment_score ~query:"ACGT" ~subject:"ACGT" ())

let () =
  Alcotest.run "runtime"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick test_metrics_basics;
          Alcotest.test_case "prometheus round-trip" `Quick test_metrics_prometheus;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        ] );
      ( "native kernels",
        [
          native_matches_engine;
          native_traceback_matches_engine;
          Alcotest.test_case "long pairs via Hirschberg" `Quick
            test_native_traceback_long_pairs;
          Alcotest.test_case "steady-state allocation budget" `Quick
            test_steady_state_allocation_budget;
        ] );
      ( "certified band",
        [
          band_matches_reference;
          Alcotest.test_case "optima past the first band" `Quick test_band_excursions;
          Alcotest.test_case "L = U certifies" `Quick test_band_certificate_at_equality;
          Alcotest.test_case "dirty workspace" `Quick test_band_dirty_workspace;
          Alcotest.test_case "inadmissible schemes run dense" `Quick
            test_band_inadmissible_schemes;
          Alcotest.test_case "counters over a mixed batch" `Quick
            test_band_counters_mixed_batch;
        ] );
      ( "spec cache",
        [
          Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "name collision" `Quick test_cache_name_collision;
        ] );
      ( "service",
        [
          Alcotest.test_case "backpressure" `Quick test_service_backpressure;
          Alcotest.test_case "timeout" `Quick test_service_timeout;
          Alcotest.test_case "bad sequence" `Quick test_service_bad_sequence;
          Alcotest.test_case "overflow parity" `Quick test_overflow_bound_parity;
          Alcotest.test_case "mixed configs" `Quick test_mixed_configs_one_batch;
          Alcotest.test_case "Myers tier bit-identical" `Quick test_myers_tier_differential;
          Alcotest.test_case "Myers tier certificate gating" `Quick test_myers_tier_gating;
          Alcotest.test_case "banded tier bit-identical" `Quick test_banded_tier_differential;
          Alcotest.test_case "banded tier cutoff + mixed batch" `Quick
            test_banded_tier_cutoff_and_mix;
          Alcotest.test_case "tier counters in Prometheus" `Quick
            test_tier_counters_prometheus;
          Alcotest.test_case "tier routing table" `Quick test_tier_routing_table;
          Alcotest.test_case "wire round-trip hits fast tier" `Quick
            test_wire_unit_cost_round_trip;
          Alcotest.test_case "drain gate" `Quick test_service_drain;
          Alcotest.test_case "drain waits for in-flight" `Slow test_service_drain_waits_for_in_flight;
          Alcotest.test_case "concurrent submitters" `Slow test_concurrent_submitters;
          Alcotest.test_case "tied local ends" `Quick test_tied_local_ends;
        ] );
      ( "sharded runtime",
        [
          Alcotest.test_case "determinism at shards 1/2/4" `Slow test_shard_determinism;
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "shard pool units" `Quick test_shard_pool_units;
          Alcotest.test_case "backpressure isolation" `Quick
            test_shard_backpressure_isolation;
          Alcotest.test_case "workers steal" `Slow test_shard_workers_steal;
        ] );
      ( "api contract",
        [
          batch_equals_sequential;
          Alcotest.test_case "align_exn raises" `Quick test_align_exn_raises;
          Alcotest.test_case "shared default scheme" `Quick test_facade_shares_default_scheme;
          Alcotest.test_case "paper wrappers" `Quick test_wrappers_still_paper_compatible;
        ] );
    ]
