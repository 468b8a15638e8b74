(* Workload "genome": the paper's Fig. 5a long pairs. One 60 kb pair at
   0.5% SNPs and 0.05% indels, through the Service one job per call:
   unit-cost global score on the whole pair (banded Myers, which skips all
   but a thin band of blocks), affine-global score on a prefix via Auto
   with two domains (the wavefront tier), and affine-global traceback on
   a shorter prefix. Almost no service overhead: the time is in the
   kernels. *)

open Harness
module S = Anyseq.Service
module Seq = Anyseq.Sequence
module Scheme = Anyseq.Scheme
module T = Anyseq.Types

let domains = 2

type sizes = { len : int; myers_jobs : int; wavefront_len : int; traceback_len : int }

let sizes p =
  if p.quick then { len = 12_000; myers_jobs = 2; wavefront_len = 3_000; traceback_len = 1_000 }
  else { len = 60_000; myers_jobs = 30; wavefront_len = 2_100; traceback_len = 2_000 }

type state = {
  svc : S.t;
  myers : S.seq_job;
  wavefront : S.seq_job;
  traceback : S.seq_job;
}

let cells (j : S.seq_job) = Seq.length j.S.sj_query * Seq.length j.S.sj_subject

let setup p () =
  let z = sizes p in
  let rng = Anyseq_util.Rng.create ~seed:p.seed in
  let divergence =
    { Anyseq.Genome_gen.snp_rate = 0.005; indel_rate = 0.0005; indel_mean_len = 2.0 }
  in
  let query = Anyseq.Genome_gen.generate rng ~len:z.len () in
  let subject = Anyseq.Genome_gen.mutate rng ~divergence query in
  let prefix n s = Seq.sub s ~pos:0 ~len:(min n (Seq.length s)) in
  let job ~scheme ~traceback n =
    let a = Scheme.alphabet scheme in
    S.seq_job
      ~config:(Anyseq.Config.make ~scheme ~mode:T.Global ~traceback ())
      ~query:(recode a (prefix n query)) ~subject:(recode a (prefix n subject)) ()
  in
  let st =
    {
      svc = S.create ~domains ();
      myers = job ~scheme:Scheme.unit_cost ~traceback:false z.len;
      wavefront = job ~scheme:Scheme.wildcard_affine ~traceback:false z.wavefront_len;
      traceback = job ~scheme:Scheme.wildcard_affine ~traceback:true z.traceback_len;
    }
  in
  List.iter (fun j -> ignore (S.run_seqs st.svc [| j |])) [ st.myers; st.wavefront; st.traceback ];
  st

type tally = { submit : clock; await : clock; mutable words : float }

let tally () = { submit = clock (); await = clock (); words = 0.0 }
let service_s t = secs t.submit +. secs t.await

let call svc t job =
  let w0 = Gc.minor_words () in
  let ticket =
    timed t.submit (fun () ->
        Trace.with_span "bench.service.submit" (fun () -> S.submit_seqs svc [| job |]))
  in
  let res =
    timed t.await (fun () -> Trace.with_span "bench.service.await" (fun () -> S.await ticket))
  in
  t.words <- t.words +. (Gc.minor_words () -. w0);
  res.(0)

let score_of = function Ok (o : S.outcome) -> o.S.score | Error _ -> min_int

let run p r =
  let z = sizes p in
  let st = repeated_setup p r ~setup:(setup p) ~teardown:(fun st -> S.shutdown st.svc) in
  (* tallies.(traced).(0 myers | 1 wavefront | 2 traceback) *)
  let tallies = Array.init 2 (fun _ -> Array.init 3 (fun _ -> tally ())) in
  let round_s = [| []; [] |] in
  let scores = ref [] in
  let ws = Anyseq.Scratch.create () in
  let myers = clock () and wavefront = clock () and hirschberg = clock () in
  let traced_rounds = ref 0 in
  let cache0 = cache_lookups st.svc in
  let round_cells = (z.myers_jobs * cells st.myers) + cells st.wavefront + cells st.traceback in
  let direct () =
    incr traced_rounds;
    let j = st.myers in
    Trace.with_span "bench.myers.distance" (fun () ->
        timed myers (fun () -> ignore (Anyseq.Myers.distance ~ws j.S.sj_query j.S.sj_subject)));
    let j = st.wavefront in
    Trace.with_span "bench.wavefront.score_many" (fun () ->
        timed wavefront (fun () ->
            ignore
              (Anyseq.Scheduler.score_many ~domains Scheme.wildcard_affine T.Global
                 [| (j.S.sj_query, j.S.sj_subject) |])));
    let j = st.traceback in
    Trace.with_span "bench.hirschberg.align" (fun () ->
        timed hirschberg (fun () ->
            ignore
              (Anyseq.Hirschberg.align ~ws Scheme.wildcard_affine T.Global ~query:j.S.sj_query
                 ~subject:j.S.sj_subject)))
  in
  rounds p (fun i ->
      let traced = traced_round p i in
      let k = if traced then 1 else 0 in
      let s = speed r in
      let tiers0 = tier_counts st.svc in
      (* one tracing session for the round and the direct calls after it,
         so that the Chrome file holds both *)
      let res, dt =
        with_tracing traced (fun () ->
            let t0 = now_ns () in
            let m = List.init z.myers_jobs (fun _ -> call st.svc tallies.(k).(0) st.myers) in
            let w = call st.svc tallies.(k).(1) st.wavefront in
            let b = call st.svc tallies.(k).(2) st.traceback in
            let dt = since t0 in
            if traced then direct ();
            (* wavefront, traceback, then the Myers jobs *)
            (Array.of_list (w :: b :: m), dt))
      in
      record_tiers r ~before:tiers0 ~after:(tier_counts st.svc);
      round_s.(k) <- dt :: round_s.(k);
      if not traced then begin
        record r "gcups" (gcups ~cells:round_cells ~seconds:(dt *. s));
        record r "p50_ms" (dt *. s *. 1e3)
      end;
      count_results r res;
      scores := Array.map score_of res :: !scores);
  record_hit_rate r ~before:cache0 ~after:(cache_lookups st.svc);
  (* ---- correctness ---- *)
  let first = List.hd (List.rev !scores) in
  check r "genome.rounds_repeat" (List.for_all (fun s -> s = first) !scores);
  let t_full = now_ns () in
  let full = Anyseq.Myers.distance_full ~ws st.myers.S.sj_query st.myers.S.sj_subject in
  let full_s = since t_full in
  (* unit-cost global score is the negated edit distance *)
  check r "genome.myers_equals_distance_full"
    (Array.for_all (fun s -> s = -full) (Array.sub first 2 z.myers_jobs));
  let reference scheme (j : S.seq_job) ~tiled =
    let q = Seq.view j.S.sj_query and s = Seq.view j.S.sj_subject in
    if tiled then (Anyseq.Tiling.score_only scheme T.Global ~tile:512 ~query:q ~subject:s).T.score
    else (Anyseq_core.Dp_linear.score_only scheme T.Global ~query:q ~subject:s).T.score
  in
  check r "genome.wavefront_equals_tiling"
    (first.(0) = reference Scheme.wildcard_affine st.wavefront ~tiled:true);
  check r "genome.traceback_equals_dp_linear"
    (first.(1) = reference Scheme.wildcard_affine st.traceback ~tiled:false);
  if p.trace then begin
    let traced = tallies.(1) and untraced = tallies.(0) in
    let n = !traced_rounds in
    let jobs = float_of_int (n * (z.myers_jobs + 2)) in
    let sum f = Array.fold_left (fun acc t -> acc +. f t) 0.0 in
    record r "service.submit_us_per_job" (ratio (sum (fun t -> secs t.submit) traced *. 1e6) jobs);
    record r "service.await_us_per_job" (ratio (sum (fun t -> secs t.await) traced *. 1e6) jobs);
    record r "service.minor_words_per_job"
      (ratio (sum (fun t -> t.words) untraced)
         (float_of_int (List.length round_s.(0) * (z.myers_jobs + 2))));
    (* the direct Myers call ran once per traced round *)
    record r "service.overhead_share"
      (1.0 -. ratio (secs myers) (service_s traced.(0) /. float_of_int z.myers_jobs));
    let per_round c = n * cells c in
    record r "myers_gcups"
      (gcups ~cells:(z.myers_jobs * per_round st.myers) ~seconds:(service_s traced.(0)));
    record r "score_gcups" (gcups ~cells:(per_round st.wavefront) ~seconds:(service_s traced.(1)));
    record r "traceback_gcups"
      (gcups ~cells:(per_round st.traceback) ~seconds:(service_s traced.(2)));
    let kernel = gcups ~cells:(per_round st.myers) ~seconds:(secs myers) in
    let sweep = gcups ~cells:(cells st.myers) ~seconds:full_s in
    record r "myers.kernel_gcups" kernel;
    record r "myers.full_gcups" sweep;
    record r "myers.banded_over_full" (ratio kernel sweep);
    record r "wavefront.gcups" (gcups ~cells:(per_round st.wavefront) ~seconds:(secs wavefront));
    record r "hirschberg.gcups" (gcups ~cells:(per_round st.traceback) ~seconds:(secs hirschberg));
    record r "trace.overhead_pct" (overhead_pct ~traced:round_s.(1) ~untraced:round_s.(0))
  end;
  record r "peak_rss_mb" (peak_rss_mb None);
  S.shutdown st.svc
