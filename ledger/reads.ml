(* Workload "reads": the paper's Fig. 5b batch. Simulated 150-bp reads are
   aligned against their origin windows through Service.submit_seqs/await
   in four slices: affine-global and linear-local score (native tier),
   unit-cost global score (Myers tier, where a pair is only about three
   62-bit words, so band bookkeeping costs the most), and
   affine-semiglobal traceback. Time goes to the native kernels and to
   per-job service plumbing. *)

open Harness
module S = Anyseq.Service
module Seq = Anyseq.Sequence
module Scheme = Anyseq.Scheme
module T = Anyseq.Types

(* The pairs are cut into [chunks] equal chunks; round i runs every slice
   on chunk (i mod chunks), so twenty rounds cover the whole read set. The
   Myers slice repeats its chunk so that its share of a round's time is
   comparable to the others'. *)
let chunks = 20
let myers_passes = 10

type slice = {
  config : Anyseq.Config.t;
  passes : int;  (** submissions of the chunk per round *)
  jobs : S.seq_job array array;  (** per chunk *)
  cells : int array;  (** per chunk, one pass *)
}

type state = { svc : S.t; slices : slice array }

let affine_global = 0
let linear_local = 1
let unit_global = 2
let semiglobal_tb = 3

let make_slice pairs ~chunk ~config ~passes ~take =
  let alphabet = Scheme.alphabet config.Anyseq.Config.scheme in
  let jobs =
    Array.init chunks (fun c ->
        Array.init take (fun k ->
            let q, s = pairs.((c * chunk) + k) in
            S.seq_job ~config ~query:(recode alphabet q) ~subject:(recode alphabet s) ()))
  in
  let cells =
    Array.map
      (Array.fold_left
         (fun acc j -> acc + (Seq.length j.S.sj_query * Seq.length j.S.sj_subject))
         0)
      jobs
  in
  { config; passes; jobs; cells }

let setup p () =
  let n = if p.quick then 2_000 else 20_000 in
  let pairs =
    Anyseq.Read_sim.read_pairs ~seed:p.seed ~reference_len:200_000 ~read_len:150 ~count:n
  in
  let chunk = n / chunks in
  let slice scheme mode ~traceback ~passes ~take =
    make_slice pairs ~chunk ~passes ~take
      ~config:(Anyseq.Config.make ~scheme ~mode ~traceback ())
  in
  let slices =
    [|
      slice Scheme.wildcard_affine T.Global ~traceback:false ~passes:1 ~take:chunk;
      slice Scheme.wildcard_linear T.Local ~traceback:false ~passes:1 ~take:chunk;
      slice Scheme.unit_cost T.Global ~traceback:false ~passes:myers_passes ~take:chunk;
      slice Scheme.wildcard_affine T.Semiglobal ~traceback:true ~passes:1 ~take:(chunk / 4);
    |]
  in
  let svc = S.create ~capacity:chunk () in
  (* warm pass: fills the spec cache and the workspace pool *)
  Array.iter (fun sl -> ignore (S.run_seqs svc sl.jobs.(0))) slices;
  { svc; slices }

(* Service time, cells and allocation of one slice, summed over rounds. *)
type tally = {
  submit : clock;
  await : clock;
  mutable cells : int;
  mutable jobs : int;
  mutable words : float;
}

let tally () = { submit = clock (); await = clock (); cells = 0; jobs = 0; words = 0.0 }
let service_s t = secs t.submit +. secs t.await

let run_slice svc sl c t =
  let last = ref [||] in
  for _ = 1 to sl.passes do
    let w0 = Gc.minor_words () in
    let ticket =
      timed t.submit (fun () ->
          Trace.with_span "bench.service.submit" (fun () -> S.submit_seqs svc sl.jobs.(c)))
    in
    last := timed t.await (fun () -> Trace.with_span "bench.service.await" (fun () -> S.await ticket));
    t.words <- t.words +. (Gc.minor_words () -. w0);
    t.cells <- t.cells + sl.cells.(c);
    t.jobs <- t.jobs + Array.length sl.jobs.(c)
  done;
  !last

let score_of = function Ok (o : S.outcome) -> o.S.score | Error _ -> min_int

(* ---- correctness, after the timed phase ---- *)

let check_outputs r st first_results =
  let sampled_ok = ref true and tb_ok = ref true in
  Array.iteri
    (fun si sl ->
      let cfg = sl.config in
      Array.iteri
        (fun c results ->
          match results with
          | None -> ()
          | Some results ->
              Array.iteri
                (fun k (j : S.seq_job) ->
                  if k mod 97 = 0 then begin
                    let reference =
                      Anyseq_core.Dp_linear.score_only cfg.Anyseq.Config.scheme
                        cfg.Anyseq.Config.mode ~query:(Seq.view j.S.sj_query)
                        ~subject:(Seq.view j.S.sj_subject)
                    in
                    if score_of results.(k) <> reference.T.score then sampled_ok := false
                  end)
                sl.jobs.(c);
              if si = semiglobal_tb then begin
                let score_only =
                  Array.map
                    (fun (j : S.seq_job) ->
                      { j with S.sj_config = { cfg with Anyseq.Config.traceback = false } })
                    sl.jobs.(c)
                in
                let expect = S.run_seqs st.svc score_only in
                Array.iteri
                  (fun k res -> if score_of res <> score_of expect.(k) then tb_ok := false)
                  results
              end)
        first_results.(si))
    st.slices;
  check r "reads.every_97th_equals_dp_linear" !sampled_ok;
  check r "reads.traceback_equals_score_only" !tb_ok

let run p r =
  let st = repeated_setup p r ~setup:(setup p) ~teardown:(fun st -> S.shutdown st.svc) in
  let nslices = Array.length st.slices in
  let tallies = Array.init 2 (fun _ -> Array.init nslices (fun _ -> tally ())) in
  let round_s = [| []; [] |] in
  let first_results = Array.init nslices (fun _ -> Array.make chunks None) in
  let repeat_ok = ref true in
  let native_k =
    Option.get (Anyseq.Native_kernel.build Scheme.wildcard_affine T.Global)
  in
  let ws = Anyseq.Scratch.create () in
  let native = clock () and myers = clock () and full = clock () in
  let direct_cells = Array.make nslices 0 in
  let cache0 = cache_lookups st.svc in
  (* kernels called directly on the chunk, for the overhead share *)
  let direct c =
    let each si f = Array.iter f st.slices.(si).jobs.(c) in
    direct_cells.(affine_global) <- direct_cells.(affine_global) + st.slices.(affine_global).cells.(c);
    direct_cells.(unit_global) <- direct_cells.(unit_global) + st.slices.(unit_global).cells.(c);
    Trace.with_span "bench.native_kernel.score" (fun () ->
        timed native (fun () ->
            each affine_global (fun j ->
                ignore
                  (native_k.Anyseq.Native_kernel.score ~ws ~query:j.S.sj_query
                     ~subject:j.S.sj_subject))));
    Trace.with_span "bench.myers.distance" (fun () ->
        timed myers (fun () ->
            each unit_global (fun j -> ignore (Anyseq.Myers.distance ~ws j.S.sj_query j.S.sj_subject))));
    Trace.with_span "bench.myers.distance_full" (fun () ->
        timed full (fun () ->
            each unit_global (fun j ->
                ignore (Anyseq.Myers.distance_full ~ws j.S.sj_query j.S.sj_subject))))
  in
  rounds p (fun i ->
      let c = i mod chunks and traced = traced_round p i in
      let k = if traced then 1 else 0 in
      let s = speed r in
      let tiers0 = tier_counts st.svc in
      (* one tracing session for the round and the direct calls after it,
         so that the Chrome file holds both *)
      let results, dt =
        with_tracing traced (fun () ->
            let t0 = now_ns () in
            let results = Array.mapi (fun si sl -> run_slice st.svc sl c tallies.(k).(si)) st.slices in
            let dt = since t0 in
            if traced then direct c;
            (results, dt))
      in
      record_tiers r ~before:tiers0 ~after:(tier_counts st.svc);
      round_s.(k) <- dt :: round_s.(k);
      let cells =
        Array.fold_left ( + ) 0 (Array.map (fun sl -> sl.passes * sl.cells.(c)) st.slices)
      in
      if not traced then begin
        record r "gcups" (gcups ~cells ~seconds:(dt *. s));
        record r "p50_ms" (dt *. s *. 1e3)
      end;
      Array.iteri
        (fun si res ->
          count_results r res;
          match first_results.(si).(c) with
          | None -> first_results.(si).(c) <- Some res
          | Some first ->
              if Array.map score_of first <> Array.map score_of res then repeat_ok := false)
        results);
  record_hit_rate r ~before:cache0 ~after:(cache_lookups st.svc);
  check r "reads.rounds_repeat" !repeat_ok;
  check_outputs r st first_results;
  if p.trace then begin
    (* service times from the traced rounds, words from the untraced ones
       (tracing allocates its spans) *)
    let traced = tallies.(1) and untraced = tallies.(0) in
    let sum f a = Array.fold_left (fun acc t -> acc +. f t) 0.0 a in
    let jobs = sum (fun t -> float_of_int t.jobs) traced in
    record r "service.submit_us_per_job" (ratio (sum (fun t -> secs t.submit) traced *. 1e6) jobs);
    record r "service.await_us_per_job" (ratio (sum (fun t -> secs t.await) traced *. 1e6) jobs);
    record r "service.minor_words_per_job"
      (ratio (sum (fun t -> t.words) untraced) (sum (fun t -> float_of_int t.jobs) untraced));
    (* direct kernels ran one pass per traced round *)
    record r "service.overhead_share"
      (1.0
      -. ratio (secs native +. secs myers)
           (service_s traced.(affine_global)
           +. (service_s traced.(unit_global) /. float_of_int myers_passes)));
    let g si = gcups ~cells:traced.(si).cells ~seconds:(service_s traced.(si)) in
    record r "score_gcups"
      (gcups
         ~cells:(traced.(affine_global).cells + traced.(linear_local).cells)
         ~seconds:(service_s traced.(affine_global) +. service_s traced.(linear_local)));
    record r "myers_gcups" (g unit_global);
    record r "traceback_gcups" (g semiglobal_tb);
    let kernel = gcups ~cells:direct_cells.(unit_global) ~seconds:(secs myers) in
    let sweep = gcups ~cells:direct_cells.(unit_global) ~seconds:(secs full) in
    record r "myers.kernel_gcups" kernel;
    record r "myers.full_gcups" sweep;
    record r "myers.banded_over_full" (ratio kernel sweep);
    record r "native_kernel.gcups"
      (gcups ~cells:direct_cells.(affine_global) ~seconds:(secs native));
    record r "trace.overhead_pct" (overhead_pct ~traced:round_s.(1) ~untraced:round_s.(0))
  end;
  record r "peak_rss_mb" (peak_rss_mb None);
  S.shutdown st.svc
