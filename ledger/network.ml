(* Workloads "network" and "network-cutoff": all-vs-all similarity
   networks over 10⁴ 200-bp sequences in 20 mutation-chain families of
   500 (2% SNPs per step), FASTA-free through Pipeline.run.

   "network" uses the default parameters (min_ident 0.5, top_k 50): the
   prefilter, index and streaming-align path, where the distance caps
   never fire — the bypass case for any cutoff change. "network-cutoff"
   runs the same input at min_ident 0.9, top_k 10, where about half of the
   candidates are cut off by the banded-Myers cap.

   The traced run also rebuilds Pipeline.run from its public modules,
   with a clock around every call into a layer, and checks that the
   rebuilt run writes the same edge list byte for byte. *)

open Harness
module P = Anyseq.Pipeline
module S = Anyseq.Service
module Seq = Anyseq.Sequence
module Scheme = Anyseq.Scheme

let families = 20
let members p = if p.quick then 50 else 500
let len = 200

(* Member m of a family is a fresh mutation of member m-1, so identity
   decays along the chain and only near neighbours survive the
   prefilter, while every family still clusters into one component. *)
let generate p =
  let rng = Anyseq_util.Rng.create ~seed:p.seed in
  let div = { Anyseq.Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let members = members p in
  let out = Array.make (families * members) ("", Seq.of_string Anyseq.Alphabet.dna4 "A") in
  for f = 0 to families - 1 do
    let prev = ref (Anyseq.Genome_gen.generate rng ~len ()) in
    for m = 0 to members - 1 do
      if m > 0 then prev := Anyseq.Genome_gen.mutate rng ~divergence:div !prev;
      out.((f * members) + m) <- (Printf.sprintf "fam%02d_%04d" f m, !prev)
    done
  done;
  out

let params ~cutoff_variant =
  if cutoff_variant then { P.default_params with P.min_ident = 0.9; top_k = 10 }
  else P.default_params

type state = {
  seqs : (string * Seq.t) array;
  svc : S.t;
  params : P.params;
  candidate_cells : int;  (** n·m summed over the pairs the prefilter admits *)
}

let candidate_cells (params : P.params) seqs =
  let index = Anyseq.Net_index.create () in
  let cells = ref 0 in
  Array.iteri
    (fun i (_, s) ->
      let sketch = Anyseq.Minimizer.sketch ~k:params.P.k ~w:params.P.w s in
      ignore
        (Anyseq.Net_index.add index sketch ~min_shared:params.P.min_shared ~f:(fun j _ ->
             cells := !cells + (Seq.length (snd seqs.(j)) * Seq.length (snd seqs.(i))))))
    seqs;
  !cells

let run_pipeline st ~out =
  match P.run ~service:st.svc ~tmp_dir ~out st.params (P.Seqs st.seqs) with
  | Ok report -> report
  | Error msg -> failwith ("Pipeline.run: " ^ msg)

let setup p ~cutoff_variant () =
  let seqs = generate p in
  let params = params ~cutoff_variant in
  let st =
    {
      seqs;
      svc = S.create ~capacity:4096 ();
      params;
      candidate_cells = candidate_cells params seqs;
    }
  in
  (* warm pass on the first family: the same configuration, so the spec
     cache and the workspace pool are filled as by a full run *)
  let out = tmp_path "warm.tsv" in
  ignore (run_pipeline { st with seqs = Array.sub seqs 0 (members p) } ~out);
  remove_if_exists out;
  st

(* ---- the rebuilt pipeline ---- *)

type clocks = {
  sketch : clock;
  index : clock;
  build : clock;  (** Service.seq_job with the pair's distance cap *)
  submit : clock;
  await : clock;
  topk : clock;
  edges_add : clock;
  finish : clock;  (** Edges.finish, including the union callbacks *)
  union : clock;
  components : clock;  (** Components.create and summarize *)
}

let clocks () =
  {
    sketch = clock ();
    index = clock ();
    build = clock ();
    submit = clock ();
    await = clock ();
    topk = clock ();
    edges_add = clock ();
    finish = clock ();
    union = clock ();
    components = clock ();
  }

(* Normalized identity exactly as the pipeline computes it: score over
   the best attainable score, or 1 - distance/length for schemes whose
   matches score 0. *)
let best_per_base scheme =
  let best = ref min_int in
  for c = 0 to Anyseq.Alphabet.size (Scheme.alphabet scheme) - 1 do
    best := max !best (Scheme.subst_score scheme c c)
  done;
  !best

let normalized_identity ~best ~min_len score =
  if min_len <= 0 then 0.0
  else
    let r =
      if best > 0 then float_of_int score /. float_of_int (best * min_len)
      else 1.0 +. (float_of_int score /. float_of_int min_len)
    in
    Float.min 1.0 (Float.max 0.0 r)

type rebuilt = { wall_s : float; jobs : int; cutoff : int }

(* Pipeline.run's three phases, call for call: stream each record through
   Minimizer.sketch and Net_index.add, keep two Service tickets in flight,
   filter results into the Topk heaps, then drain the heaps through the
   Edges spill writer into Components. Each pair's distance cap comes from
   the scheme's Unit_cost certificate and the current heap floors. *)
let rebuild st ~out c =
  let params = st.params in
  let t0 = now_ns () in
  let config =
    Anyseq.Config.make ~scheme:params.P.scheme ~mode:params.P.mode ~traceback:false
      ~backend:Anyseq.Config.Auto ()
  in
  let best = best_per_base params.P.scheme in
  let n = Array.length st.seqs in
  let seq i = snd st.seqs.(i) in
  let heaps = Array.make n None in
  let index = Anyseq.Net_index.create () in
  let pending = Queue.create () and in_flight = Queue.create () in
  let jobs = ref 0 and cutoff = ref 0 in
  let cert =
    if not params.P.cutoff then None
    else
      let report = Anyseq.Property.analyze params.P.scheme in
      if List.mem params.P.mode (Anyseq.Property.admissible_modes report) then
        Anyseq.Property.unit_cost report
      else None
  in
  let heap_of i =
    match heaps.(i) with
    | Some h -> h
    | None ->
        let h = Anyseq.Topk.create ~k:params.P.top_k in
        heaps.(i) <- Some h;
        h
  in
  let floor i = Option.bind heaps.(i) Anyseq.Topk.floor in
  let max_dist_of j i =
    match cert with
    | None -> None
    | Some cert ->
        let lj = Seq.length (seq j) and li = Seq.length (seq i) in
        let min_len = min lj li in
        let req = ref min_int in
        if params.P.min_score > min_int then req := params.P.min_score;
        if params.P.min_ident > 0.0 && min_len > 0 then begin
          let s_id =
            if best > 0 then
              int_of_float (Float.floor (params.P.min_ident *. float_of_int (best * min_len)))
            else int_of_float (Float.floor ((params.P.min_ident -. 1.0) *. float_of_int min_len))
          in
          if s_id > !req then req := s_id
        end;
        (match (floor j, floor i) with
        | Some fj, Some fi -> if min fj fi > !req then req := min fj fi
        | _ -> ());
        if !req = min_int then None
        else Some (max (-1) (Anyseq.Property.distance_cap cert ~n:lj ~m:li ~min_score:!req))
  in
  let record_hit i partner score ident =
    ignore (timed c.topk (fun () -> Anyseq.Topk.add (heap_of i) { Anyseq.Topk.partner; score; ident }))
  in
  let process_batch (ticket, pairs) =
    let results =
      timed c.await (fun () -> Trace.with_span "bench.service.await" (fun () -> S.await ticket))
    in
    Array.iteri
      (fun idx result ->
        let j, i = pairs.(idx) in
        match result with
        | Ok (o : S.outcome) ->
            let min_len = min (Seq.length (seq j)) (Seq.length (seq i)) in
            let ident = normalized_identity ~best ~min_len o.S.score in
            if o.S.score >= params.P.min_score && ident >= params.P.min_ident then begin
              record_hit j i o.S.score ident;
              record_hit i j o.S.score ident
            end
        | Error Anyseq.Error.Rejected -> Queue.add (j, i) pending
        | Error Anyseq.Error.Cutoff -> incr cutoff
        | Error _ -> ())
      results
  in
  let submit_one_batch () =
    let k = min params.P.batch_size (Queue.length pending) in
    let pairs = Array.init k (fun _ -> Queue.pop pending) in
    let batch =
      timed c.build (fun () ->
          Array.map
            (fun (j, i) ->
              S.seq_job ~config ?timeout_s:params.P.timeout_s ?max_dist:(max_dist_of j i)
                ~query:(seq j) ~subject:(seq i) ())
            pairs)
    in
    jobs := !jobs + k;
    let ticket =
      timed c.submit (fun () ->
          Trace.with_span "bench.service.submit" (fun () -> S.submit_seqs st.svc batch))
    in
    Queue.add (ticket, pairs) in_flight
  in
  let pump ~draining =
    let batch = params.P.batch_size in
    while
      Queue.length pending >= batch
      || (draining && not (Queue.is_empty pending))
      || (draining && not (Queue.is_empty in_flight))
    do
      if Queue.length in_flight >= 2 || (Queue.is_empty pending && not (Queue.is_empty in_flight))
      then process_batch (Queue.pop in_flight);
      if Queue.length pending >= batch || (draining && not (Queue.is_empty pending)) then
        submit_one_batch ()
    done
  in
  Array.iteri
    (fun i (_, s) ->
      let sketch =
        timed c.sketch (fun () -> Anyseq.Minimizer.sketch ~k:params.P.k ~w:params.P.w s)
      in
      ignore
        (timed c.index (fun () ->
             Anyseq.Net_index.add index sketch ~min_shared:params.P.min_shared ~f:(fun j _ ->
                 Queue.add (j, i) pending)));
      pump ~draining:false)
    st.seqs;
  pump ~draining:true;
  let writer = Anyseq.Edges.create ~buffer:params.P.edge_buffer ~tmp_dir () in
  Array.iteri
    (fun i heap ->
      Option.iter
        (fun h ->
          Array.iter
            (fun (hit : Anyseq.Topk.hit) ->
              let p = hit.Anyseq.Topk.partner in
              let span = max (Seq.length (seq i)) (Seq.length (seq p)) in
              timed c.edges_add (fun () ->
                  Anyseq.Edges.add writer
                    {
                      Anyseq.Edges.a = min i p;
                      b = max i p;
                      score = hit.Anyseq.Topk.score;
                      ident = hit.Anyseq.Topk.ident;
                      span;
                    }))
            (timed c.topk (fun () -> Anyseq.Topk.to_sorted h)))
        heap)
    heaps;
  let uf = timed c.components (fun () -> Anyseq.Components.create n) in
  ignore
    (timed c.finish (fun () ->
         Trace.with_span "bench.edges.finish" (fun () ->
             Anyseq.Edges.finish writer ~out
               ~name:(fun i -> fst st.seqs.(i))
               ~f:(fun e ->
                 timed c.union (fun () ->
                     Anyseq.Components.union uf e.Anyseq.Edges.a e.Anyseq.Edges.b)))));
  ignore (timed c.components (fun () -> Anyseq.Components.summarize uf));
  { wall_s = since t0; jobs = !jobs; cutoff = !cutoff }

let record_layers r c ~wall =
  let share name s = record r name (ratio s wall) in
  let finish_self = secs c.finish -. secs c.union in
  let comps = secs c.union +. secs c.components in
  share "minimizer.sketch_share" (secs c.sketch);
  share "net_index.add_share" (secs c.index);
  let align = secs c.build +. secs c.submit +. secs c.await in
  share "pipeline.align_share" align;
  share "topk.add_share" (secs c.topk);
  share "edges.add_share" (secs c.edges_add);
  share "edges.finish_share" finish_self;
  share "components.share" comps;
  share "pipeline.layers_over_wall"
    (secs c.sketch +. secs c.index +. align +. secs c.topk +. secs c.edges_add +. finish_self
   +. comps)

(* ---- the run ---- *)

let run ~cutoff_variant p r =
  let name = if cutoff_variant then "network-cutoff" else "network" in
  let st =
    repeated_setup p r ~setup:(setup p ~cutoff_variant) ~teardown:(fun st -> S.shutdown st.svc)
  in
  (* (edge-list digest, pairs cut off) of every Pipeline.run and rebuilt run *)
  let outputs = ref [] and rebuilt_outputs = ref [] in
  let run_s = [| []; [] |] and rebuilt_s = ref [] in
  let cache0 = cache_lookups st.svc in
  let kinds = if p.trace then 3 else 1 in
  rounds p (fun i ->
      let out = tmp_path (Printf.sprintf "net-%d.tsv" i) in
      (match i mod kinds with
      | 2 ->
          (* the rebuilt pipeline, traced, with layer clocks *)
          let c = clocks () in
          let rb = with_tracing true (fun () -> rebuild st ~out c) in
          rebuilt_s := rb.wall_s :: !rebuilt_s;
          record_layers r c ~wall:rb.wall_s;
          record r "service.submit_us_per_job" (ratio (secs c.submit *. 1e6) (float_of_int rb.jobs));
          record r "service.await_us_per_job" (ratio (secs c.await *. 1e6) (float_of_int rb.jobs));
          rebuilt_outputs := (Digest.file out, rb.cutoff) :: !rebuilt_outputs
      | kind ->
          let traced = kind = 1 in
          let s = speed r in
          let tiers0 = tier_counts st.svc in
          let t0 = now_ns () in
          let rep = with_tracing traced (fun () -> run_pipeline st ~out) in
          let dt = since t0 in
          record_tiers r ~before:tiers0 ~after:(tier_counts st.svc);
          run_s.(kind) <- dt :: run_s.(kind);
          if not traced then begin
            record r "gcups" (gcups ~cells:st.candidate_cells ~seconds:(dt *. s));
            record r "p50_ms" (dt *. s *. 1e3)
          end;
          let candidates =
            rep.P.pairs_aligned + rep.P.pairs_cutoff + rep.P.pairs_timeout + rep.P.pairs_failed
          in
          r.attempted <- r.attempted + candidates;
          r.failed <- r.failed + rep.P.pairs_timeout + rep.P.pairs_failed;
          let fi = float_of_int in
          record r "net_index.candidates" (fi candidates);
          record r "net_index.prune_ratio" (ratio (fi rep.P.pairs_pruned) (fi rep.P.pairs_total));
          record r "pipeline.pairs_cutoff" (fi rep.P.pairs_cutoff);
          record r "pipeline.cutoff_ratio" (ratio (fi rep.P.pairs_cutoff) (fi candidates));
          record r "topk.evictions" (fi rep.P.evictions);
          record r "edges.count" (fi rep.P.edges);
          record r "edges.spilled_runs" (fi rep.P.spilled_runs);
          let comps = rep.P.components in
          record r "components.clusters" (fi comps.Anyseq.Components.clusters);
          if not cutoff_variant then
            check r "network.families_cluster"
              (comps.Anyseq.Components.clusters = families
              && comps.Anyseq.Components.largest = members p);
          outputs := (Digest.file out, rep.P.pairs_cutoff) :: !outputs);
      remove_if_exists out);
  record_hit_rate r ~before:cache0 ~after:(cache_lookups st.svc);
  (* ---- correctness ---- *)
  let first = List.hd (List.rev !outputs) in
  check r (name ^ ".runs_repeat") (List.for_all (( = ) first) !outputs);
  if p.trace then
    check r (name ^ ".rebuilt_equals_pipeline") (List.for_all (( = ) first) !rebuilt_outputs);
  if cutoff_variant then begin
    let out = tmp_path "nocutoff.tsv" in
    let nocut = { st with params = { st.params with P.cutoff = false } } in
    ignore (run_pipeline nocut ~out);
    check r (name ^ ".equals_cutoff_off") (Digest.file out = fst first);
    remove_if_exists out
  end;
  if p.trace then begin
    (* both traced: the cost of rebuilding the pipeline from its modules *)
    record r "pipeline.rebuilt_over_run" (ratio (median !rebuilt_s) (median run_s.(1)));
    record r "trace.overhead_pct" (overhead_pct ~traced:run_s.(1) ~untraced:run_s.(0))
  end;
  record r "peak_rss_mb" (peak_rss_mb None);
  S.shutdown st.svc
