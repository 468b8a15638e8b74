module Seq = Anyseq_bio.Sequence
module Alphabet = Anyseq_bio.Alphabet
module Scheme = Anyseq_scoring.Scheme
module Service = Anyseq_runtime.Service
module Metrics = Anyseq_runtime.Metrics
module Config = Anyseq_runtime.Config
module Error = Anyseq_runtime.Error
module Property = Anyseq_analysis.Property
module Trace = Anyseq_trace.Trace
module Jsonv = Anyseq_util.Jsonv

type params = {
  k : int;
  w : int;
  min_shared : int;
  min_score : int;
  min_ident : float;
  top_k : int;
  scheme : Scheme.t;
  mode : Anyseq_core.Types.mode;
  timeout_s : float option;
  batch_size : int;
  edge_buffer : int;
  cutoff : bool;
}

let default_params =
  {
    k = Minimizer.default_k;
    w = Minimizer.default_w;
    min_shared = 4;
    min_score = min_int;
    min_ident = 0.5;
    top_k = 50;
    scheme = Scheme.unit_cost;
    mode = Anyseq_core.Types.Global;
    timeout_s = None;
    batch_size = 512;
    edge_buffer = Edges.default_buffer;
    cutoff = true;
  }

type source = File of string | Seqs of (string * Seq.t) array

type report = {
  sequences : int;
  too_short : int;
  pairs_total : int;
  pairs_pruned : int;
  pairs_aligned : int;
  pairs_cutoff : int;
  pairs_timeout : int;
  pairs_failed : int;
  resubmits : int;
  evictions : int;
  edges : int;
  edge_duplicates : int;
  spilled_runs : int;
  components : Components.summary;
  index_postings : int;
  elapsed_s : float;
  pairs_per_s : float;
}

(* ---- growable arrays (the record stream is unbounded) ---- *)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 16 (2 * v.len)) x in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let vec_get v i = v.data.(i)

(* ---- normalized identity ----

   The best attainable score of a pair is (best self-substitution) ×
   (shorter length); the identity proxy divides by it. Schemes whose
   matches score 0 (unit cost: score = −edit distance) shift instead:
   1 + score/min_len = 1 − distance/min_len, the classic normalized
   edit similarity. Both land in [0,1] and agree on exact duplicates. *)

let best_per_base scheme =
  let n = Alphabet.size (Scheme.alphabet scheme) in
  let best = ref min_int in
  for c = 0 to n - 1 do
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

(* ---- phase gauge ---- *)

let phase_index = 1
let phase_align = 2
let phase_cluster = 3
let phase_done = 4

let phase_name = function
  | 1 -> "index"
  | 2 -> "align"
  | 3 -> "cluster"
  | 4 -> "done"
  | _ -> "idle"

let run ?service ?metrics ?tmp_dir ~out params source =
  if params.batch_size < 1 then invalid_arg "Pipeline.run: batch_size must be positive";
  if params.top_k < 1 then invalid_arg "Pipeline.run: top_k must be positive";
  let owned_service = service = None in
  let svc = match service with Some s -> s | None -> Service.create () in
  let m = match metrics with Some m -> m | None -> Service.metrics svc in
  let tmp_dir = match tmp_dir with Some d -> d | None -> Filename.get_temp_dir_name () in
  let ctr name = Metrics.counter m ("network/" ^ name) in
  let c_seqs = ctr "seqs_indexed"
  and c_short = ctr "seqs_too_short"
  and c_total = ctr "pairs_total"
  and c_pruned = ctr "pairs_pruned"
  and c_aligned = ctr "pairs_aligned"
  and c_cutoff = ctr "pairs_cutoff"
  and c_timeout = ctr "pairs_timeout"
  and c_failed = ctr "pairs_failed"
  and c_resubmit = ctr "pair_resubmits"
  and c_evict = ctr "topk_evictions"
  and c_edges = ctr "edges_written"
  and c_dups = ctr "edge_duplicates"
  and c_dispatched = ctr "pairs_dispatched" in
  let phase p = Metrics.gauge_set m "network/phase" p in
  let config =
    Config.make ~scheme:params.scheme ~mode:params.mode ~traceback:false
      ~backend:Config.Auto ()
  in
  let best = best_per_base params.scheme in
  let names = vec_create () and seqs = vec_create () in
  let heaps : Topk.t option vec = vec_create () in
  let index = Index.create () in
  let pending : (int * int) Queue.t = Queue.create () in
  let in_flight : (Service.ticket * (int * int) array) Queue.t = Queue.create () in
  let t_start = Unix.gettimeofday () in
  let t_first_submit = ref nan and t_last_await = ref nan in
  (* The registry may be shared across runs (a long-lived service); the
     report counts this run only, so read counters as deltas. *)
  let base c = Metrics.value c in
  let b_short = base c_short
  and b_total = base c_total
  and b_pruned = base c_pruned
  and b_aligned = base c_aligned
  and b_cutoff = base c_cutoff
  and b_timeout = base c_timeout
  and b_failed = base c_failed
  and b_resubmit = base c_resubmit
  and b_evict = base c_evict in
  Service.set_chunk_hook svc (Some (fun jobs -> Metrics.add c_dispatched jobs));
  let heap_of i =
    match vec_get heaps i with
    | Some h -> h
    | None ->
        let h = Topk.create ~k:params.top_k in
        heaps.data.(i) <- Some h;
        h
  in
  let record_hit i partner score ident =
    if Topk.add (heap_of i) { Topk.partner; score; ident } then Metrics.incr c_evict
  in
  (* ---- cutoff-driven distance caps ----

     Under a Unit_cost certificate the score of a pair is a strictly
     decreasing function of its edit distance, so every score threshold
     the pipeline will later apply converts (via the certificate's
     {!Property.distance_cap}) into an edit-distance cap the banded
     Myers kernel enforces mid-scan. The cap must be {e conservative}:
     the edge list with cutoffs on is byte-identical to the one with
     cutoffs off (the band gate checks this), because a pair is capped
     out only when it provably fails every path into a heap:

     - [min_score], when set;
     - the identity threshold, only when [min_ident > 0] — at ≤ 0 the
       [0,1] clamp in {!normalized_identity} passes any score — with the
       required score rounded {e down};
     - the top-k floors of {e both} endpoints, only when both heaps are
       already full (floors are monotone non-decreasing, so a
       submission-time floor is still a valid lower bound when the
       result lands), with ties kept (a hit at the floor can still enter
       on the partner tie-break). *)
  let cert =
    if not params.cutoff then None
    else
      let report = Property.analyze params.scheme in
      if List.mem params.mode (Property.admissible_modes report) then
        Property.unit_cost report
      else None
  in
  let heap_floor i = match vec_get heaps i with None -> None | Some h -> Topk.floor h in
  let max_dist_of j i =
    match cert with
    | None -> None
    | Some c ->
        let lj = Seq.length (vec_get seqs j) and li = Seq.length (vec_get seqs i) in
        let min_len = min lj li in
        let req = ref min_int in
        if params.min_score > min_int then req := params.min_score;
        if params.min_ident > 0.0 && min_len > 0 then begin
          let s_id =
            if best > 0 then
              int_of_float
                (Float.floor (params.min_ident *. float_of_int (best * min_len)))
            else
              int_of_float (Float.floor ((params.min_ident -. 1.0) *. float_of_int min_len))
          in
          if s_id > !req then req := s_id
        end;
        (match (heap_floor j, heap_floor i) with
        | Some fj, Some fi ->
            let f = min fj fi in
            if f > !req then req := f
        | _ -> ());
        if !req = min_int then None
        else Some (max (-1) (Property.distance_cap c ~n:lj ~m:li ~min_score:!req))
  in
  (* Process one settled ticket: filter results into the top-k heaps,
     requeue Rejected slots. *)
  let process_batch (ticket, pairs) =
    Trace.with_span "network.align"
      ~attrs:[ ("pairs", Trace.Int (Array.length pairs)) ]
      (fun () ->
        let results = Service.await ticket in
        t_last_await := Unix.gettimeofday ();
        Array.iteri
          (fun idx result ->
            let j, i = pairs.(idx) in
            match result with
            | Ok (o : Service.outcome) ->
                Metrics.incr c_aligned;
                let lj = Seq.length (vec_get seqs j) and li = Seq.length (vec_get seqs i) in
                let ident = normalized_identity ~best ~min_len:(min lj li) o.Service.score in
                if o.Service.score >= params.min_score && ident >= params.min_ident then begin
                  record_hit j i o.Service.score ident;
                  record_hit i j o.Service.score ident
                end
            | Error Error.Rejected ->
                Metrics.incr c_resubmit;
                Queue.add (j, i) pending
            | Error Error.Cutoff ->
                (* the banded kernel proved the pair cannot reach any of
                   its thresholds — resolved, just not with a score *)
                Metrics.incr c_cutoff
            | Error (Error.Timeout) -> Metrics.incr c_timeout
            | Error _ -> Metrics.incr c_failed)
          results)
  in
  let submit_one_batch () =
    let n = min params.batch_size (Queue.length pending) in
    let pairs = Array.init n (fun _ -> Queue.pop pending) in
    let jobs =
      Array.map
        (fun (j, i) ->
          Service.seq_job ~config ?timeout_s:params.timeout_s
            ?max_dist:(max_dist_of j i) ~query:(vec_get seqs j)
            ~subject:(vec_get seqs i) ())
        pairs
    in
    if Float.is_nan !t_first_submit then t_first_submit := Unix.gettimeofday ();
    let ticket = Service.submit_seqs svc jobs in
    Queue.add (ticket, pairs) in_flight
  in
  (* Keep at most two tickets open: submit ahead so worker shards stay
     busy while the previous batch's results are filtered. *)
  let pump ~draining =
    while
      (Queue.length pending >= params.batch_size || (draining && not (Queue.is_empty pending)))
      || (draining && not (Queue.is_empty in_flight))
    do
      if Queue.length in_flight >= 2 || (Queue.is_empty pending && not (Queue.is_empty in_flight))
      then process_batch (Queue.pop in_flight);
      if Queue.length pending >= params.batch_size || (draining && not (Queue.is_empty pending))
      then submit_one_batch ()
    done
  in
  let add_record id seq =
    let sketch = Minimizer.sketch ~k:params.k ~w:params.w seq in
    if Array.length sketch = 0 then Metrics.incr c_short;
    vec_push names id;
    vec_push seqs seq;
    vec_push heaps None;
    let candidates = ref 0 in
    let sid =
      Index.add index sketch ~min_shared:params.min_shared ~f:(fun j _shared ->
          incr candidates;
          Queue.add (j, seqs.len - 1) pending)
    in
    Metrics.incr c_seqs;
    Metrics.add c_total sid;
    Metrics.add c_pruned (sid - !candidates);
    Metrics.gauge_set m "network/index_postings" (Index.postings index);
    pump ~draining:false
  in
  let stream () =
    match source with
    | Seqs records ->
        Array.iter (fun (id, seq) -> add_record id seq) records;
        Ok ()
    | File path ->
        Result.map ignore
          (Anyseq_seqio.Fasta.fold (Scheme.alphabet params.scheme) path ~init:()
             ~f:(fun () r -> add_record r.Anyseq_seqio.Fasta.id r.Anyseq_seqio.Fasta.sequence))
  in
  let finish_run () =
    Service.set_chunk_hook svc None;
    if owned_service then Service.shutdown svc
  in
  match
    Fun.protect ~finally:finish_run (fun () ->
        phase phase_index;
        let streamed =
          Trace.with_span "network.index" (fun () ->
              let r = stream () in
              (match r with
              | Ok () ->
                  phase phase_align;
                  pump ~draining:true
              | Error _ -> ());
              r)
        in
        match streamed with
        | Error msg -> Error msg
        | Ok () ->
            phase phase_cluster;
            Trace.with_span "network.cluster" (fun () ->
                let n = seqs.len in
                let writer = Edges.create ~buffer:params.edge_buffer ~tmp_dir () in
                let uf = Components.create n in
                (* [discard] finds no runs left after [finish]; it cleans up
                   when an [add] raises or the run is interrupted *)
                match
                  Fun.protect
                    ~finally:(fun () -> Edges.discard writer)
                    (fun () ->
                      for i = 0 to n - 1 do
                        match vec_get heaps i with
                        | None -> ()
                        | Some h ->
                            Array.iter
                              (fun (hit : Topk.hit) ->
                                let p = hit.Topk.partner in
                                let span =
                                  max (Seq.length (vec_get seqs i)) (Seq.length (vec_get seqs p))
                                in
                                Edges.add writer
                                  {
                                    Edges.a = min i p;
                                    b = max i p;
                                    score = hit.Topk.score;
                                    ident = hit.Topk.ident;
                                    span;
                                  })
                              (Topk.to_sorted h)
                      done;
                      Edges.finish writer ~out
                        ~name:(fun i -> vec_get names i)
                        ~f:(fun e -> Components.union uf e.Edges.a e.Edges.b))
                with
                | Error msg -> Error msg
                | Ok stats ->
                    Metrics.add c_edges stats.Edges.written;
                    Metrics.add c_dups stats.Edges.duplicates;
                    let summary = Components.summarize uf in
                    Metrics.gauge_set m "network/components" summary.Components.components;
                    phase phase_done;
                    let elapsed = Unix.gettimeofday () -. t_start in
                    let align_s =
                      if Float.is_nan !t_first_submit || Float.is_nan !t_last_await then 0.0
                      else !t_last_await -. !t_first_submit
                    in
                    let aligned = Metrics.value c_aligned - b_aligned in
                    let cutoff = Metrics.value c_cutoff - b_cutoff in
                    Ok
                      {
                        sequences = n;
                        too_short = Metrics.value c_short - b_short;
                        pairs_total = Metrics.value c_total - b_total;
                        pairs_pruned = Metrics.value c_pruned - b_pruned;
                        pairs_aligned = aligned;
                        pairs_cutoff = cutoff;
                        pairs_timeout = Metrics.value c_timeout - b_timeout;
                        pairs_failed = Metrics.value c_failed - b_failed;
                        resubmits = Metrics.value c_resubmit - b_resubmit;
                        evictions = Metrics.value c_evict - b_evict;
                        edges = stats.Edges.written;
                        edge_duplicates = stats.Edges.duplicates;
                        spilled_runs = stats.Edges.spilled_runs;
                        components = summary;
                        index_postings = Index.postings index;
                        elapsed_s = elapsed;
                        pairs_per_s =
                          (* throughput over every pair the align stage
                             resolved — scored or proven hopeless by the
                             banded cutoff *)
                          (if align_s > 0.0 then float_of_int (aligned + cutoff) /. align_s
                           else 0.0);
                      }))
  with
  | result -> result
  | exception Sys_error msg -> Error msg

(* ---- progress JSON for /statusz and `anyseq top` ---- *)

let status_json m =
  let v name = Option.value ~default:0 (Metrics.find m ("network/" ^ name)) in
  Metrics.find m "network/seqs_indexed"
  |> Option.map (fun _ ->
         Jsonv.Obj
           (("phase", Jsonv.Str (phase_name (v "phase")))
           :: Jsonv.ints
                (List.map
                   (fun name -> (name, v name))
                   [ "seqs_indexed"; "pairs_total"; "pairs_pruned"; "pairs_aligned"; "pairs_cutoff";
                     "pairs_dispatched"; "edges_written"; "topk_evictions"; "components" ])))
