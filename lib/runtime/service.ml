module Scheme = Anyseq_scoring.Scheme
module Bounds = Anyseq_scoring.Bounds
module Alphabet = Anyseq_bio.Alphabet
module Seq = Anyseq_bio.Sequence
module Alignment = Anyseq_bio.Alignment
module Engine = Anyseq_core.Engine
module Dp_linear = Anyseq_core.Dp_linear
module Inter_seq = Anyseq_simd.Inter_seq
module Scheduler = Anyseq_wavefront.Scheduler
module Timer = Anyseq_util.Timer
module Trace = Anyseq_trace.Trace
open Anyseq_core.Types

type job = {
  config : Config.t;
  query : string;
  subject : string;
  timeout_s : float option;
  max_dist : int option;
}

let job ?(config = Config.default) ?timeout_s ?max_dist ~query ~subject () =
  { config; query; subject; timeout_s; max_dist }

type seq_job = {
  sj_config : Config.t;
  sj_query : Seq.t;
  sj_subject : Seq.t;
  sj_timeout_s : float option;
  sj_max_dist : int option;
}

let seq_job ?(config = Config.default) ?timeout_s ?max_dist ~query ~subject () =
  { sj_config = config; sj_query = query; sj_subject = subject; sj_timeout_s = timeout_s;
    sj_max_dist = max_dist }

type outcome = {
  score : int;
  query_end : int;
  subject_end : int;
  alignment : Alignment.t option;
  query_seq : Seq.t;
  subject_seq : Seq.t;
}

(* An admitted, parsed job awaiting dispatch. *)
type prepared = {
  p_idx : int;
  p_cfg : Config.t;
  p_q : Seq.t;
  p_s : Seq.t;
  p_deadline : int64;  (** ns timestamp; [Int64.max_int] = no deadline *)
  p_max_dist : int option;
      (** per-job edit-distance cap: banded dispatch when the tier is
          certified unit-cost, [Error Cutoff] when provably exceeded *)
}

type t = {
  batch_size : int;
  domains : int;
  pool : chunk Shard.pool;
  caches : Spec_cache.t array;  (** one replica per shard *)
  jobs_by_shard : int Atomic.t array;  (** jobs executed per executing shard *)
  metrics : Metrics.t;
  submit_rr : int Atomic.t;  (** rotating admission home, spreads budget pressure *)
  chunk_hook : (int -> unit) option Atomic.t;
      (** progress callback fired with the job count of every executed
          chunk, on the executing domain (see {!set_chunk_hook}) *)
}

(* A unit of dispatch: up to [batch_size] jobs sharing one configuration,
   bound to the ticket whose result slots they fill. Chunks sit in shard
   queues; whichever shard executes one uses its own spec-cache replica
   and its own domain's workspace pool. *)
and chunk = {
  ck_cfg : Config.t;
  ck_jobs : prepared list;
  ck_njobs : int;
  ck_ticket : ticket;
  ck_attrs : (string * Trace.attr) list;
      (** caller-supplied span attributes (e.g. a wire trace id), echoed
          on the [service.exec] span of every chunk of the batch *)
}

(* The submit/await handle: a fixed result array slotted by submission
   index, a count of outstanding chunks, and the per-shard admission
   grants to give back when the last chunk lands. *)
and ticket = {
  tk_svc : t;
  tk_results : (outcome, Error.t) result array;
  tk_pending : int Atomic.t;  (** outstanding chunks + the submission hold *)
  tk_grants : int array;  (** admission slots to release, per shard *)
  tk_done : bool Atomic.t;
  tk_mutex : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_exn : exn option;  (** first executor exception, re-raised by await *)
}

let long_pair_cells = 4_000_000

let tier_names =
  [ "bitparallel"; "banded"; "banded_cutoff"; "native"; "staged"; "simd"; "wavefront" ]

let deadline_of timeout_s now =
  match timeout_s with
  | None -> Int64.max_int
  | Some s when s <= 0.0 -> Int64.min_int (* already expired, deterministically *)
  | Some s -> Int64.add now (Int64.of_float (s *. 1e9))

let expired_at now p = Int64.compare now p.p_deadline > 0
let cells_of p = Seq.length p.p_q * Seq.length p.p_s

let ctr t name = Metrics.counter t.metrics ("runtime/" ^ name)
let hist t name = Metrics.histogram t.metrics ("runtime/" ^ name)

let score_outcome results p (e : ends) =
  results.(p.p_idx) <-
    Ok
      {
        score = e.score;
        query_end = e.query_end;
        subject_end = e.subject_end;
        alignment = None;
        query_seq = p.p_q;
        subject_seq = p.p_s;
      }

let time_out t results p =
  results.(p.p_idx) <- Error Error.Timeout;
  Metrics.incr (ctr t "jobs_timed_out")

let rec split_at k l =
  if k = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: tl ->
        let a, b = split_at (k - 1) tl in
        (x :: a, b)

(* length l <= k, touching at most k+1 spine cells. *)
let rec fits_in l k =
  match l with [] -> true | _ :: tl -> k > 0 && fits_in tl (k - 1)

(* Feed [group] to [f] in [batch_size] chunks, each running inside one
   workspace checkout — a warmed pool makes the whole chunk allocation-free
   in the kernels. The deadline check happens once per chunk, right before
   dispatch — the documented granularity — against a single clock read. [f]
   must fill [results] for every prepared job it is given.

   Shard dispatch already delivers groups of at most [batch_size] jobs, so
   the common shapes pay no list copies: a group that fits one chunk is
   dispatched as-is (no [split_at] spine rebuild), and the live/dead
   partition runs only when a deadline actually expired — both on the
   minor-words-per-alignment budget the alloc gate enforces. *)
let dispatch_chunks t results group f =
  let rec go = function
    | [] -> ()
    | rest ->
        let chunk, rest =
          if fits_in rest t.batch_size then (rest, []) else split_at t.batch_size rest
        in
        let now = Timer.now_ns () in
        let live, dead =
          if List.exists (expired_at now) chunk then
            List.partition (fun p -> not (expired_at now p)) chunk
          else (chunk, [])
        in
        List.iter (time_out t results) dead;
        (if live <> [] then begin
           let cells = List.fold_left (fun acc p -> acc + cells_of p) 0 live in
           let frame =
             Trace.start "service.chunk"
               ~attrs:[ ("jobs", Trace.Int (List.length live)); ("cells", Trace.Int cells) ]
           in
           let t0 = Timer.now_ns () in
           Fun.protect
             ~finally:(fun () -> Trace.finish frame)
             (fun () -> Workspace.with_ws (fun ws -> f ws live));
           Metrics.incr (ctr t "batches_dispatched");
           Metrics.observe (hist t "batch_jobs") (List.length live);
           Metrics.observe (hist t "batch_us") (Timer.elapsed_us t0);
           Metrics.add (ctr t "cells_computed") cells;
           Metrics.add (ctr t "jobs_completed") (List.length live)
         end);
        go rest
  in
  go group

(* Traceback tier: per-job dispatch (deadlines are per alignment), one
   workspace checkout for the whole group. Scalar/Auto groups run the
   pre-generated native traceback residual when the cache replica has
   one; everything else (and configurations outside the pre-generated
   set) takes the generic engine — bit-identical either way. *)
let run_traceback t cache results (cfg : Config.t) group =
  let tier, align =
    match cfg.backend with
    | Config.Scalar | Config.Auto -> (
        let kernels = Spec_cache.get cache cfg.scheme cfg.mode in
        match kernels.Spec_cache.native with
        | Some nk ->
            ( "tier_native",
              fun ~ws ~query ~subject -> nk.Native_kernel.align ~ws ~query ~subject )
        | None ->
            ( "tier_staged",
              fun ~ws ~query ~subject -> Engine.align ~ws cfg.scheme cfg.mode ~query ~subject ))
    | Config.Simd | Config.Wavefront ->
        ( "tier_staged",
          fun ~ws ~query ~subject -> Engine.align ~ws cfg.scheme cfg.mode ~query ~subject )
  in
  Workspace.with_ws (fun ws ->
      List.iter
        (fun p ->
          if expired_at (Timer.now_ns ()) p then time_out t results p
          else begin
            Metrics.incr (ctr t tier);
            let t0 = Timer.now_ns () in
            let a =
              Trace.with_span "backend.traceback"
                ~attrs:[ ("cells", Trace.Int (cells_of p)) ]
                (fun () -> align ~ws ~query:p.p_q ~subject:p.p_s)
            in
            Metrics.observe (hist t "align_us") (Timer.elapsed_us t0);
            Metrics.add (ctr t "cells_computed") (cells_of p);
            Metrics.incr (ctr t "jobs_completed");
            results.(p.p_idx) <-
              Ok
                {
                  score = a.Alignment.score;
                  query_end = a.Alignment.query_end;
                  subject_end = a.Alignment.subject_end;
                  alignment = Some a;
                  query_seq = p.p_q;
                  subject_seq = p.p_s;
                }
          end)
        group)

(* Scalar tier: proof-directed selection per chunk. A configuration whose
   cache entry carries a bit-parallel kernel — populated only under a
   Unit_cost certificate — runs Myers edit distance with the certified
   score conversion; everything else runs the cached pre-generated
   residual, falling back to the generic linear-space engine. All three
   are bit-identical on scores and ends. The replica is consulted at every
   dispatch point (once per chunk), so hit/miss counts measure how often
   execution was served without re-specializing. *)
let run_scalar t cache results (cfg : Config.t) group =
  dispatch_chunks t results group (fun ws live ->
      let kernels = Spec_cache.get cache cfg.scheme cfg.mode in
      match kernels.Spec_cache.bitparallel with
      | Some bp ->
          let scale = bp.Bitparallel.bp_cert.Anyseq_analysis.Property.uc_scale in
          let full live =
            Metrics.add (ctr t "tier_bitparallel") (List.length live);
            Trace.with_span "backend.myers"
              ~attrs:[ ("jobs", Trace.Int (List.length live)); ("scale", Trace.Int scale) ]
              (fun () ->
                List.iter
                  (fun p ->
                    score_outcome results p
                      (bp.Bitparallel.bp_score ~ws ~query:p.p_q ~subject:p.p_s))
                  live)
          in
          let banded capped =
            Metrics.add (ctr t "tier_banded") (List.length capped);
            Trace.with_span "backend.myers_banded"
              ~attrs:[ ("jobs", Trace.Int (List.length capped)); ("scale", Trace.Int scale) ]
              (fun () ->
                List.iter
                  (fun p ->
                    match p.p_max_dist with
                    | None -> assert false
                    | Some k -> (
                        match
                          bp.Bitparallel.bp_score_upto ~ws ~max_dist:k ~query:p.p_q
                            ~subject:p.p_s
                        with
                        | Some e -> score_outcome results p e
                        | None ->
                            results.(p.p_idx) <- Error Error.Cutoff;
                            Metrics.incr (ctr t "tier_banded_cutoff")))
                  capped)
          in
          (* the uncapped-only check first: the common batch shapes (all
             capped, or none) never pay the partition's list rebuild *)
          if not (List.exists (fun p -> p.p_max_dist <> None) live) then full live
          else if List.for_all (fun p -> p.p_max_dist <> None) live then banded live
          else begin
            let capped, uncapped = List.partition (fun p -> p.p_max_dist <> None) live in
            full uncapped;
            banded capped
          end
      | None ->
          let native, score =
            match kernels.Spec_cache.native with
            | Some nk ->
                (true, fun p -> nk.Native_kernel.score ~ws ~query:p.p_q ~subject:p.p_s)
            | None ->
                (* Configurations outside the pre-generated set fall back to the
                   generic linear-space engine (bit-identical results). *)
                ( false,
                  fun p ->
                    Dp_linear.score_only ~ws cfg.scheme cfg.mode ~query:(Seq.view p.p_q)
                      ~subject:(Seq.view p.p_s) )
          in
          Metrics.add
            (ctr t (if native then "tier_native" else "tier_staged"))
            (List.length live);
          Trace.with_span "backend.scalar"
            ~attrs:
              [ ("jobs", Trace.Int (List.length live)); ("native", Trace.Str (string_of_bool native)) ]
            (fun () -> List.iter (fun p -> score_outcome results p (score p)) live))

(* SIMD tier: 16-bit overflow screening, then lockstep vector batches. *)
let run_simd t results (cfg : Config.t) group =
  let feasible =
    List.filter
      (fun p ->
        let rows = Seq.length p.p_q and cols = Seq.length p.p_s in
        (* Empty pairs have no DP block, hence nothing that can overflow. *)
        if rows = 0 || cols = 0 || Bounds.fits cfg.scheme ~rows ~cols ~bits:16 then true
        else begin
          results.(p.p_idx) <-
            Error
              (Error.Overflow_bound
                 (Printf.sprintf
                    "%d x %d pair exceeds the 16-bit differential-score range of the vector \
                     kernels"
                    rows cols));
          Metrics.incr (ctr t "jobs_failed");
          false
        end)
      group
  in
  dispatch_chunks t results feasible (fun ws live ->
      let pairs = Array.of_list (List.map (fun p -> (p.p_q, p.p_s)) live) in
      Metrics.add (ctr t "tier_simd") (List.length live);
      let ends =
        Trace.with_span "backend.simd"
          ~attrs:[ ("jobs", Trace.Int (Array.length pairs)) ]
          (fun () -> Inter_seq.batch_score ~ws cfg.scheme cfg.mode pairs)
      in
      List.iteri (fun i p -> score_outcome results p ends.(i)) live)

(* Wavefront tier: tiles of all pairs of the chunk share one dynamic
   queue. The scheduler's worker domains manage their own buffers, so the
   chunk's workspace is not threaded in. *)
let run_wavefront t results (cfg : Config.t) group =
  dispatch_chunks t results group (fun _ws live ->
      let pairs = Array.of_list (List.map (fun p -> (p.p_q, p.p_s)) live) in
      Metrics.add (ctr t "tier_wavefront") (List.length live);
      let ends =
        Trace.with_span "backend.wavefront"
          ~attrs:[ ("jobs", Trace.Int (Array.length pairs)); ("domains", Trace.Int t.domains) ]
          (fun () -> Scheduler.score_many ~domains:t.domains cfg.scheme cfg.mode pairs)
      in
      List.iteri (fun i p -> score_outcome results p ends.(i)) live)

let run_group t cache results (cfg : Config.t) group =
  if cfg.traceback then run_traceback t cache results cfg group
  else
    match cfg.backend with
    | Config.Scalar -> run_scalar t cache results cfg group
    | Config.Simd -> run_simd t results cfg group
    | Config.Wavefront -> run_wavefront t results cfg group
    | Config.Auto ->
        (* Short pairs take the cached residual; a pair worth tiling only
           escalates when there is real parallelism to win — unless the
           configuration is certified unit-cost, where the bit-parallel
           kernel's ~62 cells per word op beats wavefront parallelism at
           any realistic domain count, so the whole group stays scalar. *)
        let kernels = Spec_cache.get cache cfg.scheme cfg.mode in
        if kernels.Spec_cache.bitparallel <> None then run_scalar t cache results cfg group
        else begin
          let long, short =
            List.partition (fun p -> t.domains > 1 && cells_of p >= long_pair_cells) group
          in
          if short <> [] then run_scalar t cache results cfg short;
          if long <> [] then run_wavefront t results cfg long
        end

(* ---- aggregate views over the shard replicas ---- *)

let cache_stats t =
  Array.fold_left
    (fun (acc : Spec_cache.stats) c ->
      let s = Spec_cache.stats c in
      {
        Spec_cache.hits = acc.Spec_cache.hits + s.Spec_cache.hits;
        misses = acc.Spec_cache.misses + s.Spec_cache.misses;
        evictions = acc.Spec_cache.evictions + s.Spec_cache.evictions;
        invalidations = acc.Spec_cache.invalidations + s.Spec_cache.invalidations;
        size = acc.Spec_cache.size + s.Spec_cache.size;
        capacity = acc.Spec_cache.capacity + s.Spec_cache.capacity;
      })
    {
      Spec_cache.hits = 0;
      misses = 0;
      evictions = 0;
      invalidations = 0;
      size = 0;
      capacity = 0;
    }
    t.caches

let metrics t = t.metrics
let queue_depth t = Shard.in_flight t.pool
let shards t = Shard.shards t.pool
let is_draining t = Shard.is_closed t.pool

type shard_stat = {
  ss_shard : int;
  ss_capacity : int;
  ss_in_flight : int;
  ss_queued : int;
  ss_enqueued : int;
  ss_run_local : int;
  ss_steals : int;
  ss_stolen_from : int;
  ss_jobs : int;
  ss_worker_minor_words : float;
}

let shard_stats t =
  Array.mapi
    (fun i (s : Shard.shard_stats) ->
      {
        ss_shard = i;
        ss_capacity = s.Shard.s_capacity;
        ss_in_flight = s.Shard.s_in_flight;
        ss_queued = s.Shard.s_queued;
        ss_enqueued = s.Shard.s_enqueued;
        ss_run_local = s.Shard.s_run_local;
        ss_steals = s.Shard.s_steals;
        ss_stolen_from = s.Shard.s_stolen_from;
        ss_jobs = Atomic.get t.jobs_by_shard.(i);
        ss_worker_minor_words = s.Shard.s_worker_words;
      })
    (Shard.stats t.pool)

(* The Prometheus view of [shard_stats]: one gauge family per field,
   labeled by shard index. Refreshed per completed ticket (via
   [mirror_stats]) and again by the admin endpoint at scrape time, so a
   /metrics scrape's per-shard totals match a concurrent [shard_stats]
   snapshot. *)
let publish_shard_stats t =
  Array.iter
    (fun s ->
      let label = ("shard", string_of_int s.ss_shard) in
      let g name v = Metrics.gauge_set_labeled t.metrics ("runtime/" ^ name) ~label v in
      g "shard_jobs" s.ss_jobs;
      g "shard_queued" s.ss_queued;
      g "shard_in_flight" s.ss_in_flight;
      g "shard_enqueued" s.ss_enqueued;
      g "shard_run_local" s.ss_run_local;
      g "shard_steals" s.ss_steals;
      g "shard_stolen_from" s.ss_stolen_from;
      g "shard_minor_words" (int_of_float s.ss_worker_minor_words))
    (shard_stats t)

(* Mirror cache, workspace, shard and GC effectiveness into the registry
   for [dump] — once per completed ticket, the same cadence the
   pre-shard executor used per batch. *)
let mirror_stats t =
  let cs = cache_stats t in
  Metrics.gauge_set t.metrics "runtime/cache_hits" cs.Spec_cache.hits;
  Metrics.gauge_set t.metrics "runtime/cache_misses" cs.Spec_cache.misses;
  Metrics.gauge_set t.metrics "runtime/cache_size" cs.Spec_cache.size;
  let steals, stolen =
    Array.fold_left
      (fun (a, b) (s : Shard.shard_stats) ->
        (a + s.Shard.s_steals, b + s.Shard.s_stolen_from))
      (0, 0) (Shard.stats t.pool)
  in
  Metrics.gauge_set t.metrics "runtime/shard_steals" steals;
  Metrics.gauge_set t.metrics "runtime/shard_stolen_chunks" stolen;
  Metrics.gauge_set t.metrics "runtime/shard_helped" (Shard.helped t.pool);
  publish_shard_stats t;
  Workspace.publish t.metrics;
  Metrics.record_gc t.metrics

(* ---- ticket lifecycle ---- *)

let complete t tk =
  Array.iteri (fun i g -> Shard.release t.pool i g) tk.tk_grants;
  Metrics.gauge_set t.metrics "runtime/queue_depth" (Shard.in_flight t.pool);
  mirror_stats t;
  Atomic.set tk.tk_done true;
  Mutex.lock tk.tk_mutex;
  Condition.broadcast tk.tk_cond;
  Mutex.unlock tk.tk_mutex

let finish_chunk t tk =
  if Atomic.fetch_and_add tk.tk_pending (-1) = 1 then complete t tk

(* Execute one chunk as shard [executor]: its spec-cache replica, this
   domain's workspace pool. Never raises — an executor exception is
   parked on the ticket and re-raised by [await] on the submitting side,
   so a worker domain survives any chunk. *)
let exec_chunk t ~executor ~home ck =
  let tk = ck.ck_ticket in
  (try
     Trace.with_span "service.exec"
       ~attrs:
         ([
           ("shard", Trace.Int executor);
           ("home", Trace.Int home);
           ("stolen", Trace.Str (string_of_bool (executor <> home)));
           ("jobs", Trace.Int ck.ck_njobs);
           ("config", Trace.Str (Config.to_string ck.ck_cfg));
         ]
         @ ck.ck_attrs)
       (fun () -> run_group t t.caches.(executor) tk.tk_results ck.ck_cfg ck.ck_jobs)
   with e ->
     Mutex.lock tk.tk_mutex;
     if tk.tk_exn = None then tk.tk_exn <- Some e;
     Mutex.unlock tk.tk_mutex;
     Metrics.incr (ctr t "chunk_exceptions"));
  ignore (Atomic.fetch_and_add t.jobs_by_shard.(executor) ck.ck_njobs);
  (match Atomic.get t.chunk_hook with
  | None -> ()
  | Some f -> ( try f ck.ck_njobs with _ -> ()));
  finish_chunk t tk

let set_chunk_hook t hook = Atomic.set t.chunk_hook hook

let create ?(capacity = 1024) ?(batch_size = 256) ?(shards = 1)
    ?(domains = Domain.recommended_domain_count ())
    ?(cache_capacity = Spec_cache.default_capacity) ?metrics () =
  if capacity <= 0 then invalid_arg "Service.create: capacity must be positive";
  if batch_size <= 0 then invalid_arg "Service.create: batch_size must be positive";
  let shards = max 1 shards in
  let t =
    {
      batch_size;
      domains = max 1 domains;
      pool = Shard.create ~shards ~capacity ();
      caches = Array.init shards (fun _ -> Spec_cache.create ~capacity:cache_capacity ());
      jobs_by_shard = Array.init shards (fun _ -> Atomic.make 0);
      metrics = (match metrics with Some m -> m | None -> Metrics.create ());
      submit_rr = Atomic.make 0;
      chunk_hook = Atomic.make None;
    }
  in
  Metrics.gauge_set t.metrics "runtime/shards" shards;
  (* Multi-shard pools get one worker domain per shard; a single-shard
     pool spawns nothing and [await] executes on the caller — the
     pre-shard hot path, unchanged. *)
  Shard.start_workers t.pool ~exec:(fun ~executor ~home ck -> exec_chunk t ~executor ~home ck);
  t

(* Group accumulation without a per-job [Config.key]: batch submitters
   overwhelmingly share one config {e value}, so membership is decided by
   physical equality against the (few) group representatives first, and
   the sprintf-built key is computed only for configs not seen by
   identity — once per distinct value, not once per job. *)
type group_acc = {
  g_cfg : Config.t;
  mutable g_key : string option;
  mutable g_jobs : prepared list;  (** reversed *)
}

let key_of g =
  match g.g_key with
  | Some k -> k
  | None ->
      let k = Config.key g.g_cfg in
      g.g_key <- Some k;
      k

let add_to_groups groups p =
  let rec by_identity = function
    | [] -> false
    | g :: tl ->
        if g.g_cfg == p.p_cfg then begin
          g.g_jobs <- p :: g.g_jobs;
          true
        end
        else by_identity tl
  in
  if not (by_identity !groups) then begin
    let k = Config.key p.p_cfg in
    let rec by_key = function
      | [] ->
          groups := { g_cfg = p.p_cfg; g_key = Some k; g_jobs = [ p ] } :: !groups
      | g :: tl ->
          if String.equal (key_of g) k then g.g_jobs <- p :: g.g_jobs else by_key tl
    in
    by_key !groups
  end

(* The shared submit path behind string jobs and pre-parsed jobs.
   [prepare i now] either returns the admitted job or fills
   [results.(i)] itself and returns [None]. Admission, parsing and
   grouping run on the submitting thread; chunks are then placed on the
   shard queues (round-robin with overflow) and the ticket returned. *)
let submit_internal t ?(attrs = []) n results ~prepare =
  let tk granted grants =
    {
      tk_svc = t;
      tk_results = results;
      tk_pending = Atomic.make 1;
      (* the submission hold, dropped when placement is finished *)
      tk_grants = grants;
      tk_done = Atomic.make (granted < 0);
      tk_mutex = Mutex.create ();
      tk_cond = Condition.create ();
      tk_exn = None;
    }
  in
  if n = 0 then begin
    let tk = tk (-1) [||] in
    Atomic.set tk.tk_pending 0;
    tk
  end
  else begin
    Metrics.add (ctr t "jobs_submitted") n;
    let home = Atomic.fetch_and_add t.submit_rr 1 in
    let grants = Shard.reserve t.pool ~home n in
    let granted = Array.fold_left ( + ) 0 grants in
    Metrics.gauge_set t.metrics "runtime/queue_depth" (Shard.in_flight t.pool);
    if granted < n then Metrics.add (ctr t "jobs_rejected") (n - granted);
    let tk = tk granted grants in
    let batch_frame =
      Trace.start "service.batch"
        ~attrs:
          ([
             ("jobs", Trace.Int n); ("granted", Trace.Int granted);
             ("rejected", Trace.Int (n - granted));
           ]
          @ attrs)
    in
    let now0 = Timer.now_ns () in
    (* Parse phase: bad sequences fail their own slot, nothing else. *)
    let admit_frame = Trace.start "service.admit" in
    let prepared = ref [] in
    for i = granted - 1 downto 0 do
      match prepare i now0 with
      | Some p -> prepared := p :: !prepared
      | None -> Metrics.incr (ctr t "jobs_failed")
    done;
    Trace.finish admit_frame ~attrs:[ ("prepared", Trace.Int (List.length !prepared)) ];
    Metrics.observe (hist t "admit_us") (Timer.elapsed_us now0);
    (* Group by configuration, preserving first-seen order (results are
       slotted by index, so order only affects locality). *)
    let groups = ref [] in
    List.iter (add_to_groups groups) !prepared;
    let ordered = List.rev !groups in
    (* Chunk and place. A queue refusing a chunk overflows to its
       siblings; with every queue at its bound (possible only when
       capacity far exceeds the queue bounds) the submitter runs the
       chunk itself rather than dropping admitted work. *)
    let nchunks = ref 0 in
    List.iter
      (fun g ->
        let rec chunks jobs =
          match jobs with
          | [] -> ()
          | _ ->
              let chunk_jobs, rest =
                if fits_in jobs t.batch_size then (jobs, []) else split_at t.batch_size jobs
              in
              let ck =
                {
                  ck_cfg = g.g_cfg;
                  ck_jobs = chunk_jobs;
                  ck_njobs = List.length chunk_jobs;
                  ck_ticket = tk;
                  ck_attrs = attrs;
                }
              in
              incr nchunks;
              Atomic.incr tk.tk_pending;
              (match Shard.place t.pool ck with
              | Some _ -> ()
              | None -> exec_chunk t ~executor:0 ~home:0 ck);
              chunks rest
        in
        chunks (List.rev g.g_jobs))
      ordered;
    Trace.finish batch_frame
      ~attrs:
        [ ("groups", Trace.Int (List.length ordered)); ("chunks", Trace.Int !nchunks) ];
    finish_chunk t tk;
    (* drop the submission hold *)
    tk
  end

(* Wait for a ticket, executing queued chunks while there is any — the
   single-shard pool has no worker domains, so the awaiting caller IS the
   executor there; on multi-shard pools the caller just adds a lane. Once
   nothing is queued, block on the ticket condition. *)
let await tk =
  let t = tk.tk_svc in
  let rec help () =
    if not (Atomic.get tk.tk_done) then begin
      match Shard.try_take t.pool with
      | Some (ck, home) ->
          exec_chunk t ~executor:home ~home ck;
          help ()
      | None ->
          Mutex.lock tk.tk_mutex;
          while not (Atomic.get tk.tk_done) do
            Condition.wait tk.tk_cond tk.tk_mutex
          done;
          Mutex.unlock tk.tk_mutex
    end
  in
  Trace.with_span "service.await" (fun () -> help ());
  (match tk.tk_exn with Some e -> raise e | None -> ());
  tk.tk_results

let submit t ?attrs jobs =
  let n = Array.length jobs in
  let results = Array.make n (Error Error.Rejected) in
  submit_internal t ?attrs n results ~prepare:(fun i now0 ->
      let j = jobs.(i) in
      let alphabet = Scheme.alphabet j.config.Config.scheme in
      match (Seq.of_string alphabet j.query, Seq.of_string alphabet j.subject) with
      | q, s ->
          Some
            { p_idx = i; p_cfg = j.config; p_q = q; p_s = s;
              p_deadline = deadline_of j.timeout_s now0; p_max_dist = j.max_dist }
      | exception Invalid_argument msg ->
          results.(i) <- Error (Error.Bad_sequence msg);
          None)

let submit_seqs t ?attrs jobs =
  let n = Array.length jobs in
  let results = Array.make n (Error Error.Rejected) in
  submit_internal t ?attrs n results ~prepare:(fun i now0 ->
      let j = jobs.(i) in
      let alphabet = Scheme.alphabet j.sj_config.Config.scheme in
      if
        Alphabet.equal (Seq.alphabet j.sj_query) alphabet
        && Alphabet.equal (Seq.alphabet j.sj_subject) alphabet
      then
        Some
          { p_idx = i; p_cfg = j.sj_config; p_q = j.sj_query; p_s = j.sj_subject;
            p_deadline = deadline_of j.sj_timeout_s now0; p_max_dist = j.sj_max_dist }
      else begin
        results.(i) <-
          Error
            (Error.Bad_sequence
               (Printf.sprintf "sequence alphabet %s does not match scheme alphabet %s"
                  (Alphabet.name (Seq.alphabet j.sj_query))
                  (Alphabet.name alphabet)));
        None
      end)

let run t jobs = await (submit t jobs)
let run_seqs t jobs = await (submit_seqs t jobs)
let run_one t j = (run t [| j |]).(0)

(* Graceful shutdown for hosts (the network server's SIGTERM path): flip
   the admission gate, then wait for every already-admitted job to leave.
   The wait helps: queued chunks are executed right here, so drain can
   never deadlock on a single-shard pool whose ticket is not yet being
   awaited, and on multi-shard pools it shortens the tail. *)
let drain t =
  Shard.close t.pool;
  let rec go () =
    if Shard.in_flight t.pool > 0 then begin
      (match Shard.try_take t.pool with
      | Some (ck, home) -> exec_chunk t ~executor:home ~home ck
      | None -> Domain.cpu_relax ());
      go ()
    end
  in
  go ()

let reopen t = Shard.reopen t.pool

let shutdown t =
  drain t;
  Shard.shutdown t.pool

let default_service = lazy (create ())
let default () = Lazy.force default_service
