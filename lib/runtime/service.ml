module Scheme = Anyseq_scoring.Scheme
module Bounds = Anyseq_scoring.Bounds
module Alphabet = Anyseq_bio.Alphabet
module Seq = Anyseq_bio.Sequence
module Alignment = Anyseq_bio.Alignment
module Inter_seq = Anyseq_simd.Inter_seq
module Scheduler = Anyseq_wavefront.Scheduler
module Timer = Anyseq_util.Timer
module Trace = Anyseq_trace.Trace
module Scratch = Anyseq_core.Scratch
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
  [ "bitparallel"; "banded"; "banded_cutoff"; "native"; "simd"; "wavefront" ]

(* A timeout of 2^62 ns (~146 years) or more, infinity included, means no
   deadline; the cap also keeps [now + ns] clear of Int64 overflow. *)
let deadline_of timeout_s now =
  match timeout_s with
  | None -> Int64.max_int
  | Some s when s <= 0.0 -> Int64.min_int (* already expired, deterministically *)
  | Some s when s *. 1e9 >= 0x1p62 -> Int64.max_int
  | Some s -> Int64.add now (Int64.of_float (s *. 1e9))

let expired_at now p = Int64.compare now p.p_deadline > 0
let cells_of p = Seq.length p.p_q * Seq.length p.p_s

let ctr t name = Metrics.counter t.metrics ("runtime/" ^ name)
let hist t name = Metrics.histogram t.metrics ("runtime/" ^ name)
let tier_counter name = "runtime/tier_" ^ name

let tier_counts t =
  List.map
    (fun n -> (n, Option.value ~default:0 (Metrics.find t.metrics (tier_counter n))))
    tier_names

let outcome p score query_end subject_end alignment =
  Ok { score; query_end; subject_end; alignment; query_seq = p.p_q; subject_seq = p.p_s }

let score_outcome results p (e : ends) =
  results.(p.p_idx) <- outcome p e.score e.query_end e.subject_end None

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

(* ---- execution tiers ---- *)

(* What a tier sees of the chunk whose bucket it runs. [e_kernels] is the
   executing shard's cache entry, forced only where a residual is needed. *)
type env = {
  e_svc : t;
  e_cfg : Config.t;
  e_kernels : Spec_cache.kernels Lazy.t;
  e_results : (outcome, Error.t) result array;
  e_ws : Scratch.t;
}

type tier = {
  name : string;  (** counts its jobs under [runtime/tier_<name>] *)
  span : string;  (** the [backend.*] span around each bucket *)
  run : env -> prepared list -> int;
      (** fills every slot of the bucket; returns the jobs it computed *)
}

let score_each e score jobs =
  List.iter
    (fun p -> score_outcome e.e_results p (score ~ws:e.e_ws ~query:p.p_q ~subject:p.p_s))
    jobs;
  List.length jobs

let score_pairs e score_many jobs =
  let ends = score_many (Array.of_list (List.map (fun p -> (p.p_q, p.p_s)) jobs)) in
  List.iteri (fun i p -> score_outcome e.e_results p ends.(i)) jobs;
  Array.length ends

(* Traceback checks each deadline again before aligning (one alignment
   can outlast another job's deadline), so it may compute fewer jobs
   than it was given. *)
let align_each e align jobs =
  List.fold_left
    (fun n p ->
      if expired_at (Timer.now_ns ()) p then begin
        time_out e.e_svc e.e_results p;
        n
      end
      else begin
        let t0 = Timer.now_ns () in
        let a = align ~ws:e.e_ws ~query:p.p_q ~subject:p.p_s in
        Metrics.observe (hist e.e_svc "align_us") (Timer.elapsed_us t0);
        e.e_results.(p.p_idx) <-
          outcome p a.Alignment.score a.Alignment.query_end a.Alignment.subject_end (Some a);
        n + 1
      end)
    0 jobs

(* [select] routes a job here only when the cache entry carries one. *)
let myers e = Option.get (Lazy.force e.e_kernels).Spec_cache.bitparallel

(* Myers edit distance with the certificate's score conversion. *)
let bitparallel =
  let run e = score_each e (myers e).Bitparallel.bp_score in
  { name = "bitparallel"; span = "backend.myers"; run }

(* Banded Myers under each job's [max_dist] cap: a cap the kernel proves
   exceeded answers [Error Cutoff] and counts as [banded_cutoff]. *)
let banded =
  let run e jobs =
    let bp = myers e in
    List.iter
      (fun p ->
        let max_dist = Option.get p.p_max_dist in
        match bp.Bitparallel.bp_score_upto ~ws:e.e_ws ~max_dist ~query:p.p_q ~subject:p.p_s with
        | Some ends -> score_outcome e.e_results p ends
        | None ->
            e.e_results.(p.p_idx) <- Error Error.Cutoff;
            Metrics.incr (Metrics.counter e.e_svc.metrics (tier_counter "banded_cutoff")))
      jobs;
    List.length jobs
  in
  { name = "banded"; span = "backend.myers_banded"; run }

(* The cached pre-generated residual. A score bucket reads the
   workspace's band tally into [runtime/band_*]: every global score job
   counts once as certified or dense. *)
let native =
  let run e jobs =
    let nk = (Lazy.force e.e_kernels).Spec_cache.native in
    if e.e_cfg.traceback then align_each e nk.Native_kernel.align jobs
    else begin
      Scratch.reset_band_tally e.e_ws;
      let n = score_each e nk.Native_kernel.score jobs in
      let b = Scratch.band_tally e.e_ws and m = e.e_svc.metrics in
      Metrics.add (Metrics.counter m "runtime/band_certified") b.Scratch.certified;
      Metrics.add (Metrics.counter m "runtime/band_dense") b.Scratch.dense;
      Metrics.add (Metrics.counter m "runtime/band_rounds") b.Scratch.rounds;
      n
    end
  in
  { name = "native"; span = "backend.native"; run }

(* Lockstep 16-bit vector batches of pairs [refusal] has screened. *)
let simd =
  let run e = score_pairs e (Inter_seq.batch_score ~ws:e.e_ws e.e_cfg.scheme e.e_cfg.mode) in
  { name = "simd"; span = "backend.simd"; run }

(* Tiles of every pair share one dynamic queue. The scheduler's worker
   domains keep their own buffers, so the chunk's workspace is unused. *)
let wavefront =
  let run e =
    score_pairs e (Scheduler.score_many ~domains:e.e_svc.domains e.e_cfg.scheme e.e_cfg.mode)
  in
  { name = "wavefront"; span = "backend.wavefront"; run }

(* A mixed chunk runs its buckets in this order. *)
let tiers = [ bitparallel; banded; native; simd; wavefront ]

(* The whole routing policy for one job. Every traceback job takes the
   native residual, whatever the hint. A score job follows an explicit
   Simd or Wavefront hint. Otherwise a Unit_cost certificate (a
   bit-parallel kernel in the cache entry) picks Myers, banded for a
   capped job, at any pair size: ~62 cells per word op beats wavefront
   parallelism at any realistic domain count. Auto escalates other pairs
   of [long_pair_cells] or more only when there are domains to win. *)
let select t kernels (cfg : Config.t) p =
  if cfg.traceback then native
  else
    match cfg.backend with
    | Config.Simd -> simd
    | Config.Wavefront -> wavefront
    | (Config.Scalar | Config.Auto) when (Lazy.force kernels).Spec_cache.bitparallel <> None ->
        if p.p_max_dist = None then bitparallel else banded
    | Config.Auto when t.domains > 1 && cells_of p >= long_pair_cells -> wavefront
    | Config.Scalar | Config.Auto -> native

(* An explicit Simd hint is a contract: a score job whose range fails the
   16-bit bound is refused rather than silently de-vectorized. Empty
   pairs have no DP block, hence nothing that can overflow. *)
let refusal (cfg : Config.t) p =
  match cfg.backend with
  | Config.Simd when not cfg.traceback ->
      let rows = Seq.length p.p_q and cols = Seq.length p.p_s in
      if rows = 0 || cols = 0 || Bounds.fits cfg.scheme ~rows ~cols ~bits:16 then None
      else
        Some
          (Error.Overflow_bound
             (Printf.sprintf
                "%d x %d pair exceeds the 16-bit differential-score range of the vector kernels"
                rows cols))
  | _ -> None

let run_bucket e tier jobs =
  let n =
    Trace.with_span tier.span
      ~attrs:[ ("jobs", Trace.Int (List.length jobs)) ]
      (fun () -> tier.run e jobs)
  in
  Metrics.add (Metrics.counter e.e_svc.metrics (tier_counter tier.name)) n;
  n

(* Run one chunk. Refusals and expired deadlines are settled first,
   against one clock read (the documented deadline granularity); the
   filter copies the list only when some job is settled. The rest is
   bucketed by [select]: a chunk whose jobs all pick one tier runs as-is,
   a mixed one as one bucket per tier, in table order. All buckets share
   one workspace checkout, so a warmed pool keeps the kernels
   allocation-free, and the spec-cache replica is consulted at most
   once. *)
let run_chunk t cache results (cfg : Config.t) jobs =
  let now = Timer.now_ns () in
  let settle p =
    match refusal cfg p with
    | Some err ->
        results.(p.p_idx) <- Error err;
        Metrics.incr (ctr t "jobs_failed");
        false
    | None when expired_at now p ->
        time_out t results p;
        false
    | None -> true
  in
  let live =
    if List.for_all (fun p -> refusal cfg p = None && not (expired_at now p)) jobs then jobs
    else List.filter settle jobs
  in
  match live with
  | [] -> ()
  | p0 :: _ ->
      let kernels = lazy (Spec_cache.get cache cfg.scheme cfg.mode) in
      let pick tier p = select t kernels cfg p == tier in
      let first = select t kernels cfg p0 in
      let frame = Trace.start "service.chunk" in
      let t0 = Timer.now_ns () in
      Fun.protect
        ~finally:(fun () -> Trace.finish frame)
        (fun () ->
          let jobs =
            Workspace.with_ws (fun ws ->
                let e =
                  { e_svc = t; e_cfg = cfg; e_kernels = kernels; e_results = results; e_ws = ws }
                in
                if List.for_all (pick first) live then run_bucket e first live
                else
                  List.fold_left
                    (fun n tier ->
                      match List.filter (pick tier) live with
                      | [] -> n
                      | bucket -> n + run_bucket e tier bucket)
                    0 tiers)
          in
          (* a job traceback found expired was not computed *)
          let cells =
            List.fold_left
              (fun acc p ->
                match results.(p.p_idx) with Error Error.Timeout -> acc | _ -> acc + cells_of p)
              0 live
          in
          Trace.add frame "jobs" (Trace.Int jobs);
          Trace.add frame "cells" (Trace.Int cells);
          Metrics.incr (ctr t "batches_dispatched");
          Metrics.observe (hist t "batch_jobs") jobs;
          Metrics.observe (hist t "batch_us") (Timer.elapsed_us t0);
          Metrics.add (ctr t "cells_computed") cells;
          Metrics.add (ctr t "jobs_completed") jobs)

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
       (fun () -> run_chunk t t.caches.(executor) tk.tk_results ck.ck_cfg ck.ck_jobs)
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
  (* registered up front, so a scrape shows them before the first job *)
  List.iter (fun n -> ignore (ctr t n)) [ "band_certified"; "band_dense"; "band_rounds" ];
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
