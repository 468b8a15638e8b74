module Workqueue = Anyseq_wavefront.Workqueue
module Tilegraph = Anyseq_wavefront.Tilegraph
module Domain_pool = Anyseq_wavefront.Domain_pool
module Scheduler = Anyseq_wavefront.Scheduler
module Sim = Anyseq_wavefront.Sim
module Sequence = Anyseq_bio.Sequence
module Scheme = Anyseq_scoring.Scheme
module T = Anyseq_core.Types
module Rng = Anyseq_util.Rng

let impls = [ ("locked", Workqueue.Locked); ("lock-free", Workqueue.Lock_free) ]

(* ------------------------------------------------------------------ *)
(* Workqueue                                                           *)
(* ------------------------------------------------------------------ *)

let test_queue_single_thread impl () =
  let q = Workqueue.create impl in
  Workqueue.push q 1;
  Workqueue.push q 2;
  Workqueue.push q 3;
  Alcotest.(check int) "length" 3 (Workqueue.length q);
  let drained = List.filter_map (fun _ -> Workqueue.try_pop q) [ (); (); () ] in
  Alcotest.(check int) "drained all" 3 (List.length drained);
  Alcotest.(check (list int)) "drained set"
    [ 1; 2; 3 ]
    (List.sort compare drained);
  Alcotest.(check (option int)) "empty try_pop" None (Workqueue.try_pop q);
  Workqueue.close q;
  Alcotest.(check (option int)) "pop after close" None (Workqueue.pop q)

let test_queue_close_drains impl () =
  let q = Workqueue.create impl in
  Workqueue.push q 42;
  Workqueue.close q;
  Alcotest.(check (option int)) "closed queue still yields pending item" (Some 42)
    (Workqueue.pop q);
  Alcotest.(check (option int)) "then none" None (Workqueue.pop q)

let test_queue_concurrent impl () =
  (* 2 producers push 1..n each; 2 consumers pop until closed; every item
     must be seen exactly once. *)
  let q = Workqueue.create impl in
  let n = 2000 in
  let produced = Atomic.make 0 in
  let seen = Array.make (2 * n) (Atomic.make false) in
  Array.iteri (fun i _ -> seen.(i) <- Atomic.make false) seen;
  let popped = Atomic.make 0 in
  Domain_pool.run ~domains:4 (fun id ->
      if id < 2 then begin
        for k = 0 to n - 1 do
          Workqueue.push q ((id * n) + k)
        done;
        if Atomic.fetch_and_add produced n = n then Workqueue.close q
      end
      else begin
        let rec loop () =
          match Workqueue.pop q with
          | None -> ()
          | Some item ->
              if not (Atomic.compare_and_set seen.(item) false true) then
                Alcotest.failf "item %d popped twice" item;
              ignore (Atomic.fetch_and_add popped 1);
              loop ()
        in
        loop ()
      end);
  (* Drain anything left after close raced with the last pops. *)
  let rec drain () =
    match Workqueue.try_pop q with
    | Some item ->
        if not (Atomic.compare_and_set seen.(item) false true) then
          Alcotest.failf "item %d popped twice (drain)" item;
        ignore (Atomic.fetch_and_add popped 1);
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all items seen exactly once" (2 * n) (Atomic.get popped)

(* ------------------------------------------------------------------ *)
(* Tilegraph                                                           *)
(* ------------------------------------------------------------------ *)

let test_tilegraph_sequential () =
  let g = Tilegraph.create ~rows:3 ~cols:4 in
  Alcotest.(check int) "total" 12 (Tilegraph.total g);
  Alcotest.(check (list (pair int int))) "initial" [ (0, 0) ] (Tilegraph.initial_ready g);
  let ready = Tilegraph.complete g ~ti:0 ~tj:0 in
  Alcotest.(check (list (pair int int))) "both successors ready"
    [ (0, 1); (1, 0) ]
    (List.sort compare ready);
  let r1 = Tilegraph.complete g ~ti:0 ~tj:1 in
  Alcotest.(check (list (pair int int))) "interior waits for second dep" [ (0, 2) ]
    (List.sort compare r1);
  let r2 = Tilegraph.complete g ~ti:1 ~tj:0 in
  Alcotest.(check (list (pair int int))) "now (1,1) releases" [ (1, 1); (2, 0) ]
    (List.sort compare r2);
  Alcotest.(check bool) "not all done" false (Tilegraph.all_done g);
  Alcotest.(check bool) "is_completed" true (Tilegraph.is_completed g ~ti:0 ~tj:0)

let test_tilegraph_double_complete () =
  let g = Tilegraph.create ~rows:2 ~cols:2 in
  ignore (Tilegraph.complete g ~ti:0 ~tj:0);
  Alcotest.check_raises "double completion detected"
    (Invalid_argument "Tilegraph.complete: tile (0,0) completed twice") (fun () ->
      ignore (Tilegraph.complete g ~ti:0 ~tj:0))

let test_tilegraph_full_walk () =
  let g = Tilegraph.create ~rows:5 ~cols:7 in
  (* Complete in wavefront order via the ready sets only; every tile must
     become ready exactly once. *)
  let pending = Queue.create () in
  List.iter (fun t -> Queue.push t pending) (Tilegraph.initial_ready g);
  let count = ref 0 in
  while not (Queue.is_empty pending) do
    let ti, tj = Queue.pop pending in
    incr count;
    List.iter (fun t -> Queue.push t pending) (Tilegraph.complete g ~ti ~tj)
  done;
  Alcotest.(check int) "every tile released exactly once" 35 !count;
  Alcotest.(check bool) "all done" true (Tilegraph.all_done g)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_all () =
  let hits = Array.init 4 (fun _ -> Atomic.make 0) in
  Domain_pool.run ~domains:4 (fun id -> ignore (Atomic.fetch_and_add hits.(id) 1));
  Array.iteri
    (fun i a -> Alcotest.(check int) (Printf.sprintf "worker %d ran once" i) 1 (Atomic.get a))
    hits

let test_pool_propagates_exception () =
  Alcotest.check_raises "first exception re-raised" (Failure "boom") (fun () ->
      Domain_pool.run ~domains:3 (fun id -> if id = 1 then failwith "boom"))

let test_parallel_for_covers () =
  let flags = Array.init 100 (fun _ -> Atomic.make 0) in
  Domain_pool.parallel_for ~domains:4 ~lo:5 ~hi:95 (fun i ->
      ignore (Atomic.fetch_and_add flags.(i) 1));
  Array.iteri
    (fun i a ->
      let expected = if i >= 5 && i < 95 then 1 else 0 in
      Alcotest.(check int) (Printf.sprintf "index %d" i) expected (Atomic.get a))
    flags

let test_parallel_map () =
  let input = Array.init 57 Fun.id in
  let out = Domain_pool.parallel_map ~domains:3 input (fun x -> x * x) in
  Alcotest.(check (array int)) "map" (Array.map (fun x -> x * x) input) out

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)
(* ------------------------------------------------------------------ *)

let test_dynamic_covers_grid impl () =
  let rows = 6 and cols = 9 in
  let counts = Array.make (rows * cols) (Atomic.make 0) in
  Array.iteri (fun i _ -> counts.(i) <- Atomic.make 0) counts;
  Scheduler.run_dynamic ~impl ~domains:4 ~rows ~cols
    ~compute:(fun ~ti ~tj -> ignore (Atomic.fetch_and_add counts.((ti * cols) + tj) 1))
    ();
  Array.iteri
    (fun i a -> Alcotest.(check int) (Printf.sprintf "tile %d once" i) 1 (Atomic.get a))
    counts

let test_dynamic_respects_dependencies impl () =
  let rows = 5 and cols = 5 in
  let done_ = Array.make (rows * cols) (Atomic.make false) in
  Array.iteri (fun i _ -> done_.(i) <- Atomic.make false) done_;
  let violation = Atomic.make false in
  Scheduler.run_dynamic ~impl ~domains:4 ~rows ~cols
    ~compute:(fun ~ti ~tj ->
      if ti > 0 && not (Atomic.get done_.(((ti - 1) * cols) + tj)) then
        Atomic.set violation true;
      if tj > 0 && not (Atomic.get done_.((ti * cols) + tj - 1)) then
        Atomic.set violation true;
      Atomic.set done_.((ti * cols) + tj) true)
    ();
  Alcotest.(check bool) "no dependency violation" false (Atomic.get violation)

let test_static_respects_dependencies () =
  let rows = 5 and cols = 4 in
  let done_ = Array.make (rows * cols) (Atomic.make false) in
  Array.iteri (fun i _ -> done_.(i) <- Atomic.make false) done_;
  let violation = Atomic.make false in
  Scheduler.run_static ~domains:3 ~rows ~cols
    ~compute:(fun ~ti ~tj ->
      if ti > 0 && not (Atomic.get done_.(((ti - 1) * cols) + tj)) then
        Atomic.set violation true;
      if tj > 0 && not (Atomic.get done_.((ti * cols) + tj - 1)) then
        Atomic.set violation true;
      Atomic.set done_.((ti * cols) + tj) true)
    ();
  Alcotest.(check bool) "no dependency violation" false (Atomic.get violation)

let test_dynamic_many () =
  let grids = [| (3, 4); (2, 2); (5, 1) |] in
  let totals = Array.map (fun (r, c) -> r * c) grids in
  let counts = Array.map (fun t -> Array.init t (fun _ -> Atomic.make 0)) totals in
  Scheduler.run_dynamic_many ~domains:4 ~grids
    ~compute:(fun ~grid ~ti ~tj ->
      let _, cols = grids.(grid) in
      ignore (Atomic.fetch_and_add counts.(grid).((ti * cols) + tj) 1))
    ();
  Array.iteri
    (fun gi per ->
      Array.iteri
        (fun i a ->
          Alcotest.(check int) (Printf.sprintf "grid %d tile %d" gi i) 1 (Atomic.get a))
        per)
    counts

let test_score_many () =
  let rng = Rng.create ~seed:71 in
  let pairs =
    Array.init 6 (fun i ->
        let n = 40 + (i * 37) in
        let q = Sequence.random rng Anyseq_bio.Alphabet.dna4 ~len:n in
        (q, Anyseq_seqio.Genome_gen.mutate rng q))
  in
  let scheme = Scheme.paper_affine in
  List.iter
    (fun mode ->
      let results = Scheduler.score_many ~tile:32 ~domains:3 scheme mode pairs in
      Array.iteri
        (fun i (q, s) ->
          Alcotest.(check int)
            (Printf.sprintf "pair %d" i)
            (Anyseq_core.Dp_linear.score_only scheme mode ~query:(Sequence.view q)
               ~subject:(Sequence.view s))
              .T.score
            results.(i).T.score)
        pairs)
    [ T.Global; T.Local ]

let scheduled_scores_match =
  Helpers.qtest ~count:40 "parallel schedulers = scalar scores"
    QCheck2.Gen.(
      tup4 nat (oneofl (List.map snd Helpers.oracle_schemes)) (oneofl Helpers.modes_under_test)
        (oneof [ 1 -- 20; oneofl [ 33; 64 ] ]))
    (fun (seed, scheme, mode, tile) ->
      let q, s = Helpers.scheme_pair (Rng.create ~seed) scheme ~max_len:150 in
      let expected =
        Anyseq_core.Dp_linear.score_only scheme mode ~query:(Sequence.view q)
          ~subject:(Sequence.view s)
      in
      let dyn = Scheduler.score_parallel ~tile ~domains:3 scheme mode ~query:q ~subject:s in
      let dyn_lf =
        Scheduler.score_parallel ~impl:Workqueue.Lock_free ~tile ~domains:3 scheme mode ~query:q
          ~subject:s
      in
      let st = Scheduler.score_parallel_static ~tile ~domains:2 scheme mode ~query:q ~subject:s in
      dyn = expected && dyn_lf = expected && st = expected)

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let base_params = Sim.default_params ~tile_cost:100e-6

let test_sim_single_thread_serial () =
  (* With one worker, no jitter and no overheads, makespan = tiles x cost. *)
  let p =
    { base_params with Sim.jitter_sigma = 0.0; queue_overhead = 0.0; barrier_cost = 0.0;
      mem_beta = 0.0; static_kernel_factor = 1.0 }
  in
  let dyn = Sim.makespan Sim.Dynamic ~rows:10 ~cols:10 p in
  Alcotest.(check (float 1e-9)) "dynamic serial" (100.0 *. 100e-6) dyn;
  let st = Sim.makespan Sim.Static ~rows:10 ~cols:10 p in
  Alcotest.(check (float 1e-9)) "static serial" (100.0 *. 100e-6) st

let test_sim_speedup_bounded () =
  let p = { base_params with Sim.threads = 8 } in
  List.iter
    (fun sched ->
      let sp = Sim.speedup sched ~rows:32 ~cols:32 p in
      Alcotest.(check bool) "speedup >= 1" true (sp >= 0.99);
      (* jitter draws differ between thread counts, so allow a small
         stochastic margin above the ideal bound *)
      Alcotest.(check bool) "speedup <= threads (+2%)" true (sp <= 8.0 *. 1.02))
    [ Sim.Dynamic; Sim.Static ]

let test_sim_dynamic_beats_static () =
  (* The Fig. 6 configuration: fine dynamic grid vs coarse static grid. *)
  let p = { base_params with Sim.threads = 16 } in
  let dyn = Sim.efficiency Sim.Dynamic ~rows:64 ~cols:64 p in
  let st = Sim.efficiency Sim.Static ~rows:6 ~cols:6 p in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic (%.2f) > static (%.2f)" dyn st)
    true (dyn > st)

let test_sim_dynamic_efficiency_decreases () =
  let eff t =
    Sim.efficiency Sim.Dynamic ~rows:64 ~cols:64 { base_params with Sim.threads = t }
  in
  Alcotest.(check bool) "eff(4) >= eff(32)" true (eff 4 >= eff 32)

let test_sim_deterministic () =
  let p = { base_params with Sim.threads = 8 } in
  Alcotest.(check (float 1e-12)) "same seed, same makespan"
    (Sim.makespan Sim.Dynamic ~rows:20 ~cols:20 p)
    (Sim.makespan Sim.Dynamic ~rows:20 ~cols:20 p)

let test_sim_validation () =
  Alcotest.check_raises "threads" (Invalid_argument "Sim: threads must be positive")
    (fun () ->
      ignore (Sim.makespan Sim.Dynamic ~rows:2 ~cols:2 { base_params with Sim.threads = 0 }))

let test_sim_many_grids () =
  let p = { base_params with Sim.threads = 8 } in
  let grids = [| (12, 12); (7, 7); (4, 4) |] in
  let combined = Sim.makespan_dynamic_many ~grids p in
  let sequential =
    Array.fold_left
      (fun acc (r, c) -> acc +. Sim.makespan Sim.Dynamic ~rows:r ~cols:c p)
      0.0 grids
  in
  let slowest_alone =
    Array.fold_left
      (fun acc (r, c) -> Float.max acc (Sim.makespan Sim.Dynamic ~rows:r ~cols:c p))
      0.0 grids
  in
  Alcotest.(check bool)
    (Printf.sprintf "co-scheduling helps (%.4f <= %.4f)" combined sequential)
    true (combined <= sequential);
  Alcotest.(check bool) "not faster than the largest job alone" true
    (combined >= slowest_alone *. 0.9);
  Alcotest.(check (float 1e-12)) "singleton consistent"
    (Sim.makespan Sim.Dynamic ~rows:12 ~cols:12 p)
    (Sim.makespan_dynamic_many ~grids:[| (12, 12) |] p);
  Alcotest.(check (float 1e-12)) "empty" 0.0 (Sim.makespan_dynamic_many ~grids:[||] p)

let test_sim_gcups () =
  let p =
    { base_params with Sim.jitter_sigma = 0.0; queue_overhead = 0.0; mem_beta = 0.0 }
  in
  let g = Sim.gcups Sim.Dynamic ~rows:10 ~cols:10 ~cells_per_tile:1e6 p in
  (* 100 tiles x 1e6 cells in 100 x 100us = 0.01 s -> 10 GCUPS *)
  Alcotest.(check bool) (Printf.sprintf "gcups near 10 (got %.2f)" g) true
    (Float.abs (g -. 10.0) < 0.5)

let () =
  Alcotest.run "wavefront"
    [
      ( "workqueue",
        List.concat_map
          (fun (name, impl) ->
            [
              Alcotest.test_case (name ^ " single thread") `Quick (test_queue_single_thread impl);
              Alcotest.test_case (name ^ " close drains") `Quick (test_queue_close_drains impl);
              Alcotest.test_case (name ^ " concurrent") `Quick (test_queue_concurrent impl);
            ])
          impls );
      ( "tilegraph",
        [
          Alcotest.test_case "sequential" `Quick test_tilegraph_sequential;
          Alcotest.test_case "double complete" `Quick test_tilegraph_double_complete;
          Alcotest.test_case "full walk" `Quick test_tilegraph_full_walk;
        ] );
      ( "domain pool",
        [
          Alcotest.test_case "runs all" `Quick test_pool_runs_all;
          Alcotest.test_case "propagates exception" `Quick test_pool_propagates_exception;
          Alcotest.test_case "parallel_for covers" `Quick test_parallel_for_covers;
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
        ] );
      ( "scheduler",
        List.concat_map
          (fun (name, impl) ->
            [
              Alcotest.test_case (name ^ " covers grid") `Quick (test_dynamic_covers_grid impl);
              Alcotest.test_case (name ^ " respects deps") `Quick
                (test_dynamic_respects_dependencies impl);
            ])
          impls
        @ [
            Alcotest.test_case "static respects deps" `Quick test_static_respects_dependencies;
            Alcotest.test_case "many grids" `Quick test_dynamic_many;
            Alcotest.test_case "score_many (Fig. 3)" `Quick test_score_many;
            scheduled_scores_match;
          ] );
      ( "sim",
        [
          Alcotest.test_case "single thread serial" `Quick test_sim_single_thread_serial;
          Alcotest.test_case "speedup bounded" `Quick test_sim_speedup_bounded;
          Alcotest.test_case "dynamic beats static" `Quick test_sim_dynamic_beats_static;
          Alcotest.test_case "efficiency decreases" `Quick test_sim_dynamic_efficiency_decreases;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "validation" `Quick test_sim_validation;
          Alcotest.test_case "many grids (Fig. 3)" `Quick test_sim_many_grids;
          Alcotest.test_case "gcups" `Quick test_sim_gcups;
        ] );
    ]
