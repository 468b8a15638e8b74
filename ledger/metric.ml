(* The metric catalog: every name the ledger can report, with its unit and
   direction. BENCHMARK.json mirrors this list; the bench-smoke alias checks
   that the two agree.

   End-to-end metrics are reported by every workload and are never 0.
   Per-layer metrics are reported by every workload too, so the traced
   output always has the same keys; a layer the workload does not exercise
   reads 0. Per-layer times are given as shares of the workload's wall time
   or per job, never as bare seconds, so a layer that is absent reads 0
   without posing as a measured time. *)

type better = Higher | Lower

type t = {
  name : string;
  unit_ : string;
  better : better;
  layer : bool;  (** per-layer (traced run) rather than end-to-end *)
  exact : bool;  (** a count that must repeat exactly for a given seed *)
}

let e name unit_ better = { name; unit_; better; layer = false; exact = false }
let l ?(exact = false) name unit_ better = { name; unit_; better; layer = true; exact }

let tiers = [ "bitparallel"; "banded"; "banded_cutoff"; "native"; "staged"; "simd"; "wavefront" ]
let tier_metric tier = "tier." ^ tier ^ ".jobs"
let stages = [ "decode"; "admit"; "queue"; "execute"; "reply" ]
let stage_metric stage = "server.stage_" ^ stage ^ "_share"

let catalog =
  [
    e "setup_s" "s" Lower;
    e "gcups" "GCUPS" Higher;
    e "p50_ms" "ms" Lower;
    e "peak_rss_mb" "MB" Lower;
    (* runtime Service *)
    l "service.submit_us_per_job" "us/job" Lower;
    l "service.await_us_per_job" "us/job" Lower;
    l "service.minor_words_per_job" "words/job" Lower;
    l "service.overhead_share" "fraction" Lower;
    l "spec_cache.hit_rate" "fraction" Higher;
  ]
  @ List.map (fun t -> l ~exact:true (tier_metric t) "count" Higher) tiers
  @ [
      (* per-tier throughput through the Service *)
      l "score_gcups" "GCUPS" Higher;
      l "myers_gcups" "GCUPS" Higher;
      l "traceback_gcups" "GCUPS" Higher;
      (* kernels called directly, on the workload's own inputs *)
      l "myers.kernel_gcups" "GCUPS" Higher;
      l "myers.full_gcups" "GCUPS" Higher;
      l "myers.banded_over_full" "ratio" Higher;
      l "native_kernel.gcups" "GCUPS" Higher;
      l "wavefront.gcups" "GCUPS" Higher;
      l "hirschberg.gcups" "GCUPS" Higher;
      (* network layers, from the rebuilt pipeline run *)
      l "minimizer.sketch_share" "fraction" Lower;
      l "net_index.add_share" "fraction" Lower;
      l "pipeline.align_share" "fraction" Lower;
      l "topk.add_share" "fraction" Lower;
      l "edges.add_share" "fraction" Lower;
      l "edges.finish_share" "fraction" Lower;
      l "components.share" "fraction" Lower;
      l "pipeline.layers_over_wall" "ratio" Higher;
      l "pipeline.rebuilt_over_run" "ratio" Lower;
      l ~exact:true "net_index.candidates" "count" Lower;
      l "net_index.prune_ratio" "fraction" Higher;
      l ~exact:true "pipeline.pairs_cutoff" "count" Higher;
      l "pipeline.cutoff_ratio" "fraction" Higher;
      l ~exact:true "topk.evictions" "count" Lower;
      l ~exact:true "edges.count" "count" Higher;
      l ~exact:true "edges.spilled_runs" "count" Lower;
      l ~exact:true "components.clusters" "count" Higher;
      (* server, from the child's /metrics and the load generator *)
      l "server.sat_rps" "req/s" Higher;
      l "server.p50_high_over_low" "ratio" Lower;
      l "server.p99_over_p50_high" "ratio" Lower;
    ]
  @ List.map (fun s -> l (stage_metric s) "fraction" Lower) stages
  @ [
      l "server.unattributed_share" "fraction" Lower;
      l "server.mean_batch" "jobs" Higher;
      l "server.minor_words_per_request" "words/req" Lower;
      l "loadgen.late_share" "fraction" Lower;
      l "trace.overhead_pct" "%" Lower;
      l "machine.speed" "ratio" Higher;
    ]

let find name = List.find_opt (fun m -> m.name = name) catalog
let better_to_string = function Higher -> "higher" | Lower -> "lower"

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* ---- samples ---- *)

(* Quartiles by linear interpolation between order statistics. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

type summary = { median : float; q1 : float; q3 : float; samples : float array }

let summarize samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  { median = quantile sorted 0.5; q1 = quantile sorted 0.25; q3 = quantile sorted 0.75; samples }

(* JSON numbers: as measured, full precision; non-finite values (a bug)
   render as null so the line stays parseable and the smoke check fails. *)
let num v = if Float.is_finite v then Printf.sprintf "%.15g" v else "null"
