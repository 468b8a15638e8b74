(* What every workload shares: run parameters, the sample recorder, set-up
   repetition, the timed-round loop, layer clocks and process probes. *)

module Timer = Anyseq_util.Timer
module Trace = Anyseq.Trace

type params = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  trace : bool;  (** traced run: per-layer metrics instead of end-to-end *)
  quick : bool;  (** small inputs, one set-up: the smoke check *)
}

(* Set-up is repeated and its median reported, so one slow start does not
   decide setup_s. *)
let setups p = if p.quick then 1 else 5
let min_rounds p = if p.quick then 2 else 5
let now_ns () = Int64.to_int (Timer.now_ns ())
let since t0 = float_of_int (now_ns () - t0) /. 1e9
let gcups ~cells ~seconds = float_of_int cells /. seconds /. 1e9
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- the record of one workload run ---- *)

type run = {
  values : (string, float list) Hashtbl.t;  (** samples, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool) list;  (** newest first *)
}

let create_run () = { values = Hashtbl.create 64; attempted = 0; failed = 0; checks = [] }

let record r name v =
  assert (Metric.find name <> None);
  Hashtbl.replace r.values name
    (v :: Option.value ~default:[] (Hashtbl.find_opt r.values name))

(* A check seen twice must hold both times. *)
let check r name ok =
  match List.assoc_opt name r.checks with
  | Some prev -> r.checks <- (name, prev && ok) :: List.remove_assoc name r.checks
  | None -> r.checks <- (name, ok) :: r.checks

let count_results r results =
  r.attempted <- r.attempted + Array.length results;
  Array.iter (function Ok _ -> () | Error _ -> r.failed <- r.failed + 1) results

(* ---- machine speed ----

   A virtual machine shared with other tenants changes speed by up to 2x
   for minutes at a time: the host deschedules its virtual CPUs, and the
   guest sees no steal time. CPU-bound timings are therefore scaled to a
   reference speed. A fixed integer DP loop, private to the benchmark and
   free of allocation, is timed next to each round; a round of t seconds
   counts as t * speed, where speed = nominal / the loop's time. The
   library cannot move the loop, so its own speed-ups and slow-downs show
   in full. On a 2-vCPU VM, across a slow and a fast period, the native DP
   kernel's time over the loop's stayed within 7%, Myers' within 15%. *)

let ref_len = 512
let ref_a = Array.init ref_len (fun i -> (i * 7919) land 3)
let ref_b = Array.init ref_len (fun i -> ((i * 104729) + 13) land 3)
let ref_row = Array.make (ref_len + 1) 0
let imax (a : int) b = if a >= b then a else b

(* Linear-gap local alignment of two fixed 512-letter strings. *)
let reference_loop () =
  for _ = 1 to 40 do
    Array.fill ref_row 0 (ref_len + 1) 0;
    for i = 0 to ref_len - 1 do
      let ai = Array.unsafe_get ref_a i in
      let diag = ref 0 and left = ref 0 in
      for j = 0 to ref_len - 1 do
        let up = Array.unsafe_get ref_row (j + 1) in
        let m = !diag + if ai = Array.unsafe_get ref_b j then 2 else -1 in
        let v = imax 0 (imax m (imax (up - 1) (!left - 1))) in
        diag := up;
        Array.unsafe_set ref_row (j + 1) v;
        left := v
      done
    done
  done

(* About the loop's uncontended time on the 2-vCPU VM the bounds were
   calibrated on, so that speed is near 1 there. *)
let nominal_s = 0.025

(* Speed now, relative to nominal: below 1 on a slowed machine. *)
let speed r =
  let t0 = now_ns () in
  reference_loop ();
  let s = nominal_s /. since t0 in
  record r "machine.speed" s;
  s

let repeated_setup p r ~setup ~teardown =
  let rec go i =
    Gc.full_major ();
    let s = speed r in
    let t0 = now_ns () in
    let st = setup () in
    record r "setup_s" (since t0 *. s);
    if i + 1 < setups p then begin
      teardown st;
      go (i + 1)
    end
    else st
  in
  go 0

(* ---- the timed phase ----

   Run [f i] for i = 0, 1, … until the timed phase is used up and at
   least [min_rounds] rounds ran. In a traced run every odd round is
   traced and the even ones give the untraced baseline. *)
let rounds p f =
  let t_end = now_ns () + int_of_float (p.seconds *. 1e9) in
  let rec go i =
    if i < min_rounds p || now_ns () < t_end then begin
      f i;
      go (i + 1)
    end
  in
  go 0

let traced_round p i = p.trace && i mod 2 = 1
let median l = (Metric.summarize (Array.of_list l)).Metric.median

(* Traced against untraced wall time of the same work, in percent. *)
let overhead_pct ~traced ~untraced = 100.0 *. (ratio (median traced) (median untraced) -. 1.0)

let with_tracing on f =
  if on then begin
    Trace.enable ();
    Fun.protect ~finally:Trace.disable f
  end
  else f ()

(* ---- layer clocks ----

   Bench-side timers around the public calls into each layer. Calls that
   take a few microseconds (a sketch, a heap insert) are too many and too
   short for trace spans; a clock adds two clock reads per call. *)

type clock = { mutable ns : int }

let clock () = { ns = 0 }

let timed c f =
  let t0 = now_ns () in
  let x = f () in
  c.ns <- c.ns + (now_ns () - t0);
  x

let secs c = float_of_int c.ns /. 1e9

(* ---- runtime counters ---- *)

let tier_counts svc =
  let m = Anyseq.Service.metrics svc in
  List.map
    (fun t -> Option.value ~default:0 (Anyseq.Metrics.find m ("runtime/tier_" ^ t)))
    Metric.tiers

let record_tiers r ~before ~after =
  List.iter2
    (fun t (b, a) -> record r (Metric.tier_metric t) (float_of_int (a - b)))
    Metric.tiers (List.combine before after)

let cache_lookups svc =
  let s = Anyseq.Service.cache_stats svc in
  (s.Anyseq.Spec_cache.hits, s.Anyseq.Spec_cache.misses)

let record_hit_rate r ~before:(h0, m0) ~after:(h1, m1) =
  let hits = h1 - h0 and misses = m1 - m0 in
  record r "spec_cache.hit_rate" (ratio (float_of_int hits) (float_of_int (hits + misses)))

let recode alphabet s = Anyseq.Sequence.of_string alphabet (Anyseq.Sequence.to_string s)

(* ---- process probes ---- *)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Scratch files (edge lists, spill runs, sockets) live in the working
   directory, never in the system temp directory. *)
let tmp_dir = ".ledger_tmp"

let tmp_path name = Filename.concat tmp_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) name)

let init_tmp () =
  (try Unix.mkdir tmp_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.putenv "TMPDIR" (Filename.concat (Sys.getcwd ()) tmp_dir);
  (* removed once empty: the last process of a run leaves no directory *)
  at_exit (fun () -> try Unix.rmdir tmp_dir with Unix.Unix_error _ -> ())

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()
