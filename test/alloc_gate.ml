(* Allocation gate for the zero-allocation hot path (ISSUE 5).

   Warms a service (specialization cache populated, per-domain workspace
   arenas grown to steady state), then measures [Gc.minor_words] across
   repeated score-only batches through [Service.run]. In steady state the
   per-alignment cost must stay under a fixed budget of minor words —
   request parsing and result plumbing only; DP rows, lane buffers, and
   traceback matrices all come from the arena.

   Run via [dune build @alloc-gate]. Exits non-zero (failing the alias)
   when the budget is exceeded, so a regression that reintroduces per-call
   allocation in the kernels or the batch executor breaks tier-1. *)

module Rng = Anyseq_util.Rng
module Sequence = Anyseq.Sequence
module Service = Anyseq.Service
module Config = Anyseq.Config

(* Budget, in minor words per alignment, for a score-only batch of
   50-150 bp pairs, and the same for 150-bp read pairs that take the
   certified global band. Steady state measures ~89 on the first row:
   two sequence parses (~17 words each of packed codes), the
   prepared-job record, the result cell, and the grouping cons cells;
   the kernel itself contributes only its 4-word [ends] record. 100 leaves headroom for compiler version drift without
   letting a per-row allocation (151+ words) or a per-cell one sneak
   back in. *)
let budget_words_per_alignment = 100.0

let jobs_per_batch = 64
let warm_batches = 4
let measured_batches = 16

let random_sequence rng len =
  String.init len (fun _ -> "ACGT".[Rng.int rng 4])

(* One row of the gate: warm up with [run] (one batch of [count] jobs),
   then measure it. Returns whether the row held its budget. *)
let row ~label ~count run =
  let run_batch () =
    let results = run () in
    Array.iter
      (function
        | Ok _ -> ()
        | Error e ->
            Printf.eprintf "alloc-gate: job failed: %s\n" (Anyseq.Error.to_string e);
            exit 2)
      results
  in
  for _ = 1 to warm_batches do
    run_batch ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to measured_batches do
    run_batch ()
  done;
  let per_alignment =
    (Gc.minor_words () -. before)
    /. float_of_int (measured_batches * count)
  in
  Printf.printf
    "alloc-gate: %s: %.1f minor words/alignment (budget %.0f, %d alignments measured)\n"
    label per_alignment budget_words_per_alignment
    (measured_batches * count);
  if per_alignment >= budget_words_per_alignment then begin
    Printf.eprintf
      "alloc-gate FAILED: %s: steady-state allocation %.1f >= %.0f minor words/alignment\n"
      label per_alignment budget_words_per_alignment;
    false
  end
  else true

let () =
  let svc = Service.create () in
  let rng = Rng.create ~seed:2024 in
  let config = Config.make ~traceback:false ~backend:Config.Scalar () in
  (* Unrelated pairs: mostly the dense global sweep. *)
  let random_jobs =
    Array.init jobs_per_batch (fun _ ->
        let query = random_sequence rng (50 + Rng.int rng 101) in
        let subject = random_sequence rng (50 + Rng.int rng 101) in
        Service.job ~config ~query ~subject ())
  in
  (* Simulated reads against their origin windows, parsed once as the
     reads workload submits them: the row is the certified global band's
     allocation, without the parse of longer strings. *)
  let read_jobs =
    Array.map
      (fun (q, s) ->
        let dna5 x = Sequence.of_string Anyseq.Alphabet.dna5 (Sequence.to_string x) in
        Service.seq_job ~config ~query:(dna5 q) ~subject:(dna5 s) ())
      (Anyseq.Read_sim.read_pairs ~seed:2024 ~reference_len:20_000 ~read_len:150
         ~count:jobs_per_batch)
  in
  let ok_random =
    row ~label:"random 50-150 bp" ~count:jobs_per_batch (fun () -> Service.run svc random_jobs)
  in
  let ok_reads =
    row ~label:"150-bp read pairs" ~count:jobs_per_batch (fun () ->
        Service.run_seqs svc read_jobs)
  in
  let band =
    Option.value ~default:0 (Anyseq.Metrics.find (Service.metrics svc) "runtime/band_certified")
  in
  if band = 0 then begin
    Printf.eprintf "alloc-gate FAILED: the read-pair row never took the certified band\n";
    exit 1
  end;
  if not (ok_random && ok_reads) then exit 1
