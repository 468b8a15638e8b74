(* Standalone gate behind `dune build @trace-overhead`: fails (exit 1)
   when enabled tracing costs more than the budget on a small runtime
   batch workload. Kept out of the default runtest alias because it is a
   timing measurement — run it explicitly, ideally on a quiet machine. *)

module Timer = Anyseq_util.Timer
module Sequence = Anyseq.Sequence

let budget_pct = 5.0

(* Runtime batch workload, tracing off vs on, warmed. Returns
   (off_s, on_s, spans_recorded, overhead_pct). *)
let measure cfg =
  let spairs =
    Array.map
      (fun (q, s) -> (Sequence.to_string q, Sequence.to_string s))
      (Workloads.read_pairs cfg)
  in
  let service = Anyseq.Service.create ~capacity:(max 1 (Array.length spairs)) () in
  let config = Anyseq.Config.make ~traceback:false () in
  let run () = ignore (Anyseq.align_batch ~service ~config spairs) in
  (* Warm the specialization cache and code paths before either arm. *)
  run ();
  let off_s = Timer.best_of ~repeats:3 run in
  Anyseq.Trace.enable ();
  let on_s = Timer.best_of ~repeats:3 run in
  let spans = List.length (Anyseq.Trace.spans ()) in
  Anyseq.Trace.disable ();
  (off_s, on_s, spans, 100.0 *. ((on_s -. off_s) /. off_s))

let () =
  let cfg = { Workloads.default with Workloads.read_count = 1500 } in
  let off_s, on_s, spans, overhead = measure cfg in
  Printf.printf "trace overhead: off %.4fs, on %.4fs (%d spans) -> %+.2f%% (budget %.0f%%)\n"
    off_s on_s spans overhead budget_pct;
  if overhead >= budget_pct then begin
    print_endline "FAIL: tracing overhead exceeds budget";
    exit 1
  end;
  print_endline "PASS"
