(* The benchmark ledger's command line.

     ledger.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1]
                [--json OUT] [--trace-file FILE] [--quick]
     ledger.exe compare [--spec BENCHMARK.json] OLD.json[,…] NEW.json[,…]
     ledger.exe smoke [--spec BENCHMARK.json]

   A run prints a table of every metric, then, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
   It exits 1 when a correctness check fails. *)

let workloads =
  [
    ("reads", Reads.run);
    ("genome", Genome.run);
    ("network", Network.run ~cutoff_variant:false);
    ("network-cutoff", Network.run ~cutoff_variant:true);
    ("server", Serving.run);
  ]

(* ---- output ---- *)

let metric_json (m : Metric.t) (s : Metric.summary) =
  Printf.sprintf
    ("{\"unit\":\"%s\",\"better\":\"%s\",\"layer\":%b,\"exact\":%b,"
    ^^ "\"median\":%s,\"q1\":%s,\"q3\":%s,\"samples\":[%s]}")
    m.Metric.unit_
    (Metric.better_to_string m.Metric.better)
    m.Metric.layer m.Metric.exact (Metric.num s.Metric.median) (Metric.num s.Metric.q1)
    (Metric.num s.Metric.q3)
    (String.concat "," (Array.to_list (Array.map Metric.num s.Metric.samples)))

(* The metrics a run reports: the end-to-end set untraced, the per-layer
   set traced. A per-layer metric the workload never recorded is a layer
   it does not exercise and reads 0; a missing end-to-end metric is a bug. *)
let reported (p : Harness.params) (r : Harness.run) =
  List.filter_map
    (fun (m : Metric.t) ->
      if m.Metric.layer <> p.Harness.trace then None
      else
        match Hashtbl.find_opt r.Harness.values m.Metric.name with
        | Some v -> Some (m, Metric.summarize (Array.of_list (List.rev v)))
        | None when m.Metric.layer -> Some (m, Metric.summarize [| 0.0 |])
        | None -> failwith ("workload did not report " ^ m.Metric.name))
    Metric.catalog

(* Everything the run recorded, of either kind. *)
let recorded (r : Harness.run) =
  List.filter_map
    (fun (m : Metric.t) ->
      Option.map
        (fun v -> (m, Metric.summarize (Array.of_list (List.rev v))))
        (Hashtbl.find_opt r.Harness.values m.Metric.name))
    Metric.catalog

let run_json ~workload (p : Harness.params) (r : Harness.run) metrics correct =
  Printf.sprintf
    ("{\"workload\":\"%s\",\"seed\":%d,\"trace\":%b,\"quick\":%b,\"correct\":%b,"
    ^^ "\"attempted\":%d,\"failed\":%d,\"checks\":{%s},\"metrics\":{%s}}")
    workload p.Harness.seed p.Harness.trace p.Harness.quick correct r.Harness.attempted
    r.Harness.failed
    (String.concat ","
       (List.rev_map (fun (n, ok) -> Printf.sprintf "\"%s\":%b" n ok) r.Harness.checks))
    (String.concat ","
       (List.map (fun (m, s) -> Printf.sprintf "\"%s\":%s" m.Metric.name (metric_json m s)) metrics))

let result_line ~correct ~attempted ~failed values =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (Metric.num v) unit_)
          values))

let print_table ~workload metrics (r : Harness.run) =
  Printf.printf "%s\n%-34s %-10s %14s %14s %14s %4s\n" workload "metric" "unit" "median" "q1"
    "q3" "n";
  List.iter
    (fun ((m : Metric.t), (s : Metric.summary)) ->
      Printf.printf "%-34s %-10s %14.6g %14.6g %14.6g %4d\n" m.Metric.name m.Metric.unit_
        s.Metric.median s.Metric.q1 s.Metric.q3 (Array.length s.Metric.samples))
    metrics;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-44s %s\n" name (if ok then "PASS" else "FAIL"))
    (List.rev r.Harness.checks);
  Printf.printf "attempted %d, failed %d\n" r.Harness.attempted r.Harness.failed

(* ---- run ---- *)

let run_one p ~workload ~json ~trace_file =
  let run = List.assoc workload workloads in
  Harness.init_tmp ();
  let r = Harness.create_run () in
  run p r;
  Option.iter
    (fun path -> Anyseq.Trace_export.write_chrome path (Anyseq.Trace.spans ()))
    trace_file;
  let correct = r.Harness.checks <> [] && List.for_all snd r.Harness.checks in
  let metrics = reported p r in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (run_json ~workload p r (recorded r) correct ^ "\n")))
    json;
  print_table ~workload metrics r;
  print_endline
    (result_line ~correct ~attempted:r.Harness.attempted ~failed:r.Harness.failed
       (List.map
          (fun ((m : Metric.t), s) -> (m.Metric.name, m.Metric.unit_, s.Metric.median))
          metrics));
  if not correct then exit 1

(* Each workload in a fresh process, so that set-up time and peak memory
   belong to that workload alone. *)
let run_all p ~json ~trace_file =
  let exe = Sys.executable_name in
  Harness.init_tmp ();
  let parts =
    List.map
      (fun (workload, _) ->
        let part = Harness.tmp_path (workload ^ ".jsonl") in
        let args =
          [
            exe; "--workload"; workload; "--seed"; string_of_int p.Harness.seed; "--seconds";
            Printf.sprintf "%g" p.Harness.seconds; "--trace";
            (if p.Harness.trace then "1" else "0"); "--json"; part;
          ]
          @ (if p.Harness.quick then [ "--quick" ] else [])
          @ match trace_file with Some f -> [ "--trace-file"; f ^ "." ^ workload ] | None -> []
        in
        flush_all ();
        let pid =
          Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
        in
        let status = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 2 in
        let body =
          if Sys.file_exists part then begin
            let s = In_channel.with_open_text part In_channel.input_all in
            Harness.remove_if_exists part;
            Some s
          end
          else None
        in
        (workload, status, body))
      workloads
  in
  let ok = List.for_all (fun (_, status, body) -> status = 0 && body <> None) parts in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun (_, _, body) -> Option.iter (output_string oc) body) parts))
    json;
  List.iter
    (fun (w, status, _) -> if status <> 0 then Printf.printf "workload %s exited %d\n" w status)
    parts;
  if not ok then exit 1

(* ---- command line ---- *)

let usage =
  "ledger.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--json OUT] \
   [--trace-file FILE] [--quick]\n\
   ledger.exe compare [--spec BENCHMARK.json] OLD.json[,...] NEW.json[,...]\n\
   ledger.exe smoke [--spec BENCHMARK.json]"

let fail msg =
  prerr_endline ("ledger: " ^ msg);
  prerr_endline usage;
  exit 2

let parse argv specs anon =
  try Arg.parse_argv ~current:(ref 0) argv specs anon usage with
  | Arg.Bad msg -> fail (List.hd (String.split_on_char '\n' msg))
  | Arg.Help msg ->
      print_string msg;
      exit 0

let main_run argv =
  let workload = ref "" and seed = ref None and seconds = ref 15.0 and trace = ref 0 in
  let json = ref None and trace_file = ref None and quick = ref false in
  parse argv
    [
      ("--workload", Arg.Set_string workload, "NAME workload, or all");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ( "--seconds",
        Arg.Set_float seconds,
        "S length of the timed phase (default 15, as in BENCHMARK.json)" );
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--json", Arg.String (fun s -> json := Some s), "OUT write the full ledger record");
      ("--trace-file", Arg.String (fun s -> trace_file := Some s), "FILE write a Chrome trace");
      ("--quick", Arg.Set quick, " small inputs, one set-up");
    ]
    (fun a -> fail ("unexpected argument " ^ a));
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let p =
    { Harness.seed; seconds = !seconds; trace = !trace = 1; quick = !quick }
  in
  if !workload = "all" then run_all p ~json:!json ~trace_file:!trace_file
  else if List.mem_assoc !workload workloads then
    run_one p ~workload:!workload ~json:!json ~trace_file:!trace_file
  else
    fail
      (Printf.sprintf "unknown workload %S (one of: %s, all)" !workload
         (String.concat ", " (List.map fst workloads)))

let () =
  let argv = Sys.argv in
  let sub name = Array.length argv > 1 && argv.(1) = name in
  let rest () =
    Array.append [| argv.(0) ^ " " ^ argv.(1) |] (Array.sub argv 2 (Array.length argv - 2))
  in
  if sub "compare" then Compare.main (rest ()) ~parse
  else if sub "smoke" then Smoke.main (rest ()) ~parse
  else if sub "run" then main_run (rest ())
  else main_run argv
