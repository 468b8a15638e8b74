(* ledger.exe smoke [--spec BENCHMARK.json]

   BENCHMARK.json declares exactly the metrics of the catalog, with the
   same units and directions; then every workload runs in quick mode,
   untraced and traced, and its result line must be correct and carry
   every declared metric of its kind with its unit. End-to-end values
   must be positive. No timing thresholds. *)

module J = Anyseq.Jsonv

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

let list_member key v = Option.value ~default:[] (Option.bind (J.member key v) J.to_list)

(* The declared (name, unit, better) triples of one kind. *)
let declared spec key =
  List.map (fun m -> (J.str "name" m, J.str "unit" m, J.str "better" m)) (list_member key spec)

let check_spec spec =
  let e2e = declared spec "end_to_end" and layer = declared spec "per_layer" in
  let names = List.map (fun (n, _, _) -> n) (e2e @ layer) in
  List.iter (fun n -> if not (Metric.valid_name n) then fail "metric name %S" n) names;
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "a metric name is declared twice";
  let mine layer =
    List.filter_map
      (fun (m : Metric.t) ->
        if m.Metric.layer = layer then
          Some (m.Metric.name, m.Metric.unit_, Metric.better_to_string m.Metric.better)
        else None)
      Metric.catalog
  in
  let same kind decl cat =
    List.iter
      (fun ((n, _, _) as d) ->
        if not (List.mem d cat) then fail "%s %s: not reported by the ledger" kind n)
      decl;
    List.iter
      (fun ((n, _, _) as c) -> if not (List.mem c decl) then fail "%s %s: not in BENCHMARK.json" kind n)
      cat
  in
  same "end_to_end" e2e (mine false);
  same "per_layer" layer (mine true);
  (e2e, layer)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let run_workload ~workload ~trace expected =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; workload; "--seed"; "42"; "--seconds"; "0.5"; "--trace"; trace; "--quick" |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let label = Printf.sprintf "%s --trace %s" workload trace in
  if status <> Unix.WEXITED 0 then fail "%s: exit status" label;
  match J.parse (last_line out) with
  | Error msg -> fail "%s: result line: %s" label msg
  | Ok v ->
      if J.member "correct" v <> Some (J.Bool true) then fail "%s: not correct" label;
      if J.num "attempted" v < 1.0 then fail "%s: attempted < 1" label;
      let metrics = match J.member "metrics" v with Some (J.Obj l) -> l | _ -> [] in
      if List.length metrics <> List.length expected then
        fail "%s: %d metrics, %d declared" label (List.length metrics) (List.length expected);
      List.iter
        (fun (name, unit_, _) ->
          match List.assoc_opt name metrics with
          | None -> fail "%s: %s missing" label name
          | Some m ->
              if J.str "unit" m <> unit_ then fail "%s: %s has unit %S" label name (J.str "unit" m);
              (match Option.bind (J.member "value" m) J.to_num with
              | None -> fail "%s: %s has no numeric value" label name
              | Some x -> if trace = "0" && not (x > 0.0) then fail "%s: %s = %g" label name x))
        expected;
      Printf.printf "ok   %s (%d metrics)\n%!" label (List.length metrics)

let main argv ~parse =
  let spec = ref "BENCHMARK.json" in
  parse argv
    [ ("--spec", Arg.Set_string spec, "FILE the benchmark declaration") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)));
  let spec =
    match J.parse (In_channel.with_open_text !spec In_channel.input_all) with
    | Ok v -> v
    | Error msg -> failwith msg
  in
  let e2e, layer = check_spec spec in
  List.iter
    (fun w ->
      let workload = J.str "name" w in
      run_workload ~workload ~trace:"0" e2e;
      run_workload ~workload ~trace:"1" layer)
    (list_member "workloads" spec);
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
