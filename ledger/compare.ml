(* ledger.exe compare [--spec BENCHMARK.json] OLD.json[,…] NEW.json[,…]

   One row per (workload, metric) with both medians, the delta and the
   bound from BENCHMARK.json. The samples of every file on one side are
   pooled. An end-to-end row is within its bound, improved, regressed, or
   unresolved when the delta exceeds the bound but the two interquartile
   ranges overlap. An exact count that differs anywhere is an error. Exits
   1 on a regression or an error. *)

module J = Anyseq.Jsonv

type pooled = { metric : Metric.t; samples : float list }

let parse_json path text =
  match J.parse text with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* A record holds one JSON object per line, one line per workload run. *)
let runs_of path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (parse_json path)

let list_member key v = Option.value ~default:[] (Option.bind (J.member key v) J.to_list)

(* (workload, metric name) → samples pooled over the files *)
let load files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun path ->
      List.iter
        (fun run ->
          let workload = J.str "workload" run in
          match J.member "metrics" run with
          | Some (J.Obj metrics) ->
              List.iter
                (fun (name, m) ->
                  match Metric.find name with
                  | None -> ()
                  | Some metric ->
                      let samples = List.filter_map J.to_num (list_member "samples" m) in
                      let prev =
                        match Hashtbl.find_opt tbl (workload, name) with
                        | Some p -> p.samples
                        | None -> []
                      in
                      Hashtbl.replace tbl (workload, name) { metric; samples = prev @ samples })
                metrics
          | _ -> failwith (path ^ ": run without metrics"))
        (runs_of path))
    files;
  tbl

let bounds spec =
  List.filter_map
    (fun m -> Option.map (fun b -> (J.str "name" m, b)) (Option.bind (J.member "bound" m) J.to_num))
    (list_member "end_to_end" (parse_json spec (In_channel.with_open_text spec In_channel.input_all)))

let main argv ~parse =
  let spec = ref "BENCHMARK.json" and files = ref [] in
  parse argv
    [ ("--spec", Arg.Set_string spec, "FILE metric bounds (default BENCHMARK.json)") ]
    (fun a -> files := !files @ [ a ]);
  let old_files, new_files =
    match !files with
    | [ a; b ] -> (String.split_on_char ',' a, String.split_on_char ',' b)
    | _ ->
        prerr_endline "ledger compare: expected OLD.json[,...] NEW.json[,...]";
        exit 2
  in
  let bounds = bounds !spec in
  let old_t = load old_files and new_t = load new_files in
  let keys =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) old_t (Hashtbl.fold (fun k _ acc -> k :: acc) new_t []))
  in
  let bad = ref 0 in
  Printf.printf "%-15s %-32s %-9s %13s %13s %9s %7s  %s\n" "workload" "metric" "unit" "old" "new"
    "delta" "bound" "status";
  List.iter
    (fun ((workload, name) as key) ->
      match (Hashtbl.find_opt old_t key, Hashtbl.find_opt new_t key) with
      | Some o, Some n ->
          let m = o.metric in
          let so = Metric.summarize (Array.of_list o.samples)
          and sn = Metric.summarize (Array.of_list n.samples) in
          let vo = so.Metric.median and vn = sn.Metric.median in
          let delta = if vo = vn then 0.0 else (vn -. vo) /. Float.abs vo in
          let worse = if m.Metric.better = Metric.Higher then -.delta else delta in
          let bound = List.assoc_opt name bounds in
          let status =
            if m.Metric.exact then
              if List.for_all (( = ) vo) (o.samples @ n.samples) then "identical"
              else "ERROR: count differs"
            else
              match bound with
              | None -> "-"
              | Some b ->
                  if Float.abs delta <= b then "within"
                  else if so.Metric.q1 <= sn.Metric.q3 && sn.Metric.q1 <= so.Metric.q3 then
                    "unresolved"
                  else if worse > 0.0 then "REGRESSED"
                  else "improved"
          in
          if status = "REGRESSED" || String.starts_with ~prefix:"ERROR" status then incr bad;
          Printf.printf "%-15s %-32s %-9s %13.6g %13.6g %8.2f%% %7s  %s\n" workload name
            m.Metric.unit_ vo vn (100.0 *. delta)
            (match bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
            status
      | _ ->
          incr bad;
          Printf.printf "%-15s %-32s ERROR: present on one side only\n" workload name)
    keys;
  if !bad > 0 then begin
    Printf.printf "%d row(s) regressed or in error\n" !bad;
    exit 1
  end
