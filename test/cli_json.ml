(* The CLI's --json outputs: `anyseq align` (with a traceback and with
   --score-only) and `anyseq batch` (score-only and --traceback) each print
   exactly one line that Jsonv.parse accepts, carrying the keys its
   consumers read.

   Usage: cli_json.exe PATH/TO/anyseq_cli.exe *)

module Jsonv = Anyseq.Jsonv

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let run cli args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> failwith (String.concat " " ("command failed:" :: args))

(* One line, parsed, with every key in [keys] (a dotted key names a member
   of a nested object). *)
let check_line what out keys =
  let line = String.trim out in
  check (what ^ ": one line") (String.index_opt line '\n' = None && out = line ^ "\n");
  match Jsonv.parse line with
  | Error msg -> check (Printf.sprintf "%s: parses (%s): %s" what msg line) false
  | Ok doc ->
      List.iter
        (fun key ->
          let found =
            List.fold_left
              (fun v k -> Option.bind v (Jsonv.member k))
              (Some doc) (String.split_on_char '.' key)
          in
          check (Printf.sprintf "%s: has %s" what key) (found <> None))
        keys

let () =
  let cli = Sys.argv.(1) in
  let dir = Filename.get_temp_dir_name () in
  let fasta name seq =
    let file = Printf.sprintf "anyseq-cli-json-%d-%s.fa" (Unix.getpid ()) name in
    let path = Filename.concat dir file in
    Out_channel.with_open_text path (fun oc -> Printf.fprintf oc ">%s\n%s\n" name seq);
    path
  in
  let q = fasta "q" "ACGTACGTTAGCATCGATCGA" and s = fasta "s" "ACGTACGTAGCATCGTTCGA" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ q; s ]) @@ fun () ->
  let score = [ "score"; "mode"; "scheme" ] in
  check_line "align" (run cli [ "align"; q; s; "--json" ])
    (score @ [ "query.id"; "query.start"; "query.end"; "subject.id"; "subject.start";
               "subject.end"; "cigar" ]);
  check_line "align --score-only" (run cli [ "align"; q; s; "--score-only"; "--json" ]) score;
  let batch = [ "pairs"; "ok"; "seconds"; "gcups"; "cache_hit_rate"; "config" ] in
  check_line "batch" (run cli [ "batch"; "--count"; "40"; "--json" ]) batch;
  check_line "batch --traceback"
    (run cli [ "batch"; "--count"; "40"; "--traceback"; "--json" ])
    batch;
  if !failures > 0 then exit 1;
  print_endline "cli --json: every output is one parsable line with its keys"
