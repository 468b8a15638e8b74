(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md for the experiment index).

   Usage:
     dune exec bench/main.exe                  # everything, default scale
     dune exec bench/main.exe -- --only fig6   # one artifact
     dune exec bench/main.exe -- --scale 0.5 --reads 10000
     dune exec bench/main.exe -- --bechamel    # micro-suite as well

   Service, server and network performance is measured by the ledger
   (ledger/README.md), which repeats each run and reports its spread;
   tracing overhead by `dune build @trace-overhead`. *)

open Cmdliner

let experiments =
  [
    ("table1", "Table I: benchmark sequences");
    ("fig5a", "Fig. 5a: long-genome GCUPS");
    ("fig5b", "Fig. 5b: short-read GCUPS");
    ("fig6", "Fig. 6: thread scalability");
    ("table2", "Table II: energy efficiency");
    ("codeshare", "Code-share breakdown");
    ("ablation", "Ablations A1-A4");
    ("shards", "Shard imbalance: static vs work-stealing placement (modeled, DES)");
  ]

let run only scale reads seed bechamel =
  let cfg = { Workloads.scale; read_count = reads; seed } in
  let wanted name = match only with None -> true | Some o -> o = name in
  let section name title f =
    if wanted name then begin
      Printf.printf "\n================================================================\n";
      Printf.printf "%s\n" title;
      Printf.printf "================================================================\n";
      (try f () with exn ->
        Printf.printf "!! %s failed: %s\n" name (Printexc.to_string exn));
      flush stdout
    end
  in
  (match only with
  | Some o when not (List.mem_assoc o experiments) ->
      Printf.eprintf "unknown experiment %S; known: %s\n" o
        (String.concat ", " (List.map fst experiments));
      exit 2
  | _ -> ());
  section "table1" "Table I" (fun () -> Experiments.run_table1 cfg);
  section "fig5a" "Figure 5a" (fun () -> Experiments.run_fig5a cfg);
  section "fig5b" "Figure 5b" (fun () -> Experiments.run_fig5b cfg);
  section "fig6" "Figure 6" (fun () -> Experiments.run_fig6 cfg);
  section "table2" "Table II" (fun () -> Experiments.run_table2 cfg);
  section "codeshare" "Code share" (fun () -> Experiments.run_codeshare ());
  section "ablation" "Ablations" (fun () -> Experiments.run_ablation cfg);
  section "shards" "Shard imbalance (modeled)" (fun () -> Experiments.run_shards ());
  if bechamel then begin
    Printf.printf "\n================================================================\n";
    Bechamel_suite.run cfg
  end

let only_t =
  Arg.(value & opt (some string) None & info [ "only" ] ~doc:"Run a single experiment.")

let scale_t =
  Arg.(
    value
    & opt float Workloads.default.Workloads.scale
    & info [ "scale" ] ~doc:"Genome length multiplier (1.0 = 64-256 kbp pairs).")

let reads_t =
  Arg.(
    value
    & opt int Workloads.default.Workloads.read_count
    & info [ "reads" ] ~doc:"Number of simulated read pairs for Fig. 5b.")

let seed_t =
  Arg.(
    value & opt int Workloads.default.Workloads.seed & info [ "seed" ] ~doc:"Workload seed.")

let bechamel_t =
  Arg.(value & flag & info [ "bechamel" ] ~doc:"Also run the Bechamel micro-suite.")

let () =
  let info = Cmd.info "anyseq-bench" ~doc:"Regenerate the paper's tables and figures." in
  exit
    (Cmd.eval
       (Cmd.v info Term.(const run $ only_t $ scale_t $ reads_t $ seed_t $ bechamel_t)))
