(* The per-table / per-figure harness.  Each [run_*] prints one ASCII table
   reproducing the corresponding artifact of the paper's evaluation, with a
   paper-reference column where the paper reports a number. *)

module Tablefmt = Anyseq_util.Tablefmt
module Timer = Anyseq_util.Timer
module Sequence = Anyseq.Sequence
module Scheme = Anyseq.Scheme
module T = Anyseq.Types
module Sim = Anyseq_wavefront.Sim

let variants = [ (false, false); (true, false); (false, true); (true, true) ]

let variant_name ~affine ~traceback =
  Printf.sprintf "%s, %s"
    (if traceback then "traceback" else "scores only")
    (if affine then "affine" else "linear")

(* ------------------------------------------------------------------ *)
(* Table I — benchmark sequences                                        *)
(* ------------------------------------------------------------------ *)

let run_table1 cfg =
  let t =
    Tablefmt.create
      ~title:
        "Table I -- benchmark genome pairs (synthetic stand-ins; paper used 4.4-50 Mbp \
         GenBank chromosomes)"
      ~columns:
        [
          ("pair", Tablefmt.Left); ("labels", Tablefmt.Left); ("query bp", Tablefmt.Right);
          ("subject bp", Tablefmt.Right); ("GC %", Tablefmt.Right);
          ("identity est. %", Tablefmt.Right);
        ]
      ()
  in
  List.iter
    (fun (p : Anyseq.Genome_gen.pair) ->
      let q = p.Anyseq.Genome_gen.query and s = p.Anyseq.Genome_gen.subject in
      (* quick identity estimate on a banded alignment of a prefix window *)
      let w = min 4096 (min (Sequence.length q) (Sequence.length s)) in
      let qw = Sequence.sub q ~pos:0 ~len:w and sw = Sequence.sub s ~pos:0 ~len:w in
      let a = Anyseq.Banded.align Scheme.paper_linear ~band:(w / 8) ~query:qw ~subject:sw in
      Tablefmt.add_row t
        [
          p.Anyseq.Genome_gen.name;
          p.Anyseq.Genome_gen.accession_like;
          string_of_int (Sequence.length q);
          string_of_int (Sequence.length s);
          Tablefmt.cell_float ~decimals:1 (Workloads.gc_percent q);
          Tablefmt.cell_float ~decimals:1
            (100.0 *. Anyseq.Cigar.identity a.Anyseq.Alignment.cigar);
        ])
    (Workloads.genome_pairs cfg);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* Fig. 5a — long genomes                                               *)
(* ------------------------------------------------------------------ *)

let run_fig5a cfg =
  let m = Measure.get cfg in
  print_endline
    "Fig. 5a -- long-genome alignment, modeled GCUPS on the paper's devices.\n\
     Base rates are measured on this machine (single OCaml core); thread scaling\n\
     comes from the wavefront DES, GPU/FPGA numbers from the simulators. Absolute\n\
     values inherit this machine's scalar rate -- compare shapes and ratios, and\n\
     see EXPERIMENTS.md for the paper-vs-model discussion.";
  List.iter
    (fun (affine, traceback) ->
      let t =
        Tablefmt.create
          ~title:(Printf.sprintf "\n[%s]" (variant_name ~affine ~traceback))
          ~columns:
            [
              ("library", Tablefmt.Left); ("device", Tablefmt.Left);
              ("model GCUPS", Tablefmt.Right); ("paper GCUPS", Tablefmt.Right);
              ("model vs AnySeq", Tablefmt.Right);
            ]
          ()
      in
      let anyseq_ref = ref 1.0 in
      let add lib device gcups =
        let rel =
          if lib = "AnySeq" && device = "CPU" then begin
            anyseq_ref := gcups;
            "1.00x"
          end
          else Printf.sprintf "%.2fx" (gcups /. !anyseq_ref)
        in
        Tablefmt.add_row t
          [
            lib; device;
            Tablefmt.cell_float ~decimals:2 gcups;
            Paper.cell (Paper.fig5a ~affine ~traceback lib device);
            rel;
          ]
      in
      List.iter
        (fun (lib_tag, lib) ->
          List.iter
            (fun isa ->
              add lib (Perf_model.isa_name isa)
                (Perf_model.cpu_gcups m lib_tag isa ~affine ~traceback))
            [ Perf_model.Scalar_cpu; Perf_model.Avx2; Perf_model.Avx512 ])
        [
          (Perf_model.AnySeq_cpu, "AnySeq");
          (Perf_model.SeqAn_cpu, "SeqAn");
          (Perf_model.Parasail_cpu, "Parasail");
        ];
      if not traceback then
        add "AnySeq" "ZCU104" (Perf_model.fpga_gcups cfg ~affine);
      add "AnySeq" "TitanV" (Perf_model.gpu_gcups m cfg ~affine ~traceback);
      add "NVBio" "TitanV" (Perf_model.gpu_gcups ~nvbio:true m cfg ~affine ~traceback);
      Tablefmt.print t)
    variants

(* ------------------------------------------------------------------ *)
(* Fig. 5b — short reads                                                *)
(* ------------------------------------------------------------------ *)

let run_fig5b cfg =
  let m = Measure.get cfg in
  let pairs = Workloads.read_pairs cfg in
  let cells = Workloads.total_cells pairs in
  Printf.printf
    "Fig. 5b -- %d read pairs of 150 bp (paper: 12.5 M). Emulated-lane GCUPS are\n\
     real wall-clock on this machine; device GCUPS are modeled as in Fig. 5a.\n"
    (Array.length pairs);
  (* Measured emulated batch runs (real executions of the SIMD kernels). *)
  let measured =
    List.map
      (fun (name, f) ->
        let dt = Timer.time_only f in
        (name, Timer.gcups ~cells ~seconds:dt))
      [
        ( "AnySeq inter-seq (16 emulated lanes)",
          fun () ->
            ignore (Anyseq.Inter_seq.batch_score ~lanes:16 Scheme.paper_linear T.Global pairs) );
        ( "Parasail always-affine batch",
          fun () ->
            ignore
              (Anyseq_baselines.Parasail_like.batch_score ~lanes:16 Scheme.paper_linear
                 T.Global pairs) );
      ]
  in
  let t0 =
    Tablefmt.create ~title:"measured on this machine (emulated lanes)"
      ~columns:[ ("kernel", Tablefmt.Left); ("GCUPS", Tablefmt.Right) ]
      ()
  in
  List.iter
    (fun (name, g) -> Tablefmt.add_row t0 [ name; Tablefmt.cell_float ~decimals:4 g ])
    measured;
  Tablefmt.print t0;
  List.iter
    (fun (affine, traceback) ->
      if not traceback then begin
        let t =
          Tablefmt.create
            ~title:(Printf.sprintf "\n[%s]" (variant_name ~affine ~traceback))
            ~columns:
              [
                ("library", Tablefmt.Left); ("device", Tablefmt.Left);
                ("model GCUPS", Tablefmt.Right); ("paper GCUPS", Tablefmt.Right);
              ]
            ()
        in
        let add lib device g =
          Tablefmt.add_row t
            [
              lib; device;
              Tablefmt.cell_float ~decimals:2 g;
              Paper.cell (Paper.fig5b ~affine ~traceback lib device);
            ]
        in
        List.iter
          (fun (lib_tag, lib) ->
            List.iter
              (fun isa ->
                add lib (Perf_model.isa_name isa)
                  (Perf_model.cpu_reads_gcups m lib_tag isa ~affine ~traceback))
              [ Perf_model.Scalar_cpu; Perf_model.Avx2; Perf_model.Avx512 ])
          [
            (Perf_model.AnySeq_cpu, "AnySeq");
            (Perf_model.SeqAn_cpu, "SeqAn");
            (Perf_model.Parasail_cpu, "Parasail");
          ];
        add "AnySeq" "TitanV" (Perf_model.gpu_reads_gcups cfg ~affine);
        add "NVBio" "TitanV" (Perf_model.gpu_reads_gcups ~nvbio:true cfg ~affine);
        Tablefmt.print t
      end)
    variants

(* ------------------------------------------------------------------ *)
(* Fig. 6 — thread scalability                                          *)
(* ------------------------------------------------------------------ *)

let run_fig6 cfg =
  let m = Measure.get cfg in
  print_endline
    "Fig. 6 -- dynamic vs static wavefront thread scalability (AVX2, long pair).\n\
     Replayed by the discrete-event scheduler simulator: the dynamic queue runs a\n\
     256x256 tile grid; the static baseline uses the preliminary version's coarse\n\
     6x6 decomposition (its parallelism ceiling) plus its measured slower kernel.";
  let base =
    m.Measure.scalar_linear *. 16.0 *. Perf_model.vector_efficiency Perf_model.AnySeq_cpu Perf_model.Avx2
  in
  let tile_cells = 512.0 *. 512.0 in
  let t =
    Tablefmt.create
      ~columns:
        [
          ("threads", Tablefmt.Right); ("dynamic GCUPS", Tablefmt.Right);
          ("dynamic eff", Tablefmt.Right); ("static GCUPS", Tablefmt.Right);
          ("static eff", Tablefmt.Right); ("paper dyn/stat eff", Tablefmt.Left);
        ]
      ()
  in
  List.iter
    (fun threads ->
      let params th =
        { (Sim.default_params ~tile_cost:(tile_cells /. base)) with Sim.threads = th }
      in
      let dyn_eff = Sim.efficiency Sim.Dynamic ~rows:256 ~cols:256 (params threads) in
      let stat_eff = Sim.efficiency Sim.Static ~rows:6 ~cols:6 (params threads) in
      let dyn_gcups = base *. float_of_int threads *. dyn_eff /. 1e9 in
      let stat_gcups =
        base /. (params 1).Sim.static_kernel_factor
        *. float_of_int threads *. stat_eff /. 1e9
      in
      let paper =
        match
          ( List.assoc_opt threads Paper.fig6_dynamic_eff,
            List.assoc_opt threads Paper.fig6_static_eff )
        with
        | Some d, Some s -> Printf.sprintf "%.0f%% / %.0f%%" (100.0 *. d) (100.0 *. s)
        | _ -> "-"
      in
      Tablefmt.add_row t
        [
          string_of_int threads;
          Tablefmt.cell_float dyn_gcups;
          Printf.sprintf "%.0f%%" (100.0 *. dyn_eff);
          Tablefmt.cell_float stat_gcups;
          Printf.sprintf "%.0f%%" (100.0 *. stat_eff);
          paper;
        ])
    [ 1; 2; 4; 8; 16; 32 ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* Table II — energy efficiency                                         *)
(* ------------------------------------------------------------------ *)

let run_table2 cfg =
  let m = Measure.get cfg in
  print_endline
    "Table II -- energy efficiency, scores-only long genomes (GCUPS/W).\n\
     Baseline is the fastest AnySeq variant per device, as in the paper.";
  let t =
    Tablefmt.create
      ~columns:
        [
          ("device", Tablefmt.Left); ("watt", Tablefmt.Right); ("gap", Tablefmt.Left);
          ("model GCUPS/W", Tablefmt.Right); ("paper GCUPS/W", Tablefmt.Right);
          ("model vs CPU", Tablefmt.Right);
        ]
      ()
  in
  let cpu_best ~affine =
    Float.max
      (Perf_model.cpu_gcups m Perf_model.AnySeq_cpu Perf_model.Avx2 ~affine ~traceback:false)
      (Perf_model.cpu_gcups m Perf_model.AnySeq_cpu Perf_model.Avx512 ~affine ~traceback:false)
  in
  let rows =
    List.concat_map
      (fun affine ->
        let gap = if affine then "affine" else "linear" in
        [
          ( "Xeon 6130", Perf_model.xeon_power_watts, gap, affine,
            cpu_best ~affine /. Perf_model.xeon_power_watts );
          ( "Titan V", 250.0, gap, affine,
            Perf_model.gpu_gcups m cfg ~affine ~traceback:false /. 250.0 );
          ("ZCU104", 6.181, gap, affine, (Perf_model.fpga_report cfg ~affine).Anyseq_fpgasim.Hls_report.gcups_per_watt);
        ])
      [ false; true ]
  in
  let cpu_linear_eff = List.nth rows 0 |> fun (_, _, _, _, e) -> e in
  List.iter
    (fun (device, watt, gap, affine, eff) ->
      Tablefmt.add_row t
        [
          device;
          Tablefmt.cell_float ~decimals:1 watt;
          gap;
          Tablefmt.cell_float ~decimals:3 eff;
          Paper.cell (Paper.table2 device ~affine);
          Tablefmt.cell_ratio eff cpu_linear_eff;
        ])
    rows;
  Tablefmt.print t;
  print_endline
    "paper shape: ZCU104 > 3x the CPU and 4.2-4.5x the GPU in GCUPS/W.\n\
     NOTE: CPU rows inherit this machine's OCaml scalar rate while the GPU/FPGA\n\
     rows are absolute device models, so cross-device ratios here overstate the\n\
     FPGA advantage; see EXPERIMENTS.md for the scale discussion."

(* ------------------------------------------------------------------ *)
(* Code-share breakdown (§IV)                                           *)
(* ------------------------------------------------------------------ *)

let count_lines dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then
          acc
          + (In_channel.with_open_text (Filename.concat dir f) @@ fun ic ->
             let n = ref 0 in
             (try
                while true do
                  ignore (In_channel.input_line ic |> Option.get);
                  incr n
                done
              with _ -> ());
             !n)
        else acc)
      0 (Sys.readdir dir)

let run_codeshare () =
  print_endline
    "Code-share breakdown (§IV: the paper reports 52% shared / 23% GPU / 14% SIMD /\n\
     11% CPU-only for its engine code, excluding I/O and benchmarking support).";
  let groups =
    [
      ("shared", [ "lib/bio"; "lib/scoring"; "lib/staged"; "lib/core"; "lib/api" ]);
      ("CPU-only", [ "lib/wavefront" ]);
      ("SIMD", [ "lib/simd" ]);
      ("GPU", [ "lib/gpusim" ]);
      ("FPGA", [ "lib/fpgasim" ]);
    ]
  in
  let counts =
    List.map (fun (name, dirs) -> (name, List.fold_left (fun a d -> a + count_lines d) 0 dirs)) groups
  in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  if total = 0 then
    print_endline "  (sources not found relative to the working directory; run from the repo root)"
  else begin
    let t =
      Tablefmt.create
        ~columns:
          [
            ("component", Tablefmt.Left); ("lines", Tablefmt.Right); ("share", Tablefmt.Right);
            ("paper (FPGA excluded)", Tablefmt.Right);
          ]
        ()
    in
    List.iter
      (fun (name, c) ->
        let paper =
          match List.assoc_opt name Paper.code_share with
          | Some p -> Printf.sprintf "%.0f%%" p
          | None -> "-"
        in
        Tablefmt.add_row t
          [
            name; string_of_int c;
            Printf.sprintf "%.1f%%" (100.0 *. float_of_int c /. float_of_int total);
            paper;
          ])
      counts;
    Tablefmt.print t
  end

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let mcups cells seconds = float_of_int cells /. seconds /. 1e6

let run_ablation cfg =
  let pair = Workloads.medium_pair cfg in
  let q = pair.Anyseq.Genome_gen.query and s = pair.Anyseq.Genome_gen.subject in
  let cap = 8192 in
  let q = Sequence.sub q ~pos:0 ~len:(min cap (Sequence.length q)) in
  let s = Sequence.sub s ~pos:0 ~len:(min cap (Sequence.length s)) in
  let cells = Sequence.length q * Sequence.length s in
  let qv = Sequence.view q and sv = Sequence.view s in
  let scheme = Scheme.paper_affine in

  (* A2: tile size sweep. *)
  let t =
    Tablefmt.create ~title:"A2 -- tile-size sweep (sequential tiled kernel, affine)"
      ~columns:[ ("tile", Tablefmt.Right); ("MCUPS", Tablefmt.Right) ]
      ()
  in
  List.iter
    (fun tile ->
      let dt =
        Timer.best_of ~repeats:2 (fun () ->
            ignore (Anyseq.Tiling.score_only scheme T.Global ~tile ~query:qv ~subject:sv))
      in
      Tablefmt.add_row t [ string_of_int tile; Tablefmt.cell_float ~decimals:1 (mcups cells dt) ])
    [ 64; 128; 256; 512; 1024 ];
  Tablefmt.print t;

  (* A3: Hirschberg recursion cutoff. *)
  let t =
    Tablefmt.create ~title:"\nA3 -- divide-and-conquer recursion cutoff (traceback, affine)"
      ~columns:[ ("cutoff cells", Tablefmt.Right); ("MCUPS", Tablefmt.Right) ]
      ()
  in
  let tq = Sequence.sub q ~pos:0 ~len:(min 3000 (Sequence.length q)) in
  let ts = Sequence.sub s ~pos:0 ~len:(min 3000 (Sequence.length s)) in
  let tcells = Sequence.length tq * Sequence.length ts in
  List.iter
    (fun cutoff ->
      let dt =
        Timer.best_of ~repeats:1 (fun () ->
            ignore (Anyseq.Hirschberg.align ~cutoff_cells:cutoff scheme T.Global ~query:tq ~subject:ts))
      in
      Tablefmt.add_row t
        [ string_of_int cutoff; Tablefmt.cell_float ~decimals:1 (mcups tcells dt) ])
    [ 64; 256; 1024; 4096; 16384; 65536 ];
  Tablefmt.print t;

  (* A1: concurrent queue implementation. *)
  let t =
    Tablefmt.create
      ~title:
        "\nA1 -- concurrent queue internals (dynamic wavefront, 4 domains on 1 core;\n\
         wall-clock dominated by compute, queue effects visible at small tiles)"
      ~columns:[ ("queue", Tablefmt.Left); ("tile", Tablefmt.Right); ("MCUPS", Tablefmt.Right) ]
      ()
  in
  List.iter
    (fun impl ->
      List.iter
        (fun tile ->
          let dt =
            Timer.best_of ~repeats:1 (fun () ->
                ignore
                  (Anyseq.Scheduler.score_parallel ~impl ~tile ~domains:4 scheme T.Global
                     ~query:q ~subject:s))
          in
          Tablefmt.add_row t
            [
              Anyseq_wavefront.Workqueue.impl_name impl; string_of_int tile;
              Tablefmt.cell_float ~decimals:1 (mcups cells dt);
            ])
        [ 128; 512 ])
    [ Anyseq_wavefront.Workqueue.Locked; Anyseq_wavefront.Workqueue.Lock_free ];
  Tablefmt.print t;

  (* A4: specialization. *)
  let t =
    Tablefmt.create
      ~title:
        "\nA4 -- specialization ablation: the generic staged kernel vs its partially\n\
         evaluated residual vs the hand-specialized native kernel (the paper's premise)"
      ~columns:
        [ ("kernel", Tablefmt.Left); ("IR nodes", Tablefmt.Right); ("MCUPS", Tablefmt.Right) ]
      ()
  in
  let kq = Sequence.sub q ~pos:0 ~len:400 and ks = Sequence.sub s ~pos:0 ~len:400 in
  let kcells = Sequence.length kq * Sequence.length ks in
  let kqv = Sequence.view kq and ksv = Sequence.view ks in
  let generic_nodes, resid_nodes = Anyseq.Staged_kernel.op_counts scheme T.Global in
  let time_kernel kernel =
    mcups kcells
      (Timer.best_of ~repeats:1 (fun () ->
           ignore (Anyseq.Staged_kernel.score_only kernel scheme T.Global ~query:kqv ~subject:ksv)))
  in
  Tablefmt.add_row t
    [
      "generic, interpreted (no PE)"; string_of_int generic_nodes;
      Tablefmt.cell_float ~decimals:2 (time_kernel (Anyseq.Staged_kernel.generic_kernel scheme T.Global));
    ];
  Tablefmt.add_row t
    [
      "specialized, interpreted"; string_of_int resid_nodes;
      Tablefmt.cell_float ~decimals:2
        (time_kernel (Anyseq.Staged_kernel.specialize scheme T.Global `Interpreted));
    ];
  Tablefmt.add_row t
    [
      "specialized, compiled closures"; string_of_int resid_nodes;
      Tablefmt.cell_float ~decimals:2
        (time_kernel (Anyseq.Staged_kernel.specialize scheme T.Global `Compiled));
    ];
  let native =
    mcups cells
      (Timer.best_of ~repeats:2 (fun () ->
           ignore (Anyseq_core.Dp_linear.score_only scheme T.Global ~query:qv ~subject:sv)))
  in
  Tablefmt.add_row t [ "native specialized loop"; "-"; Tablefmt.cell_float ~decimals:2 native ];
  Tablefmt.print t;
  (* Static residual cost model next to the IR-node counts: exact per-cell
     operation mix of the specialized residuals, plus the proof that their
     evaluation is straight-line (allocation-free). *)
  let static_cost =
    List.fold_left
      (fun acc (_, r) -> Anyseq.Costmodel.add acc (Anyseq.Costmodel.of_residual r))
      Anyseq.Costmodel.zero
      (Anyseq.Staged_kernel.residuals scheme T.Global)
  in
  let straight =
    List.for_all
      (fun (_, r) -> Anyseq.Costmodel.straight_line r)
      (Anyseq.Staged_kernel.residuals scheme T.Global)
  in
  Printf.printf "A4 static residual cost (per DP cell): %s -- %s\n"
    (Anyseq.Costmodel.to_string static_cost)
    (if straight then "straight-line, provably allocation-free"
     else "NOT straight-line");
  Printf.printf
    "A4 analyzer gate: %s on the specialized kernels (typecheck, termination,\n\
     binding-time completeness, dispatch-freedom lint)\n"
    (Anyseq.Findings.report (Anyseq.Staged_kernel.analyze scheme T.Global));

  (* A5: co-scheduling of several concurrent alignments (Fig. 3). *)
  let t =
    Tablefmt.create
      ~title:
        "\nA5 -- Fig. 3 scenario: four alignments of different sizes through one dynamic\n\
         queue (DES, 16 workers) vs running them one after another"
      ~columns:[ ("schedule", Tablefmt.Left); ("makespan (s)", Tablefmt.Right); ("gain", Tablefmt.Right) ]
      ()
  in
  let p16 = { (Sim.default_params ~tile_cost:3e-3) with Sim.threads = 16 } in
  let grids = [| (40, 40); (25, 25); (12, 12); (6, 6) |] in
  let combined = Sim.makespan_dynamic_many ~grids p16 in
  let sequential =
    Array.fold_left
      (fun acc (r, c) -> acc +. Sim.makespan Sim.Dynamic ~rows:r ~cols:c p16)
      0.0 grids
  in
  Tablefmt.add_row t
    [ "one alignment at a time"; Tablefmt.cell_float ~decimals:3 sequential; "1.00x" ];
  Tablefmt.add_row t
    [
      "co-scheduled (shared queue)"; Tablefmt.cell_float ~decimals:3 combined;
      Tablefmt.cell_ratio sequential combined;
    ];
  Tablefmt.print t;

  (* Measured vector-op counts backing the SIMD model. *)
  let m = Measure.get cfg in
  Printf.printf
    "\nSIMD strategy instruction counts (emulated 16-lane ops per DP cell):\n\
     blocked inter-sequence %.3f vs Farrar striped %.3f -- the blocked kernel's\n\
     lower per-cell instruction count backs its higher modeled AVX2 efficiency.\n"
    m.Measure.vector_ops_blocked m.Measure.vector_ops_striped

(* ------------------------------------------------------------------ *)
(* Shard imbalance — modeled (discrete-event simulation)                *)
(* ------------------------------------------------------------------ *)

(* Shard scaling cannot be measured on a one-core box (extra domains only
   time-slice it), so the scheduling half of the claim runs through the
   deterministic imbalance DES: round-robin chunk placement over a skewed
   cost mix, static vs work-stealing. Every number here is modeled; the
   measured server numbers come from the ledger's [server] workload. *)
let run_shards () =
  Printf.printf
    "Shard-imbalance DES (MODELED, not measured) -- 512 chunks, 1/16 of them 16x\n\
     cost (a 4x read-length skew squared by DP cost), placed round-robin as\n\
     Service.submit places them. Speedups vs the same workload on one shard;\n\
     steals = chunks migrated.\n";
  let t =
    Tablefmt.create
      ~columns:
        [
          ("shards", Tablefmt.Right); ("static speedup", Tablefmt.Right);
          ("stealing speedup", Tablefmt.Right); ("stealing eff", Tablefmt.Right);
          ("steals", Tablefmt.Right);
        ]
      ()
  in
  let rows = Shard_model.table [ 1; 2; 4; 8 ] in
  List.iter
    (fun (r : Shard_model.row) ->
      Tablefmt.add_row t
        [
          string_of_int r.Shard_model.r_shards;
          Tablefmt.cell_float ~decimals:2 r.Shard_model.r_static_speedup;
          Tablefmt.cell_float ~decimals:2 r.Shard_model.r_steal_speedup;
          Tablefmt.cell_float ~decimals:2 r.Shard_model.r_steal_eff;
          string_of_int r.Shard_model.r_steals;
        ])
    rows;
  Tablefmt.print t;
  match List.find_opt (fun r -> r.Shard_model.r_shards = 4) rows with
  | Some r4 ->
      Printf.printf
        "acceptance: stealing recovers imbalance at 4 shards (eff >= 0.90): %s (%.2f, \
         static %.2f)\n"
        (if r4.Shard_model.r_steal_eff >= 0.90 then "PASS" else "FAIL")
        r4.Shard_model.r_steal_eff
        (r4.Shard_model.r_static_speedup /. 4.0)
  | None -> ()
