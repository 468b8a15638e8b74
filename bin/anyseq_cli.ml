(* anyseq — command-line front end.

   Subcommands:
     align           align two FASTA files (first record of each)
     generate        synthesize a benchmark genome pair as FASTA
     simulate-reads  simulate an Illumina-like read set as FASTQ
     batch           run an alignment job file through the runtime service
     serve           network alignment server (--listen)
     client          connect to a running server and submit alignments
     trace           traced workload -> span-tree profile / Chrome trace
     search          approximate pattern matching (Myers bit-parallel)
     overlap         dovetail overlap between two sequences
     analyze         statically verify every specialized kernel

   The alignment subcommands all build one Anyseq.Config.t from the shared
   scoring/mode/backend flags and hand it to the facade — the CLI performs
   no engine dispatch of its own. *)

open Cmdliner

(* Exit codes (documented in README "Serving"). 0 success, 1 generic
   failure, 124 cmdliner usage error (unknown option, missing required
   option, bad value); alignment-level failures get distinct
   codes so scripts can tell backpressure from bad input:
     3  invalid configuration / bad request
     4  input sequence rejected by the alphabet
     5  job exceeds a backend's score-representation bound
     6  rejected by backpressure (queue full / server draining)
     7  deadline expired
     8  protocol or connection failure (client side) *)
let exit_invalid_config = 3
let exit_bad_sequence = 4
let exit_overflow = 5
let exit_rejected = 6
let exit_timeout = 7
let exit_protocol = 8

let exit_code_of_error = function
  | Anyseq.Error.Bad_sequence _ -> exit_bad_sequence
  | Anyseq.Error.Overflow_bound _ -> exit_overflow
  | Anyseq.Error.Rejected -> exit_rejected
  | Anyseq.Error.Timeout -> exit_timeout
  (* the CLI never sets a distance cap on its own jobs, but the mapping
     must be total: a capped-out pair is a bound violation, not a crash *)
  | Anyseq.Error.Cutoff -> exit_overflow

let exit_code_of_wire = function
  | Anyseq.Wire.Bad_sequence -> exit_bad_sequence
  | Anyseq.Wire.Overflow_bound | Anyseq.Wire.Cutoff -> exit_overflow
  | Anyseq.Wire.Rejected | Anyseq.Wire.Draining -> exit_rejected
  | Anyseq.Wire.Timeout -> exit_timeout
  | Anyseq.Wire.Bad_request -> exit_invalid_config
  | Anyseq.Wire.Internal -> 1

let scheme_of ~match_ ~mismatch ~gap_open ~gap_extend ~alphabet =
  let subst =
    match alphabet with
    | `Dna4 -> Anyseq.Substitution.simple Anyseq.Alphabet.dna4 ~match_ ~mismatch
    | `Dna5 -> Anyseq.Substitution.dna_wildcard ~match_ ~mismatch
  in
  let gap =
    if gap_open = 0 then Anyseq.Gaps.linear gap_extend
    else Anyseq.Gaps.affine ~open_:gap_open ~extend:gap_extend
  in
  Anyseq.Scheme.make subst gap

let mode_conv =
  Arg.enum
    [ ("global", Anyseq.Types.Global); ("local", Anyseq.Types.Local);
      ("semiglobal", Anyseq.Types.Semiglobal) ]

let backend_conv =
  Arg.enum
    [ ("auto", Anyseq.Config.Auto); ("scalar", Anyseq.Config.Scalar);
      ("simd", Anyseq.Config.Simd); ("wavefront", Anyseq.Config.Wavefront) ]

(* Shared scoring flags. *)
let match_t = Arg.(value & opt int 2 & info [ "match" ] ~doc:"Match score.")
let mismatch_t = Arg.(value & opt int (-1) & info [ "mismatch" ] ~doc:"Mismatch score.")

let gap_open_t =
  Arg.(value & opt int 0 & info [ "gap-open" ] ~doc:"Gap open penalty (0 = linear gaps).")

let gap_extend_t =
  Arg.(value & opt int 1 & info [ "gap-extend" ] ~doc:"Gap extension penalty.")

let mode_t =
  Arg.(value & opt mode_conv Anyseq.Types.Global & info [ "mode" ] ~doc:"global|local|semiglobal")

let backend_t =
  Arg.(
    value
    & opt backend_conv Anyseq.Config.Auto
    & info [ "backend" ]
        ~doc:
          "Execution backend hint for score-only jobs: auto|scalar|simd|wavefront. Traceback \
           always uses the alignment engine.")

let json_t = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

module J = Anyseq.Jsonv

(* A --json result: one object on one line. *)
let print_json members = print_endline (J.to_string (Obj members))

(* The [errors] member of a --json result: count per error kind, absent
   when there were none. *)
let errors_member name = function
  | [] -> []
  | errors -> [ ("errors", J.Obj (J.ints (List.map (fun (k, n) -> (name k, n)) errors))) ]

let metrics_t =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Dump the runtime metrics registry at the end.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans across all layers (partial evaluator, specialization cache, service, \
           backends) and write a Chrome trace-event file; open it in Perfetto \
           (https://ui.perfetto.dev) or chrome://tracing.")

let metrics_format_t =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("prometheus", `Prometheus) ]) `Text
    & info [ "metrics-format" ]
        ~doc:"Format for --metrics dumps: $(b,text) or $(b,prometheus) (text exposition).")

let dump_metrics fmt m =
  match fmt with
  | `Text -> Anyseq.Metrics.dump m
  | `Prometheus -> Anyseq.Metrics.dump_prometheus m

(* Run [f] with tracing enabled and write the Chrome trace on the way out
   (also on error paths — a partial trace of a failed run is still useful). *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Anyseq.Trace.enable ();
      Fun.protect
        ~finally:(fun () ->
          let spans = Anyseq.Trace.spans () in
          Anyseq.Trace.disable ();
          Anyseq.Trace_export.write_chrome path spans;
          Printf.eprintf "trace: %d spans -> %s (%d dropped)\n" (List.length spans) path
            (Anyseq.Trace.dropped ()))
        f

(* Streaming load via Fasta.fold: stop at the first record instead of
   materializing the file. *)
exception First_record of Anyseq.Fasta.record

let read_first_record path =
  match
    try
      Result.map
        (fun () -> None)
        (Anyseq.Fasta.fold Anyseq.Alphabet.dna5 path ~init:() ~f:(fun () r ->
             raise (First_record r)))
    with First_record r -> Ok (Some r)
  with
  | Error msg ->
      Printf.eprintf "error reading %s: %s\n" path msg;
      exit 1
  | Ok None ->
      Printf.eprintf "error: %s contains no records\n" path;
      exit 1
  | Ok (Some r) -> r

let align_cmd =
  let query_t = Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY.fa") in
  let subject_t = Arg.(required & pos 1 (some file) None & info [] ~docv:"SUBJECT.fa") in
  let score_only_t =
    Arg.(value & flag & info [ "score-only" ] ~doc:"Print only the optimal score.")
  in
  let pretty_t = Arg.(value & flag & info [ "pretty" ] ~doc:"BLAST-style rendering.") in
  let run query subject mode backend score_only pretty json trace metrics_flag metrics_format
      match_ mismatch gap_open gap_extend =
    let scheme = scheme_of ~match_ ~mismatch ~gap_open ~gap_extend ~alphabet:`Dna5 in
    let config =
      Anyseq.Config.make ~scheme ~mode ~traceback:(not score_only) ~backend ()
    in
    let q = read_first_record query and s = read_first_record subject in
    let qseq = q.Anyseq.Fasta.sequence and sseq = s.Anyseq.Fasta.sequence in
    with_trace trace @@ fun () ->
    (* --metrics needs an instrumented registry, which the facade's direct
       path doesn't have: route the single pair through a private service. *)
    let service = if metrics_flag then Some (Anyseq.Service.create ()) else None in
    let result =
      match service with
      | Some svc ->
          (Anyseq.align_batch ~service:svc ~config
             [| (Anyseq.Sequence.to_string qseq, Anyseq.Sequence.to_string sseq) |]).(0)
      | None ->
          Anyseq.align ~config
            ~query:(Anyseq.Sequence.to_string qseq)
            ~subject:(Anyseq.Sequence.to_string sseq)
    in
    (match result with
    | Error e ->
        if json then print_json [ ("error", Str (Anyseq.Error.to_string e)) ]
        else Printf.eprintf "error: %s\n" (Anyseq.Error.to_string e);
        exit (exit_code_of_error e)
    | Ok r when json ->
        let span id start end_ =
          J.Obj [ ("id", Str id); ("start", Int start); ("end", Int end_) ]
        in
        print_json
          ([
             ("score", J.Int r.Anyseq.score);
             ("mode", Str (Anyseq.Alignment.mode_to_string mode));
             ("scheme", Str (Anyseq.Scheme.to_string scheme));
           ]
          @
          match r.Anyseq.alignment with
          | Some a ->
              [
                ( "query",
                  span q.Anyseq.Fasta.id a.Anyseq.Alignment.query_start
                    a.Anyseq.Alignment.query_end );
                ( "subject",
                  span s.Anyseq.Fasta.id a.Anyseq.Alignment.subject_start
                    a.Anyseq.Alignment.subject_end );
                ("cigar", Str (Anyseq.Cigar.to_string a.Anyseq.Alignment.cigar));
              ]
          | None -> [])
    | Ok r -> (
        match r.Anyseq.alignment with
        | None -> Printf.printf "%d\n" r.Anyseq.score
        | Some alignment ->
            if pretty then
              print_string (Anyseq.Alignment.pretty ~query:qseq ~subject:sseq alignment)
            else begin
              Printf.printf "score\t%d\n" alignment.Anyseq.Alignment.score;
              Printf.printf "query\t%s\t%d\t%d\n" q.Anyseq.Fasta.id
                alignment.Anyseq.Alignment.query_start alignment.Anyseq.Alignment.query_end;
              Printf.printf "subject\t%s\t%d\t%d\n" s.Anyseq.Fasta.id
                alignment.Anyseq.Alignment.subject_start alignment.Anyseq.Alignment.subject_end;
              Printf.printf "cigar\t%s\n"
                (Anyseq.Cigar.to_string alignment.Anyseq.Alignment.cigar)
            end));
    match service with
    | Some svc ->
        print_endline "--- metrics ---";
        print_endline (dump_metrics metrics_format (Anyseq.Service.metrics svc))
    | None -> ()
  in
  Cmd.v
    (Cmd.info "align" ~doc:"Align the first records of two FASTA files.")
    Term.(
      const run $ query_t $ subject_t $ mode_t $ backend_t $ score_only_t $ pretty_t $ json_t
      $ trace_t $ metrics_t $ metrics_format_t $ match_t $ mismatch_t $ gap_open_t
      $ gap_extend_t)

let generate_cmd =
  let length_t = Arg.(value & opt int 65536 & info [ "length" ] ~doc:"Genome length (bp).") in
  let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let out_t = Arg.(value & opt string "pair" & info [ "out" ] ~doc:"Output prefix.") in
  let divergence_t =
    Arg.(value & opt float 0.04 & info [ "divergence" ] ~doc:"SNP rate of the mutated copy.")
  in
  let run length seed out divergence =
    let rng = Anyseq_util.Rng.create ~seed in
    let genome = Anyseq.Genome_gen.generate rng ~len:length () in
    let divergence =
      { Anyseq.Genome_gen.default_divergence with snp_rate = divergence }
    in
    let mutated = Anyseq.Genome_gen.mutate rng ~divergence genome in
    Anyseq.Fasta.write_file (out ^ "_a.fa")
      [ { Anyseq.Fasta.id = "synthetic_a"; description = "generated"; sequence = genome } ];
    Anyseq.Fasta.write_file (out ^ "_b.fa")
      [ { Anyseq.Fasta.id = "synthetic_b"; description = "mutated copy"; sequence = mutated } ];
    Printf.printf "wrote %s_a.fa (%d bp) and %s_b.fa (%d bp)\n" out length out
      (Anyseq.Sequence.length mutated)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a benchmark genome pair.")
    Term.(const run $ length_t $ seed_t $ out_t $ divergence_t)

let simulate_reads_cmd =
  let count_t = Arg.(value & opt int 10000 & info [ "count" ] ~doc:"Number of reads.") in
  let read_len_t = Arg.(value & opt int 150 & info [ "read-length" ] ~doc:"Read length.") in
  let ref_len_t =
    Arg.(value & opt int 1_000_000 & info [ "reference-length" ] ~doc:"Reference length.")
  in
  let seed_t = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"RNG seed.") in
  let out_t = Arg.(value & opt string "reads.fq" & info [ "out" ] ~doc:"Output FASTQ.") in
  let run count read_len ref_len seed out =
    let rng = Anyseq_util.Rng.create ~seed in
    let reference = Anyseq.Genome_gen.generate rng ~len:ref_len () in
    let reads = Anyseq.Read_sim.simulate rng ~reference ~read_len ~count () in
    Anyseq.Fastq.write_file out (Anyseq.Read_sim.to_fastq reads);
    Printf.printf "wrote %d reads of %d bp to %s\n" count read_len out
  in
  Cmd.v
    (Cmd.info "simulate-reads" ~doc:"Simulate an Illumina-like read set.")
    Term.(const run $ count_t $ read_len_t $ ref_len_t $ seed_t $ out_t)

(* ---- batch / serve: the runtime service front ends ---- *)

(* A job file is FASTA or FASTQ, by extension. *)
let read_seqs path =
  let is_fastq =
    Filename.check_suffix path ".fq" || Filename.check_suffix path ".fastq"
  in
  let result =
    if is_fastq then
      Result.map
        (List.map (fun r -> r.Anyseq.Fastq.sequence))
        (Anyseq.Fastq.read_file Anyseq.Alphabet.dna5 path)
    else
      (* stream: accumulate sequences only, never the record list *)
      Result.map List.rev
        (Anyseq.Fasta.fold Anyseq.Alphabet.dna5 path ~init:[] ~f:(fun acc r ->
             r.Anyseq.Fasta.sequence :: acc))
  in
  match result with
  | Error msg ->
      Printf.eprintf "error reading %s: %s\n" path msg;
      exit 1
  | Ok [] ->
      Printf.eprintf "error: %s contains no records\n" path;
      exit 1
  | Ok seqs -> List.map Anyseq.Sequence.to_string seqs

(* (query, subject) string pairs for a service run: either real job files
   or the Fig. 5b simulated short-read workload (150-bp reads). *)
let load_pairs ~reads ~subjects ~count ~seed =
  match (reads, subjects) with
  | Some rf, Some sf ->
      let rs = Array.of_list (read_seqs rf) in
      let ss = Array.of_list (read_seqs sf) in
      if Array.length ss = 1 then
        (* one reference: map every read against it *)
        Array.map (fun r -> (r, ss.(0))) rs
      else if Array.length ss = Array.length rs then
        Array.init (Array.length rs) (fun i -> (rs.(i), ss.(i)))
      else begin
        Printf.eprintf "error: %d reads vs %d subjects (need equal counts or one subject)\n"
          (Array.length rs) (Array.length ss);
        exit 1
      end
  | Some rf, None ->
      (* consecutive records pair up: r0 vs r1, r2 vs r3, ... *)
      let rs = Array.of_list (read_seqs rf) in
      if Array.length rs < 2 then begin
        Printf.eprintf "error: need at least two records to form pairs\n";
        exit 1
      end;
      Array.init (Array.length rs / 2) (fun i -> (rs.(2 * i), rs.((2 * i) + 1)))
  | None, Some _ ->
      Printf.eprintf "error: --subjects requires --reads\n";
      exit 1
  | None, None ->
      Array.map
        (fun (q, s) -> (Anyseq.Sequence.to_string q, Anyseq.Sequence.to_string s))
        (Anyseq.Read_sim.read_pairs ~seed ~reference_len:200_000 ~read_len:150 ~count)

let reads_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "reads" ] ~docv:"FILE"
        ~doc:"Query job file (FASTA or FASTQ by extension). Without --subjects, consecutive \
              records pair up.")

let subjects_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "subjects" ] ~docv:"FILE"
        ~doc:"Subject job file; one record maps all reads against it, otherwise record i pairs \
              with read i.")

let timeout_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-job deadline; expired jobs report timeout.")

let batch_size_t =
  Arg.(value & opt int 256 & info [ "batch-size" ] ~doc:"Service dispatch chunk size.")

let summarize_errors results =
  let errs = Hashtbl.create 4 in
  let ok = ref 0 in
  Array.iter
    (function
      | Ok _ -> incr ok
      | Error e ->
          let k = Anyseq.Error.to_string e in
          Hashtbl.replace errs k (1 + Option.value ~default:0 (Hashtbl.find_opt errs k)))
    results;
  (!ok, Hashtbl.fold (fun k v acc -> (k, v) :: acc) errs [])

let batch_cmd =
  let count_t = Arg.(value & opt int 5000 & info [ "count" ] ~doc:"Simulated pairs when no --reads given.") in
  let seed_t = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"RNG seed for simulated pairs.") in
  let traceback_t =
    Arg.(value & flag & info [ "traceback" ] ~doc:"Full alignments instead of score-only.")
  in
  let run reads subjects count seed mode backend traceback json metrics_flag metrics_format trace
      timeout batch_size match_ mismatch gap_open gap_extend =
    let scheme = scheme_of ~match_ ~mismatch ~gap_open ~gap_extend ~alphabet:`Dna5 in
    let config = Anyseq.Config.make ~scheme ~mode ~traceback ~backend () in
    let pairs = load_pairs ~reads ~subjects ~count ~seed in
    let service =
      Anyseq.Service.create ~capacity:(max 1 (Array.length pairs)) ~batch_size ()
    in
    let results, dt =
      with_trace trace @@ fun () ->
      Anyseq_util.Timer.time (fun () ->
          Anyseq.align_batch ~service ?timeout_s:timeout ~config pairs)
    in
    let cells =
      Option.value ~default:0
        (Anyseq.Metrics.find (Anyseq.Service.metrics service) "runtime/cells_computed")
    in
    let ok, errors = summarize_errors results in
    let cs = Anyseq.Service.cache_stats service in
    let hit_rate = Anyseq.Spec_cache.hit_rate cs in
    if json then
      print_json
        ([
           ("pairs", J.Int (Array.length pairs));
           ("ok", Int ok);
           ("seconds", Num dt);
           ("gcups", Num (Anyseq_util.Timer.gcups ~cells ~seconds:dt));
           ("cache_hit_rate", Num hit_rate);
           ("config", Str (Anyseq.Config.to_string config));
         ]
        @ errors_member (fun k -> k) errors)
    else begin
      Printf.printf "%d pairs (%s), %.3f s, %.3f GCUPS, %d ok, cache hit rate %.1f%%\n"
        (Array.length pairs)
        (Anyseq.Config.to_string config)
        dt
        (Anyseq_util.Timer.gcups ~cells ~seconds:dt)
        ok (100.0 *. hit_rate);
      List.iter (fun (k, v) -> Printf.printf "  %6d x %s\n" v k) errors
    end;
    if metrics_flag then begin
      print_endline "--- metrics ---";
      print_endline (dump_metrics metrics_format (Anyseq.Service.metrics service))
    end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run alignment jobs through the runtime service: jobs are grouped by configuration, \
          specialized kernels are cached, and groups stream through the batch executor.")
    Term.(
      const run $ reads_t $ subjects_t $ count_t $ seed_t $ mode_t $ backend_t $ traceback_t
      $ json_t $ metrics_t $ metrics_format_t $ trace_t $ timeout_t $ batch_size_t $ match_t
      $ mismatch_t $ gap_open_t $ gap_extend_t)

(* serve --listen: the network server. Binds the given addresses, serves
   wire frames through one shared service, and drains gracefully on
   SIGTERM/SIGINT. *)
let serve_network listen admin max_batch max_wait_us max_pending shards capacity batch_size
    metrics_flag metrics_format =
  let parse_addr what s =
    match Anyseq.Addr.parse s with
    | Ok a -> a
    | Error msg ->
        Printf.eprintf "error: bad %s address %s: %s\n" what s msg;
        exit exit_invalid_config
  in
  let addrs = List.map (parse_addr "--listen") listen in
  let admin = Option.map (parse_addr "--admin") admin in
  (* --shards 0 = auto: one shard per recommended domain. *)
  let shards = if shards = 0 then (Anyseq.Runtime.default ()).Anyseq.Runtime.shards else shards in
  let service = Anyseq.Service.create ?capacity ~batch_size ~shards () in
  let cfg =
    { (Anyseq.Server.default_config ~addrs ?admin ()) with max_batch; max_wait_us;
      max_pending; shards }
  in
  match Anyseq.Server.start ~service cfg with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit exit_invalid_config
  | Ok srv ->
      Anyseq.Server.install_signal_handlers srv;
      List.iter
        (fun a -> Printf.printf "listening on %s\n%!" (Anyseq.Addr.to_string a))
        (Anyseq.Server.addresses srv);
      (match Anyseq.Server.admin_address srv with
      | Some a ->
          Printf.printf "admin endpoint on %s (/metrics /healthz /statusz /debug/flight)\n%!"
            (Anyseq.Addr.to_string a)
      | None -> ());
      Anyseq.Server.wait srv;
      let m = Anyseq.Server.metrics srv in
      let get name = Option.value ~default:0 (Anyseq.Metrics.find m name) in
      Printf.printf "drained: %d requests received, %d replied, %d connections served\n"
        (get "server/requests_received") (get "server/requests_replied")
        (get "server/connections_accepted");
      let cs = Anyseq.Service.cache_stats service in
      Printf.printf "cache: %d entries, hit rate %.1f%%\n" cs.Anyseq.Spec_cache.size
        (100.0 *. Anyseq.Spec_cache.hit_rate cs);
      if Anyseq.Service.shards service > 1 then
        Array.iter
          (fun (s : Anyseq.Service.shard_stat) ->
            Printf.printf
              "shard %d: %d jobs, %d chunks enqueued, %d run local, %d stolen by it, %d \
               stolen from it\n"
              s.Anyseq.Service.ss_shard s.Anyseq.Service.ss_jobs s.Anyseq.Service.ss_enqueued
              s.Anyseq.Service.ss_run_local s.Anyseq.Service.ss_steals
              s.Anyseq.Service.ss_stolen_from)
          (Anyseq.Service.shard_stats service);
      Anyseq.Service.shutdown service;
      if metrics_flag then begin
        print_endline "--- metrics ---";
        print_endline (dump_metrics metrics_format m)
      end

let serve_cmd =
  let listen_t =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the network protocol on $(docv) (required, repeatable): $(b,unix:PATH), \
             $(b,tcp:HOST:PORT), or $(b,HOST:PORT).")
  in
  let admin_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "admin" ] ~docv:"ADDR"
          ~doc:
            "Serve the admin/observability endpoint on $(docv) (HTTP/1.0: $(b,/metrics), \
             $(b,/healthz), $(b,/statusz), $(b,/debug/flight)); same address forms as \
             --listen. $(b,anyseq top --connect) $(docv) renders a live dashboard from \
             it.")
  in
  let max_batch_t =
    Arg.(value & opt int 64 & info [ "max-batch" ] ~doc:"Largest batch formed by the server.")
  in
  let max_wait_us_t =
    Arg.(
      value & opt int 2000
      & info [ "max-wait-us" ]
          ~doc:
            "Upper bound, in microseconds, on how long a batch forms while another \
             executes. While the server is not busy, requests are dispatched at once.")
  in
  let max_pending_t =
    Arg.(
      value & opt int 8192
      & info [ "max-pending" ] ~doc:"Request queue bound; beyond it requests are rejected.")
  in
  let shards_t =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Service shards (worker domains) executing batches; 0 = one per recommended \
             domain.")
  in
  let capacity_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~doc:"Runtime service admission capacity.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Network alignment server: wire-protocol requests from any mix of Unix-domain and \
          TCP listeners are continuously batched through one shared runtime service; \
          SIGTERM/SIGINT drains gracefully. To measure throughput in process, use \
          $(b,anyseq batch).")
    Term.(
      const serve_network $ listen_t $ admin_t $ max_batch_t $ max_wait_us_t $ max_pending_t
      $ shards_t $ capacity_t $ batch_size_t $ metrics_t $ metrics_format_t)

let client_cmd =
  let connect_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or $(b,HOST:PORT).")
  in
  let query_t =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:"Inline query sequence; with SUBJECT, sends one request and prints the result.")
  in
  let subject_t =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"SUBJECT" ~doc:"Inline subject sequence.")
  in
  let count_t =
    Arg.(
      value & opt int 2000
      & info [ "count" ] ~doc:"Simulated pairs to drive when no sequences or --reads given.")
  in
  let seed_t = Arg.(value & opt int 23 & info [ "seed" ] ~doc:"RNG seed for simulated pairs.") in
  let window_t =
    Arg.(value & opt int 64 & info [ "window" ] ~doc:"Pipelined requests in flight (load mode).")
  in
  let traceback_t =
    Arg.(value & flag & info [ "traceback" ] ~doc:"Request full alignments (CIGAR) from the server.")
  in
  let scheme_name_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "scheme" ] ~docv:"NAME"
          ~doc:"Use the named built-in scoring scheme instead of the scoring flags.")
  in
  let alphabet_t =
    Arg.(
      value
      & opt (enum [ ("dna4", `Dna4); ("dna5", `Dna5) ]) `Dna5
      & info [ "alphabet" ]
          ~doc:"Alphabet of the scoring-flag scheme: $(b,dna4) (strict ACGT) or $(b,dna5) \
                (N wildcard; unknown characters read as N).")
  in
  let exit_code_of_load errors =
    (* Most frequent remote error decides the exit code. *)
    match List.sort (fun (_, a) (_, b) -> compare b a) errors with
    | [] -> 0
    | (code, _) :: _ -> exit_code_of_wire code
  in
  let run connect query subject reads subjects count seed window timeout traceback scheme_name
      alphabet mode backend json match_ mismatch gap_open gap_extend =
    let addr =
      match Anyseq.Addr.parse connect with
      | Ok a -> a
      | Error msg ->
          Printf.eprintf "error: bad --connect address: %s\n" msg;
          exit exit_invalid_config
    in
    let spec =
      match scheme_name with
      | Some n -> Anyseq.Wire.Named n
      | None -> Anyseq.Wire.Simple { alphabet; match_; mismatch; gap_open; gap_extend }
    in
    let config = { Anyseq.Wire.scheme = spec; mode; traceback; backend } in
    let conn =
      match Anyseq.Client.connect addr with
      | Ok c -> c
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit exit_protocol
    in
    Fun.protect ~finally:(fun () -> Anyseq.Client.close conn) @@ fun () ->
    match (query, subject) with
    | Some q, Some s -> (
        match Anyseq.Client.align conn ?timeout_s:timeout ~config ~query:q ~subject:s () with
        | Ok r ->
            if json then
              print_json
                ([
                   ("score", J.Int r.Anyseq.Client.score);
                   ("query_end", Int r.Anyseq.Client.query_end);
                   ("subject_end", Int r.Anyseq.Client.subject_end);
                 ]
                @ (match r.Anyseq.Client.cigar with Some c -> [ ("cigar", J.Str c) ] | None -> [])
                @ [
                    ("batch_jobs", Int r.Anyseq.Client.batch_jobs);
                    ("queue_us", Num (Int64.to_float r.Anyseq.Client.queue_ns /. 1e3));
                    ("service_us", Num (Int64.to_float r.Anyseq.Client.service_ns /. 1e3));
                  ])
            else begin
              Printf.printf "score\t%d\n" r.Anyseq.Client.score;
              Printf.printf "ends\t%d\t%d\n" r.Anyseq.Client.query_end r.Anyseq.Client.subject_end;
              (match r.Anyseq.Client.cigar with
              | Some c -> Printf.printf "cigar\t%s\n" c
              | None -> ());
              Printf.printf "server\tbatch=%d queue=%.1fus service=%.1fus\n"
                r.Anyseq.Client.batch_jobs
                (Int64.to_float r.Anyseq.Client.queue_ns /. 1e3)
                (Int64.to_float r.Anyseq.Client.service_ns /. 1e3)
            end
        | Error (Anyseq.Client.Remote (code, msg)) ->
            Printf.eprintf "error: %s: %s\n" (Anyseq.Wire.code_to_string code) msg;
            exit (exit_code_of_wire code)
        | Error (Anyseq.Client.Protocol msg) ->
            Printf.eprintf "error: %s\n" msg;
            exit exit_protocol)
    | Some _, None | None, Some _ ->
        Printf.eprintf "error: QUERY and SUBJECT must be given together\n";
        exit exit_invalid_config
    | None, None -> (
        (* Load mode: drive file or simulated pairs through the pipeline. *)
        let pairs = load_pairs ~reads ~subjects ~count ~seed in
        let t0 = Anyseq_util.Timer.now_ns () in
        match Anyseq.Client.run_load conn ~window ?timeout_s:timeout ~config pairs with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit exit_protocol
        | Ok st ->
            let dt = Int64.to_float (Int64.sub (Anyseq_util.Timer.now_ns ()) t0) /. 1e9 in
            let completed = st.Anyseq.Client.completed in
            let lat = Array.map float_of_int st.Anyseq.Client.latencies_us in
            let percentile p =
              if Array.length lat = 0 then 0.0 else Anyseq_util.Stats.percentile lat p
            in
            let mean_batch =
              if completed = 0 then 0.0
              else float_of_int st.Anyseq.Client.batch_jobs_sum /. float_of_int completed
            in
            if json then
              print_json
                ([
                   ("completed", J.Int completed);
                   ("ok", Int st.Anyseq.Client.ok);
                   ("seconds", Num dt);
                   ("rps", Num (float_of_int completed /. dt));
                   ("p50_us", Num (percentile 50.0));
                   ("p99_us", Num (percentile 99.0));
                   ("mean_batch", Num mean_batch);
                 ]
                @ errors_member Anyseq.Wire.code_to_string st.Anyseq.Client.errors)
            else begin
              Printf.printf
                "%d requests in %.3f s (%.1f req/s), %d ok, p50 %.0f us, p99 %.0f us, mean batch %.2f\n"
                completed dt
                (float_of_int completed /. dt)
                st.Anyseq.Client.ok (percentile 50.0) (percentile 99.0) mean_batch;
              List.iter
                (fun (code, n) ->
                  Printf.printf "  %6d x %s\n" n (Anyseq.Wire.code_to_string code))
                st.Anyseq.Client.errors
            end;
            let rc = exit_code_of_load st.Anyseq.Client.errors in
            if rc <> 0 then exit rc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Connect to a running alignment server. With inline QUERY and SUBJECT sequences, \
          sends one request and prints the score (and CIGAR under --traceback). Otherwise \
          drives a pipelined load of file or simulated pairs and reports throughput and \
          latency percentiles. Remote failures map to distinct exit codes: 3 bad request, 4 \
          bad sequence, 5 overflow, 6 rejected/draining, 7 timeout, 8 protocol.")
    Term.(
      const run $ connect_t $ query_t $ subject_t $ reads_t $ subjects_t $ count_t $ seed_t
      $ window_t $ timeout_t $ traceback_t $ scheme_name_t $ alphabet_t $ mode_t $ backend_t
      $ json_t $ match_t $ mismatch_t $ gap_open_t $ gap_extend_t)

(* top: poll a server's /statusz and render a live terminal dashboard —
   per-shard activity, tier counters, stage latency quantiles, request
   rate from poll-to-poll deltas. *)
let top_cmd =
  let connect_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Admin endpoint address (what $(b,anyseq serve --admin) printed): \
             $(b,unix:PATH), $(b,tcp:HOST:PORT), or $(b,HOST:PORT).")
  in
  let interval_t =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~doc:"Seconds between polls.")
  in
  let count_t =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~doc:"Stop after this many polls (0 = until interrupted).")
  in
  let run connect interval count =
    let addr =
      match Anyseq.Addr.parse connect with
      | Ok a -> a
      | Error msg ->
          Printf.eprintf "error: bad --connect address %s: %s\n" connect msg;
          exit exit_invalid_config
    in
    let interval = if interval <= 0.0 then 1.0 else interval in
    let prev_replied = ref None in
    let render doc =
      let replied = Anyseq.Top.replied doc in
      let rate =
        match (!prev_replied, replied) with
        | Some prev, Some now -> Float.max 0.0 ((now -. prev) /. interval)
        | _ -> 0.0
      in
      prev_replied := replied;
      (* ANSI clear + home; falls out harmlessly on a dumb terminal. *)
      print_string "\027[2J\027[H";
      print_string (Anyseq.Top.render ~label:connect ~rate doc);
      flush stdout
    in
    let rec poll i =
      if count = 0 || i < count then begin
        (match Anyseq.Admin.http_get addr "/statusz" with
        | Ok (200, body) -> (
            match J.parse body with
            | Ok doc -> render doc
            | Error msg ->
                Printf.eprintf "error: unparsable /statusz: %s\n" msg;
                exit exit_protocol)
        | Ok (status, _) ->
            Printf.eprintf "error: /statusz answered HTTP %d\n" status;
            exit exit_protocol
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit exit_protocol);
        if count = 0 || i + 1 < count then Unix.sleepf interval;
        poll (i + 1)
      end
    in
    poll 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running server: polls the admin endpoint's \
          $(b,/statusz) (see $(b,anyseq serve --admin)) and renders per-shard activity, \
          kernel-tier counters, per-stage latency quantiles and the request rate.")
    Term.(const run $ connect_t $ interval_t $ count_t)

(* network: the all-vs-all similarity-network pipeline — minimizer
   prefilter, streaming batch alignment, top-k edge list, clusters. *)
let network_cmd =
  let input_t = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.fa") in
  let out_t =
    Arg.(
      value & opt string "edges.tsv"
      & info [ "out" ] ~docv:"FILE" ~doc:"Edge-list TSV output path.")
  in
  let k_t =
    Arg.(
      value
      & opt int Anyseq.Minimizer.default_k
      & info [ "k" ] ~doc:"Minimizer k-mer length (2-21).")
  in
  let window_t =
    Arg.(
      value
      & opt int Anyseq.Minimizer.default_w
      & info [ "window" ] ~doc:"Minimizer window (k-mer positions per minimizer).")
  in
  let min_shared_t =
    Arg.(
      value & opt int 4
      & info [ "min-shared" ]
          ~doc:
            "Shared minimizers required before a pair is aligned; 0 disables the prefilter \
             (true all-vs-all).")
  in
  let min_score_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "min-score" ] ~doc:"Drop hits below this raw alignment score.")
  in
  let min_ident_t =
    Arg.(
      value & opt float 0.5
      & info [ "min-identity" ]
          ~doc:"Drop hits below this normalized identity (0-1, against the shorter sequence).")
  in
  let top_k_t =
    Arg.(value & opt int 50 & info [ "top-k" ] ~doc:"Best hits kept per sequence.")
  in
  let batch_size_t =
    Arg.(value & opt int 512 & info [ "pair-batch" ] ~doc:"Candidate pairs per service batch.")
  in
  let shards_t =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~doc:"Service shards (worker domains) aligning the pair stream.")
  in
  let timeout_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-pair alignment deadline.")
  in
  let no_cutoff_t =
    Arg.(
      value & flag
      & info [ "no-cutoff" ]
          ~doc:
            "Disable the banded-alignment distance cutoffs (score/identity thresholds and \
             top-k floors converted to per-pair edit-distance caps under a unit-cost \
             certificate). The edge list is identical either way; cutoffs only change how \
             fast hopeless pairs are abandoned.")
  in
  let edit_distance_t =
    Arg.(
      value & flag
      & info [ "edit-distance" ]
          ~doc:
            "Score pairs by unit-cost edit distance (rides the certified Myers bit-parallel \
             tier; scores are negated distances) instead of the --match/--mismatch scheme.")
  in
  let tmp_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "tmp-dir" ] ~doc:"Directory for edge spill runs (default: system temp).")
  in
  let admin_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "admin" ] ~docv:"ADDR"
          ~doc:
            "Serve a live observability endpoint ($(b,/metrics), $(b,/healthz), \
             $(b,/statusz)) while the pipeline runs; $(b,anyseq top --connect) $(docv) \
             renders the progress.")
  in
  let run input out k window min_shared min_score min_ident top_k batch_size shards timeout
      no_cutoff edit_distance tmp_dir admin mode json trace metrics_flag metrics_format
      match_ mismatch gap_open gap_extend =
    let scheme =
      if edit_distance then Anyseq.Scheme.unit_cost
      else scheme_of ~match_ ~mismatch ~gap_open ~gap_extend ~alphabet:`Dna5
    in
    let params =
      {
        Anyseq.Pipeline.default_params with
        k;
        w = window;
        min_shared;
        min_score = Option.value ~default:min_int min_score;
        min_ident;
        top_k;
        scheme;
        mode;
        timeout_s = timeout;
        batch_size;
        cutoff = not no_cutoff;
      }
    in
    let service = Anyseq.Service.create ~shards () in
    let metrics = Anyseq.Service.metrics service in
    let started = Unix.gettimeofday () in
    let admin_ep =
      match admin with
      | None -> None
      | Some addr_s -> (
          match Anyseq.Addr.parse addr_s with
          | Error msg ->
              Printf.eprintf "error: bad --admin address %s: %s\n" addr_s msg;
              exit exit_invalid_config
          | Ok addr -> (
              let handler = Anyseq.Server.service_routes ~started_at:started service in
              match Anyseq.Admin.start ~addr ~handler with
              | Error msg ->
                  Printf.eprintf "error: admin endpoint: %s\n" msg;
                  exit exit_invalid_config
              | Ok ep ->
                  Printf.printf "admin endpoint on %s (/metrics /healthz /statusz)\n%!"
                    (Anyseq.Addr.to_string (Anyseq.Admin.address ep));
                  Some ep))
    in
    let finally () =
      (match admin_ep with Some ep -> Anyseq.Admin.stop ep | None -> ());
      Anyseq.Service.shutdown service
    in
    Fun.protect ~finally @@ fun () ->
    with_trace trace @@ fun () ->
    match
      Anyseq.Pipeline.run ~service ~metrics ?tmp_dir ~out params
        (Anyseq.Pipeline.File input)
    with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok (r : Anyseq.Pipeline.report) ->
        let cs = r.Anyseq.Pipeline.components in
        if json then
          print_json
            (J.ints
               [ ("sequences", r.sequences); ("too_short", r.too_short);
                 ("pairs_total", r.pairs_total); ("pairs_pruned", r.pairs_pruned);
                 ("pairs_aligned", r.pairs_aligned); ("pairs_cutoff", r.pairs_cutoff);
                 ("pairs_timeout", r.pairs_timeout); ("pairs_failed", r.pairs_failed);
                 ("resubmits", r.resubmits); ("topk_evictions", r.evictions);
                 ("edges", r.edges); ("edge_duplicates", r.edge_duplicates);
                 ("spilled_runs", r.spilled_runs); ("components", cs.components);
                 ("clusters", cs.clusters); ("singletons", cs.singletons);
                 ("largest_component", cs.largest) ]
            @ [ ("elapsed_s", Num r.elapsed_s); ("pairs_per_s", Num r.pairs_per_s);
                ("out", Str out) ])
        else begin
          let total = r.Anyseq.Pipeline.pairs_total in
          Printf.printf "sequences     %d (%d too short for k=%d)\n"
            r.Anyseq.Pipeline.sequences r.Anyseq.Pipeline.too_short k;
          Printf.printf
            "pairs         %d total, %d pruned (%.1f%%), %d aligned, %d cut off\n" total
            r.Anyseq.Pipeline.pairs_pruned
            (if total > 0 then
               100.0 *. float_of_int r.Anyseq.Pipeline.pairs_pruned /. float_of_int total
             else 0.0)
            r.Anyseq.Pipeline.pairs_aligned r.Anyseq.Pipeline.pairs_cutoff;
          if
            r.Anyseq.Pipeline.pairs_timeout > 0
            || r.Anyseq.Pipeline.pairs_failed > 0
            || r.Anyseq.Pipeline.resubmits > 0
          then
            Printf.printf "backpressure  %d resubmitted, %d deadline-expired, %d failed\n"
              r.Anyseq.Pipeline.resubmits r.Anyseq.Pipeline.pairs_timeout
              r.Anyseq.Pipeline.pairs_failed;
          Printf.printf "edges         %d -> %s (%d duplicates merged, %d spill runs, %d \
                         top-k evictions)\n"
            r.Anyseq.Pipeline.edges out r.Anyseq.Pipeline.edge_duplicates
            r.Anyseq.Pipeline.spilled_runs r.Anyseq.Pipeline.evictions;
          Printf.printf "clusters      %d (%d singletons), largest %d\n"
            cs.Anyseq.Components.clusters cs.Anyseq.Components.singletons
            cs.Anyseq.Components.largest;
          let sizes = Anyseq.Components.size_histogram cs in
          let shown = ref 0 in
          List.iter
            (fun (size, count) ->
              if size > 1 && !shown < 8 then begin
                Printf.printf "  %d cluster%s of size %d\n" count
                  (if count = 1 then "" else "s")
                  size;
                incr shown
              end)
            sizes;
          Printf.printf "throughput    %.0f resolved pairs/s (%.2fs elapsed)\n"
            r.Anyseq.Pipeline.pairs_per_s r.Anyseq.Pipeline.elapsed_s
        end;
        if metrics_flag then begin
          print_endline "--- metrics ---";
          print_endline (dump_metrics metrics_format metrics)
        end
  in
  Cmd.v
    (Cmd.info "network"
       ~doc:
         "Build a sequence-similarity network from one FASTA file: prune the all-vs-all \
          pair space with a shared-minimizer prefilter, stream the surviving candidate \
          pairs through the batch alignment service, keep the best hits per sequence, \
          spill the edge list to a TSV and summarize its connected components.")
    Term.(
      const run $ input_t $ out_t $ k_t $ window_t $ min_shared_t $ min_score_t
      $ min_ident_t $ top_k_t $ batch_size_t $ shards_t $ timeout_t $ no_cutoff_t
      $ edit_distance_t $ tmp_dir_t $ admin_t $ mode_t $ json_t $ trace_t $ metrics_t
      $ metrics_format_t $ match_t $ mismatch_t $ gap_open_t $ gap_extend_t)

let trace_cmd =
  let count_t =
    Arg.(value & opt int 500 & info [ "count" ] ~doc:"Simulated pairs to run traced.")
  in
  let seed_t = Arg.(value & opt int 13 & info [ "seed" ] ~doc:"RNG seed.") in
  let traceback_t =
    Arg.(value & flag & info [ "traceback" ] ~doc:"Full alignments instead of score-only.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the Chrome trace-event JSON (for Perfetto / chrome://tracing).")
  in
  let buffer_t =
    Arg.(
      value
      & opt int Anyseq.Trace.default_buffer
      & info [ "buffer" ] ~doc:"Per-domain span ring capacity.")
  in
  let run count seed traceback out buffer mode backend match_ mismatch gap_open gap_extend =
    let scheme = scheme_of ~match_ ~mismatch ~gap_open ~gap_extend ~alphabet:`Dna5 in
    let config = Anyseq.Config.make ~scheme ~mode ~traceback ~backend () in
    let pairs = load_pairs ~reads:None ~subjects:None ~count ~seed in
    (* A private service so the specialization cache is cold: the trace
       then shows the kernel builds ([cache.build]) too. *)
    let service = Anyseq.Service.create ~capacity:(max 1 (Array.length pairs)) () in
    Anyseq.Trace.enable ~buffer ();
    ignore (Anyseq.align_batch ~service ~config pairs);
    let spans = Anyseq.Trace.spans () in
    Anyseq.Trace.disable ();
    (match out with
    | Some path ->
        Anyseq.Trace_export.write_chrome path spans;
        Printf.printf "wrote %d spans to %s\n" (List.length spans) path
    | None -> ());
    if Anyseq.Trace.dropped () > 0 then
      Printf.printf "(%d spans dropped by ring wraparound; raise --buffer to keep more)\n"
        (Anyseq.Trace.dropped ());
    print_string (Anyseq.Trace_export.span_tree spans)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a simulated batch workload with tracing on and print the aggregated span-tree \
          profile (per-layer call counts, total/self wall time). With --out, also write the \
          Chrome trace-event file.")
    Term.(
      const run $ count_t $ seed_t $ traceback_t $ out_t $ buffer_t $ mode_t $ backend_t
      $ match_t $ mismatch_t $ gap_open_t $ gap_extend_t)

let search_cmd =
  let pattern_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATTERN" ~doc:"Pattern string (ACGT).")
  in
  let text_t = Arg.(required & pos 1 (some file) None & info [] ~docv:"TEXT.fa") in
  let k_t =
    Arg.(value & opt int 2 & info [ "k" ] ~doc:"Report all matches with at most k errors.")
  in
  let run pattern text k =
    let r = read_first_record text in
    let pat =
      match Anyseq.Sequence.of_string Anyseq.Alphabet.dna5 pattern with
      | p -> p
      | exception Invalid_argument msg ->
          Printf.eprintf "bad pattern: %s\n" msg;
          exit 1
    in
    (* Bit-parallel approximate matching (Myers): pattern vs every text
       substring. *)
    let best_d, best_pos = Anyseq.Myers.search ~pattern:pat ~text:r.Anyseq.Fasta.sequence in
    Printf.printf "best: %d errors, ending at %d\n" best_d best_pos;
    let hits = Anyseq.Myers.occurrences ~pattern:pat ~text:r.Anyseq.Fasta.sequence ~k in
    Printf.printf "%d end positions with <= %d errors\n" (List.length hits) k;
    List.iteri
      (fun i (pos, d) -> if i < 25 then Printf.printf "  end=%d errors=%d\n" pos d)
      hits;
    if List.length hits > 25 then Printf.printf "  ... (%d more)\n" (List.length hits - 25)
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Approximate pattern matching (Myers bit-parallel).")
    Term.(const run $ pattern_t $ text_t $ k_t)

let overlap_cmd =
  let a_t = Arg.(required & pos 0 (some file) None & info [] ~docv:"A.fa") in
  let b_t = Arg.(required & pos 1 (some file) None & info [] ~docv:"B.fa") in
  let run a b match_ mismatch gap_open gap_extend =
    let scheme = scheme_of ~match_ ~mismatch ~gap_open ~gap_extend ~alphabet:`Dna5 in
    let ra = read_first_record a and rb = read_first_record b in
    let qa = ra.Anyseq.Fasta.sequence and sb = rb.Anyseq.Fasta.sequence in
    (* Dovetail: suffix of A against prefix of B. *)
    let al =
      Anyseq.Ends_free.align scheme Anyseq.Ends_free.dovetail_query_first ~query:qa
        ~subject:sb
    in
    Printf.printf "dovetail %s->%s: score %d, A[%d,%d) overlaps B[%d,%d), cigar %s\n"
      ra.Anyseq.Fasta.id rb.Anyseq.Fasta.id al.Anyseq.Alignment.score
      al.Anyseq.Alignment.query_start al.Anyseq.Alignment.query_end
      al.Anyseq.Alignment.subject_start al.Anyseq.Alignment.subject_end
      (Anyseq.Cigar.to_string al.Anyseq.Alignment.cigar)
  in
  Cmd.v
    (Cmd.info "overlap" ~doc:"Dovetail overlap between two sequences (assembly-style).")
    Term.(const run $ a_t $ b_t $ match_t $ mismatch_t $ gap_open_t $ gap_extend_t)

let analyze_cmd =
  let strict_t =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit with status 1 if any finding is reported.")
  in
  let verbose_t =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Also print per-pass detail for clean configurations.")
  in
  let modes =
    [ ("global", Anyseq.Types.Global); ("semiglobal", Anyseq.Types.Semiglobal);
      ("local", Anyseq.Types.Local) ]
  in
  let run strict verbose =
    Printf.printf
      "staged-IR static analysis: typecheck, termination (call-graph SCC),\n\
       binding-time completeness, dispatch-freedom lint, residual cost model\n\n";
    Printf.printf "%-28s %-12s %13s  %s\n" "scheme" "mode" "IR nodes" "findings";
    let total = ref 0 and configs = ref 0 in
    List.iter
      (fun scheme ->
        List.iter
          (fun (mode_name, mode) ->
            incr configs;
            let findings = Anyseq.Staged_kernel.analyze scheme mode in
            (* Static cost pass over the same residuals the runtime executes:
               exact per-cell operation counts plus the allocation-freedom
               verdict (straight-line residuals evaluate without boxing). *)
            let residuals = Anyseq.Staged_kernel.residuals scheme mode in
            let cost =
              List.fold_left
                (fun acc (_, r) -> Anyseq.Costmodel.add acc (Anyseq.Costmodel.of_residual r))
                Anyseq.Costmodel.zero residuals
            in
            let cost_findings =
              List.concat_map
                (fun (name, r) -> Anyseq.Costmodel.check ~name r)
                residuals
            in
            let alloc_free =
              List.for_all (fun (_, r) -> Anyseq.Costmodel.straight_line r) residuals
            in
            let findings = findings @ cost_findings in
            total := !total + List.length findings;
            let generic, resid = Anyseq.Staged_kernel.op_counts scheme mode in
            Printf.printf "%-28s %-12s %5d -> %4d  %d\n"
              (Anyseq.Scheme.to_string scheme) mode_name generic resid
              (List.length findings);
            Printf.printf "    per-cell cost: %s; %s\n"
              (Anyseq.Costmodel.to_string cost)
              (if alloc_free then "allocation-free (straight-line)"
               else "NOT allocation-free");
            List.iter
              (fun f -> Printf.printf "    %s\n" (Anyseq.Findings.to_string f))
              findings;
            if verbose && findings = [] then
              Printf.printf "    all passes clean (residual is dispatch-free)\n")
          modes)
      Anyseq.Scheme.builtins;
    Printf.printf "\n%d finding%s across %d configurations\n" !total
      (if !total = 1 then "" else "s")
      !configs;
    (* Semantic property certificates: abstract interpretation over each
       scheme's substitution function and gap model. Every emitted
       certificate is independently re-validated with [Property.check]
       (counted into the findings total), and the bit-parallel tier
       admissibility derived from it is printed — the dispatcher trusts
       exactly these certificates, never scheme names. *)
    Printf.printf "\nsemantic property certificates (abstract interpretation)\n\n";
    List.iter
      (fun scheme ->
        let report = Anyseq.Property.analyze scheme in
        Printf.printf "  %s\n" (Anyseq.Property.report_to_string report);
        let recheck =
          List.concat_map (Anyseq.Property.check scheme) report.Anyseq.Property.certs
        in
        total := !total + List.length recheck;
        List.iter
          (fun f -> Printf.printf "      %s\n" (Anyseq.Findings.to_string f))
          recheck;
        (match Anyseq.Property.admissible_modes report with
        | [] -> Printf.printf "      bit-parallel tier: not admissible (no Unit_cost certificate)\n"
        | ms ->
            Printf.printf "      bit-parallel tier admissible on: %s\n"
              (String.concat ", "
                 (List.map
                    (function
                      | Anyseq.Types.Global -> "global"
                      | Anyseq.Types.Semiglobal -> "semiglobal"
                      | Anyseq.Types.Local -> "local")
                    ms))))
      Anyseq.Scheme.builtins;
    (* Planted-violation self-test: the gate must be able to catch what it
       claims to catch. A forged Unit_cost certificate for a non-unit
       scheme must be refuted, and a residual hiding work behind a call
       must fail the cost pass. *)
    let planted_bad = ref 0 in
    (match Anyseq.Property.unit_cost (Anyseq.Property.analyze Anyseq.Scheme.unit_cost) with
    | None -> incr planted_bad
    | Some forged_cert ->
        if Anyseq.Property.check Anyseq.Scheme.paper_linear
             (Anyseq.Property.Unit_cost forged_cert)
           = []
        then incr planted_bad);
    let hidden_call =
      let open Anyseq_staged.Expr in
      { Anyseq_staged.Pe.entry = Call ("helper", [ Int 1 ]);
        fns = [ { name = "helper"; params = [ "x" ]; filter = Always; body = Var "x" } ] }
    in
    if Anyseq.Costmodel.check ~name:"planted" hidden_call = [] then incr planted_bad;
    Printf.printf
      "\nplanted-violation self-test: forged Unit_cost refuted, hidden-allocation residual \
       rejected — %d problem%s\n"
      !planted_bad
      (if !planted_bad = 1 then "" else "s");
    (* Runtime sweep: build every (builtin scheme x mode) through the
       specialization cache and check that (a) a warm pass hits every
       entry, and (b) the native kernel, and the bit-parallel kernel where
       a certificate admits one, agree with the generic linear-space
       engine on random inputs. *)
    Printf.printf "\nruntime specialization-cache sweep\n";
    let sweep_bad = ref 0 in
    let cache =
      Anyseq.Spec_cache.create
        ~capacity:(List.length Anyseq.Scheme.builtins * List.length modes)
        ()
    in
    let rng = Anyseq_util.Rng.create ~seed:2024 in
    let sweep () =
      List.iter
        (fun scheme ->
          List.iter
            (fun (mode_name, mode) ->
              match Anyseq.Spec_cache.get cache scheme mode with
              | kernels ->
                  let alphabet = Anyseq.Scheme.alphabet scheme in
                  let nk = kernels.Anyseq.Spec_cache.native in
                  for _ = 1 to 10 do
                    let q =
                      Anyseq.Sequence.random rng alphabet ~len:(1 + Anyseq_util.Rng.int rng 64)
                    and s =
                      Anyseq.Sequence.random rng alphabet ~len:(1 + Anyseq_util.Rng.int rng 64)
                    in
                    let qv = Anyseq.Sequence.view q and sv = Anyseq.Sequence.view s in
                    let reference =
                      Anyseq_core.Dp_linear.score_only scheme mode ~query:qv ~subject:sv
                    in
                    let native =
                      Anyseq.Workspace.with_ws (fun ws ->
                          nk.Anyseq.Native_kernel.score ~ws ~query:q ~subject:s)
                    in
                    if reference <> native then begin
                      incr sweep_bad;
                      Printf.printf
                        "    MISMATCH %s %s: native (%d,%d,%d) vs engine (%d,%d,%d)\n"
                        (Anyseq.Scheme.to_string scheme) mode_name native.Anyseq.Types.score
                        native.Anyseq.Types.query_end native.Anyseq.Types.subject_end
                        reference.Anyseq.Types.score reference.Anyseq.Types.query_end
                        reference.Anyseq.Types.subject_end
                    end;
                    (* Certificate-gated bit-parallel tier (only present
                       under a Unit_cost certificate): the converted Myers
                       distance must be bit-identical to the generic
                       engine. *)
                    match kernels.Anyseq.Spec_cache.bitparallel with
                    | None -> ()
                    | Some bp ->
                        let bpe =
                          Anyseq.Workspace.with_ws (fun ws ->
                              bp.Anyseq.Bitparallel.bp_score ~ws ~query:q ~subject:s)
                        in
                        if reference <> bpe then begin
                          incr sweep_bad;
                          Printf.printf
                            "    MISMATCH %s %s: bitparallel (%d,%d,%d) vs engine (%d,%d,%d)\n"
                            (Anyseq.Scheme.to_string scheme) mode_name bpe.Anyseq.Types.score
                            bpe.Anyseq.Types.query_end bpe.Anyseq.Types.subject_end
                            reference.Anyseq.Types.score reference.Anyseq.Types.query_end
                            reference.Anyseq.Types.subject_end
                        end
                  done
              | exception e ->
                  incr sweep_bad;
                  Printf.printf "    FAILED %s %s: %s\n" (Anyseq.Scheme.to_string scheme)
                    mode_name (Printexc.to_string e))
            modes)
        Anyseq.Scheme.builtins
    in
    sweep ();
    (* warm pass: every configuration must be served from cache *)
    sweep ();
    let st = Anyseq.Spec_cache.stats cache in
    if st.Anyseq.Spec_cache.hits <> st.Anyseq.Spec_cache.misses then begin
      incr sweep_bad;
      Printf.printf "    cache warm pass missed: %d hits vs %d misses\n"
        st.Anyseq.Spec_cache.hits st.Anyseq.Spec_cache.misses
    end;
    if st.Anyseq.Spec_cache.evictions > 0 then begin
      incr sweep_bad;
      Printf.printf "    unexpected evictions: %d\n" st.Anyseq.Spec_cache.evictions
    end;
    Printf.printf
      "%d configurations cached (native kernel, bit-parallel where certified), warm hit rate \
       %.0f%%, %d problem%s\n"
      st.Anyseq.Spec_cache.size
      (100.0 *. Anyseq.Spec_cache.hit_rate st)
      !sweep_bad
      (if !sweep_bad = 1 then "" else "s");
    if strict && (!total > 0 || !sweep_bad > 0 || !planted_bad > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically verify every specialized kernel (built-in schemes x modes): \
          well-typed, terminating specialization, no foldable leftovers, no \
          configuration dispatch in residuals, static per-cell cost and \
          allocation-freedom of residuals, semantic property certificates \
          (unit-cost equivalence, symmetry, score bounds) with independent \
          re-validation and planted-violation self-tests; then sweep the same \
          configurations through the runtime specialization cache, \
          differentially testing native and certificate-gated bit-parallel \
          kernels against the generic engine.")
    Term.(const run $ strict_t $ verbose_t)

let () =
  let info = Cmd.info "anyseq" ~version:Anyseq.version ~doc:"AnySeq sequence alignment." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ align_cmd; generate_cmd; simulate_reads_cmd; batch_cmd; serve_cmd; client_cmd;
            network_cmd; top_cmd; trace_cmd; search_cmd; overlap_cmd; analyze_cmd ]))
