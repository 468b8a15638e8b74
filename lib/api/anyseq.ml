module Alphabet = Anyseq_bio.Alphabet
module Sequence = Anyseq_bio.Sequence
module Substitution = Anyseq_bio.Substitution
module Gaps = Anyseq_bio.Gaps
module Cigar = Anyseq_bio.Cigar
module Alignment = Anyseq_bio.Alignment
module Scheme = Anyseq_scoring.Scheme
module Bounds = Anyseq_scoring.Bounds
module Types = Anyseq_core.Types
module Engine = Anyseq_core.Engine
module Scratch = Anyseq_core.Scratch
module Reference = Anyseq_core.Reference
module Hirschberg = Anyseq_core.Hirschberg
module Banded = Anyseq_core.Banded
module Tiling = Anyseq_core.Tiling
module Staged_kernel = Anyseq_core.Staged_kernel
module Analysis = Anyseq_analysis.Driver
module Findings = Anyseq_analysis.Findings
module Property = Anyseq_analysis.Property
module Costmodel = Anyseq_analysis.Costmodel
module Ends_free = Anyseq_core.Ends_free
module Myers = Anyseq_core.Myers
module Scheduler = Anyseq_wavefront.Scheduler
module Inter_seq = Anyseq_simd.Inter_seq
module Blocked = Anyseq_simd.Blocked
module Fasta = Anyseq_seqio.Fasta
module Fastq = Anyseq_seqio.Fastq
module Genome_gen = Anyseq_seqio.Genome_gen
module Read_sim = Anyseq_seqio.Read_sim
module Sam = Anyseq_seqio.Sam
module Minimizer = Anyseq_network.Minimizer
module Net_index = Anyseq_network.Index
module Topk = Anyseq_network.Topk
module Edges = Anyseq_network.Edges
module Components = Anyseq_network.Components
module Pipeline = Anyseq_network.Pipeline
module Config = Anyseq_runtime.Config
module Error = Anyseq_runtime.Error
module Service = Anyseq_runtime.Service
module Spec_cache = Anyseq_runtime.Spec_cache
module Metrics = Anyseq_runtime.Metrics
module Native_kernel = Anyseq_runtime.Native_kernel
module Bitparallel = Anyseq_runtime.Bitparallel
module Workspace = Anyseq_runtime.Workspace
module Trace = Anyseq_trace.Trace
module Trace_export = Anyseq_trace.Export
module Wire = Anyseq_client.Wire
module Addr = Anyseq_client.Addr
module Client = Anyseq_client.Client
module Server = Anyseq_server.Server
module Batcher = Anyseq_server.Batcher
module Admin = Anyseq_server.Admin
module Flight = Anyseq_server.Flight
module Top = Anyseq_server.Top
module Jsonv = Anyseq_util.Jsonv

(* One record for every parallelism knob the runtime scatters across
   Service.create / the wavefront scheduler / the server config — the
   facade-level answer to "how parallel should this process be". *)
module Runtime = struct
  type t = { shards : int; domains : int; capacity : int; batch_size : int }

  let default () =
    let d = Domain.recommended_domain_count () in
    { shards = d; domains = d; capacity = 1024; batch_size = 256 }

  let sequential = { shards = 1; domains = 1; capacity = 1024; batch_size = 256 }

  let service r =
    Service.create ~capacity:r.capacity ~batch_size:r.batch_size ~shards:r.shards
      ~domains:r.domains ()

  let shutdown = Service.shutdown
end

type aligned = {
  score : int;
  query_aligned : string;
  subject_aligned : string;
  alignment : Alignment.t option;
}

let default_scheme = Scheme.wildcard_linear

let of_traceback ~query ~subject a =
  let query_aligned, subject_aligned = Alignment.aligned_strings ~query ~subject a in
  { score = a.Alignment.score; query_aligned; subject_aligned; alignment = Some a }

let align ~(config : Config.t) ~query ~subject =
  let scheme = config.Config.scheme and mode = config.Config.mode in
  match
    let alphabet = Scheme.alphabet scheme in
    (Sequence.of_string alphabet query, Sequence.of_string alphabet subject)
  with
  | exception Invalid_argument msg -> Result.Error (Error.Bad_sequence msg)
  | q, s ->
      let rows = Sequence.length q and cols = Sequence.length s in
      if
        (not config.Config.traceback)
        && config.Config.backend = Config.Simd
        && rows > 0 && cols > 0
        && not (Bounds.fits scheme ~rows ~cols ~bits:16)
      then
        (* Same screening the batch executor applies, so a job fails the
           same way whether submitted alone or in a batch. *)
        Result.Error
          (Error.Overflow_bound
             (Printf.sprintf
                "%d x %d pair exceeds the 16-bit differential-score range of the vector kernels"
                rows cols))
      else if config.Config.traceback then
        Ok
          (of_traceback ~query:q ~subject:s
             (Anyseq_runtime.Workspace.with_ws (fun ws ->
                  Engine.align ~ws scheme mode ~query:q ~subject:s)))
      else
        let backend =
          match config.Config.backend with
          | Config.Wavefront -> Engine.Tiled { tile = 512 }
          | Config.Auto | Config.Scalar | Config.Simd -> Engine.Scalar
        in
        let e =
          Anyseq_runtime.Workspace.with_ws (fun ws ->
              Engine.score ~ws ~backend scheme mode ~query:q ~subject:s)
        in
        Ok { score = e.Types.score; query_aligned = ""; subject_aligned = ""; alignment = None }

let align_exn ~config ~query ~subject =
  match align ~config ~query ~subject with Ok a -> a | Result.Error e -> Error.raise_ e

let of_outcome (o : Service.outcome) =
  match o.Service.alignment with
  | Some a -> of_traceback ~query:o.Service.query_seq ~subject:o.Service.subject_seq a
  | None ->
      {
        score = o.Service.score;
        query_aligned = "";
        subject_aligned = "";
        alignment = None;
      }

let align_batch ?service ?runtime ?timeout_s ~config pairs =
  let jobs =
    Array.map (fun (query, subject) -> Service.job ~config ?timeout_s ~query ~subject ()) pairs
  in
  match (service, runtime) with
  | Some svc, _ ->
      (* An explicit service wins: its own shard/domain shape was chosen
         at creation, [?runtime] cannot re-shape it. *)
      Array.map (Result.map of_outcome) (Service.run svc jobs)
  | None, Some r ->
      let svc = Runtime.service r in
      Fun.protect
        ~finally:(fun () -> Runtime.shutdown svc)
        (fun () -> Array.map (Result.map of_outcome) (Service.run svc jobs))
  | None, None ->
      Array.map (Result.map of_outcome) (Service.run (Service.default ()) jobs)

let align_batch_exn ?service ?runtime ?timeout_s ~config pairs =
  Array.map
    (function Ok a -> a | Result.Error e -> Error.raise_ e)
    (align_batch ?service ?runtime ?timeout_s ~config pairs)

(* Paper-compatible wrappers (§III-C), one line each over the core entry. *)

let construct_global_alignment ?(scheme = default_scheme) ~query ~subject () =
  align_exn ~config:(Config.make ~scheme ~mode:Types.Global ()) ~query ~subject

let construct_local_alignment ?(scheme = default_scheme) ~query ~subject () =
  align_exn ~config:(Config.make ~scheme ~mode:Types.Local ()) ~query ~subject

let construct_semiglobal_alignment ?(scheme = default_scheme) ~query ~subject () =
  align_exn ~config:(Config.make ~scheme ~mode:Types.Semiglobal ()) ~query ~subject

let global_alignment_score ?(scheme = default_scheme) ~query ~subject () =
  (align_exn ~config:(Config.make ~scheme ~mode:Types.Global ~traceback:false ()) ~query ~subject)
    .score

let local_alignment_score ?(scheme = default_scheme) ~query ~subject () =
  (align_exn ~config:(Config.make ~scheme ~mode:Types.Local ~traceback:false ()) ~query ~subject)
    .score

let semiglobal_alignment_score ?(scheme = default_scheme) ~query ~subject () =
  (align_exn
     ~config:(Config.make ~scheme ~mode:Types.Semiglobal ~traceback:false ())
     ~query ~subject)
    .score

let version = "2.0.0"
