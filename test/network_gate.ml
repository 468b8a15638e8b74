(* network-gate: tier-1 smoke for the similarity-network pipeline, run by
   `dune build @network-gate`.

   One synthetic input — 512 protein-sized DNA sequences in 8 star
   families of 64 (every member a light mutation of the family root, so
   all within-family pairs stay similar) — and four assertions:

   1. {b Prefilter ≡ brute force.} The minimizer prefilter may only skip
      pairs that could never form an edge. The gate runs the pipeline
      twice with identical cutoffs — once with the prefilter on
      (min_shared > 0), once in brute-force mode (min_shared = 0, every
      pair aligned) — and requires the two edge TSVs to be byte-identical.

   2. {b Shard independence.} The same prefiltered run at shards=1 and
      shards=2 must produce byte-identical edge files: candidate order,
      admission order, scores and top-k tie-breaks are all deterministic,
      so worker-domain scheduling can never leak into the output.

   3. {b Cluster stability.} All component summaries must agree with
      each other and with the construction: 8 clusters of 64, no
      singletons.

   4. {b Spill ≡ in-memory.} The edge records (about 4k) fit in the
      default edge buffer, so the runs above never spill. The prefiltered
      run once more with a 64-edge buffer must spill runs and still write
      a byte-identical edge file. *)

module Rng = Anyseq_util.Rng
module Pipeline = Anyseq.Pipeline
module Components = Anyseq.Components
module Genome_gen = Anyseq.Genome_gen
module Scheme = Anyseq.Scheme

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL: %s\n" what
  end

let families = 8
let members = 64
let len = 128

(* star families: member m > 0 is a fresh mutation of the family root,
   so every within-family pair sits at ~2x the per-step divergence and
   the candidate sets stay dense — the regime where prefilter and brute
   force must agree exactly *)
let star_families ~seed =
  let rng = Rng.create ~seed in
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let out = Array.make (families * members) ("", Anyseq.Sequence.of_string Anyseq.Alphabet.dna4 "A") in
  for f = 0 to families - 1 do
    let root = Genome_gen.generate rng ~len () in
    for m = 0 to members - 1 do
      let s = if m = 0 then root else Genome_gen.mutate rng ~divergence:div root in
      out.((f * members) + m) <- (Printf.sprintf "fam%d_%03d" f m, s)
    done
  done;
  out

let params ?(edge_buffer = Pipeline.default_params.edge_buffer) ~min_shared () =
  {
    Pipeline.default_params with
    scheme = Scheme.unit_cost;
    min_shared;
    min_ident = 0.7;
    top_k = 8;
    edge_buffer;
  }

let run_once ?edge_buffer ~tag ~shards ~min_shared seqs =
  let out =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "anyseq-netgate-%d-%s.tsv" (Unix.getpid ()) tag)
  in
  let service = Anyseq.Service.create ~shards ~capacity:4096 () in
  let r =
    Fun.protect
      ~finally:(fun () -> Anyseq.Service.shutdown service)
      (fun () ->
        Pipeline.run ~service ~out (params ?edge_buffer ~min_shared ()) (Pipeline.Seqs seqs))
  in
  match r with
  | Ok rep -> (out, rep)
  | Error msg ->
      Printf.eprintf "FAIL: %s run: %s\n" tag msg;
      exit 1

let read_bytes path = In_channel.with_open_text path In_channel.input_all

let () =
  let seqs = star_families ~seed:4242 in
  let n = Array.length seqs in
  let pre_out, pre = run_once ~tag:"prefilter" ~shards:1 ~min_shared:3 seqs in
  let ref_out, rf = run_once ~tag:"bruteforce" ~shards:1 ~min_shared:0 seqs in
  let sh2_out, sh2 = run_once ~tag:"shards2" ~shards:2 ~min_shared:3 seqs in
  let spill_out, spill =
    run_once ~edge_buffer:64 ~tag:"spill64" ~shards:1 ~min_shared:3 seqs
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ pre_out; ref_out; sh2_out; spill_out ])
    (fun () ->
      (* sanity on the workload itself *)
      check "all sequences indexed" (pre.Pipeline.sequences = n);
      check "brute force examined every pair"
        (rf.Pipeline.pairs_aligned + rf.Pipeline.pairs_cutoff = n * (n - 1) / 2
        && rf.Pipeline.pairs_pruned = 0);
      check "prefilter pruned the bulk of the pair space"
        (pre.Pipeline.pairs_pruned * 10 >= pre.Pipeline.pairs_total * 8);
      check "edges exist" (pre.Pipeline.edges > 0);
      (* 1: prefilter ≡ brute force, byte for byte *)
      let pre_bytes = read_bytes pre_out in
      check "prefiltered edge list ≡ brute-force edge list"
        (pre_bytes = read_bytes ref_out);
      (* 2: shards=1 ≡ shards=2, byte for byte *)
      check "edge list identical at shards=1 and shards=2"
        (pre_bytes = read_bytes sh2_out);
      (* 4: a spilling edge writer ≡ the in-memory one, byte for byte *)
      check "default-buffer run never spilled" (pre.Pipeline.spilled_runs = 0);
      check "64-edge buffer spilled runs" (spill.Pipeline.spilled_runs > 0);
      check "edge list identical with spilled runs" (pre_bytes = read_bytes spill_out);
      (* 3: cluster structure is the constructed one, on every run *)
      List.iter
        (fun (tag, rep) ->
          let c = rep.Pipeline.components in
          check
            (Printf.sprintf "%s: %d clusters of %d, no singletons" tag families members)
            (c.Components.clusters = families
            && c.Components.largest = members
            && c.Components.singletons = 0
            && Array.for_all (fun (_, size) -> size = members) c.Components.sizes))
        [ ("prefilter", pre); ("bruteforce", rf); ("shards2", sh2); ("spill64", spill) ];
      check "component counts agree across runs"
        (List.for_all
           (fun rep ->
             rep.Pipeline.components.Components.components
             = pre.Pipeline.components.Components.components)
           [ rf; sh2; spill ]));
  if !failures = 0 then begin
    Printf.printf
      "network-gate OK: %d seqs, %d/%d pairs aligned (%.1f%% pruned), %d edges, %d \
       clusters; prefilter ≡ brute force; shards 1 ≡ 2; %d spilled runs ≡ in-memory\n"
      n pre.Pipeline.pairs_aligned pre.Pipeline.pairs_total
      (100.0
      *. float_of_int pre.Pipeline.pairs_pruned
      /. float_of_int (max 1 pre.Pipeline.pairs_total))
      pre.Pipeline.edges pre.Pipeline.components.Components.clusters
      spill.Pipeline.spilled_runs;
    exit 0
  end
  else begin
    Printf.eprintf "network-gate: %d failure(s)\n" !failures;
    exit 1
  end
