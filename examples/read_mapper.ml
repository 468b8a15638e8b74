(* A miniature seed-and-extend read mapper — the downstream application the
   paper's introduction motivates (NGS pipelines built on an alignment
   library).

   Pipeline: k-mer index of the reference -> seed lookup per read -> vote
   for candidate windows -> verify with a banded query-contained alignment
   (Ends_free.query_contained: read fully aligned, reference flanks free),
   with Myers' bit-parallel filter as a cheap pre-check.

   A second section is the paper's use case (ii), NGS read verification:
   Illumina-like reads are scored globally against the reference windows
   they were sampled from by the inter-sequence SIMD batch kernel.

   Run with:  dune exec examples/read_mapper.exe -- [reads] *)

module Rng = Anyseq_util.Rng

let k = 15

let pack_kmer reference pos =
  (* 2 bits per base; k=15 fits in 30 bits *)
  let v = ref 0 in
  for i = 0 to k - 1 do
    v := (!v lsl 2) lor Anyseq.Sequence.get reference (pos + i)
  done;
  !v

let build_index reference =
  let n = Anyseq.Sequence.length reference in
  let index = Hashtbl.create (2 * n) in
  for pos = 0 to n - k do
    let key = pack_kmer reference pos in
    let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
    (* cap occurrences per k-mer: repetitive seeds are uninformative *)
    if List.length prev < 8 then Hashtbl.replace index key (pos :: prev)
  done;
  index

let () =
  let nreads = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2_000 in
  let rng = Rng.create ~seed:1337 in
  let reference = Anyseq.Genome_gen.generate rng ~len:300_000 () in
  let reads =
    Anyseq.Read_sim.simulate rng ~reverse_fraction:0.5 ~reference ~read_len:120
      ~count:nreads ()
  in
  Printf.printf "reference: %d bp; reads: %d x 120 bp (~50%% reverse strand)\n"
    (Anyseq.Sequence.length reference) nreads;

  let (index, t_index) = Anyseq_util.Timer.time (fun () -> build_index reference) in
  Printf.printf "k-mer index (k=%d): %d distinct seeds (%.2f s)\n" k
    (Hashtbl.length index) t_index;

  let scheme = Anyseq.Scheme.paper_affine in
  let mapped = ref 0 and correct = ref 0 and filtered = ref 0 in
  let t_map =
    Anyseq_util.Timer.time_only (fun () ->
        List.iter
          (fun r ->
            (* Strand handling: seed/verify the read as-is and as its
               reverse complement; keep the better orientation. *)
            let read_fwd = r.Anyseq.Read_sim.sequence in
            let read_rc = Anyseq.Sequence.reverse_complement read_fwd in
            let read =
              (* cheap orientation pick: which strand seeds better? *)
              let seeds_of rd =
                let hits = ref 0 in
                List.iter
                  (fun off ->
                    if off + k <= Anyseq.Sequence.length rd then
                      match Hashtbl.find_opt index (pack_kmer rd off) with
                      | Some _ -> incr hits
                      | None -> ())
                  [ 0; 35; 70; Anyseq.Sequence.length rd - k ];
                !hits
              in
              if seeds_of read_fwd >= seeds_of read_rc then read_fwd else read_rc
            in
            let read_len = Anyseq.Sequence.length read in
            (* Seeds at a few positions across the read vote for reference
               offsets. *)
            let votes = Hashtbl.create 8 in
            List.iter
              (fun off ->
                if off + k <= read_len then begin
                  let key = pack_kmer read off in
                  match Hashtbl.find_opt index key with
                  | None -> ()
                  | Some positions ->
                      List.iter
                        (fun pos ->
                          let candidate = pos - off in
                          if candidate >= 0 then
                            Hashtbl.replace votes candidate
                              (1 + Option.value ~default:0 (Hashtbl.find_opt votes candidate)))
                        positions
                end)
              [ 0; 35; 70; read_len - k ];
            (* Best-voted candidate window, verified by alignment. *)
            let best =
              Hashtbl.fold
                (fun cand n acc ->
                  match acc with Some (_, n') when n' >= n -> acc | _ -> Some (cand, n))
                votes None
            in
            match best with
            | None -> ()
            | Some (candidate, _votes) ->
                let pad = 12 in
                let start = max 0 (candidate - pad) in
                let len =
                  min (read_len + (2 * pad)) (Anyseq.Sequence.length reference - start)
                in
                let window = Anyseq.Sequence.sub reference ~pos:start ~len in
                (* Cheap filter: bit-parallel edit distance of the read vs
                   the window (free window flanks). *)
                let d, _ = Anyseq.Myers.search ~pattern:read ~text:window in
                if d > read_len / 8 then incr filtered
                else begin
                  let a =
                    Anyseq.Ends_free.align scheme Anyseq.Ends_free.query_contained
                      ~query:read ~subject:window
                  in
                  incr mapped;
                  let mapped_pos = start + a.Anyseq.Alignment.subject_start in
                  if abs (mapped_pos - r.Anyseq.Read_sim.origin) <= 3 then incr correct
                end)
          reads)
  in
  Printf.printf "mapped %d/%d reads (%d rejected by the edit-distance filter) in %.2f s\n"
    !mapped nreads !filtered t_map;
  Printf.printf "placement accuracy: %.2f%% within 3 bp of the simulated origin\n"
    (100.0 *. float_of_int !correct /. float_of_int (max 1 !mapped));

  (* Batch verification: every read against its true origin window. *)
  let pairs =
    Anyseq.Read_sim.read_pairs ~seed:31 ~reference_len:500_000 ~read_len:150 ~count:nreads
  in
  let scheme = Anyseq.Scheme.paper_linear in
  Printf.printf "\nverification: %d reads of 150 bp, %.1f%% vectorizable at 16 lanes\n" nreads
    (100.0 *. Anyseq.Inter_seq.vectorizable_fraction ~lanes:16 scheme pairs);
  let scores, seconds =
    Anyseq_util.Timer.time (fun () ->
        Anyseq.Inter_seq.batch_score ~lanes:16 scheme Anyseq.Types.Global pairs)
  in
  let cells =
    Array.fold_left
      (fun acc (q, s) -> acc + (Anyseq.Sequence.length q * Anyseq.Sequence.length s))
      0 pairs
  in
  Printf.printf "batch scored in %.2f s (%.3f GCUPS on emulated lanes)\n" seconds
    (Anyseq_util.Timer.gcups ~cells ~seconds);
  let values = Array.map (fun e -> float_of_int e.Anyseq.Types.score) scores in
  Format.printf "score distribution: %a@." Anyseq_util.Stats.pp_summary
    (Anyseq_util.Stats.summarize values);
  (* A perfect 150 bp read in its 158 bp window scores 2·150 − gap-cost(8)
     = 292. *)
  let near =
    Array.fold_left (fun n e -> if e.Anyseq.Types.score >= 280 then n + 1 else n) 0 scores
  in
  Printf.printf "reads scoring >= 280 (near-perfect): %d / %d (%.1f%%)\n" near nreads
    (100.0 *. float_of_int near /. float_of_int (max 1 nreads));
  let q, s = pairs.(0) in
  print_newline ();
  print_string
    (Anyseq.Alignment.pretty ~query:q ~subject:s ~width:76
       (Anyseq.Engine.align scheme Anyseq.Types.Global ~query:q ~subject:s))
