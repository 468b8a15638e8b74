module Minimizer = Anyseq_network.Minimizer
module Index = Anyseq_network.Index
module Topk = Anyseq_network.Topk
module Edges = Anyseq_network.Edges
module Components = Anyseq_network.Components
module Pipeline = Anyseq_network.Pipeline
module Alphabet = Anyseq_bio.Alphabet
module Sequence = Anyseq_bio.Sequence
module Genome_gen = Anyseq_seqio.Genome_gen
module Scheme = Anyseq_scoring.Scheme
module Rng = Anyseq_util.Rng

let dna = Alphabet.dna4
let seq s = Sequence.of_string dna s

(* ------------------------------------------------------------------ *)
(* Minimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_minimizer_short () =
  (* sequences shorter than k have no k-mer, hence an empty sketch *)
  Alcotest.(check int) "empty sequence" 0 (Array.length (Minimizer.sketch (seq "")));
  Alcotest.(check int) "below k" 0
    (Array.length (Minimizer.sketch ~k:11 (seq "ACGTACGTAC")));
  Alcotest.(check bool) "exactly k sketches" true
    (Array.length (Minimizer.sketch ~k:11 (seq "ACGTACGTACG")) > 0)

let test_minimizer_homopolymer () =
  (* a homopolymer run has one distinct k-mer, hence one distinct minimizer *)
  let s = seq (String.make 200 'A') in
  Alcotest.(check int) "one distinct minimizer" 1
    (Array.length (Minimizer.sketch s));
  let t = seq (String.make 64 'G') in
  Alcotest.(check int) "other letter too" 1 (Array.length (Minimizer.sketch t))

let test_minimizer_duplicates () =
  let rng = Rng.create ~seed:11 in
  let s = Genome_gen.generate rng ~len:300 () in
  let a = Minimizer.sketch s and b = Minimizer.sketch s in
  Alcotest.(check bool) "identical sketches" true (a = b);
  Alcotest.(check int) "share everything" (Array.length a) (Minimizer.shared a b)

let test_minimizer_sorted_distinct () =
  let rng = Rng.create ~seed:12 in
  let s = Genome_gen.generate rng ~len:1000 () in
  let a = Minimizer.sketch s in
  Alcotest.(check bool) "non-empty" true (Array.length a > 0);
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then Alcotest.failf "not sorted distinct at %d" i
  done

let test_minimizer_validation () =
  let s = seq "ACGTACGTACGTACGT" in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "k too small" true (bad (fun () -> Minimizer.sketch ~k:1 s));
  Alcotest.(check bool) "k too large" true
    (bad (fun () -> Minimizer.sketch ~k:(Minimizer.max_k + 1) s));
  Alcotest.(check bool) "w < 1" true (bad (fun () -> Minimizer.sketch ~w:0 s))

(* Mutated copies must keep sharing minimizers — the prefilter's whole
   premise — and the inverted index must report exactly the pairs whose
   direct [Minimizer.shared] count clears the threshold. *)
let test_index_matches_pairwise () =
  let rng = Rng.create ~seed:13 in
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let seqs =
    Array.init 40 (fun i ->
        if i mod 8 = 0 then Genome_gen.generate rng ~len:240 ()
        else Genome_gen.mutate rng ~divergence:div (Genome_gen.generate rng ~len:240 ()))
  in
  (* families: overwrite members 1..7 of each block with chained mutants *)
  for f = 0 to 4 do
    for m = 1 to 7 do
      seqs.((f * 8) + m) <- Genome_gen.mutate rng ~divergence:div seqs.((f * 8) + m - 1)
    done
  done;
  let sketches = Array.map Minimizer.sketch seqs in
  let min_shared = 3 in
  let expected = Hashtbl.create 64 in
  for j = 0 to Array.length seqs - 1 do
    for i = 0 to j - 1 do
      let c = Minimizer.shared sketches.(i) sketches.(j) in
      if c >= min_shared then Hashtbl.replace expected (i, j) c
    done
  done;
  Alcotest.(check bool) "families produce candidates" true (Hashtbl.length expected > 0);
  let idx = Index.create () in
  let reported = Hashtbl.create 64 in
  Array.iteri
    (fun j sk ->
      let id = Index.add idx sk ~min_shared ~f:(fun i c -> Hashtbl.replace reported (i, j) c) in
      Alcotest.(check int) "ids assigned in order" j id)
    sketches;
  Alcotest.(check int) "same candidate count" (Hashtbl.length expected)
    (Hashtbl.length reported);
  Hashtbl.iter
    (fun (i, j) c ->
      match Hashtbl.find_opt reported (i, j) with
      | Some c' when c' = c -> ()
      | Some c' -> Alcotest.failf "pair (%d,%d): shared %d reported %d" i j c c'
      | None -> Alcotest.failf "pair (%d,%d) missing from index candidates" i j)
    expected

let test_index_brute_force_mode () =
  let rng = Rng.create ~seed:14 in
  let sketches = Array.init 10 (fun _ -> Minimizer.sketch (Genome_gen.generate rng ~len:150 ())) in
  let idx = Index.create () in
  let pairs = ref 0 in
  Array.iter (fun sk -> ignore (Index.add idx sk ~min_shared:0 ~f:(fun _ _ -> incr pairs))) sketches;
  Alcotest.(check int) "min_shared <= 0 reports every pair" 45 !pairs

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)
(* ------------------------------------------------------------------ *)

let test_topk_order_independent () =
  let hits =
    [ (3, 10); (1, 10); (7, 12); (2, 5); (9, 12); (4, 8); (5, 10); (0, 3) ]
    |> List.map (fun (partner, score) -> { Topk.partner; score; ident = 0.9 })
  in
  let fill order =
    let t = Topk.create ~k:4 in
    let evictions = List.fold_left (fun n h -> if Topk.add t h then n + 1 else n) 0 order in
    (Topk.to_sorted t, evictions)
  in
  let a, ea = fill hits in
  let b, eb = fill (List.rev hits) in
  Alcotest.(check bool) "same contents any order" true (a = b);
  Alcotest.(check int) "same evictions" ea eb;
  Alcotest.(check int) "bounded" 4 (Array.length a);
  (* best first: score desc, partner asc on ties *)
  let expect = [| (7, 12); (9, 12); (1, 10); (3, 10) |] in
  Array.iteri
    (fun i h ->
      let p, s = expect.(i) in
      Alcotest.(check int) (Printf.sprintf "slot %d partner" i) p h.Topk.partner;
      Alcotest.(check int) (Printf.sprintf "slot %d score" i) s h.Topk.score)
    a

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)
(* ------------------------------------------------------------------ *)

(* A fresh directory per writer, so "no run file left behind" is a plain
   listing check. *)
let with_tmp_dir f =
  let dir = Filename.temp_file "anyseq_test_edges" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let run_files dir =
  List.filter
    (String.starts_with ~prefix:"anyseq-net-run-")
    (Array.to_list (Sys.readdir dir))

let no_runs_left what dir =
  match run_files dir with
  | [] -> ()
  | f :: _ -> Alcotest.failf "%s: run file %s not cleaned up" what f

let edge_name = Printf.sprintf "n%d"

(* Writes [adds] through a writer with the given buffer; returns the TSV
   bytes, the hook sequence and the stats. *)
let merge_edges ~buffer dir adds =
  let w = Edges.create ~buffer ~tmp_dir:dir () in
  List.iter (Edges.add w) adds;
  let out = Filename.concat dir "edges.tsv" in
  let seen = ref [] in
  let stats =
    match Edges.finish w ~out ~name:edge_name ~f:(fun e -> seen := e :: !seen) with
    | Ok st -> st
    | Error msg -> Alcotest.failf "finish at buffer %d: %s" buffer msg
  in
  no_runs_left (Printf.sprintf "buffer %d" buffer) dir;
  let tsv = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (tsv, List.rev !seen, stats)

(* The reference: keep the first added record of each (a, b) key, sort by
   key, print with Printf. *)
let reference_tsv adds =
  let kept =
    List.fold_left
      (fun acc e ->
        if List.exists (fun k -> k.Edges.a = e.Edges.a && k.Edges.b = e.Edges.b) acc then acc
        else e :: acc)
      [] adds
  in
  let edges =
    List.sort_uniq (fun x y -> compare (x.Edges.a, x.Edges.b) (y.Edges.a, y.Edges.b)) kept
  in
  ( String.concat ""
      (List.map
         (fun e ->
           Printf.sprintf "%s\t%s\t%.2f\t%d\t%d\n" (edge_name e.Edges.a) (edge_name e.Edges.b)
             (100.0 *. e.Edges.ident) e.Edges.span e.Edges.score)
         edges),
    edges )

let merge_buffers = [ 1; 2; 3; 8; 65536 ]

(* Every buffer size must give the reference TSV bytes and hook sequence,
   and the run count the buffer implies. *)
let check_against_reference adds =
  let ref_tsv, ref_edges = reference_tsv adds in
  let n = List.length adds in
  List.for_all
    (fun buffer ->
      with_tmp_dir (fun dir ->
          let tsv, seen, st = merge_edges ~buffer dir adds in
          let ok =
            tsv = ref_tsv && seen = ref_edges
            && st.Edges.written = List.length ref_edges
            && st.Edges.duplicates = n - List.length ref_edges
            && st.Edges.spilled_runs = (if n = 0 then 0 else (n - 1) / buffer)
          in
          if not ok then
            QCheck2.Test.fail_reportf "buffer %d: %d adds, %d edges written, TSV %s" buffer n
              st.Edges.written
              (if tsv = ref_tsv then "equal" else "differs");
          ok))
    merge_buffers

(* identities whose percent sits on or next to a %.2f rounding boundary *)
let boundary_idents = [| 0.0; 1.0; 0.005; 0.125; 0.995; 0.00005; 0.00125; 0.33335; 0.99995 |]

(* Edges with distinct (a, b) keys. Indices sit near one base (0, just
   above 2^31, 2^40) or, half the time, near all three, which puts the
   run's key range far beyond its length; scores take either sign. *)
let random_edges rng =
  let bases = [| 0; (1 lsl 31) + 3; 1 lsl 40 |] in
  let spread = Rng.bool rng in
  let base = bases.(Rng.int rng 3) in
  let keys = Hashtbl.create 64 in
  List.filter_map
    (fun _ ->
      let base = if spread then bases.(Rng.int rng 3) else base in
      let a = base + Rng.int rng 16 in
      let b = a + 1 + Rng.int rng 16 in
      if Hashtbl.mem keys (a, b) then None
      else begin
        Hashtbl.add keys (a, b) ();
        let ident =
          if Rng.bool rng then boundary_idents.(Rng.int rng (Array.length boundary_idents))
          else Rng.float rng 1.0
        in
        Some { Edges.a; b; score = Rng.int rng 2001 - 1000; ident; span = 1 + Rng.int rng 500 }
      end)
    (List.init (Rng.int rng 80) Fun.id)

let shuffled rng l =
  let arr = Array.of_list l in
  Rng.shuffle rng arr;
  Array.to_list arr

let prop_edges_buffer_invariant =
  Helpers.qtest ~count:100 "TSV and hooks independent of buffer, every edge twice"
    Helpers.seeded_rng_gen (fun rng ->
      let edges = random_edges rng in
      check_against_reference (shuffled rng (edges @ edges)))

let prop_edges_first_added_wins =
  Helpers.qtest ~count:100 "duplicate keys keep the first added record" Helpers.seeded_rng_gen
    (fun rng ->
      let edges = random_edges rng in
      let reweighed =
        List.map (fun e -> { e with Edges.score = e.Edges.score + 1 + Rng.int rng 9 }) edges
      in
      check_against_reference (shuffled rng (edges @ reweighed)))

let test_edges_spill_merge () =
  with_tmp_dir (fun dir ->
      (* tiny buffer: force several spill runs; add each edge twice (the
         pipeline records from both endpoints) in scrambled order *)
      let edges =
        List.init 30 (fun i ->
            { Edges.a = i mod 6; b = 6 + (i mod 24); score = 100 - i; ident = 0.75; span = 50 + i })
      in
      let _, seen, st = merge_edges ~buffer:8 dir (List.rev edges @ edges) in
      let distinct =
        List.sort_uniq compare (List.map (fun e -> (e.Edges.a, e.Edges.b)) edges)
      in
      Alcotest.(check int) "duplicates merged" (List.length distinct) st.Edges.written;
      Alcotest.(check int) "duplicate count" (2 * List.length edges - List.length distinct)
        st.Edges.duplicates;
      Alcotest.(check int) "spilled runs reported" 7 st.Edges.spilled_runs;
      Alcotest.(check (list (pair int int))) "hook order sorted" distinct
        (List.map (fun e -> (e.Edges.a, e.Edges.b)) seen))

(* A writer over 20 edges at buffer 4: four runs spilled, four edges
   still buffered, not finished. *)
let spilled_writer dir =
  let w = Edges.create ~buffer:4 ~tmp_dir:dir () in
  for i = 0 to 19 do
    Edges.add w { Edges.a = i mod 5; b = 5 + i; score = i; ident = 0.5; span = 10 }
  done;
  if Edges.runs w <> 4 || List.length (run_files dir) <> 4 then
    Alcotest.fail "expected four run files";
  w

(* [spilled_writer] uses node indices 0..24; like the pipeline's name
   table, this [name] rejects any other index. *)
let spilled_name i =
  if i < 0 || i > 24 then invalid_arg "node index out of range" else edge_name i

let finish_to_dir w dir = Edges.finish w ~out:(Filename.concat dir "out.tsv") ~name:spilled_name

let no_out_left what dir =
  if Sys.file_exists (Filename.concat dir "out.tsv") then Alcotest.failf "%s: partial TSV left" what

let with_file path f =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let test_edges_corrupt_run () =
  let size path = (Unix.stat path).Unix.st_size in
  let corruptions =
    [
      ("cut mid-record", fun path -> Unix.truncate path (size path - 17));
      ("cut at a record boundary", fun path -> Unix.truncate path (size path - 40));
      ("emptied", fun path -> Unix.truncate path 0);
      ( "trailing bytes",
        fun path ->
          Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 path (fun oc ->
              Out_channel.output_string oc "x") );
      ( "a >= b",
        fun path ->
          with_file path (fun fd ->
              ignore (Unix.write_substring fd "\xff\xff\xff\xff\xff\xff\xff\x3f" 0 8)) );
      (* the last record of the second run is (4, 9) after (2, 12): b =
         1000 keeps it in order but names no node the run was given *)
      ( "index out of range",
        fun path ->
          with_file path (fun fd ->
              ignore (Unix.lseek fd ((3 * 40) + 8) Unix.SEEK_SET);
              ignore (Unix.write_substring fd "\xe8\x03\x00\x00\x00\x00\x00\x00" 0 8)) );
      ("missing", Sys.remove);
    ]
  in
  List.iter
    (fun (what, corrupt) ->
      with_tmp_dir (fun dir ->
          let w = spilled_writer dir in
          corrupt (Filename.concat dir (List.nth (List.sort compare (run_files dir)) 1));
          (match finish_to_dir w dir ~f:ignore with
          | Ok _ -> Alcotest.failf "%s: corrupt run merged" what
          | Error _ -> ()
          | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
          no_runs_left what dir;
          no_out_left what dir))
    corruptions

(* Random truncations, byte flips and appended bytes: [finish] answers
   Ok or Error, never raises, and always deletes its runs. [name] rejects
   indices the writer was not given, so a flip that moves an index out
   of range has to come back as an Error. *)
let prop_edges_run_fuzz =
  Helpers.qtest ~count:100 "mutated runs: Ok or Error, no exception, no run left"
    Helpers.seeded_rng_gen (fun rng ->
      with_tmp_dir (fun dir ->
          let w = spilled_writer dir in
          let runs = Array.of_list (run_files dir) in
          let path = Filename.concat dir runs.(Rng.int rng (Array.length runs)) in
          let len = (Unix.stat path).Unix.st_size in
          (match Rng.int rng 3 with
          | 0 -> Unix.truncate path (Rng.int rng len)
          | 1 ->
              with_file path (fun fd ->
                  ignore (Unix.lseek fd (Rng.int rng len) Unix.SEEK_SET);
                  ignore
                    (Unix.write_substring fd (String.make 1 (Char.chr (Rng.int rng 256))) 0 1))
          | _ ->
              Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 path (fun oc ->
                  Out_channel.output_string oc (String.make (1 + Rng.int rng 80) 'z')));
          (match finish_to_dir w dir ~f:ignore with
          | Ok _ | Error _ -> ()
          | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e));
          run_files dir = []))

let test_edges_hook_raises () =
  with_tmp_dir (fun dir ->
      let w = spilled_writer dir in
      let calls = ref 0 in
      Alcotest.check_raises "hook exception propagates" Exit (fun () ->
          ignore
            (finish_to_dir w dir ~f:(fun _ ->
                 incr calls;
                 if !calls = 3 then raise Exit)));
      no_runs_left "after a raising hook" dir;
      no_out_left "after a raising hook" dir;
      Alcotest.check_raises "writer spent" (Invalid_argument "Edges.finish: writer already finished")
        (fun () -> ignore (finish_to_dir w dir ~f:ignore)))

let test_edges_discard () =
  with_tmp_dir (fun dir ->
      let w = spilled_writer dir in
      Edges.discard w;
      no_runs_left "after discard" dir;
      Edges.discard w;
      Alcotest.check_raises "writer spent" (Invalid_argument "Edges.add: writer already finished")
        (fun () -> Edges.add w { Edges.a = 0; b = 1; score = 0; ident = 0.5; span = 10 }))

let test_edges_spill_failure () =
  with_tmp_dir (fun dir ->
      let w = Edges.create ~buffer:2 ~tmp_dir:dir () in
      let e i = { Edges.a = 0; b = 1 + i; score = i; ident = 0.5; span = 10 } in
      List.iter (fun i -> Edges.add w (e i)) [ 0; 1; 2 ];
      Alcotest.(check int) "first run spilled" 1 (List.length (run_files dir));
      (* a directory where the second run file goes makes that spill fail *)
      let squat = Filename.concat dir (Printf.sprintf "anyseq-net-run-%d-1.bin" (Unix.getpid ())) in
      Sys.mkdir squat 0o700;
      Fun.protect
        ~finally:(fun () -> Sys.rmdir squat)
        (fun () ->
          Edges.add w (e 3);
          (match Edges.add w (e 4) with
          | () -> Alcotest.fail "spill into a directory succeeded"
          | exception Sys_error _ -> ());
          Alcotest.(check (list string)) "earlier run deleted" [ Filename.basename squat ]
            (run_files dir);
          Alcotest.check_raises "writer spent" (Invalid_argument "Edges.add: writer already finished")
            (fun () -> Edges.add w (e 5))))

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let c = Components.create 10 in
  Components.union c 0 1;
  Components.union c 1 2;
  Components.union c 5 6;
  Components.union c 0 2 (* redundant union: same component *);
  let s = Components.summarize c in
  Alcotest.(check int) "nodes" 10 s.Components.nodes;
  Alcotest.(check int) "edges" 4 s.Components.edges;
  Alcotest.(check int) "components" 7 s.Components.components;
  Alcotest.(check int) "clusters" 2 s.Components.clusters;
  Alcotest.(check int) "singletons" 5 s.Components.singletons;
  Alcotest.(check int) "largest" 3 s.Components.largest;
  (* representative is the smallest member; sizes desc then rep asc *)
  Alcotest.(check bool) "size table" true
    (Array.to_list s.Components.sizes
    |> List.filter (fun (_, n) -> n > 1)
    |> ( = ) [ (0, 3); (5, 2) ]);
  Alcotest.(check bool) "histogram" true
    (List.mem (1, 5) (Components.size_histogram s))

(* ------------------------------------------------------------------ *)
(* Pipeline end to end                                                 *)
(* ------------------------------------------------------------------ *)

let chain_families rng ~families ~members ~len =
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let out = Array.make (families * members) ("", seq "A") in
  for f = 0 to families - 1 do
    let prev = ref (Genome_gen.generate rng ~len ()) in
    for m = 0 to members - 1 do
      if m > 0 then prev := Genome_gen.mutate rng ~divergence:div !prev;
      out.((f * members) + m) <- (Printf.sprintf "fam%d_%02d" f m, !prev)
    done
  done;
  out

let star_families rng ~families ~members ~len =
  (* star shape: every member a light mutation of the family root, so all
     within-family pairs stay well above the identity cutoff while
     cross-family pairs stay far below — the regime where the prefilter
     and brute force must agree exactly *)
  let div = { Genome_gen.snp_rate = 0.02; indel_rate = 0.002; indel_mean_len = 2.0 } in
  let out = Array.make (families * members) ("", seq "A") in
  for f = 0 to families - 1 do
    let root = Genome_gen.generate rng ~len () in
    for m = 0 to members - 1 do
      let s = if m = 0 then root else Genome_gen.mutate rng ~divergence:div root in
      out.((f * members) + m) <- (Printf.sprintf "s%03d" ((f * members) + m), s)
    done
  done;
  out

let read_all path = In_channel.with_open_text path In_channel.input_lines

let test_pipeline_end_to_end () =
  let rng = Rng.create ~seed:21 in
  let seqs = star_families rng ~families:4 ~members:12 ~len:160 in
  let params =
    { Pipeline.default_params with
      scheme = Scheme.unit_cost; min_shared = 3; min_ident = 0.7; top_k = 16 }
  in
  let out = Filename.temp_file "anyseq_test_net" ".tsv" in
  let ref_out = Filename.temp_file "anyseq_test_net_ref" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove ref_out)
    (fun () ->
      let r =
        match Pipeline.run ~out params (Pipeline.Seqs seqs) with
        | Ok r -> r
        | Error msg -> Alcotest.failf "pipeline: %s" msg
      in
      Alcotest.(check int) "sequences" (Array.length seqs) r.Pipeline.sequences;
      Alcotest.(check int) "pair accounting adds up" r.Pipeline.pairs_total
        (r.Pipeline.pairs_pruned + r.Pipeline.pairs_aligned + r.Pipeline.pairs_cutoff
        + r.Pipeline.pairs_timeout + r.Pipeline.pairs_failed);
      Alcotest.(check int) "no failures" 0 r.Pipeline.pairs_failed;
      Alcotest.(check bool) "prefilter pruned something" true (r.Pipeline.pairs_pruned > 0);
      Alcotest.(check bool) "edges found" true (r.Pipeline.edges > 0);
      Alcotest.(check int) "four clusters" 4 r.Pipeline.components.Components.clusters;
      (* brute-force reference: same cutoffs, prefilter disabled *)
      let rr =
        match
          Pipeline.run ~out:ref_out { params with min_shared = 0 } (Pipeline.Seqs seqs)
        with
        | Ok r -> r
        | Error msg -> Alcotest.failf "reference: %s" msg
      in
      Alcotest.(check int) "reference pruned nothing" 0 rr.Pipeline.pairs_pruned;
      (* the chain decays identity, so distant within-family pairs fail the
         identity cutoff either way: the prefiltered edge list must equal
         the brute-force one byte for byte *)
      Alcotest.(check bool) "edge list matches brute force" true
        (read_all out = read_all ref_out))

let test_pipeline_too_short_and_statusz () =
  let rng = Rng.create ~seed:22 in
  let m = Anyseq_runtime.Metrics.create () in
  Alcotest.(check bool) "no status before a run" true (Pipeline.status_json m = None);
  let seqs =
    Array.append
      [| ("tiny1", seq "ACGT"); ("tiny2", seq "AC") |]
      (chain_families rng ~families:2 ~members:6 ~len:140)
  in
  let out = Filename.temp_file "anyseq_test_net" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let r =
        match
          Pipeline.run ~metrics:m ~out
            { Pipeline.default_params with scheme = Scheme.unit_cost; min_shared = 3 }
            (Pipeline.Seqs seqs)
        with
        | Ok r -> r
        | Error msg -> Alcotest.failf "pipeline: %s" msg
      in
      Alcotest.(check int) "short sequences counted" 2 r.Pipeline.too_short;
      Alcotest.(check int) "still clustered as singletons" 2
        r.Pipeline.components.Components.singletons;
      match Pipeline.status_json m with
      | None -> Alcotest.fail "status_json expected after a run"
      | Some json ->
          Alcotest.(check string) "phase present" "done" (Anyseq_util.Jsonv.str "phase" json);
          Alcotest.(check (float 0.0)) "seqs_indexed present" 14.0
            (Anyseq_util.Jsonv.num "seqs_indexed" json))

let test_pipeline_bad_input () =
  let out = Filename.temp_file "anyseq_test_net" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      match Pipeline.run ~out Pipeline.default_params (Pipeline.File "/nonexistent.fa") with
      | Ok _ -> Alcotest.fail "expected error on missing input"
      | Error _ -> ())

let () =
  Alcotest.run "network"
    [
      ( "minimizer",
        [
          Alcotest.test_case "shorter than k" `Quick test_minimizer_short;
          Alcotest.test_case "homopolymer" `Quick test_minimizer_homopolymer;
          Alcotest.test_case "duplicates" `Quick test_minimizer_duplicates;
          Alcotest.test_case "sorted distinct" `Quick test_minimizer_sorted_distinct;
          Alcotest.test_case "validation" `Quick test_minimizer_validation;
        ] );
      ( "index",
        [
          Alcotest.test_case "matches pairwise shared" `Quick test_index_matches_pairwise;
          Alcotest.test_case "brute-force mode" `Quick test_index_brute_force_mode;
        ] );
      ("topk", [ Alcotest.test_case "order independent" `Quick test_topk_order_independent ]);
      ( "edges",
        [
          Alcotest.test_case "spill and merge" `Quick test_edges_spill_merge;
          prop_edges_buffer_invariant;
          prop_edges_first_added_wins;
          Alcotest.test_case "corrupt run is an Error" `Quick test_edges_corrupt_run;
          prop_edges_run_fuzz;
          Alcotest.test_case "raising hook cleans up" `Quick test_edges_hook_raises;
          Alcotest.test_case "failed spill cleans up" `Quick test_edges_spill_failure;
          Alcotest.test_case "discard cleans up" `Quick test_edges_discard;
        ] );
      ("components", [ Alcotest.test_case "summary" `Quick test_components ]);
      ( "pipeline",
        [
          Alcotest.test_case "end to end vs brute force" `Quick test_pipeline_end_to_end;
          Alcotest.test_case "short sequences and status" `Quick test_pipeline_too_short_and_statusz;
          Alcotest.test_case "bad input" `Quick test_pipeline_bad_input;
        ] );
    ]
