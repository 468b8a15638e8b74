module Fasta = Anyseq_seqio.Fasta
module Fastq = Anyseq_seqio.Fastq
module Genome_gen = Anyseq_seqio.Genome_gen
module Read_sim = Anyseq_seqio.Read_sim
module Alphabet = Anyseq_bio.Alphabet
module Sequence = Anyseq_bio.Sequence
module Rng = Anyseq_util.Rng

(* ------------------------------------------------------------------ *)
(* FASTA                                                               *)
(* ------------------------------------------------------------------ *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let expect_error what result fragment =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected parse error" what
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s (got %s)" what fragment msg)
        true (Helpers.contains_sub msg fragment)

let test_fasta_basic () =
  let text = ">seq1 first sequence\nACGT\nACGT\n>seq2\nTTTT\n" in
  let records = ok (Fasta.parse_string Alphabet.dna4 text) in
  Alcotest.(check int) "two records" 2 (List.length records);
  let r1 = List.nth records 0 in
  Alcotest.(check string) "id" "seq1" r1.Fasta.id;
  Alcotest.(check string) "description" "first sequence" r1.Fasta.description;
  Alcotest.(check string) "wrapped sequence joined" "ACGTACGT"
    (Sequence.to_string r1.Fasta.sequence);
  Alcotest.(check string) "second" "TTTT"
    (Sequence.to_string (List.nth records 1).Fasta.sequence)

let test_fasta_comments_blanks () =
  let text = ";comment\n\n>s\n\nAC\n;mid comment\nGT\n\n" in
  let records = ok (Fasta.parse_string Alphabet.dna4 text) in
  Alcotest.(check string) "sequence" "ACGT"
    (Sequence.to_string (List.hd records).Fasta.sequence)

let test_fasta_errors () =
  expect_error "data before header" (Fasta.parse_string Alphabet.dna4 "ACGT\n") "before any";
  expect_error "empty record" (Fasta.parse_string Alphabet.dna4 ">a\n>b\nAC\n") "no sequence";
  expect_error "bad char" (Fasta.parse_string Alphabet.dna4 ">a\nACXT\n") "not in alphabet";
  expect_error "empty id" (Fasta.parse_string Alphabet.dna4 "> desc only\nAC\n") "empty id"

(* Files written on Windows (CRLF) and files whose last record lacks a
   trailing newline must parse identically to their clean LF form. *)
let test_fasta_crlf () =
  let lf = ">seq1 first sequence\nACGT\nACGT\n>seq2\nTTTT\n" in
  let crlf = ">seq1 first sequence\r\nACGT\r\nACGT\r\n>seq2\r\nTTTT\r\n" in
  let a = ok (Fasta.parse_string Alphabet.dna4 lf) in
  let b = ok (Fasta.parse_string Alphabet.dna4 crlf) in
  Alcotest.(check int) "same record count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      Alcotest.(check string) "id" x.Fasta.id y.Fasta.id;
      Alcotest.(check string) "description" x.Fasta.description y.Fasta.description;
      Alcotest.(check string) "sequence"
        (Sequence.to_string x.Fasta.sequence)
        (Sequence.to_string y.Fasta.sequence))
    a b

let test_fasta_no_final_newline () =
  List.iter
    (fun text ->
      let records = ok (Fasta.parse_string Alphabet.dna4 text) in
      Alcotest.(check int) "two records" 2 (List.length records);
      Alcotest.(check string) "last sequence intact" "TTTT"
        (Sequence.to_string (List.nth records 1).Fasta.sequence))
    [ ">a\nACGT\n>b\nTT\nTT"; ">a\r\nACGT\r\n>b\r\nTT\r\nTT" ]

let test_fasta_roundtrip () =
  let rng = Rng.create ~seed:4 in
  let records =
    List.init 5 (fun i ->
        {
          Fasta.id = Printf.sprintf "record%d" i;
          description = (if i mod 2 = 0 then "with description" else "");
          sequence = Sequence.random rng Alphabet.dna4 ~len:(50 + (i * 37));
        })
  in
  let parsed = ok (Fasta.parse_string Alphabet.dna4 (Fasta.to_string ~width:13 records)) in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "id" a.Fasta.id b.Fasta.id;
      Alcotest.(check bool) "sequence" true (Sequence.equal a.Fasta.sequence b.Fasta.sequence))
    records parsed

let test_fasta_file_io () =
  let path = Filename.temp_file "anyseq_test" ".fa" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let records =
        [ { Fasta.id = "x"; description = "d"; sequence = Sequence.of_string Alphabet.dna4 "ACGTA" } ]
      in
      Fasta.write_file path records;
      let back = ok (Fasta.read_file Alphabet.dna4 path) in
      Alcotest.(check string) "roundtrip" "ACGTA"
        (Sequence.to_string (List.hd back).Fasta.sequence));
  match Fasta.read_file Alphabet.dna4 "/nonexistent/path.fa" with
  | Ok _ -> Alcotest.fail "expected file error"
  | Error _ -> ()

(* The streaming fold must see exactly the records read_file returns, in
   file order, without holding the file in memory. *)
let test_fasta_fold () =
  let path = Filename.temp_file "anyseq_test" ".fa" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let records =
        List.init 32 (fun i ->
            {
              Fasta.id = Printf.sprintf "s%02d" i;
              description = (if i mod 3 = 0 then "desc" else "");
              sequence =
                Sequence.of_string Alphabet.dna4
                  (String.init (5 + (i mod 11)) (fun j -> "ACGT".[(i + j) mod 4]));
            })
      in
      Fasta.write_file path records;
      let folded =
        match
          Fasta.fold Alphabet.dna4 path ~init:[] ~f:(fun acc r -> r :: acc)
        with
        | Ok acc -> List.rev acc
        | Error msg -> Alcotest.failf "fold failed: %s" msg
      in
      let direct = ok (Fasta.read_file Alphabet.dna4 path) in
      Alcotest.(check int) "same count" (List.length direct) (List.length folded);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "id" a.Fasta.id b.Fasta.id;
          Alcotest.(check string) "description" a.Fasta.description b.Fasta.description;
          Alcotest.(check bool) "sequence" true
            (Sequence.equal a.Fasta.sequence b.Fasta.sequence))
        direct folded;
      (* fold over the count only: the accumulator is caller-defined *)
      match Fasta.fold Alphabet.dna4 path ~init:0 ~f:(fun n _ -> n + 1) with
      | Ok n -> Alcotest.(check int) "counting fold" (List.length direct) n
      | Error msg -> Alcotest.failf "counting fold failed: %s" msg)

let test_fasta_fold_errors () =
  (match Fasta.fold Alphabet.dna4 "/nonexistent/path.fa" ~init:() ~f:(fun () _ -> ()) with
  | Ok () -> Alcotest.fail "expected file error"
  | Error _ -> ());
  let path = Filename.temp_file "anyseq_test" ".fa" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc ">good\nACGT\n>bad\nACXT\n";
      close_out oc;
      (* the error surfaces as a Result, after earlier records were seen *)
      let seen = ref [] in
      match Fasta.fold Alphabet.dna4 path ~init:() ~f:(fun () r -> seen := r.Fasta.id :: !seen) with
      | Ok () -> Alcotest.fail "expected parse error"
      | Error msg ->
          Alcotest.(check bool) "mentions alphabet" true
            (Helpers.contains_sub msg "not in alphabet");
          Alcotest.(check (list string)) "good record was streamed first" [ "good" ] !seen)

(* ------------------------------------------------------------------ *)
(* FASTQ                                                               *)
(* ------------------------------------------------------------------ *)

let test_fastq_basic () =
  let text = "@read1 extra\nACGT\n+\nIIII\n@read2\nTT\n+read2\n!~\n" in
  let records = ok (Fastq.parse_string Alphabet.dna4 text) in
  Alcotest.(check int) "two records" 2 (List.length records);
  let r = List.hd records in
  Alcotest.(check string) "id stops at space" "read1" r.Fastq.id;
  Alcotest.(check string) "quality" "IIII" r.Fastq.quality

let test_fastq_errors () =
  expect_error "truncated" (Fastq.parse_string Alphabet.dna4 "@a\nAC\n+\n") "multiple of 4";
  expect_error "missing at" (Fastq.parse_string Alphabet.dna4 "a\nAC\n+\nII\n") "'@'";
  expect_error "missing plus" (Fastq.parse_string Alphabet.dna4 "@a\nAC\nII\nII\n") "'+'";
  expect_error "length mismatch" (Fastq.parse_string Alphabet.dna4 "@a\nACG\n+\nII\n") "length"

let test_fastq_phred () =
  Alcotest.(check int) "! is 0" 0 (Fastq.phred_of_char '!');
  Alcotest.(check char) "40" 'I' (Fastq.char_of_phred 40);
  Alcotest.(check (float 1e-9)) "q10" 0.1 (Fastq.error_probability 10);
  Alcotest.check_raises "range" (Invalid_argument "Fastq.char_of_phred: outside 0..93")
    (fun () -> ignore (Fastq.char_of_phred 94))

let test_fastq_crlf () =
  let lf = "@read1 extra\nACGT\n+\nIIII\n@read2\nTT\n+read2\n!~\n" in
  let crlf = "@read1 extra\r\nACGT\r\n+\r\nIIII\r\n@read2\r\nTT\r\n+read2\r\n!~\r\n" in
  let a = ok (Fastq.parse_string Alphabet.dna4 lf) in
  let b = ok (Fastq.parse_string Alphabet.dna4 crlf) in
  Alcotest.(check int) "same record count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      Alcotest.(check string) "id" x.Fastq.id y.Fastq.id;
      Alcotest.(check string) "quality" x.Fastq.quality y.Fastq.quality;
      Alcotest.(check string) "sequence"
        (Sequence.to_string x.Fastq.sequence)
        (Sequence.to_string y.Fastq.sequence))
    a b

let test_fastq_no_final_newline () =
  List.iter
    (fun text ->
      let records = ok (Fastq.parse_string Alphabet.dna4 text) in
      Alcotest.(check int) "one record" 1 (List.length records);
      let r = List.hd records in
      Alcotest.(check string) "sequence" "ACGT" (Sequence.to_string r.Fastq.sequence);
      Alcotest.(check string) "quality intact" "IIII" r.Fastq.quality)
    [ "@r\nACGT\n+\nIIII"; "@r\r\nACGT\r\n+\r\nIIII" ]

let test_fastq_roundtrip () =
  let records =
    [
      { Fastq.id = "r0"; sequence = Sequence.of_string Alphabet.dna4 "ACGT"; quality = "IIII" };
      { Fastq.id = "r1"; sequence = Sequence.of_string Alphabet.dna4 "TT"; quality = "!#" };
    ]
  in
  let parsed = ok (Fastq.parse_string Alphabet.dna4 (Fastq.to_string records)) in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "id" a.Fastq.id b.Fastq.id;
      Alcotest.(check string) "quality" a.Fastq.quality b.Fastq.quality)
    records parsed

(* ------------------------------------------------------------------ *)
(* Mutation fuzz                                                       *)
(* ------------------------------------------------------------------ *)

(* A valid document to mutate: a few FASTA records with wrapped lines and
   an optional description, or FASTQ records, LF or CRLF throughout. *)
let fuzz_document rng ~fastq =
  let bases n = String.init n (fun _ -> "ACGTN".[Rng.int rng 5]) in
  let b = Buffer.create 256 in
  let eol = if Rng.int rng 4 = 0 then "\r\n" else "\n" in
  for i = 0 to Rng.int rng 4 do
    let len = Rng.int rng 40 in
    if fastq then begin
      Printf.bprintf b "@r%d%s%s%s+%s%s%s" i eol (bases len) eol eol
        (String.init len (fun _ -> Char.chr (33 + Rng.int rng 41)))
        eol
    end
    else begin
      Printf.bprintf b ">s%d%s%s" i (if Rng.bool rng then " some description" else "") eol;
      let seq = bases len in
      let width = 1 + Rng.int rng 20 in
      let rec lines at =
        if at < len then begin
          Buffer.add_string b (String.sub seq at (min width (len - at)));
          Buffer.add_string b eol;
          lines (at + width)
        end
      in
      lines 0
    end
  done;
  Buffer.contents b

(* Bytes a mutation writes: the format's own punctuation, CR, and bytes
   of 128 or more, as often as arbitrary ones. *)
let fuzz_byte rng =
  match Rng.int rng 4 with
  | 0 ->
      let punct = "\r\n>@+ \tAN" in
      punct.[Rng.int rng (String.length punct)]
  | 1 -> Char.chr (128 + Rng.int rng 128)
  | _ -> Char.chr (Rng.int rng 256)

(* One to five flips, inserts, deletes or truncations. *)
let mutate_document rng doc =
  let s = ref doc in
  for _ = 0 to Rng.int rng 5 do
    let d = !s in
    let n = String.length d in
    let byte () = String.make 1 (fuzz_byte rng) in
    s :=
      match Rng.int rng 4 with
      | 0 when n > 0 ->
          let at = Rng.int rng n in
          String.sub d 0 at ^ byte () ^ String.sub d (at + 1) (n - at - 1)
      | 1 ->
          let at = Rng.int rng (n + 1) in
          String.sub d 0 at ^ byte () ^ String.sub d at (n - at)
      | 2 when n > 0 ->
          let at = Rng.int rng n in
          String.sub d 0 at ^ String.sub d (at + 1) (n - at - 1)
      | _ -> String.sub d 0 (Rng.int rng (n + 1))
  done;
  !s

let no_exception what f =
  match f () with
  | Ok _ | Error _ -> true
  | exception e -> QCheck2.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

(* Mutated FASTA and FASTQ documents: [Fasta.parse_string], [Fasta.fold]
   over the same bytes in a file, and [Fastq.parse_string] answer Ok or
   Error and never raise. *)
let seqio_mutation_fuzz =
  let path = Filename.temp_file "anyseq_fuzz" ".fa" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Helpers.qtest ~count:2000 "mutated FASTA/FASTQ: Ok or Error, no exception"
    Helpers.seeded_rng_gen (fun rng ->
      let fasta = mutate_document rng (fuzz_document rng ~fastq:false) in
      let fastq = mutate_document rng (fuzz_document rng ~fastq:true) in
      let alphabet = if Rng.bool rng then Alphabet.dna5 else Alphabet.dna4 in
      Out_channel.with_open_bin path (fun oc -> output_string oc fasta);
      no_exception "Fasta.parse_string" (fun () -> Fasta.parse_string alphabet fasta)
      && no_exception "Fasta.fold" (fun () ->
             Fasta.fold alphabet path ~init:0 ~f:(fun n _ -> n + 1))
      && no_exception "Fastq.parse_string" (fun () -> Fastq.parse_string alphabet fastq))

(* ------------------------------------------------------------------ *)
(* Genome generation                                                   *)
(* ------------------------------------------------------------------ *)

let test_genome_length_and_alphabet () =
  let rng = Rng.create ~seed:9 in
  let g = Genome_gen.generate rng ~len:5000 () in
  Alcotest.(check int) "length" 5000 (Sequence.length g);
  Alcotest.(check string) "alphabet" "dna4" (Alphabet.name (Sequence.alphabet g))

let gc_fraction g =
  let gc = ref 0 in
  for i = 0 to Sequence.length g - 1 do
    let c = Sequence.get g i in
    if c = 1 || c = 2 then incr gc
  done;
  float_of_int !gc /. float_of_int (Sequence.length g)

let test_genome_gc_content () =
  let rng = Rng.create ~seed:10 in
  let profile = { Genome_gen.default_profile with gc_content = 0.6; repeat_fraction = 0.0 } in
  let g = Genome_gen.generate rng ~profile ~len:40_000 () in
  let gc = gc_fraction g in
  Alcotest.(check bool) (Printf.sprintf "gc near 0.6 (got %.3f)" gc) true
    (Float.abs (gc -. 0.6) < 0.02)

let test_genome_validation () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "negative length"
    (Invalid_argument "Genome_gen.generate: negative length") (fun () ->
      ignore (Genome_gen.generate rng ~len:(-1) ()));
  Alcotest.check_raises "bad gc" (Invalid_argument "Genome_gen.generate: gc_content must be in (0,1)")
    (fun () ->
      ignore
        (Genome_gen.generate rng
           ~profile:{ Genome_gen.default_profile with gc_content = 1.5 }
           ~len:10 ()))

let test_mutate_divergence () =
  let rng = Rng.create ~seed:11 in
  let g = Genome_gen.generate rng ~len:20_000 () in
  let m =
    Genome_gen.mutate rng
      ~divergence:{ snp_rate = 0.05; indel_rate = 0.0; indel_mean_len = 1.0 }
      g
  in
  Alcotest.(check int) "no indels, same length" (Sequence.length g) (Sequence.length m);
  let diffs = ref 0 in
  for i = 0 to Sequence.length g - 1 do
    if Sequence.get g i <> Sequence.get m i then incr diffs
  done;
  let rate = float_of_int !diffs /. float_of_int (Sequence.length g) in
  Alcotest.(check bool) (Printf.sprintf "snp rate near 0.05 (got %.4f)" rate) true
    (Float.abs (rate -. 0.05) < 0.01)

let test_mutate_identity () =
  let rng = Rng.create ~seed:12 in
  let g = Genome_gen.generate rng ~len:1000 () in
  let m =
    Genome_gen.mutate rng
      ~divergence:{ snp_rate = 0.0; indel_rate = 0.0; indel_mean_len = 1.0 }
      g
  in
  Alcotest.(check bool) "zero divergence copies" true (Sequence.equal g m)

let test_benchmark_pairs () =
  let pairs = Genome_gen.benchmark_pairs ~seed:3 ~scale:0.01 in
  Alcotest.(check int) "three pairs" 3 (List.length pairs);
  List.iter
    (fun p ->
      let n = Sequence.length p.Genome_gen.query in
      let m = Sequence.length p.Genome_gen.subject in
      Alcotest.(check bool) "non-trivial" true (n >= 64);
      Alcotest.(check bool)
        (Printf.sprintf "%s roughly similar lengths (%d vs %d)" p.Genome_gen.name n m)
        true
        (Float.abs (float_of_int (n - m)) /. float_of_int n < 0.1))
    pairs;
  (* determinism *)
  let again = Genome_gen.benchmark_pairs ~seed:3 ~scale:0.01 in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "deterministic" true
        (Sequence.equal a.Genome_gen.query b.Genome_gen.query))
    pairs again

(* ------------------------------------------------------------------ *)
(* SAM                                                                 *)
(* ------------------------------------------------------------------ *)

module Sam = Anyseq_seqio.Sam
module Cigar = Anyseq_bio.Cigar

let test_sam_header () =
  let h = Sam.header ~references:[ ("chr1", 1000); ("chr2", 500) ] in
  Alcotest.(check bool) "HD line" true (Helpers.contains_sub h "@HD\tVN:1.6");
  Alcotest.(check bool) "SQ line" true (Helpers.contains_sub h "@SQ\tSN:chr2\tLN:500")

let test_sam_record () =
  let seq = Sequence.of_string Alphabet.dna4 "ACGT" in
  let r =
    Sam.mapped ~qname:"read1" ~rname:"chr1" ~pos:9 ~mapq:60 ~cigar:(Cigar.of_string "4=")
      ~seq ~qual:"IIII" ()
  in
  let line = Sam.record_to_string r in
  Alcotest.(check string) "mandatory fields" "read1\t0\tchr1\t10\t60\t4=\t*\t0\t0\tACGT\tIIII" line;
  let rev =
    Sam.mapped ~qname:"r2" ~rname:"chr1" ~pos:0 ~reverse:true ~cigar:(Cigar.of_string "2=")
      ~seq:(Sequence.of_string Alphabet.dna4 "AC") ()
  in
  Alcotest.(check bool) "reverse flag" true (Helpers.contains_sub (Sam.record_to_string rev) "\t16\t")

let test_sam_unmapped () =
  let r = Sam.unmapped ~qname:"lost" ~seq:(Sequence.of_string Alphabet.dna4 "AC") () in
  let line = Sam.record_to_string r in
  Alcotest.(check bool) "flag 4" true (Helpers.contains_sub line "\t4\t*\t0\t");
  Alcotest.(check bool) "star cigar" true (Helpers.contains_sub line "\t*\t*\t0\t0\t")

let test_sam_document () =
  let seq = Sequence.of_string Alphabet.dna4 "ACGT" in
  let records =
    [ Sam.mapped ~qname:"a" ~rname:"ref" ~pos:0 ~cigar:(Cigar.of_string "4=") ~seq () ]
  in
  let doc = Sam.to_string ~references:[ ("ref", 100) ] records in
  let lines = String.split_on_char '\n' (String.trim doc) in
  Alcotest.(check int) "3 lines" 3 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Read simulation                                                     *)
(* ------------------------------------------------------------------ *)

let test_read_sim_shapes () =
  let rng = Rng.create ~seed:21 in
  let reference = Genome_gen.generate rng ~len:10_000 () in
  let reads = Read_sim.simulate rng ~reference ~read_len:150 ~count:200 () in
  Alcotest.(check int) "count" 200 (List.length reads);
  List.iter
    (fun r ->
      Alcotest.(check int) "read length" 150 (Sequence.length r.Read_sim.sequence);
      Alcotest.(check int) "quality length" 150 (String.length r.Read_sim.quality);
      Alcotest.(check bool) "origin in range" true
        (r.Read_sim.origin >= 0 && r.Read_sim.origin < 10_000 - 150))
    reads

let test_read_sim_error_free () =
  let rng = Rng.create ~seed:22 in
  let reference = Genome_gen.generate rng ~len:5_000 () in
  let profile =
    { Read_sim.subst_rate_start = 0.0; subst_rate_end = 0.0; ins_rate = 0.0; del_rate = 0.0 }
  in
  let reads = Read_sim.simulate rng ~profile ~reference ~read_len:100 ~count:50 () in
  List.iter
    (fun r ->
      let window = Sequence.sub reference ~pos:r.Read_sim.origin ~len:100 in
      Alcotest.(check bool) "error-free read equals reference window" true
        (Sequence.equal window r.Read_sim.sequence))
    reads

let test_read_sim_errors_present () =
  let rng = Rng.create ~seed:23 in
  let reference = Genome_gen.generate rng ~len:5_000 () in
  let profile =
    { Read_sim.subst_rate_start = 0.2; subst_rate_end = 0.2; ins_rate = 0.0; del_rate = 0.0 }
  in
  let reads = Read_sim.simulate rng ~profile ~reference ~read_len:100 ~count:50 () in
  let total_diffs =
    List.fold_left
      (fun acc r ->
        let window = Sequence.sub reference ~pos:r.Read_sim.origin ~len:100 in
        let d = ref 0 in
        for i = 0 to 99 do
          if Sequence.get window i <> Sequence.get r.Read_sim.sequence i then incr d
        done;
        acc + !d)
      0 reads
  in
  let rate = float_of_int total_diffs /. 5000.0 in
  Alcotest.(check bool) (Printf.sprintf "snp rate near 0.2 (got %.3f)" rate) true
    (Float.abs (rate -. 0.2) < 0.04)

let test_read_sim_reverse_strand () =
  let rng = Rng.create ~seed:24 in
  let reference = Genome_gen.generate rng ~len:5_000 () in
  let profile =
    { Read_sim.subst_rate_start = 0.0; subst_rate_end = 0.0; ins_rate = 0.0; del_rate = 0.0 }
  in
  let reads =
    Read_sim.simulate rng ~profile ~reverse_fraction:0.5 ~reference ~read_len:80 ~count:200 ()
  in
  let nrev =
    List.length (List.filter (fun r -> r.Read_sim.strand = Read_sim.Reverse) reads)
  in
  Alcotest.(check bool) (Printf.sprintf "both strands present (%d reverse)" nrev) true
    (nrev > 50 && nrev < 150);
  List.iter
    (fun r ->
      let window = Sequence.sub reference ~pos:r.Read_sim.origin ~len:80 in
      let expected =
        match r.Read_sim.strand with
        | Read_sim.Forward -> window
        | Read_sim.Reverse -> Sequence.reverse_complement window
      in
      Alcotest.(check bool) "error-free read matches its strand" true
        (Sequence.equal expected r.Read_sim.sequence))
    reads;
  (* default keeps everything forward *)
  let fwd = Read_sim.simulate rng ~profile ~reference ~read_len:80 ~count:50 () in
  Alcotest.(check bool) "default all forward" true
    (List.for_all (fun r -> r.Read_sim.strand = Read_sim.Forward) fwd)

let test_read_sim_validation () =
  let rng = Rng.create ~seed:2 in
  let reference = Genome_gen.generate rng ~len:100 () in
  Alcotest.check_raises "too short"
    (Invalid_argument "Read_sim.simulate: reference too short for requested read length")
    (fun () -> ignore (Read_sim.simulate rng ~reference ~read_len:100 ~count:1 ()))

let test_read_pairs () =
  let pairs = Read_sim.read_pairs ~seed:7 ~reference_len:20_000 ~read_len:150 ~count:64 in
  Alcotest.(check int) "count" 64 (Array.length pairs);
  Array.iter
    (fun (q, s) ->
      Alcotest.(check int) "read length" 150 (Sequence.length q);
      Alcotest.(check bool) "window larger than read" true (Sequence.length s >= 150))
    pairs;
  let again = Read_sim.read_pairs ~seed:7 ~reference_len:20_000 ~read_len:150 ~count:64 in
  Alcotest.(check bool) "deterministic" true
    (Array.for_all2 (fun (a, _) (b, _) -> Sequence.equal a b) pairs again)

let test_to_fastq () =
  let rng = Rng.create ~seed:8 in
  let reference = Genome_gen.generate rng ~len:1000 () in
  let reads = Read_sim.simulate rng ~reference ~read_len:50 ~count:10 () in
  let fq = Read_sim.to_fastq reads in
  Alcotest.(check int) "record count" 10 (List.length fq);
  let text = Fastq.to_string fq in
  match Fastq.parse_string Alphabet.dna4 text with
  | Ok parsed -> Alcotest.(check int) "parses back" 10 (List.length parsed)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "seqio"
    [
      ( "fasta",
        [
          Alcotest.test_case "basic" `Quick test_fasta_basic;
          Alcotest.test_case "comments and blanks" `Quick test_fasta_comments_blanks;
          Alcotest.test_case "errors" `Quick test_fasta_errors;
          Alcotest.test_case "crlf" `Quick test_fasta_crlf;
          Alcotest.test_case "no final newline" `Quick test_fasta_no_final_newline;
          Alcotest.test_case "roundtrip" `Quick test_fasta_roundtrip;
          Alcotest.test_case "file io" `Quick test_fasta_file_io;
          Alcotest.test_case "fold" `Quick test_fasta_fold;
          Alcotest.test_case "fold errors" `Quick test_fasta_fold_errors;
        ] );
      ( "fastq",
        [
          Alcotest.test_case "basic" `Quick test_fastq_basic;
          Alcotest.test_case "errors" `Quick test_fastq_errors;
          Alcotest.test_case "crlf" `Quick test_fastq_crlf;
          Alcotest.test_case "no final newline" `Quick test_fastq_no_final_newline;
          Alcotest.test_case "phred" `Quick test_fastq_phred;
          Alcotest.test_case "roundtrip" `Quick test_fastq_roundtrip;
        ] );
      ("mutation fuzz", [ seqio_mutation_fuzz ]);
      ( "genome_gen",
        [
          Alcotest.test_case "length and alphabet" `Quick test_genome_length_and_alphabet;
          Alcotest.test_case "gc content" `Quick test_genome_gc_content;
          Alcotest.test_case "validation" `Quick test_genome_validation;
          Alcotest.test_case "mutate divergence" `Quick test_mutate_divergence;
          Alcotest.test_case "mutate identity" `Quick test_mutate_identity;
          Alcotest.test_case "benchmark pairs" `Quick test_benchmark_pairs;
        ] );
      ( "sam",
        [
          Alcotest.test_case "header" `Quick test_sam_header;
          Alcotest.test_case "record" `Quick test_sam_record;
          Alcotest.test_case "unmapped" `Quick test_sam_unmapped;
          Alcotest.test_case "document" `Quick test_sam_document;
        ] );
      ( "read_sim",
        [
          Alcotest.test_case "shapes" `Quick test_read_sim_shapes;
          Alcotest.test_case "error-free" `Quick test_read_sim_error_free;
          Alcotest.test_case "errors present" `Quick test_read_sim_errors_present;
          Alcotest.test_case "reverse strand" `Quick test_read_sim_reverse_strand;
          Alcotest.test_case "validation" `Quick test_read_sim_validation;
          Alcotest.test_case "read pairs" `Quick test_read_pairs;
          Alcotest.test_case "to fastq" `Quick test_to_fastq;
        ] );
    ]
