type edge = { a : int; b : int; score : int; ident : float; span : int }

let compare_edge x y = if x.a <> y.a then compare x.a y.a else compare x.b y.b

(* Merge sources signal exhaustion with [eof] (compared physically). Its
   key (max_int, max_int) sorts after every real edge, since a < b, so
   the merge's min-scan never picks it while a real head remains. *)
let eof = { a = max_int; b = max_int; score = 0; ident = 0.0; span = 0 }

(* A spilled run: its file, record count and the smallest and largest
   node index it holds, which the reader checks every record against. *)
type run = { path : string; count : int; lo : int; hi : int }

type t = {
  tmp_dir : string;
  buffer : edge array;  (** fixed capacity; [len] is the fill level *)
  block : Bytes.t;  (** spill write block, reused across runs *)
  mutable len : int;
  mutable run_files : run list;  (** newest first *)
  mutable spent : bool;
}

let default_buffer = 65536

(* ---- binary run records ----

   A run file is a sequence of fixed 40-byte little-endian records: a,
   b, score, the identity's IEEE-754 bits, span. Read-back is a fixed
   offset decode with no parsing, and the bit pattern carries the
   identity exactly, so a spill-and-merge pipeline is bit-identical to
   an in-memory one. *)

let record_bytes = 40
let block_records = 1024

let encode buf off e =
  Bytes.set_int64_le buf off (Int64.of_int e.a);
  Bytes.set_int64_le buf (off + 8) (Int64.of_int e.b);
  Bytes.set_int64_le buf (off + 16) (Int64.of_int e.score);
  Bytes.set_int64_le buf (off + 24) (Int64.bits_of_float e.ident);
  Bytes.set_int64_le buf (off + 32) (Int64.of_int e.span)

let decode buf off =
  let int at = Int64.to_int (Bytes.get_int64_le buf (off + at)) in
  {
    a = int 0;
    b = int 8;
    score = int 16;
    ident = Int64.float_of_bits (Bytes.get_int64_le buf (off + 24));
    span = int 32;
  }

let create ?(buffer = default_buffer) ~tmp_dir () =
  if buffer < 1 then invalid_arg "Edges.create: buffer must be positive";
  {
    tmp_dir;
    buffer = Array.make buffer eof;
    block = Bytes.create (block_records * record_bytes);
    len = 0;
    run_files = [];
    spent = false;
  }

let buffered t = t.len
let runs t = List.length t.run_files

(* The buffered edges in (a, b) order. The sort is stable, so edges
   with equal keys keep their [add] order. *)
let sorted t =
  let run = Array.sub t.buffer 0 t.len in
  Array.stable_sort compare_edge run;
  run

(* ---- spilling ---- *)

let remove_runs t =
  List.iter (fun r -> try Sys.remove r.path with Sys_error _ -> ()) t.run_files;
  t.run_files <- []

let discard t =
  t.spent <- true;
  remove_runs t

let write_records t oc run =
  let fill = ref 0 in
  for i = 0 to Array.length run - 1 do
    encode t.block (!fill * record_bytes) run.(i);
    incr fill;
    if !fill = block_records then begin
      Out_channel.output oc t.block 0 (block_records * record_bytes);
      fill := 0
    end
  done;
  Out_channel.output oc t.block 0 (!fill * record_bytes)

let spill t =
  if t.len > 0 then begin
    let run = sorted t in
    let path =
      Filename.concat t.tmp_dir
        (Printf.sprintf "anyseq-net-run-%d-%d.bin" (Unix.getpid ()) (List.length t.run_files))
    in
    (* a failed spill spends the writer and deletes every run it wrote,
       the partial one included *)
    let fail e =
      let bt = Printexc.get_raw_backtrace () in
      discard t;
      Printexc.raise_with_backtrace e bt
    in
    match Out_channel.open_bin path with
    | exception e -> fail e
    | oc -> (
        let lo = run.(0).a and hi = Array.fold_left (fun hi e -> max hi e.b) min_int run in
        t.run_files <- { path; count = t.len; lo; hi } :: t.run_files;
        match
          write_records t oc run;
          Out_channel.close oc
        with
        | () -> t.len <- 0
        | exception e ->
            Out_channel.close_noerr oc;
            fail e)
  end

let add t e =
  if t.spent then invalid_arg "Edges.add: writer already finished";
  if e.a >= e.b then invalid_arg "Edges.add: edge must satisfy a < b";
  if t.len = Array.length t.buffer then spill t;
  t.buffer.(t.len) <- e;
  t.len <- t.len + 1

(* ---- merging ---- *)

type stats = { written : int; duplicates : int; spilled_runs : int }

exception Corrupt of string

(* A run file read back one block at a time. Each record is checked
   against what the writer guarantees — the record count, a < b, (a, b)
   order, indices within the run's [lo, hi] — so a truncated, padded or
   scrambled run is reported, not merged, and never hands [name] or the
   hook an index the writer was not given. *)
let run_source { path; count; lo; hi } =
  let corrupt what = raise (Corrupt (Printf.sprintf "Edges: run file %s: %s" path what)) in
  let ic = try In_channel.open_bin path with Sys_error msg -> raise (Corrupt msg) in
  let block = Bytes.create (block_records * record_bytes) in
  let left = ref count and pos = ref 0 and stop = ref 0 in
  let prev = ref { eof with a = min_int; b = min_int } in
  let rec next () =
    if !pos < !stop then begin
      let e = decode block !pos in
      pos := !pos + record_bytes;
      if e.a >= e.b || compare_edge e !prev < 0 then corrupt "record out of order";
      if e.a < lo || e.b > hi then corrupt "node index out of range";
      prev := e;
      e
    end
    else if !left > 0 then begin
      let n = min !left block_records in
      if In_channel.really_input ic block 0 (n * record_bytes) = None then
        corrupt "truncated";
      left := !left - n;
      pos := 0;
      stop := n * record_bytes;
      next ()
    end
    else if In_channel.input_char ic <> None then corrupt "trailing bytes"
    else eof
  in
  (ic, next)

let array_source arr =
  let i = ref 0 in
  fun () ->
    if !i < Array.length arr then begin
      let e = arr.(!i) in
      incr i;
      e
    end
    else eof

let flush_bytes = 65536

(* K-way merge over an array of sources: the oldest run first, the
   sorted residual buffer last. A linear min-scan per pop (the source
   count is edges/buffer, small) with a strict comparison, so ties go to
   the oldest source; with the stable run sort, the first added record
   of a duplicated (a, b) key is the one kept. *)
let merge heads nexts oc ~name ~f =
  let buf = Buffer.create (2 * flush_bytes) in
  let written = ref 0 and duplicates = ref 0 and last = ref eof in
  let k = Array.length heads in
  let rec loop () =
    let best = ref 0 in
    for s = 1 to k - 1 do
      if compare_edge heads.(s) heads.(!best) < 0 then best := s
    done;
    let e = heads.(!best) in
    if e != eof then begin
      heads.(!best) <- nexts.(!best) ();
      if e.a = !last.a && e.b = !last.b then incr duplicates
      else begin
        last := e;
        incr written;
        Printf.bprintf buf "%s\t%s\t%.2f\t%d\t%d\n" (name e.a) (name e.b) (100.0 *. e.ident)
          e.span e.score;
        if Buffer.length buf >= flush_bytes then begin
          Buffer.output_buffer oc buf;
          Buffer.clear buf
        end;
        f e
      end;
      loop ()
    end
  in
  loop ();
  Buffer.output_buffer oc buf;
  (!written, !duplicates)

let finish t ~out ~name ~f =
  if t.spent then invalid_arg "Edges.finish: writer already finished";
  t.spent <- true;
  let runs = List.rev t.run_files in
  let residual = sorted t in
  let channels = ref [] and opened = ref false and complete = ref false in
  Fun.protect
    ~finally:(fun () ->
      List.iter In_channel.close_noerr !channels;
      remove_runs t;
      (* a merge that did not complete leaves no partial TSV *)
      if !opened && not !complete then try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      match
        let nexts =
          Array.of_list
            (List.map
               (fun run ->
                 let ic, next = run_source run in
                 channels := ic :: !channels;
                 next)
               runs
            @ [ array_source residual ])
        in
        let heads = Array.map (fun next -> next ()) nexts in
        Out_channel.with_open_text out (fun oc ->
            opened := true;
            merge heads nexts oc ~name ~f)
      with
      | written, duplicates ->
          complete := true;
          Ok { written; duplicates; spilled_runs = List.length runs }
      | exception Corrupt msg -> Error msg)
