(* server-smoke: an end-to-end check of the network path, run by the
   tier-1 alias `dune build @server-smoke`.

   Starts a real server on a Unix socket, drives single and pipelined
   loads through the client library, and asserts every answer is
   byte-identical to a direct Anyseq.align call — then drains gracefully
   and checks nothing was dropped, every connection was closed, and every
   server thread was joined. Functional assertions only; no timing
   thresholds (CI machines are noisy). *)

module Wire = Anyseq.Wire
module Addr = Anyseq.Addr
module Client = Anyseq.Client
module Server = Anyseq.Server
module Rng = Anyseq_util.Rng

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL: %s\n" what
  end

let checkf what fmt = Printf.ksprintf (fun msg -> check (what ^ ": " ^ msg)) fmt

let random_pairs ~seed ~count ~max_len =
  let rng = Rng.create ~seed in
  Array.init count (fun _ ->
      let dna n = String.init n (fun _ -> "ACGTN".[Rng.int rng 5]) in
      (dna (1 + Rng.int rng max_len), dna (1 + Rng.int rng max_len)))

let process_threads () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    let line = input_line ic in
    if String.starts_with ~prefix:"Threads:" line then
      int_of_string (String.trim (String.sub line 8 (String.length line - 8)))
    else find ()
  in
  find ()

let configs =
  [
    ("score-only auto", Wire.default_config);
    ("traceback", { Wire.default_config with traceback = true });
    ( "local simd",
      {
        Wire.scheme =
          Wire.Simple
            { alphabet = `Dna5; match_ = 2; mismatch = -1; gap_open = 0; gap_extend = 1 };
        mode = Anyseq.Types.Local;
        traceback = false;
        backend = Anyseq.Config.Simd;
      } );
    ( "affine wavefront",
      {
        Wire.default_config with
        scheme = Wire.Named "dna5(+2/-1)/affine(2,1)";
        backend = Anyseq.Config.Wavefront;
      } );
  ]

let () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "anyseq-smoke-%d.sock" (Unix.getpid ()))
  in
  let addr = Addr.Unix_socket path in
  let cfg = Server.default_config ~addrs:[ addr ] () in
  (* The runtime starts helper threads of its own, once, with the first
     thread and the first domain; start them before the baseline. *)
  Thread.join (Thread.create ignore ());
  Domain.join (Domain.spawn ignore);
  let threads_before = process_threads () in
  let srv =
    match Server.start cfg with
    | Ok s -> s
    | Error msg ->
        Printf.eprintf "FAIL: server start: %s\n" msg;
        exit 1
  in
  let pairs = random_pairs ~seed:42 ~count:96 ~max_len:100 in
  let total = ref 0 in
  List.iter
    (fun (name, config) ->
      match Wire.resolve_config config with
      | Error msg -> checkf name "resolve_config: %s" msg false
      | Ok rconfig -> (
          match Client.connect addr with
          | Error msg -> checkf name "connect: %s" msg false
          | Ok conn ->
              Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
              (match Client.align_many conn ~window:16 ~config pairs with
              | Error msg -> checkf name "pipeline: %s" msg false
              | Ok results ->
                  Array.iteri
                    (fun i r ->
                      incr total;
                      let query, subject = pairs.(i) in
                      match (r, Anyseq.align ~config:rconfig ~query ~subject) with
                      | Ok remote, Ok local ->
                          checkf name "pair %d: score %d <> direct %d" i
                            remote.Client.score local.Anyseq.score
                            (remote.Client.score = local.Anyseq.score);
                          let local_cigar =
                            Option.map
                              (fun a -> Anyseq.Cigar.to_string a.Anyseq.Alignment.cigar)
                              local.Anyseq.alignment
                          in
                          checkf name "pair %d: cigar mismatch" i
                            (remote.Client.cigar = local_cigar)
                      | Error e, Ok _ ->
                          checkf name "pair %d: remote error %s" i
                            (Client.error_to_string e) false
                      | Ok _, Error e ->
                          checkf name "pair %d: only direct failed: %s" i
                            (Anyseq.Error.to_string e) false
                      | Error _, Error _ -> ())
                    results)))
    configs;
  (* malformed frame: the connection dies, the server does not *)
  (match Addr.connect addr with
  | Error msg -> checkf "garbage" "connect: %s" msg false
  | Ok fd ->
      let _ = Unix.write_substring fd "garbage garbage garbage" 0 23 in
      let n = try Unix.read fd (Bytes.create 8) 0 8 with Unix.Unix_error _ -> 0 in
      check "garbage connection closed" (n = 0);
      Unix.close fd);
  (match Client.connect addr with
  | Error msg -> checkf "post-garbage" "connect: %s" msg false
  | Ok conn ->
      (match Client.align conn ~query:"ACGT" ~subject:"ACGT" () with
      | Ok r -> check "server alive after garbage" (r.Client.score = 8)
      | Error e -> checkf "post-garbage" "align: %s" (Client.error_to_string e) false);
      Client.close conn);
  (* graceful drain *)
  Server.request_stop srv;
  Server.wait srv;
  check "server stopped" (Server.is_stopped srv);
  check "socket unlinked" (not (Sys.file_exists path));
  let m = Server.metrics srv in
  let get name = Option.value ~default:0 (Anyseq.Metrics.find m name) in
  check "every accepted request replied"
    (get "server/requests_received" = get "server/requests_replied");
  checkf "connections" "accepted %d, closed %d" (get "server/connections_accepted")
    (get "server/connections_closed")
    (get "server/connections_accepted" = get "server/connections_closed");
  checkf "connections" "refused %d" (get "server/connections_refused")
    (get "server/connections_refused" = 0);
  (* The I/O, worker and completer threads are joined by the drain; a
     batcher's window ticker exits on its own once it sees the close. (The
     baseline may still count the warm-up domain's thread as it exits.) *)
  let rec settle tries =
    let n = process_threads () in
    if n <= threads_before || tries = 0 then n
    else begin
      Thread.delay 0.01;
      settle (tries - 1)
    end
  in
  let threads_after = settle 500 in
  checkf "threads" "%d before start, %d after the drain" threads_before threads_after
    (threads_after <= threads_before);
  if !failures > 0 then begin
    Printf.eprintf "server-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf "server-smoke OK: %d loopback alignments matched direct execution, %d served\n"
    !total (get "server/requests_replied")
