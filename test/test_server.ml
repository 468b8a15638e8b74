(* The network subsystem: wire protocol in isolation (round-trips,
   truncation, fuzz), the continuous batcher, and a loopback server whose
   answers must be byte-identical to direct Anyseq.align calls. *)

module Wire = Anyseq.Wire
module Addr = Anyseq.Addr
module Client = Anyseq.Client
module Server = Anyseq.Server
module Batcher = Anyseq.Batcher
module Rng = Anyseq_util.Rng

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let configs_under_test =
  [
    Wire.default_config;
    {
      Wire.scheme =
        Wire.Simple { alphabet = `Dna4; match_ = 2; mismatch = -1; gap_open = 0; gap_extend = 1 };
      mode = Anyseq.Types.Global;
      traceback = false;
      backend = Anyseq.Config.Scalar;
    };
    {
      Wire.scheme =
        Wire.Simple { alphabet = `Dna5; match_ = 3; mismatch = -2; gap_open = 5; gap_extend = 2 };
      mode = Anyseq.Types.Local;
      traceback = true;
      backend = Anyseq.Config.Simd;
    };
    {
      Wire.scheme = Wire.Named "dna5(+2/-1)/affine(2,1)";
      mode = Anyseq.Types.Semiglobal;
      traceback = false;
      backend = Anyseq.Config.Wavefront;
    };
  ]

let requests_under_test =
  List.mapi
    (fun i config ->
      {
        Wire.id = Int64.of_int (1000 + i);
        config;
        timeout_s = (if i mod 2 = 0 then Some (0.5 +. float_of_int i) else None);
        query = String.concat "" (List.init (i + 1) (fun _ -> "ACGT"));
        subject = "TTACGTTT";
        trace =
          (if i mod 2 = 0 then
             Some { Wire.trace_id = Int64.of_int (77 + i); parent_span = 3L }
           else None);
      })
    configs_under_test

let replies_under_test =
  [
    {
      Wire.rid = 7L;
      payload = Wire.Result { score = 42; query_end = 10; subject_end = 9; cigar = None };
      queue_ns = 1234L;
      service_ns = 56789L;
      batch_jobs = 17;
    };
    {
      Wire.rid = Int64.max_int;
      payload =
        Wire.Result { score = -3; query_end = 0; subject_end = 0; cigar = Some "4=1X12D" };
      queue_ns = 0L;
      service_ns = 0L;
      batch_jobs = 1;
    };
  ]
  @ List.mapi
      (fun i code ->
        {
          Wire.rid = Int64.of_int i;
          payload = Wire.Failure { code; message = "m" ^ string_of_int i };
          queue_ns = 5L;
          service_ns = 6L;
          batch_jobs = 0;
        })
      [
        Wire.Bad_sequence; Wire.Overflow_bound; Wire.Rejected; Wire.Timeout; Wire.Bad_request;
        Wire.Draining; Wire.Internal; Wire.Cutoff;
      ]

let decode_ok what s =
  match Wire.decode_frame s with
  | Ok (frame, consumed) ->
      Alcotest.(check int) (what ^ ": consumed whole frame") (String.length s) consumed;
      frame
  | Error `Incomplete -> Alcotest.failf "%s: unexpected Incomplete" what
  | Error (`Malformed msg) -> Alcotest.failf "%s: unexpected Malformed %s" what msg

let test_wire_request_roundtrip () =
  List.iter
    (fun (req : Wire.request) ->
      match decode_ok "request" (Wire.encode_request req) with
      | Wire.Request r ->
          Alcotest.(check int64) "id" req.Wire.id r.Wire.id;
          Alcotest.(check string) "query" req.Wire.query r.Wire.query;
          Alcotest.(check string) "subject" req.Wire.subject r.Wire.subject;
          Alcotest.(check (option (float 1e-9))) "timeout" req.Wire.timeout_s r.Wire.timeout_s;
          Alcotest.(check string) "config survives"
            (Wire.config_key req.Wire.config)
            (Wire.config_key r.Wire.config)
      | Wire.Reply _ -> Alcotest.fail "request decoded as reply")
    requests_under_test

let test_wire_reply_roundtrip () =
  List.iter
    (fun (rep : Wire.reply) ->
      match decode_ok "reply" (Wire.encode_reply rep) with
      | Wire.Reply r ->
          Alcotest.(check int64) "rid" rep.Wire.rid r.Wire.rid;
          Alcotest.(check int64) "queue_ns" rep.Wire.queue_ns r.Wire.queue_ns;
          Alcotest.(check int64) "service_ns" rep.Wire.service_ns r.Wire.service_ns;
          Alcotest.(check int) "batch_jobs" rep.Wire.batch_jobs r.Wire.batch_jobs;
          (match (rep.Wire.payload, r.Wire.payload) with
          | Wire.Result a, Wire.Result b ->
              Alcotest.(check int) "score" a.score b.score;
              Alcotest.(check int) "query_end" a.query_end b.query_end;
              Alcotest.(check int) "subject_end" a.subject_end b.subject_end;
              Alcotest.(check (option string)) "cigar" a.cigar b.cigar
          | Wire.Failure a, Wire.Failure b ->
              Alcotest.(check bool) "code" true (a.code = b.code);
              Alcotest.(check string) "message" a.message b.message
          | _ -> Alcotest.fail "payload kind flipped")
      | Wire.Request _ -> Alcotest.fail "reply decoded as request")
    replies_under_test

let test_wire_truncated () =
  let frame = Wire.encode_request (List.hd requests_under_test) in
  for n = 0 to String.length frame - 1 do
    match Wire.decode_frame (String.sub frame 0 n) with
    | Error `Incomplete -> ()
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded as a whole frame" n
    | Error (`Malformed msg) -> Alcotest.failf "prefix of %d bytes malformed (%s)" n msg
  done;
  (* A frame followed by the start of the next consumes only the first. *)
  match Wire.decode_frame (frame ^ String.sub frame 0 5) with
  | Ok (_, consumed) -> Alcotest.(check int) "consumed first frame" (String.length frame) consumed
  | Error _ -> Alcotest.fail "frame + partial tail should decode the head"

let expect_malformed what s =
  match Wire.decode_frame s with
  | Error (`Malformed _) -> ()
  | Ok _ -> Alcotest.failf "%s: decoded" what
  | Error `Incomplete -> Alcotest.failf "%s: Incomplete" what

let test_wire_malformed () =
  let frame = Bytes.of_string (Wire.encode_request (List.hd requests_under_test)) in
  let flip pos v =
    let b = Bytes.copy frame in
    Bytes.set b pos v;
    Bytes.to_string b
  in
  expect_malformed "bad magic" (flip 0 '\x00');
  expect_malformed "bad version" (flip 2 '\x09');
  expect_malformed "bad kind" (flip 3 '\x07');
  (* An announced length beyond max_frame is rejected at the header. *)
  let oversized = Bytes.copy frame in
  Bytes.set_int32_be oversized 4 (Int32.of_int (Wire.max_frame + 1));
  expect_malformed "oversized length" (Bytes.to_string oversized)

(* Mutation fuzz: decoding must never raise, whatever the bytes. *)
let test_wire_fuzz () =
  let rng = Rng.create ~seed:99 in
  let frames =
    Array.of_list
      (List.map Wire.encode_request requests_under_test
      @ List.map Wire.encode_reply replies_under_test)
  in
  for _ = 1 to 2000 do
    let f = frames.(Rng.int rng (Array.length frames)) in
    let b = Bytes.of_string f in
    let flips = 1 + Rng.int rng 4 in
    for _ = 1 to flips do
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
    done;
    match Wire.decode_frame (Bytes.to_string b) with
    | Ok _ | Error `Incomplete | Error (`Malformed _) -> ()
  done;
  (* and pure noise *)
  for _ = 1 to 500 do
    let len = Rng.int rng 64 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    match Wire.decode_frame s with
    | Ok _ | Error `Incomplete | Error (`Malformed _) -> ()
  done;
  (* Streams, as socket reads deliver them: bytes arrive in random-sized
     chunks and [split_frame] runs after each one, from wherever the last
     whole frame ended. Returns the frames split off, as (kind, payload),
     and whether the stream ended malformed. *)
  let split_stream stream =
    let n = String.length stream in
    let buf = Bytes.create n and len = ref 0 and pos = ref 0 in
    let frames = ref [] and malformed = ref false in
    while (not !malformed) && !len < n do
      let k = min (1 + Rng.int rng 40) (n - !len) in
      Bytes.blit_string stream !len buf !len k;
      len := !len + k;
      let rec split () =
        match Wire.split_frame buf ~pos:!pos ~len:(!len - !pos) with
        | Ok (version, kind, payload, used) ->
            (match Wire.decode_payload ~version ~kind payload with Ok _ | Error _ -> ());
            frames := (kind, payload) :: !frames;
            pos := !pos + used;
            split ()
        | Error `Incomplete -> ()
        | Error (`Malformed _) -> malformed := true
      in
      split ()
    done;
    (List.rev !frames, !malformed)
  in
  for _ = 1 to 300 do
    let picked = List.init (1 + Rng.int rng 6) (fun _ -> frames.(Rng.int rng (Array.length frames))) in
    let expected =
      let h = Wire.header_bytes in
      List.map (fun f -> (Char.code f.[3], String.sub f h (String.length f - h))) picked
    in
    let stream = String.concat "" picked in
    let got, malformed = split_stream stream in
    Alcotest.(check bool) "valid stream not malformed" false malformed;
    Alcotest.(check (list (pair int string))) "chunked frames, in order" expected got;
    (* the same stream mutated: Ok, Incomplete or Malformed, never a raise *)
    let b = Bytes.of_string stream in
    for _ = 1 to 1 + Rng.int rng 4 do
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
    done;
    ignore (split_stream (Bytes.to_string b))
  done

let test_wire_resolve () =
  List.iter
    (fun (c : Wire.config) ->
      match Wire.resolve_config c with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "resolve failed: %s" msg)
    configs_under_test;
  (match Wire.resolve_config { Wire.default_config with scheme = Wire.Named "nope" } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown named scheme resolved");
  (* config_key separates distinct configs and is stable for equal ones *)
  let keys = List.map Wire.config_key configs_under_test in
  Alcotest.(check int) "distinct keys" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* Batcher                                                             *)
(* ------------------------------------------------------------------ *)

let close_reason =
  Alcotest.testable (fun ppf c -> Format.pp_print_string ppf (Batcher.close_name c)) ( = )

let batch b = Option.map fst (Batcher.next_batch b)

let check_batch what expected why got =
  Alcotest.(check (option (pair (list int) close_reason))) what (Some (expected, why)) got

(* [next_batch] on a thread of its own, for consumers that must block. *)
let spawn_next b =
  let r = Atomic.make None in
  (Thread.create (fun () -> Atomic.set r (Some (Batcher.next_batch b))) (), r)

let settle ?(within = 5.0) (th, r) =
  let t0 = Unix.gettimeofday () in
  let rec poll () =
    match Atomic.get r with
    | Some got ->
        Thread.join th;
        got
    | None when Unix.gettimeofday () -. t0 > within -> Alcotest.fail "next_batch never returned"
    | None ->
        Thread.delay 0.001;
        poll ()
  in
  poll ()

let check_pending what (_, r) =
  Thread.delay 0.02;
  Alcotest.(check bool) what true (Atomic.get r = None)

(* Hand out two batches and keep them in flight: both slots taken, so
   what is pushed next accumulates. *)
let hold b =
  for _ = 1 to 2 do
    ignore (Batcher.push b 0);
    check_batch "held batch" [ 0 ] Batcher.Idle (Batcher.next_batch b)
  done

let test_batcher_max_batch () =
  (* deadline far away: only queue pressure can close the batch *)
  let b = Batcher.create ~max_batch:4 ~max_wait_us:10_000_000 () in
  for i = 1 to 9 do
    Alcotest.(check bool) "push" true (Batcher.push b i)
  done;
  check_batch "first four, arrival order" [ 1; 2; 3; 4 ] Batcher.Full (Batcher.next_batch b);
  check_batch "next four" [ 5; 6; 7; 8 ] Batcher.Full (Batcher.next_batch b)

let test_batcher_max_wait () =
  (* zero window: a lone item leaves immediately, no batch-mates needed *)
  let b = Batcher.create ~max_batch:64 ~max_wait_us:0 () in
  ignore (Batcher.push b 1);
  Alcotest.(check (option (list int))) "lone item" (Some [ 1 ]) (batch b)

let test_batcher_idle_dispatch () =
  (* nothing in flight: a lone item does not wait out a 10 s window *)
  let b = Batcher.create ~max_batch:64 ~max_wait_us:10_000_000 () in
  ignore (Batcher.push b 1);
  let t0 = Unix.gettimeofday () in
  check_batch "lone item" [ 1 ] Batcher.Idle (Batcher.next_batch b);
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "returned in %.1f ms" (waited *. 1e3)) true (waited < 0.05);
  (* one batch in flight: the second slot takes the next item at once *)
  ignore (Batcher.push b 2);
  check_batch "behind one in flight" [ 2 ] Batcher.Idle (Batcher.next_batch b);
  (* a consumer blocked on the empty queue leaves with the next push *)
  Batcher.release b;
  let consumer = spawn_next b in
  Thread.delay 0.01;
  ignore (Batcher.push b 3);
  check_batch "woken consumer" [ 3 ] Batcher.Idle (settle ~within:1.0 consumer)

let test_batcher_wait_window_groups () =
  (* items arriving while both slots are in flight ride in one batch,
     which the window closes when neither is released *)
  let b = Batcher.create ~max_batch:64 ~max_wait_us:50_000 () in
  hold b;
  let pusher =
    Thread.create
      (fun () ->
        for i = 1 to 5 do
          ignore (Batcher.push b i);
          Thread.delay 0.002
        done)
      ()
  in
  let got = settle (spawn_next b) in
  Thread.join pusher;
  match got with
  | None -> Alcotest.fail "no batch"
  | Some (items, why) ->
      Alcotest.(check bool)
        (Printf.sprintf "several grouped (got %d)" (List.length items))
        true
        (List.length items > 1);
      Alcotest.(check close_reason) "closed by the window" Batcher.Window why

let test_batcher_release_closes () =
  let b = Batcher.create ~max_batch:64 ~max_wait_us:10_000_000 () in
  hold b;
  let consumer = spawn_next b in
  List.iter (fun i -> ignore (Batcher.push b i)) [ 1; 2; 3 ];
  check_pending "forms while both slots are in flight" consumer;
  Batcher.release b;
  check_batch "grouped, closed by the release" [ 1; 2; 3 ] Batcher.Idle (settle consumer)

let test_batcher_full_in_flight () =
  let b = Batcher.create ~max_batch:3 ~max_wait_us:10_000_000 () in
  hold b;
  let consumer = spawn_next b in
  List.iter (fun i -> ignore (Batcher.push b i)) [ 1; 2 ];
  check_pending "two of three" consumer;
  ignore (Batcher.push b 3);
  check_batch "full without a release" [ 1; 2; 3 ] Batcher.Full (settle consumer)

let test_batcher_close_in_flight () =
  let b = Batcher.create ~max_batch:64 ~max_wait_us:10_000_000 () in
  hold b;
  let consumer = spawn_next b in
  List.iter (fun i -> ignore (Batcher.push b i)) [ 1; 2 ];
  check_pending "forming" consumer;
  Batcher.close b;
  check_batch "flushed by close" [ 1; 2 ] Batcher.Drain (settle consumer);
  Alcotest.(check (option (list int))) "then None" None (batch b)

let test_batcher_release_on_raise () =
  let b = Batcher.create ~max_batch:64 ~max_wait_us:10_000_000 () in
  hold b;
  let consumer = spawn_next b in
  ignore (Batcher.push b 1);
  check_pending "forming" consumer;
  (match
     Fun.protect ~finally:(fun () -> Batcher.release b) (fun () -> failwith "reply failed")
   with
  | () -> Alcotest.fail "reply did not raise"
  | exception Failure _ -> ());
  check_batch "unblocked by the release" [ 1 ] Batcher.Idle (settle consumer);
  Batcher.release b;
  Batcher.release b;
  Alcotest.check_raises "release with nothing in flight"
    (Invalid_argument "Batcher.release: no batch in flight") (fun () -> Batcher.release b)

let test_batcher_backpressure () =
  let b = Batcher.create ~max_pending:2 ~max_wait_us:0 () in
  Alcotest.(check bool) "1 fits" true (Batcher.push b 1);
  Alcotest.(check bool) "2 fits" true (Batcher.push b 2);
  Alcotest.(check bool) "3 rejected" false (Batcher.push b 3);
  Alcotest.(check int) "depth" 2 (Batcher.depth b)

let test_batcher_close_drains () =
  let b = Batcher.create ~max_batch:2 ~max_wait_us:0 () in
  List.iter (fun i -> ignore (Batcher.push b i)) [ 1; 2; 3 ];
  Batcher.close b;
  Alcotest.(check bool) "push after close" false (Batcher.push b 9);
  Alcotest.(check (option (list int))) "flush 1" (Some [ 1; 2 ]) (batch b);
  Alcotest.(check (option (list int))) "flush 2" (Some [ 3 ]) (batch b);
  Alcotest.(check (option (list int))) "then None" None (batch b);
  Alcotest.(check (option (list int))) "stays None" None (batch b)

let test_batcher_wakes_blocked_consumer () =
  let b = Batcher.create ~max_wait_us:0 () in
  let result = ref (Some []) in
  let consumer = Thread.create (fun () -> result := batch b) () in
  Thread.delay 0.02;
  ignore (Batcher.push b 42);
  Thread.join consumer;
  Alcotest.(check (option (list int))) "blocked consumer woken" (Some [ 42 ]) !result;
  (* close wakes a consumer blocked on an empty queue *)
  let consumer = Thread.create (fun () -> result := batch b) () in
  Thread.delay 0.02;
  Batcher.close b;
  Thread.join consumer;
  Alcotest.(check (option (list int))) "close wakes consumer" None !result

(* ------------------------------------------------------------------ *)
(* Loopback integration                                                *)
(* ------------------------------------------------------------------ *)

let fresh_socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "anyseq-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(cfg_update = fun c -> c) f =
  let path = fresh_socket_path () in
  let cfg = cfg_update (Server.default_config ~addrs:[ Addr.Unix_socket path ] ()) in
  match Server.start cfg with
  | Error msg -> Alcotest.failf "server start: %s" msg
  | Ok srv ->
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          if Sys.file_exists path then Sys.remove path)
        (fun () -> f srv (Addr.Unix_socket path))

let random_dna_pairs ~seed ~count ~max_len =
  let rng = Rng.create ~seed in
  Array.init count (fun _ ->
      let len rng = 1 + Rng.int rng max_len in
      let dna rng n = String.init n (fun _ -> "ACGT".[Rng.int rng 4]) in
      (dna rng (len rng), dna rng (len rng)))

(* Every score (and CIGAR) served over the socket must equal the direct
   in-process Anyseq.align answer for the same configuration. *)
let test_loopback_matches_direct () =
  with_server @@ fun _srv addr ->
  let pairs = random_dna_pairs ~seed:5 ~count:24 ~max_len:80 in
  List.iteri
    (fun ci config ->
      let rconfig =
        match Wire.resolve_config config with
        | Ok c -> c
        | Error msg -> Alcotest.failf "resolve: %s" msg
      in
      let conn =
        match Client.connect addr with
        | Ok c -> c
        | Error msg -> Alcotest.failf "connect: %s" msg
      in
      Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
      match Client.align_many conn ~window:8 ~config pairs with
      | Error msg -> Alcotest.failf "config %d: connection failed: %s" ci msg
      | Ok results ->
          Array.iteri
            (fun i r ->
              let query, subject = pairs.(i) in
              let direct = Anyseq.align ~config:rconfig ~query ~subject in
              match (r, direct) with
              | Ok remote, Ok local ->
                  Alcotest.(check int)
                    (Printf.sprintf "config %d pair %d score" ci i)
                    local.Anyseq.score remote.Client.score;
                  let local_cigar =
                    Option.map
                      (fun a -> Anyseq.Cigar.to_string a.Anyseq.Alignment.cigar)
                      local.Anyseq.alignment
                  in
                  Alcotest.(check (option string))
                    (Printf.sprintf "config %d pair %d cigar" ci i)
                    local_cigar remote.Client.cigar
              | Error e, Ok _ ->
                  Alcotest.failf "config %d pair %d: remote failed: %s" ci i
                    (Client.error_to_string e)
              | Ok _, Error e ->
                  Alcotest.failf "config %d pair %d: only direct failed: %s" ci i
                    (Anyseq.Error.to_string e)
              | Error _, Error _ -> ())
            results)
    configs_under_test

(* A malformed frame (or a client that vanishes) costs that connection;
   the server keeps answering everyone else. *)
let test_loopback_malformed_kills_connection_only () =
  with_server @@ fun srv addr ->
  let fd = match Addr.connect addr with Ok fd -> fd | Error m -> Alcotest.failf "%s" m in
  let garbage = "this is not a frame at all.............." in
  let _ = Unix.write_substring fd garbage 0 (String.length garbage) in
  (* server closes this connection: read sees EOF *)
  let buf = Bytes.create 16 in
  let n = try Unix.read fd buf 0 16 with Unix.Unix_error _ -> 0 in
  Alcotest.(check int) "connection closed on garbage" 0 n;
  Unix.close fd;
  (* an abruptly killed client mid-stream *)
  (let fd2 = match Addr.connect addr with Ok fd -> fd | Error m -> Alcotest.failf "%s" m in
   let frame = Wire.encode_request (List.hd requests_under_test) in
   let _ = Unix.write_substring fd2 frame 0 (String.length frame / 2) in
   Unix.close fd2);
  (* ...and the server still serves a well-behaved client *)
  let conn = match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "%s" m in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (match Client.align conn ~query:"ACGT" ~subject:"ACGT" () with
  | Ok r -> Alcotest.(check int) "still serving" 8 r.Client.score
  | Error e -> Alcotest.failf "server died with the bad client: %s" (Client.error_to_string e));
  Alcotest.(check bool) "server not stopped" false (Server.is_stopped srv)

let test_loopback_timeout_and_errors () =
  with_server @@ fun _srv addr ->
  let conn = match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "%s" m in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* an already-expired deadline must come back as a Timeout error *)
  (match Client.align conn ~timeout_s:1e-9 ~query:"ACGT" ~subject:"ACGT" () with
  | Error (Client.Remote (Wire.Timeout, _)) -> ()
  | Ok _ -> Alcotest.fail "expired deadline succeeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Client.error_to_string e));
  (* unknown named scheme: Bad_request, connection stays usable *)
  (match
     Client.align conn
       ~config:{ Wire.default_config with scheme = Wire.Named "no-such" }
       ~query:"ACGT" ~subject:"ACGT" ()
   with
  | Error (Client.Remote (Wire.Bad_request, _)) -> ()
  | Ok _ -> Alcotest.fail "unknown scheme succeeded"
  | Error e -> Alcotest.failf "wrong error: %s" (Client.error_to_string e));
  match Client.align conn ~query:"ACGT" ~subject:"ACGT" () with
  | Ok r -> Alcotest.(check int) "usable after errors" 8 r.Client.score
  | Error e -> Alcotest.failf "connection lost: %s" (Client.error_to_string e)

(* With a 10 s window, one request at a time must still come straight
   back: each batch is released after its reply, so the batcher never sees
   both slots taken. *)
let test_loopback_lone_requests_skip_window () =
  with_server ~cfg_update:(fun c -> { c with Server.max_wait_us = 10_000_000 })
  @@ fun srv addr ->
  let conn = match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "%s" m in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  for i = 1 to 6 do
    let t0 = Unix.gettimeofday () in
    (match Client.align conn ~query:"ACGT" ~subject:"ACGT" () with
    | Ok r -> Alcotest.(check int) "score" 8 r.Client.score
    | Error e -> Alcotest.failf "request %d: %s" i (Client.error_to_string e));
    let waited = Unix.gettimeofday () -. t0 in
    Alcotest.(check bool) (Printf.sprintf "request %d in %.0f ms" i (waited *. 1e3)) true
      (waited < 1.0)
  done;
  let count why =
    Option.value ~default:0
      (Anyseq.Metrics.find (Server.metrics srv) ("server/batch_close_" ^ why))
  in
  Alcotest.(check int) "every batch closed idle" 6 (count "idle");
  Alcotest.(check int) "none by the window" 0 (count "window")

(* Graceful drain: everything accepted before the stop is answered. *)
let test_loopback_drain () =
  let path = fresh_socket_path () in
  let cfg = Server.default_config ~addrs:[ Addr.Unix_socket path ] () in
  let srv = match Server.start cfg with Ok s -> s | Error m -> Alcotest.failf "%s" m in
  let addr = Addr.Unix_socket path in
  let pairs = random_dna_pairs ~seed:8 ~count:128 ~max_len:60 in
  let conn = match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "%s" m in
  let results = Client.align_many conn ~window:16 pairs in
  (match results with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok rs ->
      Array.iteri
        (fun i r ->
          match r with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "pair %d failed: %s" i (Client.error_to_string e))
        rs);
  (* request the stop the way a signal handler would, then wait out the drain *)
  Server.request_stop srv;
  Server.wait srv;
  Alcotest.(check bool) "stopped" true (Server.is_stopped srv);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  Client.close conn;
  (match Client.connect addr with
  | Ok c ->
      Client.close c;
      Alcotest.fail "connect succeeded after drain"
  | Error _ -> ());
  (* stop is idempotent *)
  Server.stop srv

(* Stop while a pipelined load is in flight: every request the server
   accepted is answered (result or an orderly Draining rejection); the
   connection may also break once the drain shuts the read side — but the
   server itself must come down cleanly. *)
let test_loopback_drain_under_load () =
  let path = fresh_socket_path () in
  let cfg = Server.default_config ~addrs:[ Addr.Unix_socket path ] () in
  let srv = match Server.start cfg with Ok s -> s | Error m -> Alcotest.failf "%s" m in
  let addr = Addr.Unix_socket path in
  let pairs = random_dna_pairs ~seed:9 ~count:512 ~max_len:120 in
  let outcome = ref (Error "not run") in
  let client_thread =
    Thread.create
      (fun () ->
        match Client.connect addr with
        | Error m -> outcome := Error m
        | Ok conn ->
            outcome := Client.align_many conn ~window:32 pairs;
            Client.close conn)
      ()
  in
  Thread.delay 0.02;
  Server.stop srv;
  Thread.join client_thread;
  Alcotest.(check bool) "stopped" true (Server.is_stopped srv);
  match !outcome with
  | Error _ -> () (* connection broken mid-pipeline by the shutdown: acceptable *)
  | Ok rs ->
      Array.iteri
        (fun i r ->
          match r with
          | Ok _ | Error (Client.Remote (Wire.Draining, _)) -> ()
          | Error e ->
              Alcotest.failf "pair %d: unexpected outcome during drain: %s" i
                (Client.error_to_string e))
        rs

(* Same stop-under-load contract with a sharded service behind the
   server: two worker domains plus the submit/await completion pipeline
   must drain just as cleanly — accepted requests answered, no worker or
   completer left hanging, and the shard queues empty at the end. *)
let test_loopback_drain_under_load_sharded () =
  let path = fresh_socket_path () in
  let cfg = Server.default_config ~addrs:[ Addr.Unix_socket path ] ~shards:2 () in
  let srv = match Server.start cfg with Ok s -> s | Error m -> Alcotest.failf "%s" m in
  Alcotest.(check int) "service is sharded" 2
    (Anyseq.Service.shards (Server.service srv));
  let addr = Addr.Unix_socket path in
  let pairs = random_dna_pairs ~seed:23 ~count:512 ~max_len:120 in
  let outcome = ref (Error "not run") in
  let client_thread =
    Thread.create
      (fun () ->
        match Client.connect addr with
        | Error m -> outcome := Error m
        | Ok conn ->
            outcome := Client.align_many conn ~window:32 pairs;
            Client.close conn)
      ()
  in
  Thread.delay 0.02;
  Server.stop srv;
  Thread.join client_thread;
  Alcotest.(check bool) "stopped" true (Server.is_stopped srv);
  Alcotest.(check int) "shard queues drained" 0
    (Anyseq.Service.queue_depth (Server.service srv));
  (match !outcome with
  | Error _ -> () (* connection broken mid-pipeline by the shutdown: acceptable *)
  | Ok rs ->
      Array.iteri
        (fun i r ->
          match r with
          | Ok _ | Error (Client.Remote (Wire.Draining, _)) -> ()
          | Error e ->
              Alcotest.failf "pair %d: unexpected outcome during drain: %s" i
                (Client.error_to_string e))
        rs);
  let m = Server.metrics srv in
  let get name = Option.value ~default:0 (Anyseq.Metrics.find m name) in
  Alcotest.(check int) "accepted = replied" (get "server/requests_received")
    (get "server/requests_replied")

(* ------------------------------------------------------------------ *)
(* Bounds: threads, descriptors, slow consumers                        *)
(* ------------------------------------------------------------------ *)

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

let eventually ?(within = 5.0) what cond =
  let t0 = Unix.gettimeofday () in
  let rec poll () =
    if not (cond ()) then
      if Unix.gettimeofday () -. t0 > within then
        Alcotest.failf "%s: not within %.0f s" what within
      else begin
        Thread.delay 0.005;
        poll ()
      end
  in
  poll ()

let metric srv name = Option.value ~default:0 (Anyseq.Metrics.find (Server.metrics srv) name)

let connect_ok addr =
  match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "connect: %s" m

let check_direct what conn (query, subject) =
  let config = Wire.default_config in
  let rconfig = Result.get_ok (Wire.resolve_config config) in
  match (Client.align conn ~config ~query ~subject (), Anyseq.align ~config:rconfig ~query ~subject) with
  | Ok remote, Ok local -> Alcotest.(check int) what local.Anyseq.score remote.Client.score
  | Error e, _ -> Alcotest.failf "%s: %s" what (Client.error_to_string e)
  | Ok _, Error e -> Alcotest.failf "%s: direct failed: %s" what (Anyseq.Error.to_string e)

(* Connections cost no threads: a hundred of them, each answered, leave
   the count where it was, give or take the batchers' window tickers. *)
let test_threads_stay_flat () =
  with_server @@ fun srv addr ->
  let before = process_threads () in
  let conns = List.init 100 (fun _ -> connect_ok addr) in
  List.iteri (fun i c -> check_direct (Printf.sprintf "connection %d" i) c ("ACGTTA", "ACGTA")) conns;
  let during = process_threads () in
  Alcotest.(check bool)
    (Printf.sprintf "threads %d -> %d with 100 connections" before during)
    true (during <= before + 2);
  Alcotest.(check int) "all open" 100 (Server.connections srv);
  List.iter Client.close conns;
  eventually "connections closed" (fun () -> Server.connections srv = 0);
  Alcotest.(check int) "connections gauge" 0 (metric srv "server/connections")

(* [Unix.select] cannot watch a descriptor at or past FD_SETSIZE: such a
   connection is closed at accept and counted, and everyone else is still
   served. *)
let test_select_limit () =
  with_server @@ fun srv addr ->
  let held = connect_ok addr in
  Fun.protect ~finally:(fun () -> Client.close held) @@ fun () ->
  check_direct "before" held ("ACGTACGT", "ACGACGT");
  (* Fill the descriptor table below the limit: open /dev/null until one
     lands past it, then free that one for the next socket. *)
  let dummies = ref [] in
  let rec fill () =
    let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    match Unix.select [ fd ] [] [] 0.0 with
    | _ ->
        dummies := fd :: !dummies;
        fill ()
    | exception Unix.Unix_error (Unix.EINVAL, _, _) -> Unix.close fd
  in
  Fun.protect ~finally:(fun () -> List.iter Unix.close !dummies) (fun () ->
      fill ();
      let late = connect_ok addr in
      Fun.protect ~finally:(fun () -> Client.close late) @@ fun () ->
      eventually "refusal counted" (fun () -> metric srv "server/connections_refused" = 1);
      match Client.align late ~query:"ACGT" ~subject:"ACGT" () with
      | Ok _ -> Alcotest.fail "a connection past the select limit was served"
      | Error _ -> ());
  check_direct "after" held ("TTACGTAC", "TACGTAC");
  Alcotest.(check int) "one connection open" 1 (Server.connections srv)

(* A client that pipelines and never reads is cut off once its replies
   pile up; others keep their answers. A client owed a reply larger than
   the socket buffer holds does not hold up [Server.stop] beyond the
   flush deadline. *)
let test_slow_consumer () =
  let path = fresh_socket_path () in
  let addr = Addr.Unix_socket path in
  let cfg = { (Server.default_config ~addrs:[ addr ] ()) with Server.max_pending = 4 } in
  let srv = match Server.start cfg with Ok s -> s | Error m -> Alcotest.failf "%s" m in
  let raw () = match Addr.connect addr with Ok fd -> fd | Error m -> Alcotest.failf "%s" m in
  let request ?(config = Wire.default_config) i =
    Wire.encode_request
      { Wire.id = Int64.of_int i; config; timeout_s = None; query = "ACGTACGTAC";
        subject = "ACGTTACGTA"; trace = None }
  in
  let stuck = raw () in
  let flood =
    Thread.create
      (fun () ->
        let rec go i =
          if i < 100_000 then
            match Wire.write_frame stuck (request i) with Ok () -> go (i + 1) | Error _ -> ()
        in
        go 0)
      ()
  in
  eventually "slow consumer dropped" (fun () -> metric srv "server/slow_consumer_drops" >= 1);
  Thread.join flood;
  let other = connect_ok addr in
  let pairs = random_dna_pairs ~seed:31 ~count:16 ~max_len:60 in
  Array.iteri (fun i pair -> check_direct (Printf.sprintf "other, pair %d" i) other pair) pairs;
  Client.close other;
  (* One reply bigger than any socket buffer: the error message echoes a
     1 MB scheme name. *)
  let owed = raw () in
  let huge = { Wire.default_config with scheme = Wire.Named (String.make 1_000_000 'x') } in
  ignore (Wire.write_frame owed (request ~config:huge 1));
  eventually "huge reply queued" (fun () -> metric srv "server/bad_requests" >= 1);
  let t0 = Unix.gettimeofday () in
  Server.stop srv;
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "stop took %.1f s" took) true (took < 10.0);
  Alcotest.(check int) "no connection left" 0 (Server.connections srv);
  List.iter Unix.close [ stuck; owed ]

(* ------------------------------------------------------------------ *)
(* Observability: trace context, flight recorder, admin endpoint       *)
(* ------------------------------------------------------------------ *)

module Flight = Anyseq.Flight
module Admin = Anyseq.Admin
module Jsonv = Anyseq.Jsonv
module Trace = Anyseq.Trace
module Service = Anyseq.Service
module Top = Anyseq.Top

(* v2 frames carry the trace context through encode/decode intact. *)
let test_wire_trace_roundtrip () =
  List.iter
    (fun (req : Wire.request) ->
      match decode_ok "trace roundtrip" (Wire.encode_request req) with
      | Wire.Request r ->
          Alcotest.(check bool)
            "trace survives" true
            (req.Wire.trace = r.Wire.trace)
      | Wire.Reply _ -> Alcotest.fail "request decoded as reply")
    requests_under_test

(* Version negotiation: a v1 encoder (old client) produces frames a v2
   decoder still parses — minus the trace context it cannot carry; a
   version beyond [protocol_version] is rejected at the header. *)
let test_wire_mixed_version () =
  let traced =
    List.find (fun (r : Wire.request) -> r.Wire.trace <> None) requests_under_test
  in
  let v1_frame = Wire.encode_request ~version:1 traced in
  (match decode_ok "v1 frame" v1_frame with
  | Wire.Request r ->
      Alcotest.(check int64) "id survives v1" traced.Wire.id r.Wire.id;
      Alcotest.(check string) "query survives v1" traced.Wire.query r.Wire.query;
      Alcotest.(check bool) "v1 drops trace" true (r.Wire.trace = None)
  | Wire.Reply _ -> Alcotest.fail "request decoded as reply");
  (match Wire.split_frame (Bytes.of_string v1_frame) ~pos:0 ~len:(String.length v1_frame) with
  | Ok (version, kind, _, _) ->
      Alcotest.(check int) "v1 header version" 1 version;
      Alcotest.(check int) "v1 header kind" Wire.kind_request kind
  | Error `Incomplete -> Alcotest.fail "v1 frame incomplete"
  | Error (`Malformed msg) -> Alcotest.failf "v1 header rejected: %s" msg);
  (* encoder refuses versions outside the negotiated range *)
  (match Wire.encode_request ~version:(Wire.protocol_version + 1) traced with
  | _ -> Alcotest.fail "future version encoded"
  | exception Invalid_argument _ -> ());
  (* decoder refuses a frame stamped beyond protocol_version *)
  let future = Bytes.of_string (Wire.encode_request traced) in
  Bytes.set future 2 (Char.chr (Wire.protocol_version + 1));
  match Wire.decode_frame (Bytes.to_string future) with
  | Error (`Malformed _) -> ()
  | Ok _ -> Alcotest.fail "future-version frame decoded"
  | Error `Incomplete -> Alcotest.fail "future-version frame: Incomplete"

(* The flight ring overwrites the oldest record and keeps a faithful
   total; its JSON dump is parsable and complete. *)
let test_flight_wraparound () =
  let ring = Flight.create ~capacity:8 () in
  let mk i =
    {
      Flight.fr_rid = Int64.of_int i;
      fr_cid = 1;
      fr_config = Printf.sprintf "cfg-%d" i;
      fr_trace = (if i mod 2 = 0 then Some (Int64.of_int (1000 + i)) else None);
      fr_accept_ns = Int64.of_int (10 * i);
      fr_decode_ns = Int64.of_int ((10 * i) + 1);
      fr_enqueue_ns = Int64.of_int ((10 * i) + 2);
      fr_submit_ns = Int64.of_int ((10 * i) + 3);
      fr_done_ns = Int64.of_int ((10 * i) + 4);
      fr_reply_ns = Int64.of_int ((10 * i) + 5);
      fr_batch_jobs = 4;
      fr_outcome = "ok";
    }
  in
  for i = 0 to 19 do
    Flight.record ring (mk i)
  done;
  Alcotest.(check int) "recorded counts everything" 20 (Flight.recorded ring);
  let snap = Flight.snapshot ring in
  Alcotest.(check int) "ring keeps capacity records" 8 (List.length snap);
  Alcotest.(check int64) "oldest kept is #12" 12L (List.hd snap).Flight.fr_rid;
  Alcotest.(check int64) "newest kept is #19" 19L
    (List.nth snap 7).Flight.fr_rid;
  (match Jsonv.parse (Flight.to_json snap) with
  | Error msg -> Alcotest.failf "flight JSON unparsable: %s" msg
  | Ok doc -> (
      match Option.bind (Jsonv.member "records" doc) Jsonv.to_list with
      | Some records ->
          Alcotest.(check int) "JSON records" 8 (List.length records);
          let first = List.hd records in
          Alcotest.(check (float 0.0)) "JSON rid" 12.0 (Jsonv.num "rid" first);
          Alcotest.(check string) "JSON trace id (16 hex)" "00000000000003f4"
            (Jsonv.str "trace_id" first)
      | None -> Alcotest.fail "flight JSON has no records array"));
  match Flight.create ~capacity:0 () with
  | _ -> Alcotest.fail "zero-capacity ring created"
  | exception Invalid_argument _ -> ()

(* Tracing across the wire: a traced client aligning against an in-process
   server yields client.request and server.request spans sharing one
   trace-id attribute — the stitched cross-process view. *)
let test_trace_propagation_loopback () =
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.disable ())
  @@ fun () ->
  with_server @@ fun _srv addr ->
  let conn = match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "%s" m in
  (match Client.align conn ~query:"ACGTACGT" ~subject:"ACGT" () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "align: %s" (Client.error_to_string e));
  Client.close conn;
  let spans = Trace.spans () in
  let attr_str name (s : Trace.span) =
    List.find_map
      (function n, Trace.Str v when n = name -> Some v | _ -> None)
      s.Trace.attrs
  in
  let ids_of span_name =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.Trace.name = span_name then attr_str "trace_id" s else None)
      spans
  in
  let client_ids = ids_of "client.request" in
  let server_ids = ids_of "server.request" in
  Alcotest.(check bool) "client span recorded" true (client_ids <> []);
  Alcotest.(check bool) "server span recorded" true (server_ids <> []);
  List.iter
    (fun cid ->
      Alcotest.(check bool)
        (Printf.sprintf "server span carries client trace id %s" cid)
        true (List.mem cid server_ids))
    client_ids;
  (* the id also reached the execution spans inside the service *)
  let exec_ids = ids_of "service.exec" in
  List.iter
    (fun cid ->
      Alcotest.(check bool)
        (Printf.sprintf "service.exec carries trace id %s" cid)
        true (List.mem cid exec_ids))
    client_ids

let contains ~affix s =
  let la = String.length affix and ls = String.length s in
  let rec at i = i + la <= ls && (String.sub s i la = affix || at (i + 1)) in
  at 0

let with_admin_server f =
  let admin =
    match Addr.parse "tcp:127.0.0.1:0" with
    | Ok a -> a
    | Error msg -> Alcotest.failf "admin addr: %s" msg
  in
  with_server
    ~cfg_update:(fun c -> { c with Server.admin = Some admin })
    (fun srv addr ->
      match Server.admin_address srv with
      | None -> Alcotest.fail "admin listener did not come up"
      | Some admin_addr -> f srv addr admin_addr)

let get_ok what admin path =
  match Admin.http_get admin path with
  | Ok (200, body) -> body
  | Ok (status, _) -> Alcotest.failf "%s: HTTP %d" what status
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* /metrics is scrapable during active load, exposes the stage histograms
   with quantile-ready buckets and the per-shard gauge series. *)
let test_admin_metrics_under_load () =
  with_admin_server @@ fun srv addr admin ->
  let pairs = random_dna_pairs ~seed:21 ~count:96 ~max_len:64 in
  let loader =
    Thread.create
      (fun () ->
        let conn =
          match Client.connect addr with Ok c -> c | Error m -> failwith m
        in
        let r = Client.align_many conn ~window:16 pairs in
        Client.close conn;
        match r with Ok _ -> () | Error m -> failwith m)
      ()
  in
  (* scrape repeatedly while the load runs — the exposition must always be
     well-formed, whatever instant it samples *)
  for _ = 1 to 5 do
    let body = get_ok "/metrics" admin "/metrics" in
    Alcotest.(check bool) "has TYPE lines" true (contains ~affix:"# TYPE" body)
  done;
  Thread.join loader;
  let body = get_ok "/metrics" admin "/metrics" in
  let has affix = contains ~affix body in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Printf.sprintf "stage histogram %s exported" stage)
        true
        (has (Printf.sprintf "anyseq_server_stage_%s_us_bucket" stage)))
    Server.stages;
  Alcotest.(check bool) "stage count series" true (has "anyseq_server_stage_execute_us_count");
  Alcotest.(check bool) "per-shard jobs gauge" true (has "anyseq_runtime_shard_jobs{shard=\"0\"}");
  Alcotest.(check bool) "per-shard queued gauge" true
    (has "anyseq_runtime_shard_queued{shard=\"0\"}");
  (* scrape-time refresh: the labeled series must sum to what shard_stats
     reports — the acceptance check the obs gate also enforces *)
  let stats = Service.shard_stats (Server.service srv) in
  let expected = Array.fold_left (fun a s -> a + s.Service.ss_jobs) 0 stats in
  let m = Server.metrics srv in
  let exported =
    Anyseq.Metrics.fold_labeled m "runtime/shard_jobs" (fun acc _ v -> acc + v) 0
  in
  Alcotest.(check int) "shard gauge total = shard_stats total" expected exported

(* /healthz flips to 503 while the service drains and recovers on reopen;
   /statusz and /debug/flight serve well-formed JSON; unknown paths 404. *)
let test_admin_health_status_flight () =
  with_admin_server @@ fun srv addr admin ->
  let conn = match Client.connect addr with Ok c -> c | Error m -> Alcotest.failf "%s" m in
  (match Client.align conn ~query:"ACGTACGTAA" ~subject:"ACGTAA" () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "align: %s" (Client.error_to_string e));
  Client.close conn;
  ignore (get_ok "/healthz up" admin "/healthz");
  Service.drain (Server.service srv);
  (match Admin.http_get admin "/healthz" with
  | Ok (503, body) ->
      Alcotest.(check string) "drain body" "draining\n" body
  | Ok (status, _) -> Alcotest.failf "/healthz while draining: HTTP %d" status
  | Error msg -> Alcotest.failf "/healthz while draining: %s" msg);
  Service.reopen (Server.service srv);
  ignore (get_ok "/healthz after reopen" admin "/healthz");
  (* /statusz: parsable, consistent shape *)
  let statusz = get_ok "/statusz" admin "/statusz" in
  (match Jsonv.parse statusz with
  | Error msg -> Alcotest.failf "/statusz unparsable: %s" msg
  | Ok doc ->
      let srv_obj = Option.value ~default:Jsonv.Null (Jsonv.member "server" doc) in
      Alcotest.(check (float 0.0)) "statusz protocol version"
        (float_of_int Wire.protocol_version)
        (Jsonv.num "protocol_version" srv_obj);
      let req = Option.value ~default:Jsonv.Null (Jsonv.member "requests" doc) in
      Alcotest.(check bool) "statusz counts the request" true (Jsonv.num "replied" req >= 1.0);
      (match Option.bind (Jsonv.member "shards" doc) Jsonv.to_list with
      | Some l ->
          Alcotest.(check int) "statusz shard entries"
            (Service.shards (Server.service srv))
            (List.length l)
      | None -> Alcotest.fail "statusz has no shards array");
      match Jsonv.member "stages" doc with
      | Some stages ->
          let ex = Option.value ~default:Jsonv.Null (Jsonv.member "execute" stages) in
          Alcotest.(check bool) "statusz execute stage counted" true
            (Jsonv.num "count" ex >= 1.0)
      | None -> Alcotest.fail "statusz has no stages object");
  (* /debug/flight: the served request left a record *)
  let flight = get_ok "/debug/flight" admin "/debug/flight" in
  (match Jsonv.parse flight with
  | Error msg -> Alcotest.failf "/debug/flight unparsable: %s" msg
  | Ok doc -> (
      match Option.bind (Jsonv.member "records" doc) Jsonv.to_list with
      | Some (r :: _) -> Alcotest.(check string) "flight outcome" "ok" (Jsonv.str "outcome" r)
      | Some [] -> Alcotest.fail "flight ring empty after a served request"
      | None -> Alcotest.fail "/debug/flight has no records array"));
  match Admin.http_get admin "/nonsense" with
  | Ok (404, _) -> ()
  | Ok (status, _) -> Alcotest.failf "unknown path: HTTP %d" status
  | Error msg -> Alcotest.failf "unknown path: %s" msg

(* The admin endpoint finds the blank line that ends a request head
   even when it straddles two reads: a 1,024-byte GET whose "\r\n\r\n"
   spans bytes 510-513 is read as 512 + 512 bytes. *)
let test_admin_straddled_head () =
  let path = fresh_socket_path () in
  let handler = function "/healthz" -> Admin.ok "ok\n" | _ -> None in
  match Admin.start ~addr:(Addr.Unix_socket path) ~handler with
  | Error msg -> Alcotest.failf "admin start: %s" msg
  | Ok admin ->
      Fun.protect ~finally:(fun () -> Admin.stop admin) @@ fun () ->
      let line = "GET /healthz HTTP/1.0\r\nX-Pad: " in
      let head = line ^ String.make (510 - String.length line) 'p' ^ "\r\n\r\n" in
      let request = head ^ String.make (1024 - String.length head) 'x' in
      Alcotest.(check int) "blank line at 510" 510 (String.length head - 4);
      let fd = match Addr.connect (Admin.address admin) with Ok fd -> fd | Error m -> failwith m in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      ignore (Unix.write_substring fd request 0 (String.length request));
      let t0 = Unix.gettimeofday () in
      let buf = Bytes.create 4096 and b = Buffer.create 256 in
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b buf 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | exception Unix.Unix_error (_, _, _) -> ()
      in
      drain ();
      let reply = Buffer.contents b in
      Alcotest.(check bool) ("answered 200: " ^ String.escaped reply) true
        (contains ~affix:"HTTP/1.0 200" reply);
      Alcotest.(check bool) "before the receive timeout" true (Unix.gettimeofday () -. t0 < 1.5)

(* The request-line parser is total over random, truncated and mutated
   heads: Some or None, never an exception. *)
let test_admin_request_line_fuzz () =
  let rng = Rng.create ~seed:23 in
  let heads =
    [| "GET /statusz HTTP/1.0\r\n\r\n"; "HEAD /metrics?x=1 HTTP/1.1\r\nHost: a\r\n\r\n";
       "GET / HTTP/1.0\n\n"; "POST /healthz HTTP/1.0\r\n\r\n" |]
  in
  Alcotest.(check (option (pair string string))) "query stripped" (Some ("HEAD", "/metrics"))
    (Admin.parse_request_line heads.(1));
  Alcotest.(check (option (pair string string))) "POST refused" None
    (Admin.parse_request_line heads.(3));
  for _ = 1 to 5000 do
    let h = heads.(Rng.int rng (Array.length heads)) in
    let b = Bytes.of_string h in
    for _ = 0 to Rng.int rng 3 do
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
    done;
    let noise = String.init (Rng.int rng 64) (fun _ -> Char.chr (Rng.int rng 256)) in
    List.iter
      (fun head ->
        match Admin.parse_request_line head with
        | Some _ | None -> ()
        | exception e -> Alcotest.failf "raised %s on %S" (Printexc.to_string e) head)
      [ Bytes.to_string b; String.sub h 0 (Rng.int rng (String.length h)); noise ]
  done

(* The admin routes of a bare service around a network pipeline run (what
   [anyseq network --admin] serves): /statusz carries the service members
   and the pipeline's progress, /metrics and /healthz answer. *)
let test_admin_service_routes_pipeline () =
  let rng = Rng.create ~seed:24 in
  let root = Anyseq.Genome_gen.generate rng ~len:160 () in
  let seqs =
    Array.init 12 (fun i ->
        (Printf.sprintf "s%d" i, Anyseq.Genome_gen.mutate rng root))
  in
  let service = Service.create () in
  let started_at = Unix.gettimeofday () in
  let path = fresh_socket_path () in
  let out = Filename.temp_file "anyseq_test_admin" ".tsv" in
  match
    Admin.start ~addr:(Addr.Unix_socket path)
      ~handler:(Server.service_routes ~started_at service)
  with
  | Error msg -> Alcotest.failf "admin start: %s" msg
  | Ok admin ->
      Fun.protect
        ~finally:(fun () ->
          Admin.stop admin;
          Service.shutdown service;
          Sys.remove out)
      @@ fun () ->
      let addr = Admin.address admin in
      (match
         Anyseq.Pipeline.run ~service ~out
           { Anyseq.Pipeline.default_params with min_shared = 3 }
           (Anyseq.Pipeline.Seqs seqs)
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "pipeline: %s" msg);
      ignore (get_ok "/metrics" addr "/metrics");
      Alcotest.(check string) "/healthz" "ok\n" (get_ok "/healthz" addr "/healthz");
      match Jsonv.parse (get_ok "/statusz" addr "/statusz") with
      | Error msg -> Alcotest.failf "/statusz unparsable: %s" msg
      | Ok doc ->
          List.iter
            (fun key ->
              Alcotest.(check bool) ("statusz has " ^ key) true (Jsonv.member key doc <> None))
            [ "server"; "shards"; "cache"; "tiers"; "network"; "build" ];
          let net = Option.get (Jsonv.member "network" doc) in
          Alcotest.(check string) "network phase" "done" (Jsonv.str "phase" net);
          Alcotest.(check (float 0.0)) "network seqs indexed" 12.0 (Jsonv.num "seqs_indexed" net);
          Alcotest.(check bool) "no server-only members" true (Jsonv.member "requests" doc = None)

(* [anyseq top]'s rendering of both /statusz shapes: a network run's has
   no requests, connections or dispatch queue to show, so no such line. *)
let test_top_render () =
  let contains text sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length text && (String.sub text i n = sub || at (i + 1)) in
    at 0
  in
  let common =
    [
      ("shards", Jsonv.List [ Jsonv.Obj (Jsonv.ints [ ("shard", 0); ("jobs", 42) ]) ]);
      ("tiers", Jsonv.Obj (Jsonv.ints [ ("native", 40); ("wavefront", 2) ]));
      ("cache", Jsonv.Obj (Jsonv.ints [ ("size", 1); ("capacity", 64); ("hits", 3); ("misses", 1) ]));
    ]
  in
  let network =
    Jsonv.Obj
      ([
         ("server", Jsonv.Obj [ ("uptime_s", Jsonv.Num 12.0); ("draining", Jsonv.Bool false) ]);
         ( "network",
           Jsonv.Obj
             (("phase", Jsonv.Str "align")
             :: Jsonv.ints [ ("seqs_indexed", 100); ("pairs_aligned", 7); ("pairs_total", 10) ]) );
       ]
      @ common)
  in
  let server =
    Jsonv.Obj
      ([
         ( "server",
           Jsonv.Obj
             (("uptime_s", Jsonv.Num 3.0) :: ("draining", Jsonv.Bool true)
             :: Jsonv.ints [ ("connections", 3); ("dispatch_queue", 1) ]) );
         ("requests", Jsonv.Obj (Jsonv.ints [ ("received", 5); ("replied", 4); ("bad", 1) ]));
       ]
      @ common)
  in
  Alcotest.(check (option (float 0.0))) "network has no replied count" None (Top.replied network);
  Alcotest.(check (option (float 0.0))) "server replied count" (Some 4.0) (Top.replied server);
  let net = Top.render ~label:"unix:/a" ~rate:0.0 network in
  let srv = Top.render ~label:"unix:/s" ~rate:2.0 server in
  List.iter
    (fun (what, text, sub, want) -> Alcotest.(check bool) what want (contains text sub))
    [
      ("network: header", net, "anyseq top — unix:/a   uptime 12s   draining: no\n", true);
      ("network: no requests line", net, "requests:", false);
      ("network: no connections", net, "connections:", false);
      ("network: progress", net, "network [align]: 100 seqs indexed, 7/10 pairs aligned", true);
      ("network: tiers", net, "tiers:  native 40  wavefront 2\n", true);
      ("network: cache", net, "cache: 1/64 entries, hit rate 75.0%\n", true);
      ("network: shard row", net, "\n0              42", true);
      ("server: header", srv, "uptime 3s   draining: YES\n", true);
      ( "server: requests line",
        srv,
        "requests: 5 received, 4 replied (2.0 req/s), 1 bad, 0 rejected   connections: 3   \
         dispatch queue: 1\n",
        true );
      ("server: no network line", srv, "network [", false);
    ]

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "reply roundtrip" `Quick test_wire_reply_roundtrip;
          Alcotest.test_case "truncated frames" `Quick test_wire_truncated;
          Alcotest.test_case "malformed frames" `Quick test_wire_malformed;
          Alcotest.test_case "mutation fuzz" `Quick test_wire_fuzz;
          Alcotest.test_case "config resolution" `Quick test_wire_resolve;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "max batch" `Quick test_batcher_max_batch;
          Alcotest.test_case "max wait zero" `Quick test_batcher_max_wait;
          Alcotest.test_case "window groups" `Quick test_batcher_wait_window_groups;
          Alcotest.test_case "idle dispatch" `Quick test_batcher_idle_dispatch;
          Alcotest.test_case "release closes" `Quick test_batcher_release_closes;
          Alcotest.test_case "full while in flight" `Quick test_batcher_full_in_flight;
          Alcotest.test_case "close while in flight" `Quick test_batcher_close_in_flight;
          Alcotest.test_case "release on raise" `Quick test_batcher_release_on_raise;
          Alcotest.test_case "backpressure" `Quick test_batcher_backpressure;
          Alcotest.test_case "close drains" `Quick test_batcher_close_drains;
          Alcotest.test_case "wakes blocked consumer" `Quick test_batcher_wakes_blocked_consumer;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "matches direct align" `Slow test_loopback_matches_direct;
          Alcotest.test_case "malformed kills connection only" `Quick
            test_loopback_malformed_kills_connection_only;
          Alcotest.test_case "timeout and errors" `Quick test_loopback_timeout_and_errors;
          Alcotest.test_case "lone requests skip the window" `Quick
            test_loopback_lone_requests_skip_window;
          Alcotest.test_case "graceful drain" `Quick test_loopback_drain;
          Alcotest.test_case "drain under load" `Slow test_loopback_drain_under_load;
          Alcotest.test_case "drain under load, sharded" `Slow
            test_loopback_drain_under_load_sharded;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "threads stay flat" `Quick test_threads_stay_flat;
          Alcotest.test_case "select limit" `Quick test_select_limit;
          Alcotest.test_case "slow consumer" `Slow test_slow_consumer;
        ] );
      ( "observability",
        [
          Alcotest.test_case "wire trace roundtrip" `Quick test_wire_trace_roundtrip;
          Alcotest.test_case "mixed protocol versions" `Quick test_wire_mixed_version;
          Alcotest.test_case "flight ring wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "trace propagation over loopback" `Quick
            test_trace_propagation_loopback;
          Alcotest.test_case "metrics scrape under load" `Slow test_admin_metrics_under_load;
          Alcotest.test_case "healthz, statusz, flight routes" `Quick
            test_admin_health_status_flight;
          Alcotest.test_case "head end straddling two reads" `Quick test_admin_straddled_head;
          Alcotest.test_case "request line fuzz" `Quick test_admin_request_line_fuzz;
          Alcotest.test_case "service routes around a pipeline" `Quick
            test_admin_service_routes_pipeline;
          Alcotest.test_case "top renders both statusz shapes" `Quick test_top_render;
        ] );
    ]
