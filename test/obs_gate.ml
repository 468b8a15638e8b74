(* obs-gate: tier-1 check of end-to-end observability, run by
   `dune build @obs-gate`.

   One traced pipelined load through a real two-shard server on a Unix
   socket, with the admin endpoint up on a loopback TCP port. Assertions:

   1. {b Stitched cross-process trace.} Every client-minted trace id on a
      [client.request] span reappears on a [server.request] span (and on
      the [service.exec] spans that did the work) — the wire carried the
      context and the server adopted it, so a Chrome export of both sides
      renders one stitched trace.

   2. {b Stage decomposition is complete.} Each of the five
      [server/stage_*_us] histograms scraped from [/metrics] holds
      exactly [requests_replied] observations — every replied request was
      stamped at every stage, none double-counted.

   3. {b Per-shard gauges are consistent.} The labeled
      [anyseq_runtime_shard_*] series exposed by [/metrics] sum to the
      same totals [Service.shard_stats] reports at scrape time.

   4. {b The flight recorder saw the flight.} The ring recorded every
      replied request (load is below its capacity here) and
      [/debug/flight] serves them as parsable JSON.

   5. {b Every batch has one close reason.} The [server/batch_close_*]
      counters (full, idle, window, drain) sum to the number of batches
      the [server/batch_jobs] histogram observed.

   6. {b Every native global score job has one band outcome.} The load
      is global score jobs on the native tier, so
      [runtime/band_certified] + [runtime/band_dense] equals
      [runtime/tier_native], and all three [runtime/band_*] counters are
      exported. *)

module Rng = Anyseq_util.Rng
module Service = Anyseq.Service
module Metrics = Anyseq.Metrics
module Wire = Anyseq.Wire
module Addr = Anyseq.Addr
module Client = Anyseq.Client
module Server = Anyseq.Server
module Admin = Anyseq.Admin
module Flight = Anyseq.Flight
module Jsonv = Anyseq.Jsonv
module Trace = Anyseq.Trace

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL: %s\n" what
  end

let checkf what fmt = Printf.ksprintf (fun msg -> check (what ^ ": " ^ msg)) fmt

let contains ~affix s =
  let la = String.length affix and ls = String.length s in
  let rec at i = i + la <= ls && (String.sub s i la = affix || at (i + 1)) in
  at 0

let random_pairs ~seed ~count ~max_len =
  let rng = Rng.create ~seed in
  Array.init count (fun _ ->
      let dna n = String.init n (fun _ -> "ACGT".[Rng.int rng 4]) in
      (dna (1 + Rng.int rng max_len), dna (1 + Rng.int rng max_len)))

let n_requests = 200

let () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "anyseq-obs-gate-%d.sock" (Unix.getpid ()))
  in
  let addr = Addr.Unix_socket path in
  let admin_addr =
    match Addr.parse "tcp:127.0.0.1:0" with Ok a -> a | Error m -> failwith m
  in
  let cfg =
    { (Server.default_config ~addrs:[ addr ] ~shards:2 ~admin:admin_addr ()) with
      Server.max_batch = 16 }
  in
  Trace.enable ();
  (match Server.start cfg with
  | Error msg -> checkf "server" "start: %s" msg false
  | Ok srv ->
      let admin =
        match Server.admin_address srv with
        | Some a -> a
        | None -> failwith "admin listener missing"
      in
      (* ---- traced load ---- *)
      let pairs = random_pairs ~seed:31 ~count:n_requests ~max_len:96 in
      let conn = match Client.connect addr with Ok c -> c | Error m -> failwith m in
      (match Client.align_many conn ~window:32 pairs with
      | Error msg -> checkf "load" "%s" msg false
      | Ok results ->
          Array.iteri
            (fun i r ->
              match r with
              | Ok _ -> ()
              | Error e ->
                  checkf "load" "pair %d: %s" i (Client.error_to_string e) false)
            results);
      Client.close conn;
      (* ---- 1: stitched trace ---- *)
      let spans = Trace.spans () in
      let ids_of name =
        List.filter_map
          (fun (s : Trace.span) ->
            if s.Trace.name = name then
              List.find_map
                (function "trace_id", Trace.Str v -> Some v | _ -> None)
                s.Trace.attrs
            else None)
          spans
      in
      let client_ids = ids_of "client.request" in
      let server_ids = ids_of "server.request" in
      let exec_ids = ids_of "service.exec" in
      checkf "trace" "client spans recorded (%d)" (List.length client_ids)
        (client_ids <> []);
      List.iter
        (fun cid ->
          checkf "trace" "server span for id %s" cid (List.mem cid server_ids))
        client_ids;
      (* A batch stamps its first traced request's id down to the chunks
         it dispatches, so exec spans carry a subset of the client ids —
         but every stamped exec id must be a real client id. *)
      check "service.exec spans carry client trace ids" (exec_ids <> []);
      List.iter
        (fun eid ->
          checkf "trace" "exec id %s minted by the client" eid
            (List.mem eid client_ids))
        exec_ids;
      (* ---- 2 + 3: /metrics mid-flight consistency ---- *)
      let metrics_body =
        match Admin.http_get admin "/metrics" with
        | Ok (200, body) -> body
        | Ok (status, _) ->
            checkf "metrics" "HTTP %d" status false;
            ""
        | Error msg ->
            checkf "metrics" "%s" msg false;
            ""
      in
      let m = Server.metrics srv in
      let replied =
        Option.value ~default:0 (Metrics.find m "server/requests_replied")
      in
      check "some requests replied" (replied >= n_requests);
      List.iter
        (fun stage ->
          let name = "server/stage_" ^ stage ^ "_us" in
          (match Metrics.find_hist m name with
          | Some h ->
              checkf "stage" "%s count %d = replied %d" stage (Metrics.hist_count h)
                replied
                (Metrics.hist_count h = replied)
          | None -> checkf "stage" "%s missing" name false);
          checkf "stage" "%s exported" stage
            (contains metrics_body
               ~affix:(Printf.sprintf "anyseq_server_stage_%s_us_bucket" stage)))
        Server.stages;
      let stats = Service.shard_stats (Server.service srv) in
      check "two shards" (Array.length stats = 2);
      List.iter
        (fun (metric, field) ->
          let expected = Array.fold_left (fun a s -> a + field s) 0 stats in
          let exported =
            Metrics.fold_labeled m ("runtime/" ^ metric) (fun acc _ v -> acc + v) 0
          in
          checkf "shard gauges" "%s exported %d = shard_stats %d" metric exported
            expected (exported = expected);
          checkf "shard gauges" "%s labeled series present" metric
            (contains metrics_body
               ~affix:(Printf.sprintf "anyseq_runtime_%s{shard=\"0\"}" metric)))
        [
          ("shard_jobs", fun s -> s.Service.ss_jobs);
          ("shard_enqueued", fun s -> s.Service.ss_enqueued);
          ("shard_run_local", fun s -> s.Service.ss_run_local);
          ("shard_steals", fun s -> s.Service.ss_steals);
          ("shard_stolen_from", fun s -> s.Service.ss_stolen_from);
        ];
      (* ---- 4: flight recorder ---- *)
      check "flight recorded every reply"
        (Flight.recorded (Server.flight srv) >= n_requests);
      (match Admin.http_get admin "/debug/flight" with
      | Ok (200, body) -> (
          match Jsonv.parse body with
          | Ok doc -> (
              match Option.bind (Jsonv.member "records" doc) Jsonv.to_list with
              | Some records ->
                  checkf "flight" "%d records served" (List.length records)
                    (records <> [])
              | None -> check "flight records array" false)
          | Error msg -> checkf "flight" "unparsable JSON: %s" msg false)
      | Ok (status, _) -> checkf "flight" "HTTP %d" status false
      | Error msg -> checkf "flight" "%s" msg false);
      (* ---- 5: batch close reasons ---- *)
      let closes =
        List.fold_left
          (fun acc why ->
            acc + Option.value ~default:0 (Metrics.find m ("server/batch_close_" ^ why)))
          0
          [ "full"; "idle"; "window"; "drain" ]
      in
      (match Metrics.find_hist m "server/batch_jobs" with
      | Some h ->
          checkf "batches" "close reasons %d = batch_jobs count %d" closes
            (Metrics.hist_count h) (closes = Metrics.hist_count h)
      | None -> check "server/batch_jobs missing" false);
      (* ---- 6: the band settles or hands over every native score job ---- *)
      let count name = Option.value ~default:0 (Metrics.find m ("runtime/" ^ name)) in
      let native = count "tier_native" in
      checkf "band" "certified %d + dense %d = native global score jobs %d"
        (count "band_certified") (count "band_dense") native
        (count "band_certified" + count "band_dense" = native && native > 0);
      List.iter
        (fun name ->
          checkf "band" "%s exported" name
            (contains metrics_body ~affix:("anyseq_runtime_" ^ name ^ " ")))
        [ "band_certified"; "band_dense"; "band_rounds" ];
      Server.stop srv);
  Trace.disable ();
  if !failures > 0 then begin
    Printf.printf "obs-gate: %d failure(s)\n" !failures;
    exit 1
  end;
  Printf.printf
    "obs-gate: %d traced requests; stitched spans, 5 stage histograms at count %d, \
     per-shard gauges consistent, flight ring populated, one close reason per batch, \
     one band outcome per native job\n"
    n_requests n_requests
