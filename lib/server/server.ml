module Wire = Anyseq_client.Wire
module Addr = Anyseq_client.Addr
module Service = Anyseq_runtime.Service
module Rconfig = Anyseq_runtime.Config
module Rerror = Anyseq_runtime.Error
module Metrics = Anyseq_runtime.Metrics
module Trace = Anyseq_trace.Trace
module Timer = Anyseq_util.Timer
module Cigar = Anyseq_bio.Cigar
module Alignment = Anyseq_bio.Alignment
module Sequence = Anyseq_bio.Sequence
module Scheme = Anyseq_scoring.Scheme
module Jsonv = Anyseq_util.Jsonv

type config = {
  addrs : Addr.t list;
  max_batch : int;
  max_wait_us : int;
  max_pending : int;
  shards : int;
  admin : Addr.t option;
  flight_capacity : int;
}

let default_config ?(addrs = []) ?(shards = 1) ?admin () =
  {
    addrs;
    max_batch = 64;
    max_wait_us = 2000;
    max_pending = 8192;
    shards;
    admin;
    flight_capacity = Flight.default_capacity;
  }

(* A connection. Only the I/O thread touches it: [inbuf] holds the bytes
   read but not yet split into frames, [out] the encoded replies it is
   owed, the head one written up to [out_off]. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable in_len : int;
  out : string Queue.t;
  mutable out_off : int;
  mutable reading : bool;  (** cleared at EOF or a bad frame: flush, then close *)
}

(* An admitted request waiting for the dispatch worker. The view keeps the
   sequences as ranges of the raw frame payload — they are parsed straight
   into packed buffers at dispatch, never copied out as strings. The three
   stamps are the first stages of the request's latency decomposition:
   frame off the socket, config decoded/interned, admitted into the
   batcher. *)
type pending = {
  pview : Wire.request_view;
  pcfg : Rconfig.t;
  pconn : conn;
  p_accept_ns : int64;
  p_decode_ns : int64;
  enq_ns : int64;
}

(* A batch in flight inside the service: submitted, not yet awaited. The
   dispatch worker produces these; the completer consumes them in
   submission order, so replies leave in the order batches formed while
   the shards already chew on the next batch. *)
type inflight = {
  if_items : pending array;
  if_parsed : (Service.seq_job, Rerror.t) result array;
  if_ticket : Service.ticket;
  if_t0 : int64;  (** submit timestamp; queue/service split point *)
}

type t = {
  cfg : config;
  srv : Service.t;
  owns_srv : bool;  (** created by [start]; shut its worker domains down on stop *)
  batcher : pending Batcher.t;
  completions : inflight Batcher.t;
  listeners : (Unix.file_descr * Addr.t) list;
  stop_requested : bool Atomic.t;
  draining : bool Atomic.t;
  finishing : bool Atomic.t;  (** drain done: the I/O loop flushes, closes, exits *)
  stopped : bool Atomic.t;
  (* The I/O thread owns [conns], [next_cid] and [interned]. *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  conn_count : int Atomic.t;  (** [Hashtbl.length conns], for other threads *)
  mutable next_cid : int;
  interned : (string, Rconfig.t) Hashtbl.t;
  outbox : (conn * string) Queue.t;  (** replies on their way to the I/O thread *)
  outbox_mutex : Mutex.t;
  wake_r : Unix.file_descr;  (** self-pipe: a byte wakes the I/O thread's select *)
  wake_w : Unix.file_descr;
  stop_mutex : Mutex.t;
  mutable io : Thread.t option;
  mutable worker : Thread.t option;
  mutable completer : Thread.t option;
  (* observability *)
  flight : Flight.t;
  mutable admin : Admin.t option;
  started_at : float;  (** wall clock, for /statusz uptime *)
  dump_flag : bool Atomic.t;  (** SIGUSR1 / burst trigger → the I/O loop dumps *)
  burst_window_ns : int64 Atomic.t;  (** start of the current miss window *)
  burst_misses : int Atomic.t;  (** deadline misses inside the window *)
  last_dump_ns : int64 Atomic.t;  (** burst-dump cooldown *)
}

let service t = t.srv
let metrics t = Service.metrics t.srv
let addresses t = List.map snd t.listeners
let is_stopped t = Atomic.get t.stopped
let flight t = t.flight
let admin_address t = Option.map Admin.address t.admin
let ctr t name = Metrics.counter (metrics t) ("server/" ^ name)
let hist t name = Metrics.histogram (metrics t) ("server/" ^ name)

let connections t = Atomic.get t.conn_count

let flight_dump_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "anyseq-flight-%d.json" (Unix.getpid ()))

(* Deadline-miss burst trigger: [burst_threshold] Timeout outcomes inside
   one second arm the dump flag — the flight ring then still holds the
   requests leading up to the storm. A cooldown turns a sustained storm
   into one snapshot, not a disk flood. *)
let burst_threshold = 8
let burst_window_span_ns = 1_000_000_000L
let burst_cooldown_ns = 5_000_000_000L

let note_deadline_miss t now =
  if Int64.sub now (Atomic.get t.burst_window_ns) > burst_window_span_ns then begin
    Atomic.set t.burst_window_ns now;
    Atomic.set t.burst_misses 1
  end
  else if
    Atomic.fetch_and_add t.burst_misses 1 + 1 >= burst_threshold
    && Int64.sub now (Atomic.get t.last_dump_ns) > burst_cooldown_ns
  then begin
    Atomic.set t.last_dump_ns now;
    Metrics.incr (ctr t "flight_burst_triggers");
    Atomic.set t.dump_flag true
  end

let close_listeners =
  List.iter (fun (fd, addr) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Addr.unlink_if_socket addr)

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ()

(* ---- config interning ----
   [Spec_cache] validates scheme identity physically, so decoding a fresh
   Scheme.t per request would thrash it. Interning by the canonical wire
   bytes gives every distinct wire configuration one physical Config.t for
   the server's lifetime — the cache sees repeat customers. *)

let intern_limit = 1024

let intern_config t wc =
  let key = Wire.config_key wc in
  match Hashtbl.find_opt t.interned key with
  | Some cfg -> Ok cfg
  | None -> (
      match Wire.resolve_config wc with
      | Error _ as e -> e
      | Ok cfg ->
          (* A hostile client could fill the table with one-off configs;
             beyond the bound we serve uncached (correct, just slower). *)
          if Hashtbl.length t.interned < intern_limit then Hashtbl.add t.interned key cfg;
          Ok cfg)

(* ---- reply path ----
   Replies cross threads in one place: the completer (or the worker,
   replying inline) appends them to [outbox] and, when it was empty,
   writes a byte to the self-pipe. The I/O thread queues them on their
   connections and writes them out. *)

let wake t =
  try ignore (Unix.single_write_substring t.wake_w "!" 0 1) with Unix.Unix_error _ -> ()

let send t conn frame =
  Mutex.lock t.outbox_mutex;
  let was_empty = Queue.is_empty t.outbox in
  Queue.add (conn, frame) t.outbox;
  Mutex.unlock t.outbox_mutex;
  if was_empty then wake t

(* ---- dispatch worker ---- *)

(* Stage 1: parse and submit. Returns the ticket without waiting, so the
   worker can form the next batch while the shards execute this one. *)
let submit_batch t batch =
  let items = Array.of_list batch in
  let n = Array.length items in
  let t0 = Timer.now_ns () in
  (* Parse each request's sequences straight from its frame payload into
     packed code buffers — the same conversion (and the same error text)
     the service's string parse phase performs, minus the string copies.
     A bad sequence fails its own slot here and never reaches the
     service. *)
  let parsed =
    Array.map
      (fun p ->
        let v = p.pview in
        let alphabet = Scheme.alphabet p.pcfg.Rconfig.scheme in
        match
          ( Sequence.of_substring alphabet v.Wire.rv_payload ~pos:v.Wire.rv_query_pos
              ~len:v.Wire.rv_query_len,
            Sequence.of_substring alphabet v.Wire.rv_payload ~pos:v.Wire.rv_subject_pos
              ~len:v.Wire.rv_subject_len )
        with
        | q, s ->
            (* The deadline the client asked for started ticking on arrival,
               not on dispatch: hand the service only what is left of it. *)
            let timeout_s =
              Option.map
                (fun s' -> s' -. (Int64.to_float (Int64.sub t0 p.enq_ns) *. 1e-9))
                v.Wire.rv_timeout_s
            in
            Ok (Service.seq_job ~config:p.pcfg ?timeout_s ~query:q ~subject:s ())
        | exception Invalid_argument msg -> Error (Rerror.Bad_sequence msg))
      items
  in
  let jobs = Array.of_list (List.filter_map Result.to_option (Array.to_list parsed)) in
  (* Thread the client's trace id down through the service spans: a batch
     mixes requests from many clients, so stamp the first traced request's
     id plus how many rode along — enough to find the batch from a trace
     id and vice versa. *)
  let trace_attrs =
    let traced =
      Array.to_list items
      |> List.filter_map (fun p -> p.pview.Wire.rv_trace)
    in
    match traced with
    | [] -> []
    | tc :: _ ->
        [
          ("trace_id", Trace.Str (Wire.trace_id_to_string tc.Wire.trace_id));
          ("traced", Trace.Int (List.length traced));
        ]
  in
  let ticket =
    Trace.with_span "server.dispatch"
      ~attrs:
        ([ ("jobs", Trace.Int n); ("queued", Trace.Int (Batcher.depth t.batcher)) ]
        @ trace_attrs)
      (fun () -> Service.submit_seqs t.srv ~attrs:trace_attrs jobs)
  in
  { if_items = items; if_parsed = parsed; if_ticket = ticket; if_t0 = t0 }

(* Stage 2: await the ticket and fan the replies out. Runs on the
   completer thread (or inline when the completion queue is saturated —
   natural backpressure on the submitting worker). *)
let reply_batch t inf =
  let items = inf.if_items and parsed = inf.if_parsed and t0 = inf.if_t0 in
  let n = Array.length items in
  let live_results =
    Trace.with_span "server.await"
      ~attrs:[ ("jobs", Trace.Int n) ]
      (fun () -> Service.await inf.if_ticket)
  in
  let done_ns = Timer.now_ns () in
  let service_ns = Int64.sub done_ns t0 in
  Metrics.observe (hist t "batch_jobs") n;
  Metrics.observe (hist t "service_us") (Int64.to_int service_ns / 1000);
  Trace.with_span "server.reply" ~attrs:[ ("jobs", Trace.Int n) ] @@ fun () ->
  (* The [k]th live result answers the [k]th item that parsed. *)
  let k = ref 0 in
  Array.iteri
    (fun i p ->
      let result =
        match parsed.(i) with
        | Ok _ ->
            incr k;
            live_results.(!k - 1)
        | Error e -> Error e
      in
      let payload, outcome =
        match result with
        | Ok (o : Service.outcome) ->
            let cigar =
              Option.map (fun a -> Cigar.to_string a.Alignment.cigar) o.Service.alignment
            in
            ( Wire.Result
                {
                  score = o.Service.score;
                  query_end = o.Service.query_end;
                  subject_end = o.Service.subject_end;
                  cigar;
                },
              "ok" )
        | Error e ->
            let code = Wire.error_code_of_runtime e in
            if code = Wire.Timeout then note_deadline_miss t done_ns;
            ( Wire.Failure { code; message = Rerror.to_string e },
              Wire.code_to_string code )
      in
      let queue_ns = Int64.sub t0 p.enq_ns in
      Metrics.observe (hist t "queue_us") (Int64.to_int queue_ns / 1000);
      let reply =
        { Wire.rid = p.pview.Wire.rv_id; payload; queue_ns; service_ns; batch_jobs = n }
      in
      let frame = Wire.encode_reply reply in
      (* Stage decomposition: one observation per stage per request, so
         every stage histogram's count matches requests replied through
         the batch path and the stages sum to the request's wall time.
         Stages, flight record and span are all in place before the reply
         is handed over: a client holding its answer finds them. *)
      let reply_ns = Timer.now_ns () in
      let stage name a b =
        Metrics.observe (hist t name) (Int64.to_int (Int64.sub b a) / 1000)
      in
      stage "stage_decode_us" p.p_accept_ns p.p_decode_ns;
      stage "stage_admit_us" p.p_decode_ns p.enq_ns;
      stage "stage_queue_us" p.enq_ns t0;
      stage "stage_execute_us" t0 done_ns;
      stage "stage_reply_us" done_ns reply_ns;
      Flight.record t.flight
        {
          Flight.fr_rid = p.pview.Wire.rv_id;
          fr_cid = p.pconn.cid;
          fr_config = Rconfig.to_string p.pcfg;
          fr_trace = Option.map (fun tc -> tc.Wire.trace_id) p.pview.Wire.rv_trace;
          fr_accept_ns = p.p_accept_ns;
          fr_decode_ns = p.p_decode_ns;
          fr_enqueue_ns = p.enq_ns;
          fr_submit_ns = t0;
          fr_done_ns = done_ns;
          fr_reply_ns = reply_ns;
          fr_batch_jobs = n;
          fr_outcome = outcome;
        };
      (* The server half of the stitched cross-process trace: a completed
         [server.request] span covering accept → reply, parented under the
         client's span and tagged with its trace id. *)
      (match p.pview.Wire.rv_trace with
      | Some tc when Trace.enabled () ->
          ignore
            (Trace.emit "server.request"
               ~parent:(Int64.to_int tc.Wire.parent_span)
               ~attrs:
                 [
                   ("trace_id", Trace.Str (Wire.trace_id_to_string tc.Wire.trace_id));
                   ("rid", Trace.Int (Int64.to_int p.pview.Wire.rv_id));
                   ("outcome", Trace.Str outcome);
                   ("batch_jobs", Trace.Int n);
                 ]
               ~start_ns:p.p_accept_ns ~end_ns:reply_ns)
      | _ -> ());
      send t p.pconn frame)
    items

(* A batch leaves the batcher's in-flight count once its replies are out —
   also when replying raised, or the next batch would wait out its whole
   window behind a batch that no longer executes. *)
let reply_and_release t inf =
  Fun.protect ~finally:(fun () -> Batcher.release t.batcher) (fun () -> reply_batch t inf)

let worker_loop t =
  let rec go () =
    match Batcher.next_batch t.batcher with
    | None -> ()
    | Some (batch, why) ->
        Metrics.incr (ctr t ("batch_close_" ^ Batcher.close_name why));
        let inf = submit_batch t batch in
        (* The completion queue full means the completer is behind by
           [max_pending] batches: await this one right here instead of
           letting tickets pile up unboundedly. *)
        if not (Batcher.push t.completions inf) then reply_and_release t inf;
        go ()
  in
  go ()

let completer_loop t =
  let rec go () =
    match Batcher.take_one t.completions with
    | None -> ()
    | Some inf ->
        reply_and_release t inf;
        go ()
  in
  go ()

(* ---- the I/O loop ----
   One thread and one [select]; every socket is non-blocking. *)

let close_conn t c =
  c.reading <- false;
  match Hashtbl.find_opt t.conns c.fd with
  | Some open_c when open_c == c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Hashtbl.remove t.conns c.fd;
      Atomic.decr t.conn_count;
      Metrics.incr (ctr t "connections_closed");
      Metrics.gauge_set (metrics t) "server/connections" (connections t)
  | _ -> ()

(* No more input from [c]: deliver what it is owed, then close. *)
let stop_reading t c =
  c.reading <- false;
  if Queue.is_empty c.out then close_conn t c

let queue_reply t c frame =
  if not c.reading then Metrics.incr (ctr t "replies_dropped")
  else if Queue.length c.out >= 4 * t.cfg.max_pending then begin
    (* Slow consumer: its replies pile up faster than it reads. Cutting the
       connection is the only bounded-memory option. *)
    Metrics.incr (ctr t "slow_consumer_drops");
    close_conn t c
  end
  else begin
    Queue.add frame c.out;
    Metrics.incr (ctr t "requests_replied")
  end

(* Write what [c] is owed until its socket would block. *)
let rec flush t c =
  match Queue.peek_opt c.out with
  | None -> if not c.reading then close_conn t c
  | Some frame -> (
      let len = String.length frame - c.out_off in
      match Unix.single_write_substring c.fd frame c.out_off len with
      | n when n = len ->
          ignore (Queue.pop c.out);
          c.out_off <- 0;
          flush t c
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close_conn t c)

(* Answer a request before dispatch (draining, bad config, full queue). It
   still leaves a flight record: the stages it never reached keep the last
   stamp it did reach, so stage deltas stay non-negative. *)
let reject t conn ~rid ~trace ~config ~accept_ns ~decode_ns counter code message =
  Metrics.incr (ctr t counter);
  let payload = Wire.Failure { code; message } in
  queue_reply t conn
    (Wire.encode_reply { Wire.rid; payload; queue_ns = 0L; service_ns = 0L; batch_jobs = 0 });
  Flight.record t.flight
    {
      Flight.fr_rid = rid;
      fr_cid = conn.cid;
      fr_config = config;
      fr_trace = trace;
      fr_accept_ns = accept_ns;
      fr_decode_ns = decode_ns;
      fr_enqueue_ns = decode_ns;
      fr_submit_ns = decode_ns;
      fr_done_ns = decode_ns;
      fr_reply_ns = Timer.now_ns ();
      fr_batch_jobs = 0;
      fr_outcome = Wire.code_to_string code;
    }

let handle_frame t conn ~version ~kind payload =
  let accept_ns = Timer.now_ns () in
  match
    if kind = Wire.kind_request then Wire.decode_request_view ~version payload
    else Error "not a request"
  with
  | Error _ ->
      (* A corrupt frame, or a peer speaking the protocol backwards: the
         stream cannot be resynced, so this connection dies; the server
         keeps serving everyone else. *)
      Metrics.incr (ctr t "bad_frames");
      stop_reading t conn
  | Ok req -> (
      Metrics.incr (ctr t "requests_received");
      let rid = req.Wire.rv_id in
      let trace = Option.map (fun tc -> tc.Wire.trace_id) req.Wire.rv_trace in
      let reject = reject t conn ~rid ~trace ~accept_ns in
      if Atomic.get t.draining then
        reject ~config:"" ~decode_ns:accept_ns "draining_rejected" Wire.Draining
          "server is draining"
      else
        match intern_config t req.Wire.rv_config with
        | Error msg ->
            reject ~config:"" ~decode_ns:accept_ns "bad_requests" Wire.Bad_request msg
        | Ok pcfg ->
            let decode_ns = Timer.now_ns () in
            let p =
              {
                pview = req;
                pcfg;
                pconn = conn;
                p_accept_ns = accept_ns;
                p_decode_ns = decode_ns;
                enq_ns = Timer.now_ns ();
              }
            in
            if Batcher.push t.batcher p then
              Metrics.gauge_set (metrics t) "server/queue_depth" (Batcher.depth t.batcher)
            else
              reject ~config:(Rconfig.to_string pcfg) ~decode_ns "queue_rejected"
                Wire.Rejected "server request queue full")

(* Handle every whole frame in [c]'s input; keep the partial tail. Each
   payload is a fresh string: the request views borrow it. *)
let split_input t c =
  let rec go pos =
    if c.reading then
      match Wire.split_frame c.inbuf ~pos ~len:(c.in_len - pos) with
      | Ok (version, kind, payload, used) ->
          handle_frame t c ~version ~kind payload;
          go (pos + used)
      | Error `Incomplete when pos = 0 -> ()
      | Error `Incomplete ->
          Bytes.blit c.inbuf pos c.inbuf 0 (c.in_len - pos);
          c.in_len <- c.in_len - pos
      | Error (`Malformed _) ->
          Metrics.incr (ctr t "bad_frames");
          stop_reading t c
  in
  go 0

let read_conn t c =
  if c.in_len = Bytes.length c.inbuf then c.inbuf <- Bytes.extend c.inbuf 0 c.in_len;
  match Unix.read c.fd c.inbuf c.in_len (Bytes.length c.inbuf - c.in_len) with
  | 0 ->
      (* A close between frames is orderly; inside a payload it cuts a
         frame short. *)
      if c.in_len >= Wire.header_bytes then Metrics.incr (ctr t "bad_frames");
      stop_reading t c
  | n ->
      c.in_len <- c.in_len + n;
      split_input t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> stop_reading t c

(* [Unix.select] fails with EINVAL on a descriptor at or past FD_SETSIZE. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error _ -> true

let accept_conn t lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ when not (selectable fd) ->
      (* A connection the loop could not watch is refused: this bounds
         how many a peer can hold open. *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Metrics.incr (ctr t "connections_refused")
  | fd, _ ->
      Trace.with_span "server.accept" @@ fun () ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      Unix.set_nonblock fd;
      let c =
        {
          cid = t.next_cid;
          fd;
          inbuf = Bytes.create 16384;
          in_len = 0;
          out = Queue.create ();
          out_off = 0;
          reading = true;
        }
      in
      t.next_cid <- t.next_cid + 1;
      Hashtbl.replace t.conns fd c;
      Atomic.incr t.conn_count;
      Metrics.incr (ctr t "connections_accepted");
      Metrics.gauge_set (metrics t) "server/connections" (connections t)

(* How long the finishing loop keeps flushing replies to connections that
   do not read them. *)
let flush_deadline_s = 5.0

let io_loop t =
  let listening = ref true and replies = Queue.create () and deadline = ref infinity in
  let pipe_buf = Bytes.create 64 in
  List.iter (fun (fd, _) -> Unix.set_nonblock fd) t.listeners;
  let conns () = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let rec go () =
    (* Read [finishing] before taking the outbox: once it is set, the
       completer has handed over every reply. *)
    let finishing = Atomic.get t.finishing in
    if !listening && Atomic.get t.stop_requested then begin
      listening := false;
      close_listeners t.listeners
    end;
    Mutex.lock t.outbox_mutex;
    Queue.transfer t.outbox replies;
    Mutex.unlock t.outbox_mutex;
    Queue.iter (fun (c, frame) -> queue_reply t c frame) replies;
    Queue.clear replies;
    if finishing && !deadline = infinity then begin
      deadline := Unix.gettimeofday () +. flush_deadline_s;
      List.iter (stop_reading t) (conns ())
    end;
    List.iter (fun c -> if not (Queue.is_empty c.out) then flush t c) (conns ());
    if finishing && (Hashtbl.length t.conns = 0 || Unix.gettimeofday () > !deadline) then
      List.iter (close_conn t) (conns ())
    else begin
      (* Flight dumps happen here, not in the signal handler: SIGUSR1 (and
         the burst trigger) only flip an atomic; the 0.1 s select cadence
         bounds how stale the dump can be. *)
      if Atomic.get t.dump_flag then begin
        Atomic.set t.dump_flag false;
        match Flight.dump t.flight ~path:(flight_dump_path ()) with
        | Ok () -> Metrics.incr (ctr t "flight_dumps")
        | Error _ -> Metrics.incr (ctr t "flight_dump_failures")
      end;
      let cs = conns () in
      let reading = List.filter_map (fun c -> if c.reading then Some c.fd else None) cs in
      let owed = List.filter_map (fun c -> if Queue.is_empty c.out then None else Some c.fd) cs in
      let lfds = if !listening then List.map fst t.listeners else [] in
      (match Unix.select ((t.wake_r :: lfds) @ reading) owed [] 0.1 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.conns fd with
              | Some c -> if c.reading then read_conn t c
              | None when fd = t.wake_r -> (
                  try while Unix.read fd pipe_buf 0 64 = 64 do () done
                  with Unix.Unix_error _ -> ())
              | None -> accept_conn t fd)
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* ---- admin endpoint ---- *)

let stages = [ "decode"; "admit"; "queue"; "execute"; "reply" ]

let service_routes ?(draining = fun () -> false) ?(server = fun () -> [])
    ?(status = fun () -> []) ~started_at srv path =
  let m = Service.metrics srv in
  let draining () = draining () || Service.is_draining srv in
  match path with
  | "/metrics" ->
      (* Refresh scrape-time state so the exposition is a consistent
         snapshot: per-shard gauges match a concurrent [shard_stats], GC
         gauges match the live heap. *)
      Service.publish_shard_stats srv;
      Metrics.record_gc m;
      Admin.ok ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (Metrics.dump_prometheus m)
  | "/healthz" ->
      if draining () then
        Some { Admin.status = 503; content_type = "text/plain"; body = "draining\n" }
      else Admin.ok "ok\n"
  | "/statusz" ->
      let shard (s : Service.shard_stat) =
        Jsonv.Obj
          (Jsonv.ints
             [ ("shard", s.ss_shard); ("jobs", s.ss_jobs); ("queued", s.ss_queued);
               ("in_flight", s.ss_in_flight); ("enqueued", s.ss_enqueued);
               ("run_local", s.ss_run_local); ("steals", s.ss_steals);
               ("stolen_from", s.ss_stolen_from);
               ("minor_words", Float.to_int s.ss_worker_minor_words) ])
      in
      let cs = Service.cache_stats srv in
      let uptime_s = Unix.gettimeofday () -. started_at in
      let fields =
        [ ("uptime_s", Jsonv.Num uptime_s); ("draining", Bool (draining ()));
          ("shards", Int (Service.shards srv)) ]
        @ server ()
      in
      let network =
        Option.fold ~none:[] ~some:(fun net -> [ ("network", net) ])
          (Anyseq_network.Pipeline.status_json m)
      in
      Jsonv.to_string
        (Obj
           ((("server", Jsonv.Obj fields) :: status ())
           @ [ ("shards", Jsonv.List (List.map shard (Array.to_list (Service.shard_stats srv))));
               ( "cache",
                 Obj
                   (Jsonv.ints
                      [ ("hits", cs.hits); ("misses", cs.misses); ("evictions", cs.evictions);
                        ("size", cs.size); ("capacity", cs.capacity) ]) );
               ("tiers", Obj (Jsonv.ints (Service.tier_counts srv))) ]
           @ network
           @ [ ("build", Obj [ ("ocaml", Str Sys.ocaml_version); ("word_size", Int Sys.word_size) ])
             ]))
      |> Admin.ok ~content_type:"application/json"
  | _ -> None

(* The server's own /statusz members and routes on top of [service_routes]:
   request counters, stage latencies, the flight ring, and its connection
   and queue fields. *)
let admin_handler t path =
  let m = metrics t in
  let c name = Option.value ~default:0 (Metrics.find m ("server/" ^ name)) in
  let stage name =
    match Metrics.find_hist m ("server/stage_" ^ name ^ "_us") with
    | Some h ->
        let q p = Jsonv.Num (Metrics.hist_quantile h p) in
        ( name,
          Jsonv.Obj
            [ ("count", Int (Metrics.hist_count h)); ("p50_us", q 0.50); ("p90_us", q 0.90);
              ("p99_us", q 0.99); ("max_us", Int (Metrics.hist_max h)) ] )
    | None -> (name, Jsonv.Obj (Jsonv.ints [ ("count", 0) ]))
  in
  let server () =
    [ ("protocol_version", Jsonv.Int Wire.protocol_version);
      ("min_protocol_version", Int Wire.min_protocol_version);
      ("connections", Int (connections t)); ("dispatch_queue", Int (Batcher.depth t.batcher)) ]
  in
  let status () =
    [ ( "requests",
        Jsonv.Obj
          (Jsonv.ints
             [ ("received", c "requests_received"); ("replied", c "requests_replied");
               ("bad", c "bad_requests"); ("queue_rejected", c "queue_rejected");
               ("draining_rejected", c "draining_rejected");
               ("replies_dropped", c "replies_dropped") ]) );
      ("stages", Obj (List.map stage stages));
      ( "flight",
        Obj
          (Jsonv.ints
             [ ("capacity", Flight.capacity t.flight); ("recorded", Flight.recorded t.flight);
               ("dumps", c "flight_dumps"); ("burst_triggers", c "flight_burst_triggers") ]) ) ]
  in
  match path with
  | "/debug/flight" ->
      Admin.ok ~content_type:"application/json" (Flight.to_json (Flight.snapshot t.flight))
  | _ ->
      service_routes ~draining:(fun () -> Atomic.get t.draining) ~server ~status
        ~started_at:t.started_at t.srv path

(* ---- lifecycle ---- *)

let request_stop t = Atomic.set t.stop_requested true

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  (try Sys.set_signal Sys.sigterm handle with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint handle with Invalid_argument _ -> ());
  (* SIGUSR1 → flight-recorder dump. Only an atomic store happens in the
     handler; the I/O loop writes the file. *)
  try
    Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.set t.dump_flag true))
  with Invalid_argument _ -> ()

(* The drain sequence. Order matters:
   1. flag draining — the I/O loop answers new requests with [Draining];
   2. wake the I/O loop, which closes the listeners once it sees the stop;
   3. close the request batcher — the worker flushes the remaining queue
      (submitting every batch) and exits;
   4. close the completion queue — the completer awaits every
      outstanding ticket, hands its replies to the I/O loop, and exits;
   5. drain the service — every admitted chunk has left — and, when the
      server created the service, join its shard worker domains;
   6. tell the I/O loop to finish: it stops reading, flushes what each
      connection is owed (for at most [flush_deadline_s]), closes every
      socket and exits; join it. *)
let do_stop t =
  Mutex.lock t.stop_mutex;
  if not (Atomic.get t.stopped) then begin
    Atomic.set t.draining true;
    Atomic.set t.stop_requested true;
    wake t;
    Batcher.close t.batcher;
    Option.iter Thread.join t.worker;
    Batcher.close t.completions;
    Option.iter Thread.join t.completer;
    if t.owns_srv then Service.shutdown t.srv else Service.drain t.srv;
    Atomic.set t.finishing true;
    wake t;
    Option.iter Thread.join t.io;
    List.iter Unix.close [ t.wake_r; t.wake_w ];
    (* The admin endpoint outlives the data plane so /healthz reports the
       drain in progress; it goes down last. *)
    Option.iter Admin.stop t.admin;
    Atomic.set t.stopped true
  end;
  Mutex.unlock t.stop_mutex

let rec wait t =
  if Atomic.get t.stopped then ()
  else if Atomic.get t.stop_requested then do_stop t
  else begin
    Thread.delay 0.05;
    wait t
  end

let stop t =
  request_stop t;
  do_stop t

let start ?service cfg =
  if cfg.addrs = [] then Error "Server.start: no listen addresses"
  else if cfg.max_batch <= 0 || cfg.max_pending <= 0 || cfg.max_wait_us < 0
          || cfg.shards <= 0 || cfg.flight_capacity <= 0
  then Error "Server.start: batch/pending/shards/flight must be positive"
  else begin
    ignore_sigpipe ();
    let rec bind acc = function
      | [] -> Ok (List.rev acc)
      | a :: rest -> (
          match Addr.listen a with
          | Ok l -> bind (l :: acc) rest
          | Error msg ->
              close_listeners acc;
              Error msg)
    in
    match bind [] cfg.addrs with
    | Error _ as e -> e
    | Ok listeners ->
        let srv, owns_srv =
          match service with
          | Some s -> (s, false)
          | None -> (Service.create ~shards:cfg.shards (), true)
        in
        let wake_r, wake_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock wake_r;
        Unix.set_nonblock wake_w;
        let t =
          {
            cfg;
            srv;
            owns_srv;
            batcher =
              Batcher.create ~max_batch:cfg.max_batch ~max_wait_us:cfg.max_wait_us
                ~max_pending:cfg.max_pending ();
            completions =
              (* One slot per possible in-flight batch; the worker submits
                 one at a time, as many as the service admits. *)
              Batcher.create ~max_batch:1 ~max_wait_us:0 ~max_pending:cfg.max_pending ();
            listeners;
            stop_requested = Atomic.make false;
            draining = Atomic.make false;
            finishing = Atomic.make false;
            stopped = Atomic.make false;
            conns = Hashtbl.create 32;
            conn_count = Atomic.make 0;
            next_cid = 1;
            interned = Hashtbl.create 16;
            outbox = Queue.create ();
            outbox_mutex = Mutex.create ();
            wake_r;
            wake_w;
            stop_mutex = Mutex.create ();
            io = None;
            worker = None;
            completer = None;
            flight = Flight.create ~capacity:cfg.flight_capacity ();
            admin = None;
            started_at = Unix.gettimeofday ();
            dump_flag = Atomic.make false;
            burst_window_ns = Atomic.make 0L;
            burst_misses = Atomic.make 0;
            last_dump_ns = Atomic.make 0L;
          }
        in
        let admin_ok =
          match cfg.admin with
          | None -> Ok ()
          | Some a -> (
              match Admin.start ~addr:a ~handler:(fun path -> admin_handler t path) with
              | Ok adm ->
                  t.admin <- Some adm;
                  Ok ()
              | Error msg -> Error ("Server.start: admin listener: " ^ msg))
        in
        (match admin_ok with
        | Error msg ->
            close_listeners listeners;
            List.iter Unix.close [ wake_r; wake_w ];
            if owns_srv then Service.shutdown srv;
            Error msg
        | Ok () ->
            t.worker <- Some (Thread.create worker_loop t);
            t.completer <- Some (Thread.create completer_loop t);
            t.io <- Some (Thread.create io_loop t);
            Ok t)
  end
