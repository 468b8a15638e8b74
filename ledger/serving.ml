(* Workload "server": a forked child runs Server.start with the default
   configuration (Unix socket, admin endpoint on a second Unix socket);
   requests cycle over simulated 150-bp read pairs. The server runs out
   of process, so the load generator's threads do not share its domain
   lock. The load uses at most two threads and two connections:

   - closed loop: two connections, each pipelining a window of 64, in
     repetitions over the whole pair set (saturation throughput);
   - open loop: one connection, a sender and a receiver thread, at 2000
     and then 6000 requests per second. Latency is timed from each
     request's scheduled send time, so a stall also charges the requests
     queued behind it.

   Per-stage times (decode → admit → queue → execute → reply) come from
   the child's /metrics histograms. *)

open Harness
module W = Anyseq.Wire
module Addr = Anyseq.Addr
module Client = Anyseq.Client
module Seq = Anyseq.Sequence

type sizes = {
  pairs : int;
  low_rate : float;  (** requests per second *)
  high_rate : float;
}

let sizes p =
  if p.quick then { pairs = 600; low_rate = 500.0; high_rate = 1500.0 }
  else { pairs = 3000; low_rate = 1000.0; high_rate = 3000.0 }

(* Shares of the timed phase: closed loop, open loop low, open loop high. *)
let closed_share = 0.3
let low_share = 0.25
let window = 64
let sub_run_s = 0.25

(* ---- the server child ---- *)

type child = {
  pid : int;
  cmd : Unix.file_descr;  (** '1'/'0' switch tracing, answered by one byte *)
  ack : Unix.file_descr;
  addr : Addr.t;
  admin : Addr.t;
}

let serve ~addr ~admin ~cmd ~ack =
  let fail msg =
    prerr_endline ("server child: " ^ msg);
    Unix._exit 1
  in
  match Anyseq.Server.start (Anyseq.Server.default_config ~addrs:[ addr ] ~admin ()) with
  | Error msg -> fail msg
  | Ok srv ->
      Anyseq.Server.install_signal_handlers srv;
      let buf = Bytes.create 1 in
      let control () =
        while Unix.read cmd buf 0 1 = 1 do
          if Bytes.get buf 0 = '1' then Trace.enable () else Trace.disable ();
          ignore (Unix.write ack buf 0 1)
        done
      in
      ignore (Thread.create control ());
      ignore (Unix.write_substring ack "r" 0 1);
      Anyseq.Server.wait srv;
      Unix._exit 0

let spawn tag =
  let addr = Addr.Unix_socket (tmp_path (tag ^ ".sock"))
  and admin = Addr.Unix_socket (tmp_path (tag ^ "-admin.sock")) in
  let cmd_r, cmd_w = Unix.pipe () and ack_r, ack_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close cmd_w;
      Unix.close ack_r;
      serve ~addr ~admin ~cmd:cmd_r ~ack:ack_w
  | pid ->
      Unix.close cmd_r;
      Unix.close ack_w;
      let buf = Bytes.create 1 in
      if Unix.read ack_r buf 0 1 <> 1 then failwith "server child did not start";
      { pid; cmd = cmd_w; ack = ack_r; addr; admin }

let set_child_tracing child on =
  ignore (Unix.write_substring child.cmd (if on then "1" else "0") 0 1);
  ignore (Unix.read child.ack (Bytes.create 1) 0 1)

(* SIGTERM drains the server; it must exit on its own. *)
let stop child =
  Unix.close child.cmd;
  Unix.kill child.pid Sys.sigterm;
  let _, status = Unix.waitpid [] child.pid in
  Unix.close child.ack;
  status = Unix.WEXITED 0

(* /metrics as name → value, unlabeled series only. *)
let scrape child =
  match Anyseq.Admin.http_get child.admin "/metrics" with
  | Error msg -> failwith ("scrape: " ^ msg)
  | Ok (_, body) ->
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
            match String.split_on_char ' ' line with
            | [ name; v ] -> Hashtbl.replace tbl name (float_of_string v)
            | _ -> ())
        (String.split_on_char '\n' body);
      tbl

let delta before after name =
  let get t = Option.value ~default:0.0 (Hashtbl.find_opt t ("anyseq_" ^ name)) in
  get after -. get before

(* ---- state ---- *)

type state = {
  child : child;
  conns : Client.t array;
  halves : (string * string) array array;  (** the pair set, one half per connection *)
  pairs : (string * string) array;
  expected : int array;  (** Service.run_seqs scores, computed in set-up *)
  cells : int;  (** n·m over the pair set *)
}

let setups = ref 0

let setup p () =
  let z = sizes p in
  let reads =
    Anyseq.Read_sim.read_pairs ~seed:p.seed ~reference_len:200_000 ~read_len:150 ~count:z.pairs
  in
  let config = Result.get_ok (W.resolve_config W.default_config) in
  let alphabet = Anyseq.Scheme.alphabet config.Anyseq.Config.scheme in
  let svc = Anyseq.Service.create ~capacity:z.pairs () in
  let expected =
    Array.map
      (function Ok (o : Anyseq.Service.outcome) -> o.Anyseq.Service.score | Error _ -> min_int)
      (Anyseq.Service.run_seqs svc
         (Array.map
            (fun (q, s) ->
              Anyseq.Service.seq_job ~config ~query:(recode alphabet q)
                ~subject:(recode alphabet s) ())
            reads))
  in
  let pairs = Array.map (fun (q, s) -> (Seq.to_string q, Seq.to_string s)) reads in
  incr setups;
  let child = spawn (Printf.sprintf "server%d" !setups) in
  let conns =
    Array.init 2 (fun _ ->
        match Client.connect child.addr with Ok c -> c | Error msg -> failwith msg)
  in
  let half = z.pairs / 2 in
  let st =
    {
      child;
      conns;
      halves = [| Array.sub pairs 0 half; Array.sub pairs half (z.pairs - half) |];
      pairs;
      expected;
      cells =
        Array.fold_left (fun acc (q, s) -> acc + (Seq.length q * Seq.length s)) 0 reads;
    }
  in
  (* warm pass: the server's spec cache, workspaces and batcher *)
  ignore (Client.align_many conns.(0) ~window pairs);
  st

let teardown st =
  Array.iter Client.close st.conns;
  ignore (stop st.child)

(* ---- load ---- *)

type tally = { mutable sent : int; mutable answered : int; mutable errors : int; mutable wrong : int }

let note t ~expected = function
  | Ok score ->
      t.answered <- t.answered + 1;
      if score <> expected then t.wrong <- t.wrong + 1
  | Error () ->
      t.answered <- t.answered + 1;
      t.errors <- t.errors + 1

(* One closed-loop repetition: each connection pipelines its half of the
   pair set; the second connection runs on one extra thread. *)
let closed_rep st t =
  let drive k =
    match Client.align_many st.conns.(k) ~window st.halves.(k) with
    | Ok replies -> Some replies
    | Error _ -> None
  in
  let other = ref None in
  let th = Thread.create (fun () -> other := drive 1) () in
  let mine = drive 0 in
  Thread.join th;
  List.iteri
    (fun k replies ->
      let offset = if k = 0 then 0 else Array.length st.halves.(0) in
      t.sent <- t.sent + Array.length st.halves.(k);
      Option.iter
        (Array.iteri (fun i reply ->
             note t ~expected:st.expected.(offset + i)
               (match reply with Ok (r : Client.response) -> Ok r.Client.score | Error _ -> Error ())))
        replies)
    [ mine; !other ]

type open_result = {
  latency_ms : float array;  (** per request, from its scheduled send time *)
  late_ms : float array;  (** send time minus scheduled send time *)
  due_s : float array;  (** scheduled send time, from the start of the phase *)
}

(* Open loop at [rate] for [duration] seconds on one connection: this
   thread sends on schedule, a second thread receives. *)
let open_loop st t ~rate ~duration =
  let n = max 1 (int_of_float (rate *. duration)) in
  let fd = match Addr.connect st.child.addr with Ok fd -> fd | Error msg -> failwith msg in
  let period_ns = 1e9 /. rate in
  let due = Array.make n 0 and sent = Array.make n 0 and recv = Array.make n 0 in
  let receiver () =
    let rec go k =
      if k < n then
        match W.read_frame fd with
        | Ok (W.Reply rep) ->
            let i = Int64.to_int rep.W.rid in
            recv.(i) <- now_ns ();
            note t ~expected:st.expected.(i mod Array.length st.pairs)
              (match rep.W.payload with W.Result { score; _ } -> Ok score | W.Failure _ -> Error ());
            go (k + 1)
        | Ok (W.Request _) | Error _ -> ()
    in
    go 0
  in
  let th = Thread.create receiver () in
  let t0 = now_ns () + 1_000_000 in
  (try
     for i = 0 to n - 1 do
       due.(i) <- t0 + int_of_float (float_of_int i *. period_ns);
       let wait = due.(i) - now_ns () in
       if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
       let query, subject = st.pairs.(i mod Array.length st.pairs) in
       let req =
         {
           W.id = Int64.of_int i;
           config = W.default_config;
           timeout_s = None;
           query;
           subject;
           trace = None;
         }
       in
       sent.(i) <- now_ns ();
       t.sent <- t.sent + 1;
       match W.write_frame fd (W.encode_request req) with Ok () -> () | Error msg -> failwith msg
     done
   with Failure _ -> Unix.shutdown fd Unix.SHUTDOWN_ALL);
  Thread.join th;
  Unix.close fd;
  let answered = List.filter (fun i -> recv.(i) > 0) (List.init n Fun.id) in
  let over f = Array.of_list (List.map f answered) in
  let ms ns = float_of_int ns /. 1e6 in
  {
    latency_ms = over (fun i -> ms (recv.(i) - due.(i)));
    late_ms = over (fun i -> ms (sent.(i) - due.(i)));
    due_s = over (fun i -> float_of_int (due.(i) - t0) /. 1e9);
  }

let pct sorted q = Metric.quantile sorted q
let sorted a = let a = Array.copy a in Array.sort compare a; a

(* p50 of each [sub_run_s] slice of the phase. *)
let sub_run_p50s o =
  let buckets = Hashtbl.create 16 in
  Array.iteri
    (fun i d ->
      let b = int_of_float (d /. sub_run_s) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt buckets b) in
      Hashtbl.replace buckets b (o.latency_ms.(i) :: prev))
    o.due_s;
  Hashtbl.fold (fun _ l acc -> pct (sorted (Array.of_list l)) 0.5 :: acc) buckets []

let run p r =
  let z = sizes p in
  let st = repeated_setup p r ~setup:(setup p) ~teardown in
  let t = { sent = 0; answered = 0; errors = 0; wrong = 0 } in
  (* closed loop *)
  let rep_s = [| []; [] |] in
  let m0 = scrape st.child in
  let closed = { p with seconds = p.seconds *. closed_share } in
  rounds closed (fun i ->
      let traced = traced_round p i in
      let k = if traced then 1 else 0 in
      if traced then set_child_tracing st.child true;
      let s = speed r in
      let t0 = now_ns () in
      with_tracing traced (fun () -> closed_rep st t);
      let dt = since t0 in
      if traced then set_child_tracing st.child false;
      rep_s.(k) <- dt :: rep_s.(k);
      if not traced then record r "gcups" (gcups ~cells:st.cells ~seconds:(dt *. s)));
  let m1 = scrape st.child in
  let reps = List.length rep_s.(0) + List.length rep_s.(1) in
  let requests = float_of_int (reps * Array.length st.pairs) in
  List.iter
    (fun tier ->
      record r (Metric.tier_metric tier)
        (delta m0 m1 ("runtime_tier_" ^ tier) /. float_of_int reps))
    Metric.tiers;
  record r "server.sat_rps" (float_of_int (Array.length st.pairs) /. median rep_s.(0));
  record r "server.mean_batch"
    (ratio (delta m0 m1 "server_batch_jobs_sum") (delta m0 m1 "server_batch_jobs_count"));
  record r "server.minor_words_per_request" (delta m0 m1 "gc_minor_words" /. requests);
  if p.trace then record r "trace.overhead_pct" (overhead_pct ~traced:rep_s.(1) ~untraced:rep_s.(0));
  (* open loop, low then high rate *)
  let low = open_loop st t ~rate:z.low_rate ~duration:(p.seconds *. low_share) in
  let m2 = scrape st.child in
  let high =
    open_loop st t ~rate:z.high_rate
      ~duration:(p.seconds *. (1.0 -. closed_share -. low_share))
  in
  let m3 = scrape st.child in
  List.iter (record r "p50_ms") (sub_run_p50s low);
  let lat_high = sorted high.latency_ms in
  let p50_high = pct lat_high 0.5 in
  record r "server.p50_high_over_low" (ratio p50_high (pct (sorted low.latency_ms) 0.5));
  record r "server.p99_over_p50_high" (ratio (pct lat_high 0.99) p50_high);
  let mean_us = Anyseq_util.Stats.mean high.latency_ms *. 1e3 in
  let stage_sum =
    List.fold_left
      (fun acc stage ->
        let h = "server_stage_" ^ stage ^ "_us" in
        let mean = ratio (delta m2 m3 (h ^ "_sum")) (delta m2 m3 (h ^ "_count")) in
        record r (Metric.stage_metric stage) (ratio mean mean_us);
        acc +. mean)
      0.0 Metric.stages
  in
  record r "server.unattributed_share" (ratio (mean_us -. stage_sum) mean_us);
  let late = Array.append low.late_ms high.late_ms in
  let late_sorted = sorted late in
  let over_1ms = Array.fold_left (fun acc l -> if l > 1.0 then acc + 1 else acc) 0 late in
  record r "loadgen.late_share" (ratio (float_of_int over_1ms) (float_of_int (Array.length late)));
  if pct late_sorted 0.99 > 5.0 then
    Printf.eprintf "server: load generator more than 5 ms late at p99 (%.2f ms); latencies invalid\n"
      (pct late_sorted 0.99);
  record r "peak_rss_mb" (peak_rss_mb (Some st.child.pid));
  Array.iter Client.close st.conns;
  let clean_exit = stop st.child in
  (* ---- correctness ---- *)
  r.attempted <- r.attempted + t.sent;
  r.failed <- r.failed + t.errors + (t.sent - t.answered);
  check r "server.replies_equal_requests" (t.answered = t.sent);
  (* an error reply (a refusal under overload) is a failure, not a wrong answer *)
  check r "server.scores_equal_service" (t.wrong = 0);
  check r "server.drains_on_sigterm" clean_exit
