module Jsonv = Anyseq_util.Jsonv

(* One served request's life, as monotonic stamps. All_ns fields come
   from [Anyseq_util.Timer.now_ns]; a stage that never happened (e.g. an
   error reply short-circuiting before dispatch) keeps the previous
   stage's stamp, so stage deltas are never negative. *)
type record = {
  fr_rid : int64;
  fr_cid : int;  (** connection id *)
  fr_config : string;  (** human-readable config label *)
  fr_trace : int64 option;  (** wire trace id, when the client sent one *)
  fr_accept_ns : int64;  (** frame fully read off the socket *)
  fr_decode_ns : int64;  (** request view decoded, config interned *)
  fr_enqueue_ns : int64;  (** admitted into the batcher *)
  fr_submit_ns : int64;  (** batch submitted to the service *)
  fr_done_ns : int64;  (** batch results available *)
  fr_reply_ns : int64;  (** reply handed to the I/O thread *)
  fr_batch_jobs : int;
  fr_outcome : string;  (** "ok" or the wire error-code string *)
}

(* Multi-producer bounded ring under a mutex: reply fan-out runs on one
   completer thread plus the occasional backpressured dispatch worker, so
   contention is negligible next to the alignment work each record
   represents. *)
type t = {
  lock : Mutex.t;
  slots : record option array;
  mutable next : int;  (** records ever written *)
}

let default_capacity = 1024

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  { lock = Mutex.create (); slots = Array.make capacity None; next = 0 }

let capacity t = Array.length t.slots

let record t r =
  Mutex.lock t.lock;
  t.slots.(t.next mod Array.length t.slots) <- Some r;
  t.next <- t.next + 1;
  Mutex.unlock t.lock

let recorded t =
  Mutex.lock t.lock;
  let n = t.next in
  Mutex.unlock t.lock;
  n

let snapshot t =
  Mutex.lock t.lock;
  let cap = Array.length t.slots in
  let n = t.next in
  let kept = min n cap in
  let out =
    List.init kept (fun k ->
        match t.slots.((n - kept + k) mod cap) with
        | Some r -> r
        | None -> assert false (* slots below [next] are always filled *))
  in
  Mutex.unlock t.lock;
  out

(* Exact while the value fits an OCaml int — stamps always do; a client
   id beyond 2^62 degrades to the nearest float. *)
let int64 v =
  if Int64.of_int (Int64.to_int v) = v then Jsonv.Int (Int64.to_int v) else Num (Int64.to_float v)

let record_json r =
  Jsonv.Obj
    ([ ("rid", int64 r.fr_rid); ("cid", Int r.fr_cid); ("config", Str r.fr_config) ]
    @ (match r.fr_trace with
      | Some tid -> [ ("trace_id", Jsonv.Str (Printf.sprintf "%016Lx" tid)) ]
      | None -> [])
    @ [
        ("accept_ns", int64 r.fr_accept_ns);
        ("decode_ns", int64 r.fr_decode_ns);
        ("enqueue_ns", int64 r.fr_enqueue_ns);
        ("submit_ns", int64 r.fr_submit_ns);
        ("done_ns", int64 r.fr_done_ns);
        ("reply_ns", int64 r.fr_reply_ns);
        ("batch_jobs", Int r.fr_batch_jobs);
        ("outcome", Str r.fr_outcome);
      ])

let to_json records =
  let b = Buffer.create 4096 in
  Jsonv.rows_to_buffer b "records" record_json records;
  Buffer.contents b

let dump t ~path =
  match
    Out_channel.with_open_text path (fun oc -> output_string oc (to_json (snapshot t)))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
