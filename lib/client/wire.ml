module Scheme = Anyseq_scoring.Scheme
module Substitution = Anyseq_bio.Substitution
module Gaps = Anyseq_bio.Gaps
module Alphabet = Anyseq_bio.Alphabet
module Types = Anyseq_core.Types
module Rconfig = Anyseq_runtime.Config
module Rerror = Anyseq_runtime.Error

let magic = 0xA5EC

(* Version history:
   1 — the ISSUE-4 protocol: request = id, config, timeout, sequences.
   2 — appends an optional trace context (trace id + parent span) to the
       request payload. Replies are unchanged.
   A server accepts any version in [min_protocol_version,
   protocol_version] per frame, decoding the request by the version the
   frame's header announces — old clients keep working unmodified. *)
let protocol_version = 2
let min_protocol_version = 1
let header_bytes = 8
let max_frame = 1 lsl 26

let kind_request = 1
let kind_reply = 2

type scheme_spec =
  | Simple of {
      alphabet : [ `Dna4 | `Dna5 ];
      match_ : int;
      mismatch : int;
      gap_open : int;
      gap_extend : int;
    }
  | Named of string

type config = {
  scheme : scheme_spec;
  mode : Types.mode;
  traceback : bool;
  backend : Rconfig.backend;
}

let default_config =
  {
    scheme = Named (Scheme.to_string Scheme.wildcard_linear);
    mode = Types.Global;
    traceback = false;
    backend = Rconfig.Auto;
  }

let resolve_config c =
  match
    let scheme =
      match c.scheme with
      | Named name -> (
          match List.find_opt (fun s -> Scheme.to_string s = name) Scheme.builtins with
          | Some s -> s
          | None -> failwith (Printf.sprintf "unknown named scheme %S" name))
      | Simple { alphabet; match_; mismatch; gap_open; gap_extend } ->
          let subst =
            match alphabet with
            | `Dna4 -> Substitution.simple Alphabet.dna4 ~match_ ~mismatch
            | `Dna5 -> Substitution.dna_wildcard ~match_ ~mismatch
          in
          let gap =
            if gap_open = 0 then Gaps.linear gap_extend
            else Gaps.affine ~open_:gap_open ~extend:gap_extend
          in
          Scheme.make subst gap
    in
    Rconfig.make ~scheme ~mode:c.mode ~traceback:c.traceback ~backend:c.backend ()
  with
  | cfg -> Ok cfg
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

type error_code =
  | Bad_sequence
  | Overflow_bound
  | Rejected
  | Timeout
  | Bad_request
  | Draining
  | Internal
  | Cutoff

let error_code_of_runtime = function
  | Rerror.Bad_sequence _ -> Bad_sequence
  | Rerror.Overflow_bound _ -> Overflow_bound
  | Rerror.Rejected -> Rejected
  | Rerror.Timeout -> Timeout
  | Rerror.Cutoff -> Cutoff

let code_to_string = function
  | Bad_sequence -> "bad-sequence"
  | Overflow_bound -> "overflow-bound"
  | Rejected -> "rejected"
  | Timeout -> "timeout"
  | Bad_request -> "bad-request"
  | Draining -> "draining"
  | Internal -> "internal"
  | Cutoff -> "cutoff"

let code_to_byte = function
  | Bad_sequence -> 1
  | Overflow_bound -> 2
  | Rejected -> 3
  | Timeout -> 4
  | Bad_request -> 5
  | Draining -> 6
  | Internal -> 7
  | Cutoff -> 8

let code_of_byte = function
  | 1 -> Some Bad_sequence
  | 2 -> Some Overflow_bound
  | 3 -> Some Rejected
  | 4 -> Some Timeout
  | 5 -> Some Bad_request
  | 6 -> Some Draining
  | 7 -> Some Internal
  | 8 -> Some Cutoff
  | _ -> None

(* A client-generated trace identity carried alongside the request, so
   the server's spans for this request can be stitched to the client's in
   one cross-process view. [parent_span] is the client-side span open at
   send time (0 = none). *)
type trace_context = { trace_id : int64; parent_span : int64 }

let trace_id_to_string tid = Printf.sprintf "%016Lx" tid

type request = {
  id : int64;
  config : config;
  timeout_s : float option;
  query : string;
  subject : string;
  trace : trace_context option;
}

type reply_payload =
  | Result of { score : int; query_end : int; subject_end : int; cigar : string option }
  | Failure of { code : error_code; message : string }

type reply = {
  rid : int64;
  payload : reply_payload;
  queue_ns : int64;
  service_ns : int64;
  batch_jobs : int;
}

type frame = Request of request | Reply of reply

(* ---- encoding ---- *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)

let w_i32 b v =
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg "Wire: integer field outside 32-bit range";
  Buffer.add_int32_be b (Int32.of_int v)

let w_i64 b v = Buffer.add_int64_be b v

let w_str b s =
  let n = String.length s in
  if n > max_frame then invalid_arg "Wire: string field exceeds max_frame";
  w_i32 b n;
  Buffer.add_string b s

let mode_to_byte = function Types.Global -> 0 | Types.Semiglobal -> 1 | Types.Local -> 2
let mode_of_byte = function
  | 0 -> Some Types.Global
  | 1 -> Some Types.Semiglobal
  | 2 -> Some Types.Local
  | _ -> None

let backend_to_byte = function
  | Rconfig.Auto -> 0
  | Rconfig.Scalar -> 1
  | Rconfig.Simd -> 2
  | Rconfig.Wavefront -> 3

let backend_of_byte = function
  | 0 -> Some Rconfig.Auto
  | 1 -> Some Rconfig.Scalar
  | 2 -> Some Rconfig.Simd
  | 3 -> Some Rconfig.Wavefront
  | _ -> None

let w_config b c =
  (match c.scheme with
  | Simple { alphabet; match_; mismatch; gap_open; gap_extend } ->
      w_u8 b 0;
      w_u8 b (match alphabet with `Dna4 -> 0 | `Dna5 -> 1);
      w_i32 b match_;
      w_i32 b mismatch;
      w_i32 b gap_open;
      w_i32 b gap_extend
  | Named name ->
      w_u8 b 1;
      w_str b name);
  w_u8 b (mode_to_byte c.mode);
  w_u8 b (if c.traceback then 1 else 0);
  w_u8 b (backend_to_byte c.backend)

let config_key c =
  let b = Buffer.create 32 in
  w_config b c;
  Buffer.contents b

let frame_of_payload ?(version = protocol_version) kind payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Wire: payload exceeds max_frame";
  let b = Buffer.create (header_bytes + n) in
  Buffer.add_uint16_be b magic;
  w_u8 b version;
  w_u8 b kind;
  w_i32 b n;
  Buffer.add_string b payload;
  Buffer.contents b

let encode_request ?(version = protocol_version) r =
  if version < min_protocol_version || version > protocol_version then
    invalid_arg (Printf.sprintf "Wire: cannot encode protocol version %d" version);
  let b = Buffer.create (64 + String.length r.query + String.length r.subject) in
  w_i64 b r.id;
  w_config b r.config;
  (match r.timeout_s with
  | None -> w_u8 b 0
  | Some s ->
      w_u8 b 1;
      w_i64 b (Int64.bits_of_float s));
  w_str b r.query;
  w_str b r.subject;
  (* The trace context exists only from version 2 on; a v1 encoding drops
     it (tracing degrades, the alignment answer does not). *)
  if version >= 2 then begin
    match r.trace with
    | None -> w_u8 b 0
    | Some { trace_id; parent_span } ->
        w_u8 b 1;
        w_i64 b trace_id;
        w_i64 b parent_span
  end;
  frame_of_payload ~version kind_request (Buffer.contents b)

let encode_reply r =
  let b = Buffer.create 64 in
  w_i64 b r.rid;
  (match r.payload with
  | Result { score; query_end; subject_end; cigar } ->
      w_u8 b 0;
      w_i64 b (Int64.of_int score);
      w_i32 b query_end;
      w_i32 b subject_end;
      (match cigar with
      | None -> w_u8 b 0
      | Some c ->
          w_u8 b 1;
          w_str b c)
  | Failure { code; message } ->
      w_u8 b (code_to_byte code);
      w_str b message);
  w_i64 b r.queue_ns;
  w_i64 b r.service_ns;
  w_i32 b r.batch_jobs;
  frame_of_payload kind_reply (Buffer.contents b)

(* ---- decoding ---- *)

exception Malformed of string

type cursor = { s : string; mutable pos : int }

let need c n =
  if n < 0 || c.pos + n > String.length c.s then raise (Malformed "truncated payload")

(* Run [f] over the whole payload: trailing bytes are an error too. *)
let parse payload f =
  let c = { s = payload; pos = 0 } in
  match f c with
  | v -> if c.pos <> String.length payload then Error "trailing bytes after payload" else Ok v
  | exception Malformed msg -> Error msg

let r_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_i32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.s c.pos) in
  c.pos <- c.pos + 4;
  v

let r_i64 c =
  need c 8;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

(* A length-prefixed string, as the byte range it occupies: the request
   view keeps sequences as ranges, without copies. *)
let r_span c =
  let n = r_i32 c in
  if n < 0 || n > max_frame then raise (Malformed "bad string length");
  need c n;
  let pos = c.pos in
  c.pos <- c.pos + n;
  (pos, n)

let r_str c =
  let pos, n = r_span c in
  String.sub c.s pos n

let r_config c =
  let scheme =
    match r_u8 c with
    | 0 ->
        let alphabet =
          match r_u8 c with
          | 0 -> `Dna4
          | 1 -> `Dna5
          | a -> raise (Malformed (Printf.sprintf "unknown alphabet tag %d" a))
        in
        let match_ = r_i32 c in
        let mismatch = r_i32 c in
        let gap_open = r_i32 c in
        let gap_extend = r_i32 c in
        Simple { alphabet; match_; mismatch; gap_open; gap_extend }
    | 1 -> Named (r_str c)
    | t -> raise (Malformed (Printf.sprintf "unknown scheme tag %d" t))
  in
  let mode =
    match mode_of_byte (r_u8 c) with
    | Some m -> m
    | None -> raise (Malformed "unknown mode")
  in
  let traceback =
    match r_u8 c with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Malformed "bad traceback flag")
  in
  let backend =
    match backend_of_byte (r_u8 c) with
    | Some b -> b
    | None -> raise (Malformed "unknown backend")
  in
  { scheme; mode; traceback; backend }

let r_timeout c =
  match r_u8 c with
  | 0 -> None
  | 1 ->
      let s = Int64.float_of_bits (r_i64 c) in
      if Float.is_nan s then raise (Malformed "NaN timeout");
      Some s
  | _ -> raise (Malformed "bad timeout flag")

let r_trace ~version c =
  if version < 2 then None
  else
    match r_u8 c with
    | 0 -> None
    | 1 ->
        let trace_id = r_i64 c in
        let parent_span = r_i64 c in
        Some { trace_id; parent_span }
    | _ -> raise (Malformed "bad trace flag")

(* A request decoded without copying its sequences: the view keeps the
   payload string and the byte ranges the sequences occupy, so a host can
   parse them straight into packed code buffers. *)
type request_view = {
  rv_id : int64;
  rv_config : config;
  rv_timeout_s : float option;
  rv_payload : string;
  rv_query_pos : int;
  rv_query_len : int;
  rv_subject_pos : int;
  rv_subject_len : int;
  rv_trace : trace_context option;
}

let r_view ~version c =
  let rv_id = r_i64 c in
  let rv_config = r_config c in
  let rv_timeout_s = r_timeout c in
  let rv_query_pos, rv_query_len = r_span c in
  let rv_subject_pos, rv_subject_len = r_span c in
  let rv_trace = r_trace ~version c in
  {
    rv_id;
    rv_config;
    rv_timeout_s;
    rv_payload = c.s;
    rv_query_pos;
    rv_query_len;
    rv_subject_pos;
    rv_subject_len;
    rv_trace;
  }

let decode_request_view ?(version = protocol_version) payload =
  parse payload (r_view ~version)

let request_of_view v =
  {
    id = v.rv_id;
    config = v.rv_config;
    timeout_s = v.rv_timeout_s;
    query = String.sub v.rv_payload v.rv_query_pos v.rv_query_len;
    subject = String.sub v.rv_payload v.rv_subject_pos v.rv_subject_len;
    trace = v.rv_trace;
  }

let r_reply c =
  let rid = r_i64 c in
  let payload =
    match r_u8 c with
    | 0 ->
        let score64 = r_i64 c in
        let score = Int64.to_int score64 in
        if Int64.of_int score <> score64 then raise (Malformed "score outside native int");
        let query_end = r_i32 c in
        let subject_end = r_i32 c in
        let cigar =
          match r_u8 c with
          | 0 -> None
          | 1 -> Some (r_str c)
          | _ -> raise (Malformed "bad cigar flag")
        in
        Result { score; query_end; subject_end; cigar }
    | code -> (
        match code_of_byte code with
        | Some code -> Failure { code; message = r_str c }
        | None -> raise (Malformed (Printf.sprintf "unknown status byte %d" code)))
  in
  let queue_ns = r_i64 c in
  let service_ns = r_i64 c in
  let batch_jobs = r_i32 c in
  if batch_jobs < 0 then raise (Malformed "negative batch size");
  { rid; payload; queue_ns; service_ns; batch_jobs }

let decode_payload ?(version = protocol_version) ~kind payload =
  parse payload @@ fun c ->
  if kind = kind_request then Request (request_of_view (r_view ~version c))
  else if kind = kind_reply then Reply (r_reply c)
  else raise (Malformed (Printf.sprintf "unknown frame kind %d" kind))

(* The header at [pos] of [b]; the caller has checked that
   [header_bytes] are there. *)
let header_at b pos =
  let m = Bytes.get_uint16_be b pos in
  if m <> magic then Error (Printf.sprintf "bad magic 0x%04x" m)
  else
    let v = Bytes.get_uint8 b (pos + 2) in
    if v < min_protocol_version || v > protocol_version then
      Error (Printf.sprintf "unsupported protocol version %d" v)
    else
      let len = Int32.to_int (Bytes.get_int32_be b (pos + 4)) in
      if len < 0 || len > max_frame then
        Error (Printf.sprintf "payload length %d out of range" len)
      else Ok (v, Bytes.get_uint8 b (pos + 3), len)

let split_frame b ~pos ~len =
  if len < header_bytes then Error `Incomplete
  else
    match header_at b pos with
    | Error msg -> Error (`Malformed msg)
    | Ok (version, kind, n) ->
        if len < header_bytes + n then Error `Incomplete
        else Ok (version, kind, Bytes.sub_string b (pos + header_bytes) n, header_bytes + n)

(* [split_frame] never mutates its buffer, so viewing the string as bytes
   is sound. *)
let decode_frame s =
  match split_frame (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s) with
  | Error e -> Error e
  | Ok (version, kind, payload, consumed) -> (
      match decode_payload ~version ~kind payload with
      | Ok frame -> Ok (frame, consumed)
      | Error msg -> Error (`Malformed msg))

(* ---- blocking fd I/O ---- *)

let rec read_exact fd buf pos len =
  if len = 0 then `Ok
  else
    match Unix.read fd buf pos len with
    | 0 -> `Closed
    | n -> read_exact fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf pos len
    | exception Unix.Unix_error (e, _, _) -> `Err (Unix.error_message e)

let read_frame fd =
  let hdr = Bytes.create header_bytes in
  match read_exact fd hdr 0 header_bytes with
  | `Closed -> Error `Eof
  | `Err msg -> Error (`Io msg)
  | `Ok -> (
      match header_at hdr 0 with
      | Error msg -> Error (`Malformed msg)
      | Ok (version, kind, len) -> (
          let payload = Bytes.create len in
          match read_exact fd payload 0 len with
          | `Closed -> Error (`Malformed "stream closed mid-frame")
          | `Err msg -> Error (`Io msg)
          (* The buffer never escapes as [Bytes.t], so freezing it in
             place is sound. *)
          | `Ok -> (
              match decode_payload ~version ~kind (Bytes.unsafe_to_string payload) with
              | Ok frame -> Ok frame
              | Error msg -> Error (`Malformed msg))))

let write_frame fd s =
  let rec go pos len =
    if len = 0 then Ok ()
    else
      match Unix.write_substring fd s pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0 (String.length s)
