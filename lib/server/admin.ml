module Addr = Anyseq_client.Addr

(* A deliberately minimal HTTP/1.0 server: one request per connection,
   handled inline on the acceptor thread, connection closed after the
   response. Admin traffic is a human or a scraper at a few requests per
   second — the trade is simplicity and boundedness over throughput.
   Slow or hostile peers are cut off by a receive timeout and a request
   size cap; a stuck handler is the only way to stall the loop, and the
   handlers are snapshot renderers. *)

type response = { status : int; content_type : string; body : string }

type t = {
  fd : Unix.file_descr;
  addr : Addr.t;
  handler : string -> response option;
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option;
}

let address t = t.addr

let ok ?(content_type = "text/plain; charset=utf-8") body =
  Some { status = 200; content_type; body }

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let max_request_bytes = 4096

(* Index of [pat] in [s] at or after [from]. *)
let find ?(from = 0) s pat =
  let lp = String.length pat in
  let rec at i =
    if i + lp > String.length s then None
    else if String.sub s i lp = pat then Some i
    else at (i + 1)
  in
  at from

(* Read until the end of the request head (or EOF / timeout / cap). We
   only need the request line; the rest is drained so well-behaved
   clients don't see a reset while the response is in flight. *)
let read_head fd =
  let buf = Bytes.create 512 in
  let b = Buffer.create 256 in
  let rec go () =
    if Buffer.length b >= max_request_bytes then None
    else
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> if Buffer.length b > 0 then Some (Buffer.contents b) else None
      | n ->
          (* The blank line can straddle two reads: search from 3 bytes
             before the new chunk. *)
          let from = max 0 (Buffer.length b - 3) in
          Buffer.add_subbytes b buf 0 n;
          let s = Buffer.contents b in
          if find ~from s "\r\n\r\n" <> None || find ~from s "\n\n" <> None then Some s
          else go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> None
  in
  go ()

let parse_request_line head =
  let line =
    match String.index_opt head '\n' with
    | Some i -> String.trim (String.sub head 0 i)
    | None -> String.trim head
  in
  match String.split_on_char ' ' line with
  | meth :: path :: _ when meth = "GET" || meth = "HEAD" ->
      (* Query strings are not interpreted; route on the bare path. *)
      let path =
        match String.index_opt path '?' with
        | Some i -> String.sub path 0 i
        | None -> path
      in
      Some (meth, path)
  | _ -> None

let write_all fd s =
  let buf = Bytes.of_string s in
  let rec go pos len =
    if len > 0 then
      match Unix.write fd buf pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  go 0 (Bytes.length buf)

let respond fd ~head_only { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status (status_text status) content_type (String.length body)
  in
  write_all fd (if head_only then head else head ^ body)

let handle t fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0 with Unix.Unix_error _ -> ());
  (match read_head fd with
  | None -> ()
  | Some head -> (
      match parse_request_line head with
      | None ->
          respond fd ~head_only:false
            { status = 400; content_type = "text/plain"; body = "bad request\n" }
      | Some (meth, path) ->
          let resp =
            match t.handler path with
            | Some r -> r
            | None ->
                { status = 404; content_type = "text/plain"; body = "not found\n" }
          in
          respond fd ~head_only:(meth = "HEAD") resp));
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec go () =
    if Atomic.get t.stop_flag then ()
    else begin
      (match Unix.select [ t.fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.fd with
          | fd, _ -> handle t fd
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

let start ~addr ~handler =
  match Addr.listen addr with
  | Error _ as e -> e
  | Ok (fd, bound) ->
      let t = { fd; addr = bound; handler; stop_flag = Atomic.make false; thread = None } in
      t.thread <- Some (Thread.create accept_loop t);
      Ok t

let stop t =
  if not (Atomic.get t.stop_flag) then begin
    Atomic.set t.stop_flag true;
    (match t.thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    Addr.unlink_if_socket t.addr
  end

(* ---- the matching one-shot client ---- *)

let http_get addr path =
  match Addr.connect addr with
  | Error msg -> Error msg
  | Ok fd ->
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0 with Unix.Unix_error _ -> ());
          write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
          let buf = Bytes.create 4096 in
          let b = Buffer.create 1024 in
          let rec drain () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes b buf 0 n;
                drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
            | exception Unix.Unix_error (e, _, _) ->
                raise (Failure (Unix.error_message e))
          in
          match drain () with
          | () -> (
              let raw = Buffer.contents b in
              let split pat =
                Option.map
                  (fun i ->
                    let j = i + String.length pat in
                    (String.sub raw 0 i, String.sub raw j (String.length raw - j)))
                  (find raw pat)
              in
              let head, body =
                match split "\r\n\r\n" with
                | Some hb -> hb
                | None -> Option.value (split "\n\n") ~default:(raw, "")
              in
              match String.split_on_char ' ' head with
              | _ :: code :: _ -> (
                  match int_of_string_opt code with
                  | Some status -> Ok (status, body)
                  | None -> Error "unparsable HTTP status line")
              | _ -> Error "unparsable HTTP status line")
          | exception Failure msg -> Error ("read failed: " ^ msg))
