(* The one JSON codec of the system, with no external dependency. Every
   document anyseq emits — /statusz, flight dumps, Chrome traces, the
   CLI's --json lines — is a [t] encoded here; [anyseq top], the gates
   and the ledger read them back with [parse]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Bad (Printf.sprintf "expected '%c', got '%c' at %d" ch x c.pos))
  | None -> raise (Bad (Printf.sprintf "expected '%c', got end of input" ch))

let expect_lit c lit v =
  let n = String.length lit in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = lit then begin
    c.pos <- c.pos + n;
    v
  end
  else raise (Bad (Printf.sprintf "bad literal at %d" c.pos))

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> raise (Bad "bad \\u escape")

let r_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'u' ->
            if c.pos + 4 >= String.length c.s then raise (Bad "truncated \\u escape");
            let v =
              (hex_digit c.s.[c.pos + 1] lsl 12)
              lor (hex_digit c.s.[c.pos + 2] lsl 8)
              lor (hex_digit c.s.[c.pos + 3] lsl 4)
              lor hex_digit c.s.[c.pos + 4]
            in
            c.pos <- c.pos + 4;
            (* Status documents are ASCII; anything wider degrades to '?'. *)
            Buffer.add_char b (if v < 0x80 then Char.chr v else '?')
        | _ -> raise (Bad "bad escape"));
        advance c;
        go ()
    | Some ch ->
        Buffer.add_char b ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents b

let r_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  if c.pos = start then raise (Bad (Printf.sprintf "expected a number at %d" start));
  let lit = String.sub c.s start (c.pos - start) in
  let digits = if lit.[0] = '-' then String.sub lit 1 (String.length lit - 1) else lit in
  let integral = digits <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') digits in
  match (if integral then int_of_string_opt lit else None) with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt lit with
      | Some f -> Num f
      | None -> raise (Bad (Printf.sprintf "bad number at %d" start)))

(* Comma-separated items up to [closing], the opening bracket consumed. *)
let r_items c closing item =
  skip_ws c;
  if peek c = Some closing then (advance c; [])
  else
    let rec go acc =
      let x = item () in
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; go (x :: acc)
      | Some ch when ch = closing -> advance c; List.rev (x :: acc)
      | _ -> raise (Bad (Printf.sprintf "expected ',' or '%c' at %d" closing c.pos))
    in
    go []

let rec r_value c =
  skip_ws c;
  match peek c with
  | None -> raise (Bad "unexpected end of input")
  | Some '"' -> Str (r_string c)
  | Some '{' ->
      advance c;
      Obj
        (r_items c '}' (fun () ->
             skip_ws c;
             let k = r_string c in
             skip_ws c;
             expect c ':';
             (k, r_value c)))
  | Some '[' -> advance c; List (r_items c ']' (fun () -> r_value c))
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some _ -> r_number c

let parse s =
  let c = { s; pos = 0 } in
  match r_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing bytes after JSON value" else Ok v
  | exception Bad msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_num = function
  | Num f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | List l -> Some l
  | _ -> None

let to_bool = function
  | Bool b -> Some b
  | _ -> None

let num ?(default = 0.0) key v =
  match Option.bind (member key v) to_num with Some f -> f | None -> default

let str ?(default = "") key v =
  match Option.bind (member key v) to_str with Some s -> s | None -> default

(* ---- encoding ---- *)

let escape b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code ch)
      | ch -> Buffer.add_char b ch)
    s

(* Shortest of %.15g/%.16g/%.17g that reads back to [f]: any float whose
   shortest round-tripping decimal has at most 15 digits prints as that
   decimal under %.15g. An integral result gains ".0" so that it parses
   back as a [Num], not an [Int]. *)
let float_repr f =
  let exact p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  let r = Option.value (List.find_map exact [ 15; 16 ]) ~default:(Printf.sprintf "%.17g" f) in
  if String.for_all (fun ch -> ch = '-' || (ch >= '0' && ch <= '9')) r then r ^ ".0" else r

(* [opening] x1 , x2 … [closing] *)
let seq b opening closing f xs =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    xs;
  Buffer.add_char b closing

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f -> Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List l -> seq b '[' ']' (to_buffer b) l
  | Obj kvs ->
      seq b '{' '}'
        (fun (k, v) ->
          to_buffer b (Str k);
          Buffer.add_char b ':';
          to_buffer b v)
        kvs

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let ints kvs = List.map (fun (k, v) -> (k, Int v)) kvs

let rows_to_buffer b key f xs =
  Buffer.add_char b '{';
  to_buffer b (Str key);
  Buffer.add_string b ":[";
  List.iteri
    (fun i x ->
      Buffer.add_string b (if i > 0 then ",\n" else "\n");
      to_buffer b (f x))
    xs;
  Buffer.add_string b "\n]}\n"
