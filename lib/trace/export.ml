module Jsonv = Anyseq_util.Jsonv

let us_of ~origin ns = Int64.to_float (Int64.sub ns origin) /. 1e3

let chrome_json ?(pid = 1) spans =
  let origin =
    List.fold_left
      (fun acc (s : Trace.span) -> min acc s.Trace.start_ns)
      Int64.max_int spans
  in
  let origin = if origin = Int64.max_int then 0L else origin in
  let event (s : Trace.span) =
    Jsonv.Obj
      [
        ("name", Str s.Trace.name);
        ("cat", Str "anyseq");
        ("ph", Str "X");
        ("ts", Num (us_of ~origin s.Trace.start_ns));
        ("dur", Num (us_of ~origin:s.Trace.start_ns s.Trace.end_ns));
        ("pid", Int pid);
        ("tid", Int s.Trace.domain);
        ( "args",
          Obj
            (List.map
               (fun (k, v) ->
                 (k, match v with Trace.Int n -> Jsonv.Int n | Trace.Str str -> Str str))
               s.Trace.attrs) );
      ]
  in
  let b = Buffer.create 4096 in
  Jsonv.rows_to_buffer b "traceEvents" event spans;
  Buffer.contents b

let write_chrome ?pid path spans =
  Out_channel.with_open_text path (fun oc -> output_string oc (chrome_json ?pid spans))

(* ------------------------------------------------------------------ *)
(* Aggregated span tree                                                *)
(* ------------------------------------------------------------------ *)

type node = {
  mutable count : int;
  mutable total_ns : int64;
  mutable self_ns : int64;
  children : (string, node) Hashtbl.t;
}

let fresh_node () = { count = 0; total_ns = 0L; self_ns = 0L; children = Hashtbl.create 4 }

let child_node parent name =
  match Hashtbl.find_opt parent.children name with
  | Some n -> n
  | None ->
      let n = fresh_node () in
      Hashtbl.add parent.children name n;
      n

let span_tree spans =
  (* Children of each recorded span, by parent id; spans whose parent was
     never recorded (wrapped out of the ring, or traced before enable)
     become roots. *)
  let ids = Hashtbl.create 256 and by_parent = Hashtbl.create 256 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace ids s.Trace.id ()) spans;
  List.iter
    (fun (s : Trace.span) ->
      if Hashtbl.mem ids s.Trace.parent then
        Hashtbl.replace by_parent s.Trace.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_parent s.Trace.parent)))
    spans;
  let duration (s : Trace.span) = Int64.sub s.Trace.end_ns s.Trace.start_ns in
  let root = fresh_node () in
  let rec record at (s : Trace.span) =
    let n = child_node at s.Trace.name in
    let kids = Option.value ~default:[] (Hashtbl.find_opt by_parent s.Trace.id) in
    let kids_ns = List.fold_left (fun acc k -> Int64.add acc (duration k)) 0L kids in
    n.count <- n.count + 1;
    n.total_ns <- Int64.add n.total_ns (duration s);
    n.self_ns <- Int64.add n.self_ns (Int64.sub (duration s) kids_ns);
    List.iter (record n) kids
  in
  List.iter (fun s -> if not (Hashtbl.mem ids s.Trace.parent) then record root s) spans;
  let b = Buffer.create 1024 in
  let ms ns = Int64.to_float ns /. 1e6 in
  Printf.bprintf b "%-44s %9s %12s %12s\n" "span" "count" "total ms" "self ms";
  let rec render depth node =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) node.children []
    |> List.sort (fun (_, a) (_, b) -> Int64.compare b.total_ns a.total_ns)
    |> List.iter (fun (name, n) ->
           let label = String.make (2 * depth) ' ' ^ name in
           Printf.bprintf b "%-44s %9d %12.3f %12.3f\n" label n.count (ms n.total_ns)
             (ms n.self_ns);
           render (depth + 1) n)
  in
  render 0 root;
  Buffer.contents b
