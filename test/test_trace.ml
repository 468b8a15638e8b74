(* Tests of the tracing layer: span nesting, per-domain rings under
   concurrency, wraparound semantics, the disabled-path guard, the Chrome
   exporter's output shape, and the end-to-end claim that a traced service
   batch records spans from every layer of the stack.

   Tracing is global state: every test enables with its own buffer and
   disables before returning. *)

module Trace = Anyseq_trace.Trace
module Export = Anyseq_trace.Export

let with_tracing ?buffer f =
  Trace.enable ?buffer ();
  Fun.protect ~finally:Trace.disable f

let test_nesting () =
  with_tracing @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.with_span "inner" (fun () -> ()));
  let spans = Trace.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = List.find (fun s -> s.Trace.name = "outer") spans in
  let inners = List.filter (fun s -> s.Trace.name = "inner") spans in
  Alcotest.(check int) "outer is a root" 0 outer.Trace.parent;
  List.iter
    (fun s ->
      Alcotest.(check int) "inner nests under outer" outer.Trace.id s.Trace.parent;
      Alcotest.(check bool) "child within parent interval" true
        (s.Trace.start_ns >= outer.Trace.start_ns && s.Trace.end_ns <= outer.Trace.end_ns))
    inners

let test_attrs_and_frames () =
  with_tracing @@ fun () ->
  let frame = Trace.start "work" ~attrs:[ ("phase", Trace.Str "a") ] in
  Trace.add frame "items" (Trace.Int 7);
  Trace.finish frame ~attrs:[ ("status", Trace.Str "ok") ];
  match Trace.spans () with
  | [ s ] ->
      Alcotest.(check string) "name" "work" s.Trace.name;
      Alcotest.(check bool) "attrs in attachment order" true
        (List.map fst s.Trace.attrs = [ "phase"; "items"; "status" ]);
      Alcotest.(check bool) "int attr" true (List.assoc "items" s.Trace.attrs = Trace.Int 7)
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let test_concurrent_domains () =
  let domains = 4 and per_domain = 20 in
  with_tracing @@ fun () ->
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Trace.with_span "parent"
                ~attrs:[ ("worker", Trace.Int d) ]
                (fun () -> Trace.with_span "child" (fun () -> ignore (i * i)))
            done))
  in
  List.iter Domain.join workers;
  let spans = Trace.spans () in
  Alcotest.(check int) "all spans recorded" (2 * domains * per_domain) (List.length spans);
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  List.iter
    (fun s ->
      if s.Trace.name = "child" then begin
        let p = Hashtbl.find by_id s.Trace.parent in
        Alcotest.(check string) "child's parent is a parent span" "parent" p.Trace.name;
        Alcotest.(check int) "parent/child share a domain" p.Trace.domain s.Trace.domain
      end)
    spans;
  let domains_seen =
    List.sort_uniq compare (List.map (fun s -> s.Trace.domain) spans)
  in
  Alcotest.(check int) "spans from four domains" domains (List.length domains_seen)

let test_wraparound_keeps_newest () =
  with_tracing ~buffer:8 @@ fun () ->
  for i = 1 to 20 do
    Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let spans = Trace.spans () in
  Alcotest.(check int) "ring holds capacity" 8 (List.length spans);
  Alcotest.(check int) "dropped the rest" 12 (Trace.dropped ());
  let names = List.map (fun s -> s.Trace.name) spans in
  Alcotest.(check (list string)) "newest survive, in order"
    (List.init 8 (fun i -> Printf.sprintf "s%d" (i + 13)))
    names

let test_disabled_is_free () =
  Trace.disable ();
  Trace.clear ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  (* No frames, no spans, no crashes — and the Option-threading API
     degrades to no-ops. *)
  let frame = Trace.start "ghost" in
  Alcotest.(check bool) "no frame handed out" true (frame = None);
  Trace.add frame "k" (Trace.Int 1);
  Trace.finish frame;
  Trace.with_span "ghost" (fun () -> ());
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans ()));
  (* Lenient smoke check that the guard is cheap: a million disabled
     with_span calls should be nowhere near a traced run's cost. *)
  let t0 = Anyseq_util.Timer.now_ns () in
  for _ = 1 to 1_000_000 do
    Trace.with_span "off" (fun () -> ())
  done;
  let dt_ms = Int64.to_float (Anyseq_util.Timer.elapsed_ns t0) /. 1e6 in
  Alcotest.(check bool) "1M disabled spans under 250ms" true (dt_ms < 250.0)

let contains = Helpers.contains_sub

let test_chrome_json_shape () =
  with_tracing @@ fun () ->
  Trace.with_span "root" ~attrs:[ ("k", Trace.Int 3); ("s", Trace.Str "a\"b") ] (fun () ->
      Trace.with_span "leaf" (fun () -> ()));
  let json = String.trim (Export.chrome_json (Trace.spans ())) in
  Alcotest.(check bool) "top-level object" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains json needle))
    [
      "\"traceEvents\""; "\"ph\":\"X\""; "\"name\":\"root\""; "\"name\":\"leaf\"";
      "\"ts\":"; "\"dur\":"; "\"pid\":"; "\"tid\":"; "\"k\":3"; "\"s\":\"a\\\"b\"";
    ];
  (* Structural sanity without a JSON parser: brackets and braces balance
     and quotes pair up outside escapes. *)
  let depth = ref 0 and ok = ref true and in_str = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then escaped := false
      else if !in_str then begin
        if c = '\\' then escaped := true else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    json;
  Alcotest.(check bool) "brackets balance" true (!ok && !depth = 0 && not !in_str)

let test_span_tree_render () =
  with_tracing @@ fun () ->
  Trace.with_span "batch" (fun () ->
      for _ = 1 to 3 do
        Trace.with_span "chunk" (fun () -> ())
      done);
  let tree = Export.span_tree (Trace.spans ()) in
  Alcotest.(check bool) "root row" true (contains tree "batch");
  Alcotest.(check bool) "aggregated child row" true (contains tree "chunk");
  Alcotest.(check bool) "count column aggregates" true (contains tree "3")

let layers_of spans =
  List.sort_uniq compare
    (List.filter_map
       (fun s ->
         match String.index_opt s.Trace.name '.' with
         | Some i -> Some (String.sub s.Trace.name 0 i)
         | None -> None)
       spans)

(* End-to-end: one traced batch through a fresh service must produce spans
   from the specialization cache (its kernel build included), the service
   lifecycle and a compute backend — the observability acceptance bar. A
   cache build runs no partial evaluation, so a cold batch has no [pe.*]
   or [staged.*] span; the partial evaluator's provenance attributes are
   checked on a traced direct specialization instead. *)
let test_batch_traces_all_layers () =
  with_tracing @@ fun () ->
  let service = Anyseq.Service.create ~capacity:64 () in
  let config = Anyseq.Config.make ~traceback:false () in
  let pairs = Array.init 16 (fun i -> (String.make (20 + i) 'A', String.make 24 'A')) in
  let results = Anyseq.align_batch ~service ~config pairs in
  Array.iter (fun r -> Alcotest.(check bool) "job ok" true (Result.is_ok r)) results;
  let spans = Trace.spans () in
  let layers = layers_of spans in
  List.iter
    (fun layer ->
      Alcotest.(check bool) (layer ^ " spans present") true (List.mem layer layers))
    [ "cache"; "service"; "backend" ];
  Alcotest.(check bool) "cold batch builds its kernels" true
    (List.exists (fun s -> s.Trace.name = "cache.build") spans);
  List.iter
    (fun layer ->
      Alcotest.(check bool) ("no " ^ layer ^ " span in a batch") false (List.mem layer layers))
    [ "pe"; "staged" ];
  Trace.clear ();
  ignore
    (Anyseq.Staged_kernel.specialize Anyseq.Scheme.paper_affine Anyseq.Types.Global `Compiled);
  let pe = List.find (fun s -> s.Trace.name = "pe.specialize") (Trace.spans ()) in
  List.iter
    (fun key ->
      Alcotest.(check bool) ("pe attr " ^ key) true (List.mem_assoc key pe.Trace.attrs))
    [ "fuel_limit"; "fuel_used"; "unfolds"; "folds"; "residual_nodes" ]

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "frames and attrs" `Quick test_attrs_and_frames;
          Alcotest.test_case "four concurrent domains" `Quick test_concurrent_domains;
          Alcotest.test_case "wraparound keeps newest" `Quick test_wraparound_keeps_newest;
          Alcotest.test_case "disabled path" `Quick test_disabled_is_free;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
          Alcotest.test_case "span tree render" `Quick test_span_tree_render;
        ] );
      ( "integration",
        [ Alcotest.test_case "batch traces all layers" `Quick test_batch_traces_all_layers ] );
    ]
