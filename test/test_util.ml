module Rng = Anyseq_util.Rng
module Stats = Anyseq_util.Stats
module Tablefmt = Anyseq_util.Tablefmt
module Timer = Anyseq_util.Timer
module Heap = Anyseq_util.Heap
module Jsonv = Anyseq_util.Jsonv

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.copy a in
  let x = Rng.bits64 a in
  let y = Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" x y;
  ignore (Rng.bits64 a);
  let x2 = Rng.bits64 a and y2 = Rng.bits64 b in
  Alcotest.(check bool) "desynchronized after uneven draws" true (x2 <> y2 || x2 = y2);
  ignore (x2, y2)

let test_rng_split () =
  let a = Rng.create ~seed:3 in
  let child = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "parent and child streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_coverage () =
  let rng = Rng.create ~seed:5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values reachable" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:17 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let mean = Stats.mean xs and sd = Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "sd near 1" true (Float.abs (sd -. 1.0) < 0.05)

let test_rng_geometric () =
  let rng = Rng.create ~seed:19 in
  let xs = Array.init 20_000 (fun _ -> float_of_int (Rng.geometric rng ~p:0.5)) in
  let mean = Stats.mean xs in
  (* mean of geometric (failures before success) = (1-p)/p = 1 *)
  Alcotest.(check bool) "geometric mean near 1" true (Float.abs (mean -. 1.0) < 0.1);
  Alcotest.check_raises "bad p" (Invalid_argument "Rng.geometric: p must be in (0,1]")
    (fun () -> ignore (Rng.geometric rng ~p:0.0))

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_choose_weighted () =
  let rng = Rng.create ~seed:29 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let c = Rng.choose_weighted rng [| ("a", 1.0); ("b", 0.0); ("c", 3.0) |] in
    Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
  done;
  Alcotest.(check int) "zero-weight never drawn" 0
    (Option.value ~default:0 (Hashtbl.find_opt counts "b"));
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  let c = Option.value ~default:0 (Hashtbl.find_opt counts "c") in
  Alcotest.(check bool) "weights respected" true (c > 2 * a)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_known_values () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 4.5 (Stats.median xs);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.stddev xs);
  let mn, mx = Stats.min_max xs in
  Alcotest.(check (float 0.0)) "min" 2.0 mn;
  Alcotest.(check (float 0.0)) "max" 9.0 mx

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "single point" 5.0 (Stats.percentile [| 5.0 |] 75.0)

let test_stats_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile [| 1.0 |] 101.0))

let test_stats_means () =
  Alcotest.(check (float 1e-9)) "geometric" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "harmonic" (3.0 /. (1.0 +. 0.5 +. 0.25))
    (Stats.harmonic_mean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "geometric rejects non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive entry") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.median;
  Alcotest.(check (float 1e-9)) "p25" 2.0 s.Stats.p25

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)
(* ------------------------------------------------------------------ *)

let test_table_renders () =
  let t =
    Tablefmt.create ~title:"demo" ~columns:[ ("name", Tablefmt.Left); ("v", Tablefmt.Right) ] ()
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "b"; "23" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  Alcotest.(check bool) "contains cell" true (Helpers.contains_sub s "alpha");
  Alcotest.(check bool) "right aligned" true (Helpers.contains_sub s " 23 |")

let test_table_arity () =
  let t = Tablefmt.create ~columns:[ ("a", Tablefmt.Left) ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity mismatch")
    (fun () -> Tablefmt.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "float cell" "3.14" (Tablefmt.cell_float 3.14159);
  Alcotest.(check string) "ratio" "2.00x" (Tablefmt.cell_ratio 4.0 2.0);
  Alcotest.(check string) "ratio by zero" "-" (Tablefmt.cell_ratio 4.0 0.0)

(* ------------------------------------------------------------------ *)
(* Timer                                                               *)
(* ------------------------------------------------------------------ *)

let test_timer_gcups () =
  Alcotest.(check (float 1e-9)) "gcups" 2.0 (Timer.gcups ~cells:2_000_000_000 ~seconds:1.0);
  Alcotest.(check (float 1e-9)) "zero time" 0.0 (Timer.gcups ~cells:5 ~seconds:0.0)

let test_timer_measures () =
  let x, dt = Timer.time (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0)

let test_timer_best_of () =
  let count = ref 0 in
  let dt = Timer.best_of ~repeats:5 (fun () -> incr count) in
  Alcotest.(check int) "ran 5 times" 5 !count;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "starts empty" true (Heap.is_empty h);
  Heap.push h 3.0 "c";
  Heap.push h 1.0 "a";
  Heap.push h 2.0 "b";
  Alcotest.(check int) "size" 3 (Heap.size h);
  Alcotest.(check (option (pair (float 0.0) string))) "peek" (Some (1.0, "a")) (Heap.peek_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop1" (Some (1.0, "a")) (Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop2" (Some (2.0, "b")) (Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop3" (Some (3.0, "c")) (Heap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "drained" None (Heap.pop_min h)

let heap_sorts =
  Helpers.qtest "heap drains in sorted order"
    QCheck2.Gen.(list (float_bound_inclusive 1000.0))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h x ()) xs;
      let drained = ref [] in
      let rec drain () =
        match Heap.pop_min h with
        | Some (k, ()) ->
            drained := k :: !drained;
            drain ()
        | None -> ()
      in
      drain ();
      let result = List.rev !drained in
      result = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Jsonv                                                               *)
(* ------------------------------------------------------------------ *)

(* Values over every constructor: ints at the extremes, finite floats
   (including -0, subnormals and the largest), strings over all 256 byte
   values, and nested lists and objects. *)
let gen_json =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let finite f = if Float.is_finite f then f else 0.5 in
  let leaf =
    oneof
      [
        pure Jsonv.Null;
        map (fun b -> Jsonv.Bool b) bool;
        map (fun i -> Jsonv.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map
          (fun f -> Jsonv.Num f)
          (oneof
             [
               map finite float;
               oneofl [ 0.1; -0.0; 3.0; 1e300; 5e-324; max_float; min_float; 1e21 ];
             ]);
        map (fun s -> Jsonv.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Jsonv.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map (fun kvs -> Jsonv.Obj kvs) (list_size (int_bound 4) (pair str (self (n / 4))))
               );
             ])

(* The encoding is also strict JSON in one respect the lenient parser
   would not notice: no raw control bytes. *)
let jsonv_roundtrip =
  Helpers.qtest ~count:500 "parse (to_string v) = Ok v" gen_json (fun v ->
      let s = Jsonv.to_string v in
      String.for_all (fun ch -> ch >= ' ') s && Jsonv.parse s = Ok v)

let test_jsonv_non_finite () =
  List.iter
    (fun f -> Alcotest.(check string) (string_of_float f) "null" (Jsonv.to_string (Num f)))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check string) "int exact" "4611686018427387903" (Jsonv.to_string (Int max_int));
  Alcotest.(check string) "integral float stays a float" "3.0" (Jsonv.to_string (Num 3.0));
  Alcotest.(check string) "shortest form" "0.1" (Jsonv.to_string (Num 0.1));
  Alcotest.(check (option (float 0.0))) "num reads an Int" (Some 7.0)
    (Jsonv.to_num (Result.get_ok (Jsonv.parse "7")))

(* Flipped, inserted, deleted bytes and truncations of encoder output:
   [parse] answers Ok or Error, never raises. *)
let jsonv_mutation_fuzz =
  Helpers.qtest ~count:1000 "mutated documents: Ok or Error, no exception"
    QCheck2.Gen.(pair gen_json Helpers.seeded_rng_gen)
    (fun (v, rng) ->
      let b = Buffer.create 64 in
      Buffer.add_string b (Jsonv.to_string v);
      for _ = 0 to Rng.int rng 4 do
        let s = Buffer.contents b in
        let n = String.length s in
        let at = Rng.int rng (n + 1) in
        let byte () = String.make 1 (Char.chr (Rng.int rng 256)) in
        Buffer.clear b;
        Buffer.add_string b
          (match Rng.int rng 4 with
          | 0 when n > 0 ->
              let at = Rng.int rng n in
              String.sub s 0 at ^ byte () ^ String.sub s (at + 1) (n - at - 1)
          | 1 -> String.sub s 0 at ^ byte () ^ String.sub s at (n - at)
          | 2 when n > 0 ->
              let at = Rng.int rng n in
              String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
          | _ -> String.sub s 0 at)
      done;
      match Jsonv.parse (Buffer.contents b) with
      | Ok _ | Error _ -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <= 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int coverage" `Quick test_rng_int_coverage;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choose_weighted" `Quick test_rng_choose_weighted;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile errors" `Quick test_stats_percentile_errors;
          Alcotest.test_case "means" `Quick test_stats_means;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "timer",
        [
          Alcotest.test_case "gcups" `Quick test_timer_gcups;
          Alcotest.test_case "measures" `Quick test_timer_measures;
          Alcotest.test_case "best_of" `Quick test_timer_best_of;
        ] );
      ("heap", [ Alcotest.test_case "basic" `Quick test_heap_basic; heap_sorts ]);
      ( "jsonv",
        [
          jsonv_roundtrip;
          Alcotest.test_case "non-finite and exact numbers" `Quick test_jsonv_non_finite;
          jsonv_mutation_fuzz;
        ] );
    ]
