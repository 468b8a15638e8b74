module Scheme = Anyseq_scoring.Scheme
module Alignment = Anyseq_bio.Alignment
module Trace = Anyseq_trace.Trace
open Anyseq_core.Types

type kernels = { native : Native_kernel.t; bitparallel : Bitparallel.t option }

type entry = {
  e_scheme : Scheme.t;
  e_mode : mode;
  e_kernels : kernels;
  mutable e_tick : int;  (** recency stamp for LRU eviction *)
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
  capacity : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Spec_cache.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let key scheme mode =
  Printf.sprintf "%s#%s" (Scheme.to_string scheme) (Alignment.mode_to_string mode)

(* A name hit is only a real hit when the configuration is actually the
   same one: same substitution function (physical — closures have no
   structural equality), same gap model, same mode. *)
let valid entry scheme mode =
  entry.e_scheme.Scheme.subst == scheme.Scheme.subst
  && entry.e_scheme.Scheme.gap = scheme.Scheme.gap
  && entry.e_mode = mode

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best.e_tick <= e.e_tick -> acc
        | _ -> Some (k, e))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1
  | None -> ()

let build k scheme mode =
  Trace.with_span "cache.build" ~attrs:[ ("key", Trace.Str k) ] @@ fun () ->
  (* The property pass runs at build time (one alphabet-square sweep) and
     its certificates gate the bit-parallel tier: [bitparallel] is [Some]
     exactly when a [Unit_cost] certificate admits this mode. No
     name-based dispatch. *)
  let props = Anyseq_analysis.Property.analyze scheme in
  { native = Native_kernel.make scheme mode; bitparallel = Bitparallel.build scheme mode props }

let get t scheme mode =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  let k = key scheme mode in
  let frame = Trace.start "cache.get" ~attrs:[ ("key", Trace.Str k) ] in
  Fun.protect ~finally:(fun () -> Trace.finish frame) @@ fun () ->
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.tbl k with
  | Some entry when valid entry scheme mode ->
      t.hits <- t.hits + 1;
      entry.e_tick <- t.tick;
      Trace.add frame "result" (Trace.Str "hit");
      entry.e_kernels
  | stale ->
      (match stale with
      | Some _ ->
          t.invalidations <- t.invalidations + 1;
          Hashtbl.remove t.tbl k
      | None -> ());
      t.misses <- t.misses + 1;
      Trace.add frame "result"
        (Trace.Str (match stale with Some _ -> "invalidated" | None -> "miss"));
      let kernels = build k scheme mode in
      if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
      Hashtbl.replace t.tbl k
        { e_scheme = scheme; e_mode = mode; e_kernels = kernels; e_tick = t.tick };
      kernels

let stats t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    invalidations = t.invalidations;
    size = Hashtbl.length t.tbl;
    capacity = t.capacity;
  }

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let clear t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  Hashtbl.reset t.tbl
