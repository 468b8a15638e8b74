(* Size-class scratch arena for DP workspaces (ISSUE 5 tentpole).

   Buffers are handed out dirty, always a power-of-two length >= the
   request (and >= 16), and returned to a per-class free stack on
   release. Callers index through explicit bounds (m, width, ...) —
   never [Array.length] — so the pow2 over-allocation is invisible.
   One arena is single-owner: no locking here. Thread-safe sharing is
   the job of {!Anyseq_runtime.Workspace}, which checks arenas in and
   out per domain. *)

let classes = Sys.int_size
let min_class = 4 (* smallest buffer: 16 slots *)

(* Buffers above this length are served but never retained, so one
   oversized request cannot pin hundreds of megabytes in the arena. *)
let max_pooled_len = 1 lsl 22

type band_tally = { mutable certified : int; mutable dense : int; mutable rounds : int }

type t = {
  int_stacks : int array array array; (* class -> free stack storage *)
  int_lens : int array; (* class -> live depth of that stack *)
  byte_stacks : Bytes.t array array;
  byte_lens : int array;
  mutable hits : int;
  mutable misses : int;
  mutable resizes : int;
  band : band_tally;
}

let create () =
  {
    int_stacks = Array.make classes [||];
    int_lens = Array.make classes 0;
    byte_stacks = Array.make classes [||];
    byte_lens = Array.make classes 0;
    hits = 0;
    misses = 0;
    resizes = 0;
    band = { certified = 0; dense = 0; rounds = 0 };
  }

let class_of n =
  let c = ref min_class in
  while 1 lsl !c < n do incr c done;
  !c

let is_pow2 n = n > 0 && n land (n - 1) = 0

let acquire t n =
  let c = class_of n in
  let depth = t.int_lens.(c) in
  if depth > 0 then begin
    t.int_lens.(c) <- depth - 1;
    t.hits <- t.hits + 1;
    t.int_stacks.(c).(depth - 1)
  end
  else begin
    t.misses <- t.misses + 1;
    Array.make (1 lsl c) 0
  end

let release t a =
  let len = Array.length a in
  if is_pow2 len && len >= 1 lsl min_class && len <= max_pooled_len then begin
    let c = class_of len in
    let stack = t.int_stacks.(c) in
    let depth = t.int_lens.(c) in
    let stack =
      if depth < Array.length stack then stack
      else begin
        (* grow the free-stack storage; the old storage stays reachable
           only through the copy, so this is a rare bounded cost *)
        t.resizes <- t.resizes + 1;
        let bigger = Array.make (max 4 (2 * Array.length stack)) [||] in
        Array.blit stack 0 bigger 0 depth;
        t.int_stacks.(c) <- bigger;
        bigger
      end
    in
    stack.(depth) <- a;
    t.int_lens.(c) <- depth + 1
  end
(* non-class-sized or oversized buffers are silently dropped: release is
   tolerant so callers may hand back foreign arrays without checking *)

let acquire_bytes t n =
  let c = class_of n in
  let depth = t.byte_lens.(c) in
  if depth > 0 then begin
    t.byte_lens.(c) <- depth - 1;
    t.hits <- t.hits + 1;
    t.byte_stacks.(c).(depth - 1)
  end
  else begin
    t.misses <- t.misses + 1;
    Bytes.create (1 lsl c)
  end

let release_bytes t b =
  let len = Bytes.length b in
  if is_pow2 len && len >= 1 lsl min_class && len <= max_pooled_len then begin
    let c = class_of len in
    let stack = t.byte_stacks.(c) in
    let depth = t.byte_lens.(c) in
    let stack =
      if depth < Array.length stack then stack
      else begin
        t.resizes <- t.resizes + 1;
        let bigger = Array.make (max 4 (2 * Array.length stack)) Bytes.empty in
        Array.blit stack 0 bigger 0 depth;
        t.byte_stacks.(c) <- bigger;
        bigger
      end
    in
    stack.(depth) <- b;
    t.byte_lens.(c) <- depth + 1
  end

let hits t = t.hits
let misses t = t.misses
let resizes t = t.resizes

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.resizes <- 0

let band_tally t = t.band

let reset_band_tally t =
  t.band.certified <- 0;
  t.band.dense <- 0;
  t.band.rounds <- 0
