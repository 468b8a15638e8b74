module Sequence = Anyseq_bio.Sequence
module Alphabet = Anyseq_bio.Alphabet

let unit_scheme = Anyseq_scoring.Scheme.unit_cost

(* The bit vectors use 62-bit limbs of OCaml's native int, not 64-bit
   Int64 words: [(eq land pv) + pv] of two 62-bit values stays strictly
   below 2^63, so the carry chain of Myers' Xh equation runs on untagged
   ints — no per-operation boxing in the inner loop, and every buffer is
   an [int array] the {!Scratch} arena can pool. Block decomposition is
   internal; distances are representation-independent. *)
let word_bits = 62

let all_ones = (1 lsl word_bits) - 1
let high_bit = 1 lsl (word_bits - 1)
let nblocks_of n = max 1 ((n + word_bits - 1) / word_bits)
let ceil_div a b = (a + b - 1) / b

(* Peq is flat — [peq.(code * nblocks + block)] — so one arena acquisition
   covers the whole table. Buffers come back dirty: zero exactly the
   prefix in use.

   Padding rows (pattern rows ≥ n in the last block) are {e wildcards}:
   they match every subject symbol, so the padded tail behaves as w_pad
   free matches and the banded bound arithmetic below can treat the
   block's bottom row as "true last row + w_pad". Rows < n are
   unaffected — the Xh carry chain only propagates upward (low bits to
   high bits), so any value or delta sampled at a row ≤ n-1 is identical
   to the unpadded computation. That keeps [search]/[occurrences]/
   [distance_full], which sample at the pattern's last-row bit,
   bit-exact. *)
let fill_peq peq q ~n ~nblocks =
  let asize = Alphabet.size (Sequence.alphabet q) in
  for k = 0 to (asize * nblocks) - 1 do
    Array.unsafe_set peq k 0
  done;
  let codes = Sequence.unsafe_codes q in
  for b = 0 to nblocks - 1 do
    let row0 = b * word_bits in
    for i = row0 to min n (row0 + word_bits) - 1 do
      let k = (Char.code (Bytes.unsafe_get codes i) * nblocks) + b in
      Array.unsafe_set peq k (Array.unsafe_get peq k lor (1 lsl (i - row0)))
    done
  done;
  let pad_lo = n mod word_bits in
  if pad_lo <> 0 then begin
    let pad_mask = all_ones lxor ((1 lsl pad_lo) - 1) in
    for c = 0 to asize - 1 do
      let k = (c * nblocks) + nblocks - 1 in
      Array.unsafe_set peq k (Array.unsafe_get peq k lor pad_mask)
    done
  end

(* One column step for one block (Myers' Advance_Block, as in edlib).
   [hin] is the horizontal delta entering the block's top row (-1/0/+1);
   the returned delta is sampled at [sample] — the block's top bit for
   interior blocks (the carry leaving its bottom row), or the pattern's
   last-row bit for the final block (the score delta). *)
let advance pv mv ~b ~eq ~hin ~sample =
  let pvb = Array.unsafe_get pv b and mvb = Array.unsafe_get mv b in
  let eq = if hin < 0 then eq lor 1 else eq in
  let xv = eq lor mvb in
  let xh = (((eq land pvb) + pvb) land all_ones) lxor pvb lor eq in
  let ph = mvb lor (all_ones land lnot (xh lor pvb)) in
  let mh = pvb land xh in
  let delta =
    if ph land sample <> 0 then 1 else if mh land sample <> 0 then -1 else 0
  in
  let ph = (ph lsl 1) land all_ones in
  let mh = (mh lsl 1) land all_ones in
  let ph = if hin > 0 then ph lor 1 else ph in
  let mh = if hin < 0 then mh lor 1 else mh in
  Array.unsafe_set pv b (mh lor (all_ones land lnot (xv lor ph)));
  Array.unsafe_set mv b (ph land xv);
  delta

(* Carry propagation through the interior blocks of one column. *)
let rec interior pv mv peq ~base ~b ~last ~hin =
  if b = last then hin
  else
    let hout =
      advance pv mv ~b ~eq:(Array.unsafe_get peq (base + b)) ~hin ~sample:high_bit
    in
    interior pv mv peq ~base ~b:(b + 1) ~last ~hin:hout

let one_column pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j =
  let c = Char.code (Bytes.unsafe_get scodes j) in
  let base = c * nblocks in
  let hin = interior pv mv peq ~base ~b:0 ~last:(nblocks - 1) ~hin:hin0 in
  advance pv mv ~b:(nblocks - 1)
    ~eq:(Array.unsafe_get peq (base + (nblocks - 1)))
    ~hin ~sample:last_mask

(* Straight distance loop (no per-column callback): tail-recursive with
   the running score in an argument, so the steady state allocates
   nothing — the full-sweep form kept as [distance_full] for the banded
   bit-identity gate and as the bench baseline. *)
let rec distance_columns pv mv peq scodes ~nblocks ~last_mask ~j ~m ~score =
  if j = m then score
  else
    let delta = one_column pv mv peq scodes ~nblocks ~last_mask ~hin0:1 ~j in
    distance_columns pv mv peq scodes ~nblocks ~last_mask ~j:(j + 1) ~m
      ~score:(score + delta)

let rec scan_columns pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j ~m ~score ~on_score =
  if j = m then score
  else begin
    let delta = one_column pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j in
    let score = score + delta in
    on_score j score;
    scan_columns pv mv peq scodes ~nblocks ~last_mask ~hin0 ~j:(j + 1) ~m ~score ~on_score
  end

(* Buffer management: peq (asize x nblocks, flat), pv, mv — from the
   arena when one is supplied, fresh otherwise. pv starts all-ones
   (column 0 is 0,1,2,…,n top to bottom), mv empty. *)
let with_state ?ws q f =
  let n = Sequence.length q in
  let nblocks = nblocks_of n in
  let asize = Alphabet.size (Sequence.alphabet q) in
  let last_mask = 1 lsl ((n - 1) mod word_bits) in
  let init peq pv mv =
    fill_peq peq q ~n ~nblocks;
    for b = 0 to nblocks - 1 do
      Array.unsafe_set pv b all_ones;
      Array.unsafe_set mv b 0
    done;
    f peq pv mv ~nblocks ~last_mask
  in
  match ws with
  | None -> init (Array.make (asize * nblocks) 0) (Array.make nblocks 0) (Array.make nblocks 0)
  | Some ws ->
      let peq = Scratch.acquire ws (asize * nblocks) in
      let pv = Scratch.acquire ws nblocks in
      let mv = Scratch.acquire ws nblocks in
      Fun.protect
        ~finally:(fun () ->
          Scratch.release ws mv;
          Scratch.release ws pv;
          Scratch.release ws peq)
        (fun () -> init peq pv mv)

let distance_full ?ws q s =
  let n = Sequence.length q and m = Sequence.length s in
  if n = 0 then m
  else if m = 0 then n
  else
    with_state ?ws q (fun peq pv mv ~nblocks ~last_mask ->
        distance_columns pv mv peq (Sequence.unsafe_codes s) ~nblocks ~last_mask ~j:0 ~m
          ~score:n)

(* ------------------------------------------------------------------ *)
(* Ukkonen block band (edlib's myersCalcEditDistanceNW arithmetic).    *)
(*                                                                     *)
(* Only blocks [first..last] of each column are advanced. A block is   *)
(* retired when every cell it could contribute is provably > the       *)
(* running bound k; the band extends downward by one block when the    *)
(* carry out of the current last block leaves its top cell within      *)
(* reach of k. Cells outside the band are never read back — a         *)
(* re-entered block is re-seeded pv=all-ones/mv=0, which makes its     *)
(* values upper bounds of the true DP values, so any value ≤ k the     *)
(* band does produce is exact (Ukkonen's invariant).                   *)
(*                                                                     *)
(* bscore.(b) tracks the value of block b's bottom row; the running    *)
(* bound k starts at the caller's cap and self-tightens each column    *)
(* from the cheapest completion of the band's bottom cell.             *)
(* ------------------------------------------------------------------ *)

exception Band_empty

let banded_columns peq pv mv bscore scodes ~nblocks ~n ~m ~k0 =
  let w_pad = (nblocks * word_bits) - n in
  let k = ref (min k0 (max n m)) in
  let first = ref 0 in
  (* d ≥ max(|n-m|, cells-off-diagonal), so a band of
     ceil((min k ((k+n-m)/2) + 1) / 62) blocks already covers every cell
     that could stay ≤ k in column 0 *)
  let last =
    ref (min (nblocks - 1) (ceil_div (min !k ((!k + n - m) / 2) + 1) word_bits - 1))
  in
  for b = 0 to !last do
    Array.unsafe_set pv b all_ones;
    Array.unsafe_set mv b 0;
    Array.unsafe_set bscore b ((b + 1) * word_bits)
  done;
  let hout = ref 1 in
  (* a trailing block is out of band when even its best cell plus the
     cheapest path to the bottom-right corner exceeds k (the +1 mirrors
     edlib's empirically required slack on the simplified bound) *)
  let last_out_of_band j =
    let bs = Array.unsafe_get bscore !last in
    bs >= !k + word_bits
    || ((!last + 1) * word_bits) - 1
       > !k - bs + (2 * word_bits) - 2 - m + j + n + 1
  in
  (* a leading block is out of band when its bottom cell minus the rows
     still below it already exceeds k on every remaining path *)
  let first_out_of_band j =
    let bs = Array.unsafe_get bscore !first in
    bs >= !k + word_bits
    || ((!first + 1) * word_bits) - 1 < bs - !k - m + n + j
  in
  match
    for j = 0 to m - 1 do
      let base = Char.code (Bytes.unsafe_get scodes j) * nblocks in
      hout := 1;
      for b = !first to !last do
        let h =
          advance pv mv ~b ~eq:(Array.unsafe_get peq (base + b)) ~hin:!hout
            ~sample:high_bit
        in
        Array.unsafe_set bscore b (Array.unsafe_get bscore b + h);
        hout := h
      done;
      (* tighten k: the band's bottom cell plus the cheapest completion
         (remaining columns, or remaining rows, or the w_pad free
         matches when this is the final block) bounds d from above *)
      let bs = Array.unsafe_get bscore !last in
      let cand =
        bs
        + max (m - j - 1) (n - ((!last + 1) * word_bits))
        + (if !last = nblocks - 1 then w_pad else 0)
      in
      if cand < !k then k := cand;
      (* extend the band one block down while its top cell can reach ≤ k *)
      if
        !last + 1 < nblocks
        && not
             (((!last + 1) * word_bits) - 1
              > !k - bs + (2 * word_bits) - 2 - m + j + n)
      then begin
        let nl = !last + 1 in
        Array.unsafe_set pv nl all_ones;
        Array.unsafe_set mv nl 0;
        let h =
          advance pv mv ~b:nl ~eq:(Array.unsafe_get peq (base + nl)) ~hin:!hout
            ~sample:high_bit
        in
        Array.unsafe_set bscore nl
          (Array.unsafe_get bscore !last - !hout + word_bits + h);
        last := nl;
        hout := h
      end;
      while !last >= !first && last_out_of_band j do
        decr last
      done;
      while !first <= !last && first_out_of_band j do
        incr first
      done;
      if !last < !first then raise_notrace Band_empty
    done
  with
  | () ->
      if !last <> nblocks - 1 then None
      else begin
        (* the band reached the final block: walk the vertical deltas up
           from the block's bottom row through the w_pad wildcard rows to
           read the value at the pattern's true last row *)
        let v = ref (Array.unsafe_get bscore (nblocks - 1)) in
        let pvb = Array.unsafe_get pv (nblocks - 1)
        and mvb = Array.unsafe_get mv (nblocks - 1) in
        for r = word_bits - 1 downto ((n - 1) mod word_bits) + 1 do
          if pvb land (1 lsl r) <> 0 then decr v
          else if mvb land (1 lsl r) <> 0 then incr v
        done;
        if !v <= !k then Some !v else None
      end
  | exception Band_empty -> None

let with_band_state ?ws q f =
  let n = Sequence.length q in
  let nblocks = nblocks_of n in
  let asize = Alphabet.size (Sequence.alphabet q) in
  let init peq pv mv bscore =
    fill_peq peq q ~n ~nblocks;
    f peq pv mv bscore ~nblocks
  in
  match ws with
  | None ->
      init
        (Array.make (asize * nblocks) 0)
        (Array.make nblocks 0) (Array.make nblocks 0) (Array.make nblocks 0)
  | Some ws ->
      let peq = Scratch.acquire ws (asize * nblocks) in
      let pv = Scratch.acquire ws nblocks in
      let mv = Scratch.acquire ws nblocks in
      let bscore = Scratch.acquire ws nblocks in
      Fun.protect
        ~finally:(fun () ->
          Scratch.release ws bscore;
          Scratch.release ws mv;
          Scratch.release ws pv;
          Scratch.release ws peq)
        (fun () -> init peq pv mv bscore)

(* ------------------------------------------------------------------ *)
(* One-word diagonal band (Hyyrö 2003's banded bit-vector form).      *)
(*                                                                    *)
(* With δ = n - m, a path of cost ≤ k through cell (i, j) on diagonal *)
(* t = i - j pays at least |t| to reach it and |δ - t| to leave it,   *)
(* so every optimal path of a pair with d ≤ k stays on the diagonals  *)
(* lo..hi = ⌈(δ-k)/2⌉..⌊(δ+k)/2⌋ — at most k+1 of them, so for k ≤ 61 *)
(* one word holds them all. Column j keeps the vertical deltas of     *)
(* rows top..top+61, top = max(1, j + lo). For the first 1 - lo       *)
(* columns the band is pinned at row 1 (plain Myers on one word);     *)
(* after that it slides down one row per column: Pv/Mv shift right,   *)
(* the row entering at the bottom is seeded Pv = 1 (an upper bound,   *)
(* as in the block band), and the Eq word is the 62 peq bits from     *)
(* pattern row top on, spliced from two adjacent peq words. The row   *)
(* above the band enters with h-in = +1, also an upper bound. Every   *)
(* value the band computes is the cost of a real path, and a cell     *)
(* whose optimal path stays inside the band is exact.                 *)
(*                                                                    *)
(* The score tracked is the corner-diagonal cell (j + δ, j). An       *)
(* optimal path into it of cost ≤ k stays on diagonals with |t| +     *)
(* |δ-t| ≤ k, i.e. inside the band, so its band value is exact        *)
(* whenever the true value is ≤ k; and values never fall along a      *)
(* diagonal, so d is at least the true value. Once the band value     *)
(* exceeds k, d > k and the scan stops; at j = m the cell is (n, m)   *)
(* itself.                                                            *)
(* ------------------------------------------------------------------ *)

(* Value of row [r] (1 ≤ r ≤ 62) of a pinned column whose row 0 holds
   [v]: add the vertical deltas of bits 0..r-1. *)
let rec pinned_value pv mv ~r ~v =
  if r = 0 then v
  else
    let b = 1 lsl (r - 1) in
    let v = if pv land b <> 0 then v + 1 else if mv land b <> 0 then v - 1 else v in
    pinned_value pv mv ~r:(r - 1) ~v

(* [Some d] iff d ≤ k, for k < 62 and |n - m| ≤ k. The Eq splice reads
   the top row's peq word and the next one; in the last block there is
   no next word and it reads the same word twice, which only fills rows
   past the pattern's end — rows > n never feed back into rows ≤ n. *)
let diagonal_band peq pv mv scodes ~nblocks ~n ~m ~k =
  let delta = n - m in
  let lo = -((k - delta) / 2) in
  (* columns 1..jend: pinned at row 1, Eq straight from block 0 *)
  let jend = min m (1 - lo) in
  Array.unsafe_set pv 0 all_ones;
  Array.unsafe_set mv 0 0;
  for j = 0 to jend - 1 do
    let eq = Array.unsafe_get peq (Char.code (Bytes.unsafe_get scodes j) * nblocks) in
    ignore (advance pv mv ~b:0 ~eq ~hin:1 ~sample:high_bit)
  done;
  let pv = ref (Array.unsafe_get pv 0) and mv = ref (Array.unsafe_get mv 0) in
  (* columns jend+1..m: sliding; the top row is pattern index
     w·62 + s, starting at 1, and the corner cell sits at bit [cb] *)
  let cb = delta - lo in
  let corner = ref (pinned_value !pv !mv ~r:(jend + delta) ~v:jend) in
  let j = ref jend and w = ref 0 and s = ref 1 in
  let next = ref (if nblocks > 1 then 1 else 0) in
  while !j < m && !corner <= k do
    let base = (Char.code (Bytes.unsafe_get scodes !j) * nblocks) + !w and sh = !s in
    let eq =
      ((Array.unsafe_get peq base lsr sh)
      lor (Array.unsafe_get peq (base + !next) lsl (word_bits - sh)))
      land all_ones
    in
    (* Myers' step inlined rather than [advance]: Pv/Mv stay in
       registers, and this loop is the whole cost of a short pair *)
    let pvj = (!pv lsr 1) lor high_bit and mvj = !mv lsr 1 in
    let xv = eq lor mvj in
    let xh = (((eq land pvj) + pvj) land all_ones) lxor pvj lor eq in
    let ph = mvj lor (all_ones land lnot (xh lor pvj)) in
    let mh = pvj land xh in
    (* corner(j) = corner(j-1) + Δv(row, j-1) + Δh(row, j) *)
    corner :=
      !corner
      + ((pvj lsr cb) land 1) - ((mvj lsr cb) land 1)
      + ((ph lsr cb) land 1) - ((mh lsr cb) land 1);
    let ph = ((ph lsl 1) lor 1) land all_ones in
    let mh = (mh lsl 1) land all_ones in
    pv := mh lor (all_ones land lnot (xv lor ph));
    mv := ph land xv;
    incr j;
    if sh = word_bits - 1 then begin
      incr w;
      s := 0;
      if !w = nblocks - 1 then next := 0
    end
    else s := sh + 1
  done;
  if !corner <= k then Some !corner else None

(* Iterative deepening (edlib's outer loop), first attempt in the
   one-word diagonal band: at k1 = min(cap, 61) it resolves every pair
   with d ≤ 61 in one word per column, and a failed attempt stops as
   soon as the corner diagonal passes k1. After that the block band
   takes over at 2·k1 (at the length gap when the gap alone rules the
   one-word band out) and doubles until the band survives or the cap is
   reached. Each failed block attempt costs O(m·k/62) block steps, so
   the total is within 2× of the last attempt — O(m·d/62) instead of the
   full sweep's O(m·n/62) whenever d << n, and crucially {e independent
   of how loose the cap is}: a caller cap of n/2 on a near-identical
   pair still resolves in the one-word band. peq is filled once; each
   attempt re-seeds only its initial band. *)
let deepen peq pv mv bscore scodes ~nblocks ~n ~m ~cap =
  let rec go k =
    match banded_columns peq pv mv bscore scodes ~nblocks ~n ~m ~k0:k with
    | Some _ as r -> r
    | None -> if k >= cap then None else go (min cap (2 * k))
  in
  let gap = if n > m then n - m else m - n in
  let k1 = min cap (word_bits - 1) in
  if gap > k1 then go (min cap (max word_bits gap))
  else
    match diagonal_band peq pv mv scodes ~nblocks ~n ~m ~k:k1 with
    | Some _ as r -> r
    | None -> if k1 >= cap then None else go (min cap (2 * k1))

let distance_upto ?ws ~k q s =
  if k < 0 then None
  else
    let n = Sequence.length q and m = Sequence.length s in
    if n = 0 then if m <= k then Some m else None
    else if m = 0 then if n <= k then Some n else None
    else if (if n > m then n - m else m - n) > k then None
    else
      with_band_state ?ws q (fun peq pv mv bscore ~nblocks ->
          deepen peq pv mv bscore (Sequence.unsafe_codes s) ~nblocks ~n ~m ~cap:k)

let distance ?ws q s =
  let n = Sequence.length q and m = Sequence.length s in
  if n = 0 then m
  else if m = 0 then n
  else
    with_band_state ?ws q (fun peq pv mv bscore ~nblocks ->
        (* d ≤ max n m always, so deepening at this cap cannot fail *)
        match
          deepen peq pv mv bscore (Sequence.unsafe_codes s) ~nblocks ~n ~m ~cap:(max n m)
        with
        | Some d -> d
        | None -> invalid_arg "Myers.distance: band failed at cap")

let search ~pattern ~text =
  let n = Sequence.length pattern in
  if n = 0 then (0, 0)
  else begin
    let best = ref n and best_pos = ref 0 in
    let m = Sequence.length text in
    with_state pattern (fun peq pv mv ~nblocks ~last_mask ->
        ignore
          (scan_columns pv mv peq (Sequence.unsafe_codes text) ~nblocks ~last_mask ~hin0:0
             ~j:0 ~m ~score:n ~on_score:(fun j score ->
               if score < !best then begin
                 best := score;
                 best_pos := j + 1
               end)));
    (!best, !best_pos)
  end

let occurrences ~pattern ~text ~k =
  let n = Sequence.length pattern in
  if n = 0 then List.init (Sequence.length text + 1) (fun j -> (j, 0))
  else begin
    let hits = ref [] in
    let m = Sequence.length text in
    with_state pattern (fun peq pv mv ~nblocks ~last_mask ->
        ignore
          (scan_columns pv mv peq (Sequence.unsafe_codes text) ~nblocks ~last_mask ~hin0:0
             ~j:0 ~m ~score:n ~on_score:(fun j score ->
               if score <= k then hits := (j + 1, score) :: !hits)));
    List.rev !hits
  end
