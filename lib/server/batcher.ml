module Timer = Anyseq_util.Timer

type close = Full | Idle | Window | Drain

let close_name = function
  | Full -> "full"
  | Idle -> "idle"
  | Window -> "window"
  | Drain -> "drain"

(* Batches that may be in flight before new requests accumulate: one
   executing and one submitted behind it, so batch n+1 is parsed and
   queued while batch n computes. *)
let slots = 2

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;  (** push, release and close signal it *)
  tick : Condition.t;  (** wakes the ticker when a deadline is armed *)
  items : 'a Queue.t;
  max_batch : int;
  max_wait_us : int;
  max_pending : int;
  mutable closed : bool;
  mutable in_flight : int;  (** batches handed out and not yet released *)
  mutable forming : int;  (** consumers waiting for a batch to close *)
  mutable wake_ns : int64;  (** earliest armed window end; [Int64.max_int]: none *)
  mutable ticker : bool;  (** the ticker thread has been started *)
}

let create ?(max_batch = 64) ?(max_wait_us = 2000) ?(max_pending = 8192) () =
  if max_batch <= 0 then invalid_arg "Batcher.create: max_batch must be positive";
  if max_wait_us < 0 then invalid_arg "Batcher.create: max_wait_us must be non-negative";
  if max_pending <= 0 then invalid_arg "Batcher.create: max_pending must be positive";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    tick = Condition.create ();
    items = Queue.create ();
    max_batch;
    max_wait_us;
    max_pending;
    closed = false;
    in_flight = 0;
    forming = 0;
    wake_ns = Int64.max_int;
    ticker = false;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.max_pending then false
      else begin
        Queue.add x t.items;
        Condition.signal t.nonempty;
        true
      end)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty;
      Condition.signal t.tick)

let release t =
  with_lock t (fun () ->
      if t.in_flight <= 0 then invalid_arg "Batcher.release: no batch in flight";
      t.in_flight <- t.in_flight - 1;
      Condition.broadcast t.nonempty)

let depth t = with_lock t (fun () -> Queue.length t.items)
let is_closed t = with_lock t (fun () -> t.closed)

let take_up_to t n =
  let rec go k acc =
    if k = 0 || Queue.is_empty t.items then List.rev acc
    else go (k - 1) (Queue.pop t.items :: acc)
  in
  go n []

let take_one t =
  Mutex.lock t.mutex;
  let rec go () =
    if not (Queue.is_empty t.items) then begin
      let x = Queue.pop t.items in
      Mutex.unlock t.mutex;
      Some x
    end
    else if t.closed then begin
      Mutex.unlock t.mutex;
      None
    end
    else begin
      Condition.wait t.nonempty t.mutex;
      go ()
    end
  in
  go ()

(* The stdlib has no timed [Condition.wait], so a forming batch's window
   end is enforced by one ticker thread per batcher: it sleeps until the
   earliest armed deadline, then broadcasts [nonempty]. Deadlines are armed
   only by consumers forming a batch behind batches in flight, so the
   ticker sleeps only then; otherwise it blocks on [tick]. Sleeps are cut
   into ≤ 5 ms slices so an earlier deadline armed meanwhile is not
   overslept by much. *)
let max_tick_s = 5e-3

let ticker_loop t =
  Mutex.lock t.mutex;
  let rec go () =
    if t.closed then ()
    else if t.wake_ns = Int64.max_int then begin
      Condition.wait t.tick t.mutex;
      go ()
    end
    else
      let remaining_ns = Int64.sub t.wake_ns (Timer.now_ns ()) in
      if Int64.compare remaining_ns 0L <= 0 then begin
        (* Waiters still short of their own deadline re-arm on waking. *)
        t.wake_ns <- Int64.max_int;
        Condition.broadcast t.nonempty;
        go ()
      end
      else begin
        Mutex.unlock t.mutex;
        Thread.delay (Float.min max_tick_s (Int64.to_float remaining_ns *. 1e-9));
        Mutex.lock t.mutex;
        go ()
      end
  in
  go ();
  Mutex.unlock t.mutex

let arm t deadline =
  if Int64.compare deadline t.wake_ns < 0 then begin
    t.wake_ns <- deadline;
    if t.ticker then Condition.signal t.tick
    else begin
      t.ticker <- true;
      ignore (Thread.create ticker_loop t)
    end
  end

(* Why the batch now queued (non-empty) may leave, if it may. *)
let closing t deadline =
  if Queue.length t.items >= t.max_batch then Some Full
  else if t.closed then Some Drain
  else if t.in_flight < slots then Some Idle
  else if Int64.compare (Timer.now_ns ()) deadline >= 0 then Some Window
  else None

(* Called with the mutex held and items queued. With a slot free the batch
   leaves at once; behind [slots] batches in flight, wait on [nonempty]
   for one of the closing events. *)
let form t =
  let deadline = Int64.add (Timer.now_ns ()) (Int64.of_int (t.max_wait_us * 1000)) in
  match closing t deadline with
  | Some why -> why
  | None ->
      t.forming <- t.forming + 1;
      let rec wait () =
        arm t deadline;
        Condition.wait t.nonempty t.mutex;
        match closing t deadline with Some why -> why | None -> wait ()
      in
      let why = wait () in
      t.forming <- t.forming - 1;
      if t.forming = 0 then t.wake_ns <- Int64.max_int;
      why

let next_batch t =
  Mutex.lock t.mutex;
  let rec go () =
    if Queue.is_empty t.items then
      if t.closed then None
      else begin
        Condition.wait t.nonempty t.mutex;
        go ()
      end
    else
      let why = form t in
      match take_up_to t t.max_batch with
      | [] -> go () (* a concurrent consumer won the race *)
      | batch ->
          t.in_flight <- t.in_flight + 1;
          Some (batch, why)
  in
  let r = go () in
  Mutex.unlock t.mutex;
  r
