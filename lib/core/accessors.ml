type best_tracker = { note : int -> int -> int -> unit; current : unit -> Types.ends }

let max_tracker () =
  let best = ref { Types.score = Types.neg_inf; query_end = 0; subject_end = 0 } in
  {
    note =
      (fun score i j ->
        if score > !best.Types.score then
          best := { Types.score; query_end = i; subject_end = j });
    current = (fun () -> !best);
  }
