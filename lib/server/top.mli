(** The [anyseq top] dashboard: one [/statusz] document rendered as text.

    Every member is optional, so the same renderer serves [anyseq serve
    --admin] and [anyseq network --admin], whose [/statusz] carries only the
    service part ({!Server.service_routes}): sections whose member is
    absent are left out rather than printed as zeros. *)

val replied : Anyseq_util.Jsonv.t -> float option
(** [requests.replied] of a [/statusz] document; [None] when it has no
    [requests] member (a network run's document). *)

val render : label:string -> rate:float -> Anyseq_util.Jsonv.t -> string
(** The dashboard for one document, headed by [label] (the admin address).
    The requests/connections line appears only when the document has a
    [requests] member, showing [rate] as its request rate (replies per
    second, computed by the caller from successive {!replied} values). *)
