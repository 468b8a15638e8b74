(** Bounded specialization cache — the runtime's answer to the paper's
    "specialize once, run many" premise (and to Parasail's profile-reuse
    API): residual kernels are built on first use of a (scheme, mode)
    configuration and memoized under a bounded LRU policy, so a stream of
    jobs over few configurations pays specialization once per
    configuration, not once per job.

    Each entry holds only the kernels the service runs for the
    configuration: the pre-generated straight-line residual
    ({!Native_kernel}) and, under a [Unit_cost] certificate, the
    bit-parallel kernel. The property pass that issues certificates runs
    at build time; its report is not kept.

    Scheme names are the hash key but are not trusted for identity: a hit
    additionally requires the entry's substitution function to be
    physically the scheme's and the gap models to be equal. Distinct custom
    schemes that share a name therefore thrash (counted as
    [invalidations]) instead of silently reusing the wrong kernel.

    All operations are thread-safe (one mutex; kernels are built inside it,
    which serializes the build of a miss). *)

type t

type kernels = {
  native : Native_kernel.t;
  bitparallel : Bitparallel.t option;
      (** populated {e only} when the scheme's property report carries a
          [Unit_cost] certificate admitting this entry's mode —
          proof-directed tier selection; see DESIGN.md "Proof-directed
          specialization" *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** LRU capacity evictions *)
  invalidations : int;  (** scheme-name collisions: same name, other scheme *)
  size : int;
  capacity : int;
}

val default_capacity : int
(** 64 configurations. *)

val create : ?capacity:int -> unit -> t
(** [capacity] must be positive. *)

val get : t -> Anyseq_scoring.Scheme.t -> Anyseq_core.Types.mode -> kernels
(** Lookup or build-and-insert, updating recency. *)

val stats : t -> stats
val hit_rate : stats -> float
(** hits / (hits + misses); 0 before any lookup. *)

val clear : t -> unit
(** Drop every entry (counters are kept — monotonic). *)
