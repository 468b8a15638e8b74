(** One alignment request configuration — the unit the runtime groups,
    caches and dispatches on.

    A configuration bundles every axis the paper treats as {e static}
    (scoring scheme including its gap model, alignment mode, traceback
    on/off) plus a backend hint for the executor. Two jobs with equal
    configurations are guaranteed to run through the same specialized
    kernel, which is what makes batching profitable. *)

(** Where score-only jobs run. Traceback jobs run on the native residual
    under every hint. *)
type backend =
  | Auto
      (** executor picks per job: wavefront for huge score-only pairs
          when more than one domain is configured and the configuration
          has no [Unit_cost] certificate; otherwise the scalar residual,
          or bit-parallel Myers under that certificate *)
  | Scalar
      (** the cached native residual kernel, or bit-parallel Myers under a
          [Unit_cost] certificate for score-only jobs *)
  | Simd
      (** {!Anyseq_simd.Inter_seq} lockstep batches. Jobs whose score range
          fails the 16-bit feasibility bound are refused with
          [Overflow_bound] rather than silently de-vectorized — an explicit
          hint is a contract. On this container the lane substrate is
          emulated, so [Auto] never selects it; the hint exists for parity
          with real SIMD builds. *)
  | Wavefront  (** tiled multi-domain execution ({!Anyseq_wavefront.Scheduler}) *)

val backend_to_string : backend -> string

type t = {
  scheme : Anyseq_scoring.Scheme.t;  (** substitution + gap model *)
  mode : Anyseq_core.Types.mode;
  traceback : bool;  (** [false] = score-only (linear space, no CIGAR) *)
  backend : backend;
}

val make :
  ?scheme:Anyseq_scoring.Scheme.t ->
  ?mode:Anyseq_core.Types.mode ->
  ?traceback:bool ->
  ?backend:backend ->
  unit ->
  t
(** Defaults: {!Anyseq_scoring.Scheme.wildcard_linear}, [Global],
    [traceback = true], [Auto]. *)

val default : t

val key : t -> string
(** Grouping/cache key: scheme name, mode, traceback flag and backend.
    Scheme names are not guaranteed unique across distinct custom schemes;
    the specialization cache additionally checks scheme identity before
    reusing a kernel (see {!Spec_cache}). *)

val kernel_key : t -> string
(** The specialization-cache part of {!key}: scheme × mode only —
    traceback and backend do not change the residual relaxation kernel. *)

val to_string : t -> string
