(** Performance tuning (the paper's search over composable formats x
    composable transformations): candidates run through the GPU cost model;
    the fastest wins.  Sparse structure is known at compile time, so search
    cost amortizes over the tuned kernel's many executions.

    [search_guided] cuts that cost further (DESIGN.md §3j): candidates
    carry a closed-form analytical estimate ([candidate.est], built on
    {!Gpusim.Estimate} without executing the warp-granularity walker) and
    only the estimator's top fraction is measured.  {!Cache} keys tuned
    winners on quantized structure statistics so structurally-similar
    matrices skip the search entirely. *)

type 'a candidate = {
  label : string;
  config : 'a;
  est : float;  (** analytical estimate, ms — the guided-search rank key *)
  build : unit -> Gpusim.profile;
}

type 'a result = {
  best_label : string;
  best_config : 'a;
  best : Gpusim.profile;
  trials : (string * float) list;
      (** measured (label, time_ms); compile failures appear with a
          [" \[failed\]"] suffix and an infinite time *)
  measured : int;  (** candidates run through the cost model *)
  skipped : int;  (** candidates pruned by the estimator *)
  failed : int;  (** candidates whose build raised *)
  cache_hits : int;  (** compile-cache hits incurred by this search *)
  cache_misses : int;  (** compile-cache misses incurred by this search *)
}

val failed_marker : string
(** Suffix marking a failed candidate's trial row. *)

val search : 'a candidate list -> 'a result
(** Evaluate every candidate and keep the fastest.  Candidates that fail
    to compile are recorded in [trials] with {!failed_marker}. *)

val search_guided : ?rho:float -> ?topk:int -> 'a candidate list -> 'a result
(** Rank candidates by [est] ascending and measure only the top [topk]
    (default [ceil (rho * n)], rho defaulting to 0.25); the rest are
    counted in [skipped].  The measured winner wins. *)

val geomean : float list -> float
(** The aggregation used across feature sizes in Figures 13-14. *)

(** Structure-keyed schedule cache: tuned winners keyed on (kernel family,
    feature-size bucket, quantized {!Formats.Stats} signature).  A lookup
    for a structurally-similar matrix returns the stored config with zero
    measurements; the serving layer consults this at tenant admission. *)
module Cache : sig
  type entry = { ce_label : string; ce_config : int list }

  val find : family:string -> feat:int -> Formats.Stats.key -> entry option
  (** Counted: every call bumps the hit or miss counter. *)

  val store :
    family:string -> feat:int -> Formats.Stats.key -> label:string ->
    config:int list -> unit

  val hits : unit -> int
  val misses : unit -> int
  val size : unit -> int
  val reset : unit -> unit
end

val spmm_hyb_candidates :
  ?cs:int list -> Gpusim.Spec.t -> Formats.Csr.t -> Formats.Dense.t ->
  feat:int -> int candidate list
(** hyb(c, k) with c swept and k fixed by the bucketing rule. *)

val spmm_no_hyb_candidates :
  ?groups:int list -> ?vecs:int list -> Gpusim.Spec.t -> Formats.Csr.t ->
  Formats.Dense.t -> feat:int -> (int * int) candidate list

val spmm_sell_candidates :
  ?slices:int list -> ?groups:int list -> Gpusim.Spec.t -> Formats.Csr.t ->
  Formats.Dense.t -> feat:int -> (int * int) candidate list
(** Sliced-ELL with the slice height (a format parameter) and row group (a
    schedule parameter) swept jointly — format x transformation search
    over a descriptor-defined format. *)

val sddmm_candidates :
  ?edges:int list -> ?groups:int list -> ?vecs:int list -> Gpusim.Spec.t ->
  Formats.Csr.t -> Formats.Dense.t -> Formats.Dense.t -> feat:int ->
  (int * int * int) candidate list
