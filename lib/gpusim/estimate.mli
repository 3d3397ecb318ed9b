(** Analytical cost estimator (DESIGN.md §3j).

    Scores a kernel candidate from closed-form aggregate work terms —
    warp instructions, cache-line transactions by service level, DRAM
    bytes, tensor-core MACs, load imbalance, grid/launch shape — using
    the same {!Spec} coefficients and aggregation shape as the
    warp-granularity simulator, but at O(1) cost per candidate.  The
    tuner ranks candidates by this score and measures only the top of
    the list through the real walker. *)

type workload = {
  wl_blocks : float;  (** grid blocks across all (fused) kernels *)
  wl_launches : float;  (** kernel launches *)
  wl_insts : float;  (** warp instructions, device total *)
  wl_l1 : float;  (** line transactions expected to hit L1 *)
  wl_l2 : float;  (** line transactions expected served by L2 *)
  wl_dram : float;  (** line transactions expected served by DRAM *)
  wl_smem : float;  (** shared-memory transactions *)
  wl_tc : float;  (** tensor-core MACs *)
  wl_imbalance : float;  (** >= 1: max-over-SM work / mean work *)
  wl_critical : float;
      (** cycles: latency of the longest single-warp dependence chain *)
}

val ideal : workload
(** Zero work, one launch, perfect balance — the starting point for
    [{ ideal with ... }] construction. *)

val block_schedule_cycles : float

val cycles : Spec.t -> workload -> float
val time_ms : Spec.t -> workload -> float

val stream_lines : Spec.t -> bytes:float -> reuse:float -> workload -> workload
(** Add [reuse] sequential passes over a [bytes]-sized operand: cold
    lines from DRAM, re-reads from L2 (spilling in proportion when the
    footprint exceeds L2). *)

val gather_lines :
  Spec.t -> accesses:float -> bytes_each:float -> footprint:float ->
  workload -> workload
(** Add [accesses] random reads into a [footprint]-sized structure,
    split across L1/L2/DRAM by footprint vs cache capacity. *)
