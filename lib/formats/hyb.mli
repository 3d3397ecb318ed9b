(** The paper's composable format hyb(c, k) (S4.2.1, Figure 11): column
    partitioning into c ranges, power-of-two row-length bucketing up to 2^k
    with long-row splitting, one row-mapped ELL sub-matrix per bucket. *)

type bucket = {
  bk_part : int;   (** column partition id *)
  bk_width : int;  (** 2^i *)
  bk_ell : Ell.t;  (** row-mapped ELL sub-matrix *)
}

type t = {
  rows : int;
  cols : int;
  parts : int;
  max_width : int;
  part_cols : int;
  buckets : bucket list;
  nnz : int;
  padded : int;
}

val default_k : Csr.t -> int
(** The paper's bucketing rule: k = ceil(log2(nnz / rows)). *)

val of_csr : c:int -> k:int -> Csr.t -> t
(** Padded slots point one past the last column (an absent coordinate), so
    compiled copies and computations see them as structural zeros. *)

val of_csr_ref : c:int -> k:int -> Csr.t -> t
(** Pre-descriptor reference construction (differential tests, formats
    benchmark). *)

val padding_pct : t -> float
(** The %padding column of Tables 1 and 2. *)

val to_dense : t -> Dense.t

(** {1 Incremental deltas (DESIGN.md §3i)} *)

type live
(** A hyb whose underlying CSR is a {!Csr.live} and whose buckets own
    tensors sharing their arrays.  {!apply_delta} patches rows that keep
    their bucket in place (segment rewrite, row-map tensors untouched so
    their declared facts persist and parallel dispatch never falls back)
    and rebuilds only the buckets a migration touched. *)

type delta_info = {
  di_inplace : int;  (** (row, partition) segments rewritten in place *)
  di_migrated : int;  (** (row, partition) assignments that moved *)
  di_deferred : int;  (** shrinks retained by hysteresis *)
  di_rebuilt : int;  (** buckets rebuilt *)
  di_shape_changed : bool;
      (** bucket row counts changed — the kernel trace is stale and the
          artifact must be re-derived (compile-cache keys on the trace) *)
}

val live : ?slack:int -> ?cap_slack:int -> c:int -> k:int -> Csr.t -> live
(** Freeze a CSR into a live hyb(c, k).  [slack] is the re-bucketing
    hysteresis: a shrinking row stays in its bucket of width w while its
    length exceeds [w/2 - slack] (default 0 = cold rule, migrate the
    moment ceil-log2 drops).  Growth past the bucket width always
    migrates.  [cap_slack] pre-reserves CSR capacity. *)

val apply_delta : live -> Delta.edit list -> delta_info
(** Patch the CSR and the bucket maps in O(Δ + touched rows + rebuilt
    bucket entries).  Exactly one version bump per touched tensor per
    batch. *)

val force_rebucket : live -> unit
(** Escape hatch: shed all hysteresis retention by re-bucketing cold. *)

val live_hyb : live -> t
(** Immutable view sharing the live arrays; structurally equal to a cold
    [of_csr] of the patched matrix when [slack = 0]. *)

val live_buckets :
  live -> (bucket * Tir.Tensor.t * Tir.Tensor.t * Tir.Tensor.t) list
(** Per-bucket [(view, row_map, indices, data)] tensors, sorted
    (partition, width) — what the live kernel binds. *)

val live_generation : live -> int
(** Bumped when any bucket is rebuilt (fresh tensors): binding holders
    re-derive via {!live_buckets}. *)

val live_source : live -> Csr.live
(** The underlying live CSR (for CSR-leg bindings and fact refresh). *)
