(** Compressed Sparse Row storage, plus reference SpMM/SDDMM used to validate
    every compiled kernel. *)

type t = {
  rows : int;
  cols : int;
  indptr : int array;  (** rows + 1 *)
  indices : int array; (** sorted within each row *)
  data : float array;
}

val nnz : t -> int
val row_len : t -> int -> int
val density : t -> float

val of_coo : Coo.t -> t
(** Descriptor-derived construction: robust to arbitrary entry order and
    duplicates (the canonical intermediate sorts and sums; binary searches
    during lowering require sorted rows). *)

val of_coo_ref : Coo.t -> t
(** Pre-descriptor reference construction, kept for the differential tests
    and the formats benchmark; bit-identical to {!of_coo} on
    duplicate-free input. *)

val to_canon : t -> Descriptor.canon
(** CSR's sorted rows as a ready-made canonical intermediate (no
    re-sorting). *)

val to_coo : t -> Coo.t
val of_dense : Dense.t -> t
val to_dense : t -> Dense.t
val transpose : t -> t

val spmm : t -> Dense.t -> Dense.t
(** Reference Y = A X. *)

val sddmm : t -> Dense.t -> Dense.t -> float array
(** Reference out_p = A_p * (X Y) at A's non-zero positions. *)

val degree_stats : t -> int * int * float
(** (min, max, mean) row length. *)

val indptr_tensor : t -> Tir.Tensor.t
val indices_tensor : t -> Tir.Tensor.t
val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t

(** {1 Incremental deltas (DESIGN.md §3i)} *)

val apply_delta : t -> Delta.edit list -> t
(** Pure O(Δ log Δ + touched-row entries + rows + copy) patch: merge each
    touched row against its normalized edits and blit untouched runs
    wholesale.  Structurally identical to a cold [of_coo] rebuild over the
    patched entry set. *)

type live
(** A CSR whose indptr/indices/data arrays are shared with its bound
    tensors and patched in place by {!apply_delta_live}: no copy at bind
    time, one version bump per tensor per batch, and the indptr ordering
    fact re-established over the rewritten span only
    ({!Tir.Tensor.Facts.redeclare_span}), so dispatch never rescans.
    indices/data carry capacity slack; kernels never read past
    [indptr.(rows)]. *)

val live : ?slack:int -> t -> live
(** Freeze a packed CSR into a live one.  [slack] pre-reserves extra
    indices/data capacity (default 0; growth is amortized ×1.5). *)

type row_patch = {
  rp_row : int;
  rp_cols : int array;  (** full merged row, columns ascending *)
  rp_vals : float array;
  rp_edits : (int * float option) list;
      (** the row's normalized edits, for layered formats *)
  rp_added : int;
  rp_removed : int;
}

val apply_delta_live : live -> Delta.edit list -> row_patch list
(** Patch in place.  Returns one {!row_patch} per touched row (rows
    ascending) so layered formats (hyb) can update their bucket maps from
    the same merge pass without re-deriving anything. *)

val live_csr : live -> t
(** Packed exact-size snapshot (the same array shapes [of_coo] builds) —
    for cold-rebuild comparison and kernel construction. *)

val live_nnz : live -> int

val live_generation : live -> int
(** Bumped when capacity growth replaces the indices/data tensors;
    observe it and re-derive bindings via {!live_bindings} after each
    batch. *)

val live_tensors : live -> Tir.Tensor.t * Tir.Tensor.t * Tir.Tensor.t
(** [(indptr, indices, data)] — the tensors sharing the live arrays. *)

val live_arrays : live -> int array * int array * float array
(** The raw shared arrays (indptr, indices, data); read-only for layered
    formats.  Only entries below {!live_nnz} are meaningful. *)

val live_bindings :
  ?data:string ->
  ?indptr:string ->
  ?indices:string ->
  live ->
  (string * Tir.Tensor.t) list ->
  (string * Tir.Tensor.t) list
(** Swap a kernel's A bindings (default names ["A"]/["A_indptr"]/
    ["A_indices"]) for the live tensors, leaving everything else
    untouched. *)
