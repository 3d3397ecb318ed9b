(** SpMM kernels (S4.2.1): the SparseTIR CSR kernel under the scheduling
    strategies of each baseline system, and the composable-format hyb kernel
    produced by format decomposition.  Output buffer is named "C". *)

open Formats

type compiled = {
  fn : Tir.Ir.func;
  bindings : Gpusim.bindings;
  out : Tir.Tensor.t; (** rows x feat *)
}

val stage1 : Csr.t -> feat:int -> Tir.Ir.func
(** The Stage I SpMM of Figure 3 over the given CSR structure. *)

val base_bindings : Csr.t -> Dense.t -> feat:int -> Gpusim.bindings * Tir.Tensor.t

val taco : Csr.t -> Dense.t -> feat:int -> compiled
(** Coalesced row-group kernel but no register caching and no unrolling —
    the limitations the paper attributes to TACO. *)

val cusparse : Csr.t -> Dense.t -> feat:int -> compiled
(** One row per block, features across threads, register accumulation. *)

val dgsparse : ?row_group:int -> Csr.t -> Dense.t -> feat:int -> compiled
(** GE-SpMM: row groups per block, coalesced features, register
    accumulation, unrolled non-zero loop. *)

val sputnik : ?row_group:int -> Csr.t -> Dense.t -> feat:int -> compiled
(** Subwarp tiling with vectorized (float4) feature loads. *)

val sparsetir_no_hyb : ?row_group:int -> ?vec:int -> Csr.t -> Dense.t -> feat:int -> compiled
(** The best single-format (CSR) point of SparseTIR's schedule space. *)

val bucket_rule :
  ?tensors:Tir.Tensor.t * Tir.Tensor.t * Tir.Tensor.t ->
  int -> Hyb.bucket -> Sparse_ir.Format_rewrite.rule * (string * Tir.Tensor.t) list
(** One FormatRewriteRule per hyb bucket (a row-mapped ELL): the inverse
    index map gathers the original row id from the bucket's row map.
    [tensors] = (row_map, indices, data) overrides the default copying
    accessors with shared-array tensors (the live-delta path). *)

val sparsetir_hyb :
  ?c:int -> ?k:int -> Csr.t -> Dense.t -> feat:int -> compiled * Hyb.t
(** The composable-format kernel of Figures 5 and 11: decompose_format over
    the bucket rules, one kernel per bucket (thread blocks cover 2^k
    non-zeros each), plus the generated output-initialization kernel.
    Profile with horizontal fusion. *)

val sparsetir_hyb_live : Hyb.live -> Dense.t -> feat:int -> compiled
(** The hyb kernel over a live (delta-patched) format: bindings share the
    live arrays, so in-place patches reach the artifact with no rebind.
    Call again after a {!Hyb.live_generation} bump — unchanged bucket
    shapes hit the compile cache and only bindings are re-derived. *)

val sparsetir_csr_live :
  ?row_group:int -> ?vec:int -> Csr.live -> Dense.t -> feat:int -> compiled
(** {!sparsetir_no_hyb} over a live CSR: the artifact survives every delta
    (nnz is data-dependent through indptr loads); re-derive bindings only
    after a {!Csr.live_generation} bump (capacity growth). *)

val accumulate_into :
  ?row_group:int -> Csr.t -> b_tensor:Tir.Tensor.t -> c_tensor:Tir.Tensor.t ->
  feat:int -> tag:string -> Tir.Ir.func * Gpusim.bindings
(** C += A B over existing tensors (no output init), for chained pipelines. *)

val sell :
  ?slice:int -> ?row_group:int -> Csr.t -> Dense.t -> feat:int ->
  compiled * Sell.t
(** Sliced-ELL SpMM.  The stage-I axes and aux bindings are emitted by
    {!Formats.Descriptor.emit_axes} from the format descriptor — the
    kernel itself never names the format's arrays. *)

val banded :
  ?band:int -> Csr.t -> Dense.t -> feat:int -> compiled * Banded.t
(** Fixed-band SpMM over the dense diagonal range, with a bounds guard on
    the shifted column.  Raises if the matrix has entries outside the
    band. *)
