(** Block-structured kernels for sparse attention and pruned transformers
    (S4.3), all half precision: batched BSR SpMM/SDDMM with the tensorize
    schedule (Triton-style vs shared-staged), DBSR SpMM (skipping empty
    block rows), and SR-BCRS SpMM (gathered-row MMA panels). *)

open Formats

type compiled = {
  fn : Tir.Ir.func;
  bindings : Gpusim.bindings;
  out : Tir.Tensor.t;
}

val bsr_spmm : ?staged:bool -> Bsr.t -> heads:int -> Tir.Tensor.t -> feat:int -> compiled
val triton_bsr_spmm : Bsr.t -> heads:int -> Tir.Tensor.t -> feat:int -> compiled
(** Triton block-sparse: no staging, fixed coarse block granularity. *)

val csr_spmm_batched : Csr.t -> heads:int -> Tir.Tensor.t -> feat:int -> compiled
(** Scalar-core batched CSR kernel, the SparseTIR-CSR bar of Figure 16. *)

val bsr_sddmm :
  ?staged:bool -> Bsr.t -> heads:int -> feat:int -> Tir.Tensor.t ->
  Tir.Tensor.t -> compiled

val dbsr_spmm : ?staged:bool -> Dbsr.t -> Dense.t -> compiled
(** Figure 17: empty block rows launch no thread blocks. *)

val bsr_spmm_single : ?staged:bool -> Bsr.t -> Dense.t -> compiled
(** Plain BSR over one matrix: every block row gets a thread block. *)

val sr_bcrs_spmm : Sr_bcrs.t -> Dense.t -> compiled
(** Figure 19: gathered X rows staged in shared memory, then an MMA over
    each t x g panel. *)
