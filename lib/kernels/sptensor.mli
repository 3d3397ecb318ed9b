(** Higher-order and fused sparse kernels beyond the headline evaluation:
    MTTKRP over CSF (the deepest axis chain the language supports) and
    FusedMM (fused SDDMM+SpMM, expressible per the paper's related work). *)

open Formats

type compiled = {
  fn : Tir.Ir.func;
  bindings : Gpusim.bindings;
  out : Tir.Tensor.t;
}

val bindings_of : Csf.t -> Dense.t -> Dense.t -> Gpusim.bindings * Tir.Tensor.t

val mttkrp : Csf.t -> Dense.t -> Dense.t -> compiled
(** Y[i,r] = sum over (j,k) of T[i,j,k] B[j,r] C[k,r], rows across blocks,
    rank across threads, register accumulation over both reductions. *)

val fusedmm : Csr.t -> Dense.t -> Dense.t -> Dense.t -> compiled
(** Y[i,l] = sum_j (sum_k X[i,k] Z[j,k]) V[j,l] as one 4-deep iteration. *)

val fusedmm_reference : Csr.t -> Dense.t -> Dense.t -> Dense.t -> Dense.t

val unfused :
  Csr.t -> Dense.t -> Dense.t -> Dense.t ->
  (Tir.Ir.func * Gpusim.bindings) list * Tir.Tensor.t
(** SDDMM-then-SpMM with the edge scores materialized in HBM. *)
