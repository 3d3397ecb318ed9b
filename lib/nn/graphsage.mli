(** End-to-end GraphSAGE training (S4.2.3): a 2-layer mean-aggregation model,
    forward and backward, assembled entirely from compiled kernels so the
    simulator times the full epoch.  The SpMM kernel is pluggable (DGL's
    generic kernel vs the fused SparseTIR hyb decomposition) while dense
    GEMM / ReLU kernels are shared — the integration Figure 15 benchmarks. *)

open Formats

type spmm_variant = Dgl | Sparsetir of int (** hyb column partitions *)

type t = {
  steps : (Tir.Ir.func * Gpusim.bindings) list;
  h2 : Tir.Tensor.t; (** final layer output *)
}

val execute : ?engine:Engine.kind -> t -> unit
val profile : ?horizontal_fusion:bool -> Gpusim.Spec.t -> t -> Gpusim.profile

val spmm_step :
  spmm_variant -> Csr.t -> b_t:Tir.Tensor.t -> c_t:Tir.Tensor.t -> feat:int ->
  tag:string -> (Tir.Ir.func * Gpusim.bindings) list

val epoch :
  spmm_variant -> Csr.t -> in_feat:int -> hidden:int -> out_feat:int ->
  ?seed:int -> unit -> t
(** One training epoch (forward + backward). *)

val forward_reference :
  Csr.t -> in_feat:int -> hidden:int -> out_feat:int -> ?seed:int -> unit ->
  Dense.t
(** Host reference of the forward pass, for validation. *)
