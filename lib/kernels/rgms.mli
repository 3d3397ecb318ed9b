(** Relational Gather-Matmul-Scatter (S4.4):
    Y[i,l] = sum_r sum_j sum_k A[r,i,j] X[j,k] W[r,k,l], with unit adjacency
    values (RGCN message passing and sparse-convolution maps).  Variants
    reproduce the systems of Figures 20 and 23. *)

open Formats

type compiled = {
  steps : (Tir.Ir.func * Gpusim.bindings) list;
  out : Tir.Tensor.t; (** Y, n x l *)
}

val execute : ?engine:Engine.kind -> compiled -> unit
val profile : ?horizontal_fusion:bool -> Gpusim.Spec.t -> compiled -> Gpusim.profile

val reference : Csr.t array -> Dense.t -> Dense.t array -> Dense.t
(** Host reference. *)

val naive : Csr.t array -> Dense.t -> Dense.t array -> compiled
(** SparseTIR(naive): one fused kernel over the concatenated CSR relations,
    CUDA cores, no format decomposition. *)

val hyb_buckets : ?k:int -> Csr.t array -> (int * Hyb.bucket) list * int
(** The 3-D hyb of S4.4.1 (hyb(1, k) per relation); returns the buckets and
    the total padding. *)

val combine_funcs : string -> Tir.Ir.func list -> Tir.Ir.func
(** Merge separately-scheduled single-kernel functions into one multi-kernel
    function (each top-level statement is its own launch; horizontal fusion
    merges them).  Keeps schedule rewrites linear in the kernel count. *)

val hyb : ?k:int -> Csr.t array -> Dense.t -> Dense.t array -> compiled
(** SparseTIR(hyb): per-(relation, bucket) ELL kernels on CUDA cores. *)

val hyb_tc : ?k:int -> Csr.t array -> Dense.t -> Dense.t array -> compiled
(** SparseTIR(hyb+TC), the Figure 21 schedule: per bucket, gather X rows and
    pin W_r in shared memory, multiply with tensor-core MMAs, and
    scatter-accumulate inside SRAM — no HBM intermediate. *)

val two_stage :
  ?extra_launches_per_relation:int -> Csr.t array -> Dense.t ->
  Dense.t array -> compiled
(** Graphiler/DGL/PyG strategy: T_r = X W_r materialized in HBM, then
    Y += A_r T_r; [extra_launches_per_relation] models framework-dispatch
    kernels. *)

val gather_two_stage : Csr.t array -> Dense.t -> Dense.t array -> compiled
(** TorchSparse strategy for convolution: gather referenced rows, cuBLAS
    tensor-core GEMM, scatter-add; gathered/result buffers live in HBM. *)
