(** Architectural cost model: walks a Stage III function at warp granularity,
    evaluating integer control flow against the real buffer contents,
    classifying memory accesses by per-lane stride, driving the L1/L2 cache
    simulators and accounting CUDA-core / tensor-core / shared-memory
    throughput.  Each run resolves the function once to dense variable and
    buffer slots, then walks it without hashing or allocating per IR node.
    See the implementation header and DESIGN.md S2 and S3j for the modeling
    decisions. *)

open Tir

exception Cost_error of string

val err : ('a, unit, string, 'b) format4 -> 'a

(** Charges accumulated by a warp, a block or a whole kernel. *)
type wacc = {
  mutable a_insts : float;
  mutable a_l1 : float;
  mutable a_l2 : float;
  mutable a_dram : float;
  mutable a_dram_bytes : float;
  mutable a_smem : float;
  mutable a_tc : float;
  mutable a_flops : float;
}

val wacc_zero : unit -> wacc

(** Per-SM totals for throughput aggregation. *)
type sm_tot = {
  mutable s_insts : float;
  mutable s_l1 : float;
  mutable s_smem : float;
  mutable s_tc : float;
  mutable s_blocks : int;
}

type t
(** The walker of one run: the function resolved to slots, its parameters
    registered, fresh L1/L2 simulators. *)

type kernel
(** One top-level statement of the function, launched as one kernel. *)

val create : Spec.t -> Ir.func -> Tensor.t list -> t
(** [create spec fn tensors] binds [fn]'s parameters, in order, to
    [tensors]. *)

val kernels : t -> kernel list

val run_kernel :
  t -> kernel -> block_ordinal:int ref -> sm_tot array ->
  max_critical:float ref -> smem_high:int ref -> traffic:wacc -> unit
(** Walk every block of the kernel (sampling large uniform grids), adding
    each block's work to its SM's totals and to [traffic]. *)

val l1s : t -> Cache.t array
val l2 : t -> Cache.t

val total_flops : t -> float
