(** End-to-end RGCN inference (S4.4.1): two RGMS layers with a ReLU between,
    assembled per system strategy.  Figure 20 compares latency and GPU
    memory footprint (the two-stage systems materialize the per-relation
    intermediate in HBM; the fused SparseTIR kernels do not). *)

type system =
  | Dgl_system
  | Pyg_system
  | Graphiler
  | Sparsetir_naive
  | Sparsetir_hyb
  | Sparsetir_hyb_tc

val system_name : system -> string

type t = {
  steps : (Tir.Ir.func * Gpusim.bindings) list;
  out : Tir.Tensor.t;
  fused : bool;
}

val execute : ?engine:Engine.kind -> t -> unit
val profile : Gpusim.Spec.t -> t -> Gpusim.profile

val inference :
  system -> Workloads.Hetero.t -> feat:int -> ?seed:int -> unit -> t

val reference : Workloads.Hetero.t -> feat:int -> ?seed:int -> unit -> Formats.Dense.t
