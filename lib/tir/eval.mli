(** Functional interpreter for Stage III programs.

    Establishes numerical correctness of compiled kernels against dense
    references: all loop kinds (including thread bindings) execute serially;
    TensorIR block init runs when every reduction iterator sits at the start
    of its domain; out-of-range reads yield 0 (guards inserted by split are
    legally hoisted below data-dependent extents); out-of-range stores are
    errors.  Sparse constructs are rejected — run both lowering passes
    first.  The performance model lives in {!Gpusim}. *)

type value =
  | Vi of int
  | Vf of float
  | Vb of bool

exception Eval_error of string

val to_i : value -> int
val to_f : value -> float
val to_b : value -> bool

type env = {
  vars : (int, value) Hashtbl.t;
  bufs : (int, Tensor.t) Hashtbl.t;
}

val make_env : unit -> env
val bind_buffer : env -> Ir.buffer -> Tensor.t -> unit
val eval_expr : env -> Ir.expr -> value
val eval_int : env -> Ir.expr -> int

val binary_search : Tensor.t -> lo:int -> hi:int -> int -> int
(** Position of a value in a sorted segment; [hi] when absent (Eq. 4's
    find). *)

val upper_bound : Tensor.t -> lo:int -> hi:int -> int -> int
(** Rightmost position in [lo, hi) whose element is <= the value (row
    recovery from indptr for fused iterations). *)

val run_func : Ir.func -> Tensor.t list -> unit
(** Execute a function with one tensor per parameter buffer, in order. *)
