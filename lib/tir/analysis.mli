(** Structural analyses over the IR: substitution, traversal, free variables,
    buffer collection, simplification and linear (stride) analysis of index
    expressions.  These underpin the schedule primitives, the lowering
    passes and the GPU simulator's coalescing model. *)

module Int_map : Map.S with type key = int

(** {1 Substitution} *)

val subst_expr : Ir.expr Int_map.t -> Ir.expr -> Ir.expr
(** Replace variables (by id) throughout an expression. *)

val subst_stmt : Ir.expr Int_map.t -> Ir.stmt -> Ir.stmt
val subst1_expr : Ir.var -> Ir.expr -> Ir.expr -> Ir.expr
val subst1_stmt : Ir.var -> Ir.expr -> Ir.stmt -> Ir.stmt

(** {1 Traversal} *)

val iter_expr : (Ir.expr -> unit) -> Ir.expr -> unit
(** Pre-order visit of every sub-expression. *)

val iter_stmt :
  ?enter_expr:(Ir.expr -> unit) -> (Ir.stmt -> unit) -> Ir.stmt -> unit
(** Pre-order visit of every sub-statement; [enter_expr] additionally visits
    each contained expression. *)

val map_stmt : (Ir.stmt -> Ir.stmt) -> Ir.stmt -> Ir.stmt
(** Rebuild a statement by applying [f] bottom-up to every sub-statement. *)

(** {1 Collections} *)

val free_vars_expr : Ir.expr -> Ir.var list
val collect_buffers_stmt : Ir.stmt -> Ir.buffer list

val buffers_of_expr : Ir.expr -> Ir.buffer list
(** Every buffer an expression reads (loads and binary searches). *)

val stmt_contains_sparse_constructs : Ir.stmt -> bool
(** True while the program is still at Stage I/II (sparse iterations or
    accesses to sparse buffers remain). *)

(** {1 Simplification} *)

val simplify : Ir.expr -> Ir.expr
(** Recursive constant folding and algebraic identities (x+0, x*1,
    (x-y)+y, ...). *)

val const_int_opt : Ir.expr -> int option
(** The value of a constant integer expression, after simplification. *)

(** {1 Linear analysis} *)

val linear_in : Ir.var -> Ir.expr -> (int * Ir.expr) option
(** Decompose [e] as [coeff * x + rest] with [rest] free of [x]; [None] when
    [e] is not linear in [x].  The coalescing model uses the coefficient of
    an address in the lane variable to count memory transactions per warp. *)

(** {1 Loop-invariant index arithmetic}

    Support for the compiled engine's fusion peephole (DESIGN.md §3e): the
    engine pre-evaluates loop-invariant buffer index arithmetic into slots
    once per entry of the enclosing loop.  With [into_block_binds = false]
    (the engine's setting outside parallel regions) nested blockIdx-bound
    loops are left untouched, so the write-disjointness analysis still sees
    their original bodies. *)

val invariant_of_loop :
  ?into_block_binds:bool -> Ir.var -> Ir.stmt -> Ir.expr list
(** [invariant_of_loop x body] returns the maximal sub-expressions of buffer
    index arithmetic in [body] (load/store indices, bsearch bounds, MMA
    origins and strides) that are invariant across iterations of the loop
    over [x]: they mention neither [x] nor any variable bound inside [body],
    read no buffer [body] mutates, and cannot raise when evaluated
    unconditionally (division only by nonzero constants, no [Bsearch]).
    Immediates and lone variables are excluded (hoisting them saves
    nothing).  Deduplicated, in first-occurrence order. *)

val replace_exprs :
  ?into_block_binds:bool -> (Ir.expr * Ir.expr) list -> Ir.stmt -> Ir.stmt
(** Replace structurally-matching sub-expressions throughout a statement,
    outermost-first.  A candidate is not replaced under a binder that
    shadows one of its free variables, nor (with [into_block_binds = false])
    inside a nested blockIdx-bound loop. *)

(** {1 Write-disjointness} *)

type witness =
  | W_direct of { dim : int; coeff : int }
      (** The [dim]-th index of every access is [coeff * x + rest] with
          [rest] in [[0, coeff)]: distinct iterations touch disjoint slabs. *)
  | W_gather of { dim : int; coeff : int; scale : int; map : Ir.buffer }
      (** The [dim]-th index of every access is
          [scale * map[coeff * x + r] + rest] with [r] in [[0, coeff)] and
          [rest] in [[0, scale)], where [map] is an unwritten non-sparse
          integer buffer.  Iterations scatter through [map]; the executor
          must establish a runtime fact ({!Tir.Tensor.Facts}) about the
          bound tensor — injectivity for arbitrary chunking, or
          non-decreasing monotonicity with chunk cuts at strict increases —
          before running the loop in parallel. *)

type fail_reason =
  | Fr_indirect
      (** a store is routed through an index load with no provable gather
          witness (or the runtime facts were not established) *)
  | Fr_bsearch  (** binary search / MMA tile over a written buffer *)
  | Fr_non_linear  (** an index is not linear in the loop variable *)
  | Fr_no_witness
      (** indices are linear but no dimension agrees across accesses *)

type verdict = Par of (Ir.buffer * witness) list | Serial of fail_reason

val loop_disjointness : Ir.var -> Ir.stmt -> verdict
(** [loop_disjointness x body] proves, per buffer [body] writes (locally
    allocated buffers are private and exempt), a {!witness} that distinct
    values of [x] touch disjoint regions — all accesses to a written buffer,
    loads included, must agree on the witness.  [Serial] carries the first
    failure's reason and is always safe (the executor falls back to serial
    execution). *)
