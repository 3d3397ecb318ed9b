(** Construction DSL for the IR.

    Mirrors the paper's Python-embedded language (Figure 3): axis
    constructors ({!dense_fixed}, {!sparse_variable}, ...),
    {!match_sparse_buffer}, {!sp_iter}, plus arithmetic smart constructors
    with constant folding.  Operators are suffixed with [:] ([+:], [*:],
    [<:], ...) so they do not shadow integer arithmetic. *)

val buf_counter : int ref

val fresh_id : int ref -> int
(** Next unique id from a counter (used internally and by passes that create
    buffers). *)

val var : ?dtype:Dtype.t -> string -> Ir.var
(** Fresh variable with a unique id; defaults to int32. *)

val fvar : string -> Ir.var
(** Fresh float32 variable. *)

(** {1 Expressions} *)

val int : int -> Ir.expr
val float : float -> Ir.expr
val bool : bool -> Ir.expr
val v : Ir.var -> Ir.expr

val ( +: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( -: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( *: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( /: ) : Ir.expr -> Ir.expr -> Ir.expr

val ( /^ ) : Ir.expr -> Ir.expr -> Ir.expr
(** Floor division. *)

val ( %^ ) : Ir.expr -> Ir.expr -> Ir.expr
(** Floor modulo. *)

val min_ : Ir.expr -> Ir.expr -> Ir.expr
val max_ : Ir.expr -> Ir.expr -> Ir.expr
val ( =: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( <>: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( <: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( <=: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( >: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( >=: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( &&: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( ||: ) : Ir.expr -> Ir.expr -> Ir.expr
val exp_ : Ir.expr -> Ir.expr
val select : Ir.expr -> Ir.expr -> Ir.expr -> Ir.expr
val cast : Dtype.t -> Ir.expr -> Ir.expr
val f16 : Ir.expr -> Ir.expr
val f32 : Ir.expr -> Ir.expr

val ceil_div : Ir.expr -> Ir.expr -> Ir.expr
(** [(a + b - 1) // b]. *)

(** {1 Buffers} *)

val buffer :
  ?scope:Ir.storage_scope -> ?dtype:Dtype.t -> string -> Ir.expr list ->
  Ir.buffer
(** Dense buffer with the given shape. *)

val match_sparse_buffer :
  ?scope:Ir.storage_scope -> ?dtype:Dtype.t -> string -> Ir.axis list ->
  Ir.buffer
(** Sparse buffer composed of the given axes (the paper's
    [match_sparse_buffer]); only values are stored, auxiliary structure
    lives in the axes. *)

(** {1 Axes (S3.1)} *)

val dense_fixed :
  ?idtype:Dtype.t -> ?parent:Ir.axis -> string -> length:Ir.expr -> Ir.axis
(** Dense axis with a fixed extent; [parent] nests it under another axis
    (contiguous sub-tiling, e.g. the group dimension of SR-BCRS). *)

val dense_variable :
  ?idtype:Dtype.t -> string -> parent:Ir.axis -> length:Ir.expr ->
  nnz:Ir.expr -> indptr:Ir.buffer -> Ir.axis
(** Dense axis whose per-row extent varies (ragged): carries an indptr. *)

val sparse_fixed :
  ?idtype:Dtype.t -> string -> parent:Ir.axis -> length:Ir.expr ->
  nnz_cols:Ir.expr -> indices:Ir.buffer -> Ir.axis
(** Sparse axis with a fixed number of stored coordinates per row (ELL):
    carries an indices buffer. *)

val sparse_variable :
  ?idtype:Dtype.t -> string -> parent:Ir.axis -> length:Ir.expr ->
  nnz:Ir.expr -> indptr:Ir.buffer -> indices:Ir.buffer -> Ir.axis
(** Sparse axis with varying stored coordinates per row (CSR): carries both
    indptr and indices. *)

(** {1 Statements} *)

val store : Ir.buffer -> Ir.expr list -> Ir.expr -> Ir.stmt
val load : Ir.buffer -> Ir.expr list -> Ir.expr
val seq : Ir.stmt list -> Ir.stmt
val for_ : ?kind:Ir.for_kind -> string -> Ir.expr -> (Ir.expr -> Ir.stmt) -> Ir.stmt
val if_ : Ir.expr -> Ir.stmt -> Ir.stmt
val alloc : Ir.buffer -> Ir.stmt -> Ir.stmt

val sp_iter :
  name:string -> axes:Ir.axis list -> kinds:string ->
  ?init:(Ir.expr list -> Ir.stmt) -> (Ir.expr list -> Ir.stmt) -> Ir.stmt
(** Stage I sparse iteration (Figure 3).  [kinds] is the "SRS"-style string
    ('S' spatial / 'R' reduction, one per axis); [init] receives the same
    iteration variables as the body and becomes the block init after
    lowering. *)

val func :
  ?domains:(Ir.buffer * Ir.expr * Ir.expr) list -> string -> Ir.buffer list ->
  Ir.stmt -> Ir.func
