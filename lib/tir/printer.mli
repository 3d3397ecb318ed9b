(** Pretty-printer producing a TVMScript-like rendering of the IR, used by
    the examples, the CLI and golden tests. *)

val expr_to_string : Ir.expr -> string

val stmt_to_string : Ir.stmt -> string

val func_to_string : Ir.func -> string
(** Whole function: axis declarations, buffer declarations, then the body. *)
