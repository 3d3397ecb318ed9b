(** Sparse buffer lowering: Stage II -> Stage III (S3.4.1).

    Removes all axes: every sparse buffer becomes a flat 1-D buffer of its
    compressed storage size and every position-space access is rewritten to
    the Eq. 6-8 flat offset.  The result contains no sparse constructs and
    is accepted by the evaluator and the GPU simulator. *)

val lower : Tir.Ir.func -> Tir.Ir.func
