(** Sparse iteration lowering: Stage I -> Stage II (S3.3.1).

    Performs the paper's four steps on every sparse iteration: auxiliary
    buffer materialization (indptr/indices become parameters with domain
    hints), nested loop generation (one loop per axis or fused group, with
    data-dependent extents and an upper-bound binary search recovering fused
    outer coordinates), coordinate translation (fast path reuses positions
    when an index is the same axis's iteration variable; otherwise the
    coordinate is recomputed and inverted with an emitted binary search —
    reads of absent coordinates yield 0, stores to them are dropped), and
    read/write region analysis on the generated TensorIR block. *)

val lower : Tir.Ir.func -> Tir.Ir.func
