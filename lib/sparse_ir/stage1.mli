(** Stage I schedules (S3.2.2): transformations that stay in coordinate
    space. *)

val sparse_reorder :
  Tir.Ir.func -> iter:string -> order:string list -> Tir.Ir.func
(** Permute the axes of the named sparse iteration (kinds, variables and
    fusion groups follow); validity is re-checked at lowering time. *)

val sparse_fuse : Tir.Ir.func -> iter:string -> axes:string list -> Tir.Ir.func
(** Fuse consecutive iterators into one loop over their joint non-zero
    space; lowering recovers outer coordinates with an upper-bound binary
    search on indptr (used for SDDMM). *)
