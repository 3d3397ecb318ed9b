(** Position-space offset and stride arithmetic shared by the two lowering
    passes (Eq. 6-8 of the paper). *)

exception Lower_error of string

val err : ('a, unit, string, 'b) format4 -> 'a

val indptr_exn : Tir.Ir.axis -> Tir.Ir.buffer
val indices_exn : Tir.Ir.axis -> Tir.Ir.buffer
val nnz_exn : Tir.Ir.axis -> Tir.Ir.expr
val nnz_cols_exn : Tir.Ir.axis -> Tir.Ir.expr

val aux_buffers : Tir.Ir.axis -> Tir.Ir.buffer list
(** The indptr/indices buffers the axis carries (either may be absent) —
    what [Formats.Descriptor.emit_axes] attaches and the lowering passes
    read back through {!indptr_exn}/{!indices_exn}.  Kernels use this to
    enumerate the aux bindings a format-emitted axis chain requires. *)

val offset : (string -> Tir.Ir.expr) -> Tir.Ir.axis -> Tir.Ir.expr
(** Flattened position-space offset of an axis given per-axis relative
    positions, looked up by axis name (Eq. 7): roots use their position,
    variable axes add [indptr[offset parent]], fixed children scale by their
    width. *)

val coordinate : (string -> Tir.Ir.expr) -> Tir.Ir.axis -> Tir.Ir.expr
(** Coordinate of an axis at the given positions (Eq. 3): sparse axes read
    their indices buffer at the flattened offset; dense positions are
    coordinates. *)

val extent : (string -> Tir.Ir.expr) -> Tir.Ir.axis -> Tir.Ir.expr
(** Loop extent under the current ancestor positions (data-dependent for
    variable axes). *)

val storage_size : Tir.Ir.axis list -> Tir.Ir.expr
(** Total flat storage of a sparse buffer composed of the given axes:
    product of {!nnz_tree} over the roots. *)

val flatten_access : Tir.Ir.axis list -> Tir.Ir.expr list -> Tir.Ir.expr
(** Flat offset of a position-space access (Eq. 6): sum over leaf axes of
    offset * stride. *)
