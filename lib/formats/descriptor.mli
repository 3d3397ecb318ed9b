(** Declarative format descriptors (DESIGN.md §3g): a format is a coordinate
    {!transform} plus an ordered {!Levels.t} list, and everything else is
    derived —

    - {!build}: construction from a canonical sorted/merged coordinate
      intermediate ({!canon}), one shared pipeline replacing the per-format
      bucket/sort/partition code;
    - {!pos_tensor} / {!crd_tensor} / {!vals_tensor}: the {!Tir.Tensor} set
      with {!Tir.Tensor.Facts} declarations read off the level properties
      (position arrays are non-decreasing by construction; root coordinate
      arrays get the fact of their effective ordered/unique properties), so
      every descriptor-built format is provably disjoint to
      [Tir.Analysis.loop_disjointness] without runtime scans;
    - {!emit_axes}: stage-I axes carrying the indptr/indices buffers that
      [Sparse_ir.Offsets.indptr_exn]/[indices_exn] look up, so kernels bind
      descriptor-built formats unchanged.

    The concrete format modules ([Csr], [Bsr], ..., [Sell], [Banded]) are
    thin wrappers: a descriptor definition plus record plumbing. *)

(** Injective coordinate transforms from logical (i, j) space into level
    space.  Because they are injective, the canonical intermediate's
    duplicate merge happens once, before the transform. *)
type transform =
  | Identity  (** coords pass through; arity = [Array.length dims] *)
  | Blocked of int  (** (i,j) -> (i/b, j/b, i mod b, j mod b): BSR/DBSR *)
  | Row_tiled of int  (** (i,j) -> (i/t, j, i mod t): SR-BCRS strips *)
  | Diagonal  (** (i,j) -> (j-i, i): DIA/banded *)

type t = {
  name : string;
  dims : int array;  (** logical coordinate-space extents *)
  transform : transform;
  levels : Levels.t list;
}

val make :
  ?name:string -> ?transform:transform -> dims:int array -> Levels.t list -> t
(** Validates the level count against the transform's output arity. *)

val to_trace : t -> string
(** Cache-key fragment: name, transform, levels and dims — everything the
    built storage layout depends on.  Kernels compiled from a descriptor
    put this in their pass trace. *)

(** {1 Canonical intermediate} *)

(** Entries sorted lexicographically by coordinate with duplicates summed
    (zero-valued sums are kept: compressed formats store them, matching the
    legacy constructors; wrappers that drop zeros filter first). *)
type canon = {
  cn_dims : int array;
  cn_entries : (int array * float) array;
}

val canon : dims:int array -> (int array * float) array -> canon
(** Shared sort/merge pipeline (stable sort; duplicates summed left to
    right in sorted order). *)

val canon2 : rows:int -> cols:int -> (int * int * float) array -> canon
(** Matrix convenience over [canon]; validates coordinate ranges. *)

val canon3 :
  dims:int * int * int -> (int * int * int * float) array -> canon
(** Order-3 convenience over [canon]; validates coordinate ranges. *)

val filter_zeros : canon -> canon
(** Drop zero-valued entries (for wrappers whose legacy constructors do:
    COO, CSF). *)

(** {1 Built storage} *)

type level_data = {
  ld_level : Levels.t;
  ld_pos : int array option;
      (** parents+1 cumulative stored-position counts (indptr) *)
  ld_crd : int array option;  (** stored coordinates / row map / offsets *)
  ld_width : int;
      (** constant stored positions per parent (0 when variable) *)
  ld_count : int;  (** total stored positions at this level *)
  ld_fact : Tir.Tensor.Facts.fact option;
      (** construction-guaranteed fact for [ld_crd] (root levels only) *)
}

type storage = {
  st_desc : t;
  st_extents : int array;  (** level-space extents ({!level_extents}) *)
  st_levels : level_data array;
  st_vals : float array;
      (** leaf-position order (exact size, possibly empty) *)
  st_nnz : int;  (** canonical entries stored *)
  st_padded : int;  (** leaf slots minus stored entries *)
}

val build : t -> canon -> storage
(** The generic construction: descend the level list, partitioning the
    sorted entry runs; [Invalid_argument] on coordinates that do not fit
    the levels (out-of-range dense coordinate, overfull fixed slice,
    off-band diagonal). *)

val build_rows :
  t -> rows:(int * (int * float) list) list -> storage
(** Construction from an explicit stored-row stream for descriptors whose
    root level is {!Levels.Singleton} (hyb's per-bucket row-mapped ELLs,
    where pseudo-row splitting repeats row ids): the root coordinate array
    is exactly the given row ids in order, with its effective
    ordered/unique properties verified during construction; each row's
    entries keep their given order. *)

(** {1 Derived tensor accessors (the uniform accessor set)} *)

val pos_tensor : storage -> level:int -> Tir.Tensor.t
(** The level's position (indptr-style) tensor; declares [Monotone_nd].
    Raises [Invalid_argument] if the level stores no positions. *)

val crd_tensor : storage -> level:int -> Tir.Tensor.t
(** The level's coordinate tensor, padded to at least one element like the
    legacy accessors; declares the level's derived fact, if any. *)

val vals_tensor :
  ?dtype:Tir.Dtype.t -> ?shape:int list -> storage -> Tir.Tensor.t
(** The value tensor, flat and padded to at least one element by default;
    [shape] reshapes it for kernels whose value buffer is
    multi-dimensional (the product must equal the stored value count —
    the engines read zeros rather than data through a shape mismatch). *)

(** {1 Stage-I axis emission} *)

val emit_axes :
  storage -> names:string list -> buf_prefix:string ->
  Tir.Ir.axis list * (string * Tir.Tensor.t) list
(** One stage-I axis per level ([names] gives the axis names):
    [Dense] ⇒ [dense_fixed]; [Compressed]/variable-width [Fixed_slice]
    under a parent ⇒ [sparse_variable] (indptr+indices);
    constant-width [Fixed_slice] ⇒ [sparse_fixed];
    root [Compressed]/[Singleton]/[Offset] ⇒ [dense_fixed] over the stored
    count plus a ["<prefix>_ids<level>"] binding for the coordinate stream
    (the gather map).  Aux buffers are named ["<prefix>_pos<level>"] /
    ["<prefix>_crd<level>"]; the returned bindings carry the matching
    tensors (facts already declared), ready to append to a kernel's
    binding list. *)
