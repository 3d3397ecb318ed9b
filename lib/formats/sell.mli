(** Sliced ELLPACK (SELL-sigma without row reordering): rows are grouped
    into slices of [slice] consecutive rows and each slice is padded to its
    own maximum row length, bounding ELL's padding blow-up to the worst row
    of a slice instead of the worst row of the matrix.  A pure
    descriptor one-liner (DESIGN.md §3g): the whole format is
    [[dense rows; fixed_slice (Fit slice)]]. *)

type t = {
  rows : int;
  cols : int;
  slice : int;
  storage : Descriptor.storage;
}

val descriptor : slice:int -> rows:int -> cols:int -> Descriptor.t

val of_csr : ?slice:int -> Csr.t -> t
(** Default slice height 32. *)

val nnz_stored : t -> int
(** Stored slots (including padding). *)

val padded : t -> int

val width_of : t -> int -> int
(** Stored width of a row's slice. *)

val to_dense : t -> Dense.t

val indices_tensor : t -> Tir.Tensor.t
(** Stored column ids; padded slots point at column 0 with value 0.0. *)

val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
