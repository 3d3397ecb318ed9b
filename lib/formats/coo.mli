(** Coordinate-format sparse matrices: the interchange representation used
    to build the compressed formats.  Entries are kept sorted by (row, col)
    with duplicates summed by the smart constructors. *)

type t = {
  rows : int;
  cols : int;
  entries : (int * int * float) array;
}

val nnz : t -> int
val of_entries : rows:int -> cols:int -> (int * int * float) list -> t
val of_dense : Dense.t -> t
val to_dense : t -> Dense.t
val density : t -> float

val structure : t -> t
(** Values replaced by 1.0 (adjacency matrices). *)

val transpose : t -> t

val descriptor : t -> Descriptor.t
(** COO as a level list: a non-unique compressed row stream over a
    singleton column stream. *)

val storage : t -> Descriptor.storage

val row_tensor : t -> Tir.Tensor.t
(** Per-entry row ids; sorted but repeating, so declared [Monotone_nd]. *)

val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
