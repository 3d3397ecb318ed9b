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

val transpose : t -> t

val storage : t -> Descriptor.storage

val row_tensor : t -> Tir.Tensor.t
(** Per-entry row ids; sorted but repeating, so declared [Monotone_nd]. *)
