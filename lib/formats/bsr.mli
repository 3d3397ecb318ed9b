(** Block Compressed Sparse Row: fixed square blocks, a block stored
    whenever any of its elements is non-zero (padding the rest).  Used for
    block-sparse attention and structured-pruned weights (S4.3). *)

type t = {
  rows : int;
  cols : int;
  block : int;
  rows_b : int;
  cols_b : int;
  indptr : int array;
  indices : int array;
  data : float array; (** nnzb * block * block, row-major per block *)
  padded : int;
}

val nnzb : t -> int
val nnz_stored : t -> int

val of_csr : block:int -> Csr.t -> t

val of_csr_ref : block:int -> Csr.t -> t
(** Pre-descriptor reference construction (differential tests, formats
    benchmark). *)

val to_dense : t -> Dense.t

val padding_ratio : t -> float
(** Fraction of explicitly stored zeros (intra-block fragmentation). *)

val indptr_tensor : t -> Tir.Tensor.t
val indices_tensor : t -> Tir.Tensor.t
val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
