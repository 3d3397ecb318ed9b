(** Compressed Sparse Fiber for order-3 tensors: a two-level compression
    I -> J -> K, the deepest axis chain exercised by the format language
    (S3.1 lists CSF among the expressible formats). *)

type t = {
  dim_i : int;
  dim_j : int;
  dim_k : int;
  j_indptr : int array;
  j_indices : int array;
  k_indptr : int array;
  k_indices : int array;
  data : float array;
}

val nnz : t -> int
val nnz_fibers : t -> int

val of_entries : dim_i:int -> dim_j:int -> dim_k:int -> (int * int * int * float) list -> t

val of_entries_ref :
  dim_i:int -> dim_j:int -> dim_k:int -> (int * int * int * float) list -> t
(** Pre-descriptor reference construction (differential tests, formats
    benchmark). *)

val mttkrp : t -> Dense.t -> Dense.t -> Dense.t
(** Reference Y[i,r] = sum over (j,k) of T[i,j,k] B[j,r] C[k,r]. *)

val iter_entries : t -> (int -> int -> int -> float -> unit) -> unit
val random : ?seed:int -> dim_i:int -> dim_j:int -> dim_k:int -> nnz:int -> unit -> t

val j_indptr_tensor : t -> Tir.Tensor.t
(** Declared [Monotone_nd] (cumulative sums). *)

val j_indices_tensor : t -> Tir.Tensor.t

val k_indptr_tensor : t -> Tir.Tensor.t
(** Declared [Monotone_nd] (cumulative sums). *)

val k_indices_tensor : t -> Tir.Tensor.t
val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
