(** ELLPACK storage with an optional row map: fixed stored columns per row
    with padding; the row-mapped variant stores a subset of the original
    rows — the building block of hyb(c, k) (Figure 11). *)

type t = {
  rows : int;                 (** stored rows *)
  cols : int;
  width : int;                (** stored columns per row *)
  indices : int array;
  data : float array;
  row_map : int array option; (** original row id per stored row *)
  padded : int;
}

val nnz_stored : t -> int

val descriptor : rows:int -> cols:int -> Descriptor.t
(** ELL as a level list: [[dense rows; fixed_slice (Fit max_int)]]. *)

val of_csr : Csr.t -> t

val of_csr_ref : Csr.t -> t
(** Pre-descriptor reference construction (differential tests, formats
    benchmark). *)

val to_dense : t -> orig_rows:int -> Dense.t
val indices_tensor : t -> Tir.Tensor.t
val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
val row_map_tensor : t -> Tir.Tensor.t
