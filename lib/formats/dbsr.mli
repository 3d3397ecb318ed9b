(** Doubly-compressed BSR: block rows without any blocks are skipped,
    storing a block-row id map — proposed by the paper for block-pruned
    weights with many all-zero rows (S4.3.2, Figure 17). *)

type t = {
  base : Bsr.t;        (** with indptr over non-empty block rows *)
  row_ids : int array; (** original block-row id per stored block row *)
  nrows_b : int;
}

val descriptor : block:int -> rows:int -> cols:int -> Descriptor.t
(** DBSR as a level list: [Blocked block] coordinates under
    [[compressed; compressed; dense block; dense block]] — the root
    compressed level is the block-row id map. *)

val of_csr : block:int -> Csr.t -> t

val of_csr_ref : block:int -> Csr.t -> t
(** Pre-descriptor reference construction (differential tests, formats
    benchmark). *)

val to_dense : t -> Dense.t

val row_ids_tensor : t -> Tir.Tensor.t
(** Strictly increasing by construction: declared [Monotone_inc], so the
    parallel executor's gather-map dispatch never scans it. *)

val indptr_tensor : t -> Tir.Tensor.t
(** The compressed indptr over stored block rows (nrows_b + 1 entries);
    declared [Monotone_nd]. *)

val indices_tensor : t -> Tir.Tensor.t
val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
