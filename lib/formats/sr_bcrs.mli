(** SR-BCRS(t, g) — the column-vector-sparse format of Magicube (S4.3.2,
    Figures 18-19): t x 1 tiles, zero tiles omitted, surviving tiles of each
    row strip grouped g at a time into dense t x g row-major panels that map
    onto MMA tiles.  Intra-tile fragmentation is bounded below by 1/t,
    versus 1/b^2 for BSR with block size b. *)

type t = {
  rows : int;
  cols : int;
  tile : int;
  group : int;
  strips : int;
  group_indptr : int array;
  tile_cols : int array;
  data : float array;
  padded : int;
}

val n_groups : t -> int
val n_tiles : t -> int

val of_csr : tile:int -> group:int -> Csr.t -> t

val of_csr_ref : tile:int -> group:int -> Csr.t -> t
(** Pre-descriptor reference construction (differential tests, formats
    benchmark). *)

val to_dense : t -> Dense.t

val stored_density : t -> float
(** Density of the transformed representation (Figure 19's right plot). *)

val group_indptr_tensor : t -> Tir.Tensor.t
val tile_cols_tensor : t -> Tir.Tensor.t
val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
