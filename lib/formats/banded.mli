(** Banded (Longformer-style fixed-band DIA): every diagonal in
    [[-band, band]] is stored whether empty or not, so the layout is static
    — 2*band+1 vectors of [rows] values — and kernels iterate a dense
    offset range with no indirection on the diagonal axis.  The second
    descriptor one-liner (DESIGN.md §3g):
    [[offset ~band; dense rows]] over [Diagonal] coordinates.
    Construction rejects matrices with entries outside the band. *)

type t = {
  rows : int;
  cols : int;
  band : int;
  storage : Descriptor.storage;
}

val descriptor : band:int -> rows:int -> cols:int -> Descriptor.t

val of_csr : band:int -> Csr.t -> t
(** Raises [Invalid_argument] if the matrix has an entry with
    |j - i| > band. *)

val n_diags : t -> int
(** Always 2*band + 1. *)

val to_dense : t -> Dense.t

val offsets_tensor : t -> Tir.Tensor.t
(** The full ascending offset range -band..band; declared
    [Monotone_inc]. *)

val data_tensor : ?dtype:Tir.Dtype.t -> t -> Tir.Tensor.t
(** n_diags x rows, diagonal-major like {!Dia}. *)
