(** Sparsity-structure statistics (DESIGN.md §3j): a compact,
    row-permutation invariant signature per matrix, plus a quantized cache
    key.  The tuner's analytical cost estimator reads the signature; the
    structure-keyed schedule cache keys on {!key}, so one tuning run is
    amortized across structurally-similar matrices. *)

type t = {
  rows : int;
  cols : int;
  nnz : int;
  empty_rows : int;
  hist : int array;
      (** rows per ceil-log2 row-length bucket; [hist.(0)] = rows of
          length 1 *)
  mean : float;  (** nnz per row *)
  cv : float;  (** stddev of row length / mean *)
  skew : float;  (** third standardized moment of row lengths *)
  max_len : int;
  q25 : int;  (** row-length quantiles *)
  q50 : int;
  q75 : int;
  q90 : int;
  block_density : float;
      (** nnz / (4 * distinct (row, col/4) pairs) — column clustering *)
  bandwidth : float;
      (** mean per-row column span / cols — row spread *)
}

val block : int
(** Column-block width of the block-density probe. *)

val of_csr : Csr.t -> t
(** One O(nnz + rows log rows) pass; every field is a per-row aggregate,
    so the result is invariant under row permutation. *)

val qlog_int : int -> int

val quantized : t -> int list
(** The signature on coarse grids (half-log2 for scale-like quantities,
    quarters for bounded ratios): same-generator matrices collide,
    shape changes separate. *)

type key = string

val key : t -> key
(** Injective rendering of {!quantized}: keys are equal exactly when the
    quantized signatures are. *)

val to_string : t -> string
