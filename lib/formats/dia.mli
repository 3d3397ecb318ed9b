(** Diagonal format: one stored vector per non-empty diagonal; natural for
    band matrices and an exercise of affine index expressions in stage I
    bodies. *)

type t = {
  rows : int;
  cols : int;
  offsets : int array; (** diagonal offsets (j - i), ascending *)
  data : float array;  (** n_diags x rows *)
  padded : int;
}

val n_diags : t -> int

val of_csr : Csr.t -> t

val of_csr_ref : Csr.t -> t
(** Pre-descriptor reference construction (differential tests, formats
    benchmark). *)

val to_dense : t -> Dense.t
