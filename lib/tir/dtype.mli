(** Scalar element types carried by buffers and expressions. *)

type t =
  | I32
  | I64
  | F16
  | F32
  | F64
  | Bool

val size_bytes : t -> int
val is_float : t -> bool
val is_int : t -> bool
val to_string : t -> string

val round_f16 : float -> float
(** Round through IEEE half precision (round-to-nearest-even, overflow to
    infinity, subnormal flush on underflow).  Applied on every store into an
    F16 buffer so accumulation exhibits half-precision behaviour. *)
