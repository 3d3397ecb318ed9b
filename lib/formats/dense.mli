(** Dense row-major matrices: the reference representation all sparse
    formats convert to/from, and the substrate of host-side reference
    computations. *)

type t = { rows : int; cols : int; data : float array }

val create : int -> int -> t
val of_array : int -> int -> float array -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val init : int -> int -> (int -> int -> float) -> t

val random : ?seed:int -> int -> int -> t
(** Deterministic pseudo-random values in [-1, 1). *)

val matmul : t -> t -> t
val transpose : t -> t
val max_abs_diff : t -> t -> float
val to_tensor : t -> Tir.Tensor.t
