(** Deterministic splitmix64 PRNG: all workloads are reproducible from their
    seed, independent of OCaml's global Random state. *)

type t

val create : int -> t
val int : t -> int -> int
val float : t -> float
val normal : t -> float
val pareto : t -> alpha:float -> xmin:float -> float
val shuffle : t -> 'a array -> unit
val distinct : t -> n:int -> k:int -> int array
