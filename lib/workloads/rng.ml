(* Deterministic splitmix64 PRNG: all workloads are reproducible from their
   seed, independent of OCaml's global Random state. *)

type t = { mutable state : int64 }

let create (seed : int) : t = { state = Int64.of_int (seed * 2654435761 + 1) }

let next_int64 (g : t) : int64 =
  g.state <- Int64.add g.state 0x9e3779b97f4a7c15L;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, n) *)
let int (g : t) (n : int) : int =
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.logand (next_int64 g) Int64.max_int) (Int64.of_int n))

(* uniform in [0, 1) *)
let float (g : t) : float =
  Int64.to_float (Int64.logand (next_int64 g) 0xfffffffffffffL) /. 4503599627370496.0

(* standard normal (Box-Muller) *)
let normal (g : t) : float =
  let u1 = Float.max 1e-12 (float g) and u2 = float g in
  Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

(* Pareto-tailed value with exponent alpha, min value xmin. *)
let pareto (g : t) ~(alpha : float) ~(xmin : float) : float =
  xmin /. Float.pow (Float.max 1e-12 (1.0 -. float g)) (1.0 /. alpha)
