(** Graph generators standing in for the GNN datasets of Table 1: each named
    graph matches the real dataset's degree-distribution shape at a reduced
    scale (power-law skew rewards hyb's load balancing; centralized degrees
    do not).  Scaling is uniform across compared systems. *)

open Formats

type degree_shape =
  | Power_law of float   (** Pareto tail exponent *)
  | Centralized of float (** normal around the mean, relative stddev *)

type spec = {
  g_name : string;
  g_nodes : int;
  g_edges : int;
  g_shape : degree_shape;
}

val table1 : spec list
(** Scaled stand-ins for the seven graphs of Table 1. *)

val generate : ?seed:int -> spec -> Csr.t
(** Configuration-model adjacency with skewed column popularity. *)

val normalize_rows : Csr.t -> Csr.t
(** Mean-aggregation normalization, used by GraphSAGE. *)

val by_name : ?seed:int -> string -> Csr.t
