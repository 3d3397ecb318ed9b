(** Heterogeneous (multi-relation) graph generators standing in for the RGCN
    datasets of Table 2: Zipf-skewed relation sizes over power-law bipartite
    structure, like real knowledge graphs. *)

open Formats

type spec = {
  h_name : string;
  h_nodes : int;
  h_edges : int;
  h_etypes : int;
}

type t = {
  spec : spec;
  relations : Csr.t array; (** one n x n adjacency per edge type *)
}

val generate : ?seed:int -> spec -> t
val total_edges : t -> int
val by_name : ?seed:int -> string -> t
