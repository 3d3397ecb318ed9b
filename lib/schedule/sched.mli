(** Core schedule state and loop-level primitives (Stage II/III composable
    transformations, S3.3.2).

    A schedule wraps a function and rewrites its statement tree in place.
    Loops are addressed by variable name (split produces "<l>.o"/"<l>.i",
    fuse produces "<a>.<b>"); blocks by block name.  Because block iteration
    variables are bound to expressions over loop variables, loop rewrites
    only substitute loop variables — block semantics follow automatically. *)

open Tir.Ir

exception Schedule_error of string

val err : ('a, unit, string, 'b) format4 -> 'a

type t

val create : func -> t
val get : t -> func

(** {1 Lookup} *)

val loop_names : t -> string list
val find_loop_exn : t -> string -> var * expr * for_kind
val rewrite_loop : t -> string -> (var -> expr -> for_kind -> stmt -> stmt) -> unit
val find_block_exn : t -> string -> block
val rewrite_block : t -> string -> (block -> stmt) -> unit

(** {1 Loop transformations} *)

val split : t -> loop:string -> factor:int -> string * string
(** Split into outer (ceil(n/factor)) and inner (factor) loops, inserting a
    bounds guard unless the extent divides evenly.  Returns the new
    (outer, inner) names. *)

val fuse : t -> outer:string -> inner:string -> string
(** Fuse two perfectly nested loops; returns the fused loop's name. *)

val reorder : t -> loops:string list -> unit
(** Reorder a contiguous nest into the given order.  Guards introduced by
    split pass through and are re-emitted innermost; moving a loop above one
    its extent depends on is rejected. *)

(** {1 Annotations} *)

val bind : t -> loop:string -> thread_tag -> unit

val vectorize : t -> loop:string -> unit
(** Requires a constant extent of at most 8 lanes. *)

val unroll : t -> loop:string -> unit

(** {1 Helpers for block-level primitives} *)

val block_var_bindings : block -> expr Tir.Analysis.Int_map.t
val single_store_exn : block -> buffer * expr list * expr
val reduce_loop_vars : block -> string list
val rewrite_at_chain_top :
  t -> chain_vars:string list -> ?required:string list -> block_name:string ->
  (stmt -> stmt) -> unit

(** {1 Paths} *)

type path_frame =
  | Pf_for of var * expr * for_kind
  | Pf_if of expr
  | Pf_other

val path_to_block : t -> string -> path_frame list
(** Frames from the root down to (exclusive) the named block. *)

val chain_suffix : path_frame list -> path_frame list
(** Longest suffix made only of loops/guards: the pure chain immediately
    above the block. *)
