(** Pruned-transformer weight generators (S4.3.2): block pruning with
    clustered empty block rows (DBSR's target) and movement pruning with
    column-vector correlation (SR-BCRS's target). *)

open Formats

val block_pruned :
  ?seed:int -> rows:int -> cols:int -> block:int -> density:float ->
  ?zero_row_frac:float -> unit -> Csr.t

val movement_pruned :
  ?seed:int -> rows:int -> cols:int -> density:float -> ?tile:int ->
  ?tile_fill:float -> unit -> Csr.t

val activations : ?seed:int -> in_features:int -> seq_len:int -> unit -> Dense.t
