(** Edge-delta batches for incremental sparsity updates (DESIGN.md §3i):
    the format-agnostic edit representation, normalization, and row-merge
    machinery shared by [Csr.apply_delta] and [Hyb.apply_delta]. *)

type edit =
  | Set of int * int * float
      (** [Set (i, j, v)]: insert entry (i, j), or overwrite its value *)
  | Del of int * int  (** [Del (i, j)]: remove if present; no-op otherwise *)

type row_edits = {
  re_row : int;
  re_cols : (int * float option) list;
      (** columns ascending; [Some v] = set, [None] = delete *)
}

val normalize : rows:int -> cols:int -> edit list -> row_edits list
(** Fold a batch into per-row edit runs: rows ascending, columns ascending
    within a row, the last edit at a coordinate winning.  Raises
    [Invalid_argument] on out-of-range coordinates. *)

val merge_row :
  old_cols:int array ->
  old_vals:float array ->
  lo:int ->
  hi:int ->
  (int * float option) list ->
  int array * float array * int * int
(** Merge one stored row segment (sorted columns at [lo, hi)) against its
    normalized edits in a single linear pass.  Returns
    [(cols, vals, added, removed)] where [added]/[removed] count true
    insertions/removals (overwrites and absent-deletes change neither). *)

val random :
  ?delete_bias:float ->
  seed:int ->
  rows:int ->
  cols:int ->
  edits:int ->
  unit ->
  edit list
(** Seeded random batch (sets and deletes) for benches and the
    evolving-graph traffic mode. *)
