(* Edge-delta batches for incremental sparsity updates (DESIGN.md §3i).

   A batch is an unordered list of coordinate edits — [Set (i, j, v)]
   inserts entry (i, j) or overwrites its value, [Del (i, j)] removes it if
   present.  [normalize] folds a batch into per-row edit runs (rows
   ascending, columns ascending within a row, later edits winning over
   earlier ones at the same coordinate), which is the only shape the format
   patchers consume: CSR and hyb both store rows as sorted column runs, so
   a normalized batch merges against a stored row in one linear pass
   ([merge_row]).

   This module is deliberately format-agnostic (no Csr/Hyb dependency):
   the per-format patch rules live with the formats themselves
   (Csr.apply_delta / Hyb.apply_delta), sharing the normalization and
   row-merge machinery here. *)

type edit =
  | Set of int * int * float  (* insert, or overwrite the stored value *)
  | Del of int * int          (* remove if present; no-op otherwise *)

(* Per-row normalized edits: columns ascending, [Some v] = set, [None] =
   delete.  Duplicate coordinates collapse to the last edit in batch
   order. *)
type row_edits = { re_row : int; re_cols : (int * float option) list }

let coords = function Set (i, j, _) -> (i, j) | Del (i, j) -> (i, j)

let normalize ~(rows : int) ~(cols : int) (batch : edit list) :
    row_edits list =
  let tbl : (int * int, int * float option) Hashtbl.t =
    Hashtbl.create (2 * max 1 (List.length batch))
  in
  List.iteri
    (fun ord e ->
      let i, j = coords e in
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Delta.normalize: edit (%d, %d) outside %dx%d" i j
             rows cols);
      let v = match e with Set (_, _, v) -> Some v | Del _ -> None in
      (* last edit wins: [replace] overwrites an earlier edit at the same
         coordinate *)
      Hashtbl.replace tbl (i, j) (ord, v))
    batch;
  let by_row : (int, (int * float option) list) Hashtbl.t =
    Hashtbl.create 64
  in
  Hashtbl.iter
    (fun (i, j) (_, v) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_row i) in
      Hashtbl.replace by_row i ((j, v) :: prev))
    tbl;
  Hashtbl.fold
    (fun i es acc ->
      { re_row = i;
        re_cols = List.sort (fun (a, _) (b, _) -> compare a b) es }
      :: acc)
    by_row []
  |> List.sort (fun a b -> compare a.re_row b.re_row)

(* Merge one stored row (sorted columns [old_cols].(lo..hi-1) with values
   [old_vals]) against its normalized edits: one linear pass, returning the
   merged (cols, vals) arrays plus the counts of true insertions and true
   removals (a [Set] on an existing column is an overwrite, a [Del] on an
   absent one a no-op — neither changes the row length).  The merged row
   comes out sorted, exactly the layout a cold rebuild would store. *)
let merge_row ~(old_cols : int array) ~(old_vals : float array) ~(lo : int)
    ~(hi : int) (edits : (int * float option) list) :
    int array * float array * int * int =
  let max_len = hi - lo + List.length edits in
  let cols = Array.make (max 1 max_len) 0 in
  let vals = Array.make (max 1 max_len) 0.0 in
  let w = ref 0 and added = ref 0 and removed = ref 0 in
  let emit j v =
    cols.(!w) <- j;
    vals.(!w) <- v;
    incr w
  in
  let p = ref lo in
  List.iter
    (fun (j, v) ->
      while !p < hi && old_cols.(!p) < j do
        emit old_cols.(!p) old_vals.(!p);
        incr p
      done;
      let present = !p < hi && old_cols.(!p) = j in
      (match v with
      | Some v ->
          emit j v;
          if not present then incr added
      | None -> if present then incr removed);
      if present then incr p)
    edits;
  while !p < hi do
    emit old_cols.(!p) old_vals.(!p);
    incr p
  done;
  (Array.sub cols 0 !w, Array.sub vals 0 !w, !added, !removed)

(* Seeded random batch over an [rows] x [cols] coordinate space: a mix of
   sets and deletes, for the mutate bench and the evolving-graph traffic
   mode.  [delete_bias] in [0, 1] is the fraction of edits drawn as
   deletes (against arbitrary coordinates, so many deletes are no-ops on a
   sparse matrix — matching real evolving-graph streams where removals
   target previously-seen edges only sometimes). *)
let random ?(delete_bias = 0.3) ~(seed : int) ~(rows : int) ~(cols : int)
    ~(edits : int) () : edit list =
  let rng = Random.State.make [| 0x5eed; seed |] in
  List.init edits (fun _ ->
      let i = Random.State.int rng rows and j = Random.State.int rng cols in
      if Random.State.float rng 1.0 < delete_bias then Del (i, j)
      else Set (i, j, float_of_int (1 + Random.State.int rng 32) /. 4.0))
