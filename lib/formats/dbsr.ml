(* Doubly-compressed BSR (inspired by DCSR): block rows that contain no
   blocks are skipped entirely, storing a block-row id map.  The paper
   proposes DBSR for block-pruned transformer weights, whose block matrices
   have many all-zero rows (S4.3.2, Figure 17). *)

type t = {
  base : Bsr.t;          (* with compressed indptr over non-empty block rows *)
  row_ids : int array;   (* original block-row id per stored block row *)
  nrows_b : int;         (* stored (non-empty) block rows *)
}

let of_bsr (b : Bsr.t) : t =
  let nonempty = ref [] in
  for bi = b.Bsr.rows_b - 1 downto 0 do
    if b.Bsr.indptr.(bi + 1) > b.Bsr.indptr.(bi) then nonempty := bi :: !nonempty
  done;
  let row_ids = Array.of_list !nonempty in
  let nrows_b = Array.length row_ids in
  let indptr = Array.make (nrows_b + 1) 0 in
  Array.iteri
    (fun r bi ->
      indptr.(r + 1) <- indptr.(r) + (b.Bsr.indptr.(bi + 1) - b.Bsr.indptr.(bi)))
    row_ids;
  (* indices/data order is unchanged: rows keep their relative order *)
  { base = { b with Bsr.indptr }; row_ids; nrows_b }

(* DBSR as a descriptor: like BSR but the block-row level is itself
   compressed (not full), so all-zero block rows vanish and the root
   coordinate stream is the block-row id map. *)
let descriptor ~block ~rows ~cols : Descriptor.t =
  Descriptor.make ~name:"dbsr" ~transform:(Descriptor.Blocked block)
    ~dims:[| rows; cols |]
    [ Levels.compressed (); Levels.compressed ();
      Levels.dense block; Levels.dense block ]

let of_csr ~block (c : Csr.t) : t =
  let st =
    Descriptor.build
      (descriptor ~block ~rows:c.Csr.rows ~cols:c.Csr.cols)
      (Csr.to_canon c)
  in
  let root = st.Descriptor.st_levels.(0) in
  let lv = st.Descriptor.st_levels.(1) in
  let nb = lv.Descriptor.ld_count in
  let row_ids =
    match root.Descriptor.ld_crd with Some a -> a | None -> [||]
  in
  { base =
      { Bsr.rows = c.Csr.rows;
        cols = c.Csr.cols;
        block;
        rows_b = (c.Csr.rows + block - 1) / block;
        cols_b = (c.Csr.cols + block - 1) / block;
        indptr =
          (match lv.Descriptor.ld_pos with Some a -> a | None -> [| 0 |]);
        indices =
          (match lv.Descriptor.ld_crd with
          | Some a when nb > 0 -> a
          | _ -> [| 0 |]);
        data =
          (if nb > 0 then st.Descriptor.st_vals else [| 0.0 |]);
        padded = st.Descriptor.st_padded };
    row_ids;
    nrows_b = root.Descriptor.ld_count }

let of_csr_ref ~block (c : Csr.t) : t = of_bsr (Bsr.of_csr_ref ~block c)

let to_dense (m : t) : Dense.t =
  let b = m.base in
  let d = Dense.create b.Bsr.rows b.Bsr.cols in
  for r = 0 to m.nrows_b - 1 do
    let bi = m.row_ids.(r) in
    for p = b.Bsr.indptr.(r) to b.Bsr.indptr.(r + 1) - 1 do
      let bj = b.Bsr.indices.(p) in
      for ii = 0 to b.Bsr.block - 1 do
        for jj = 0 to b.Bsr.block - 1 do
          let i = (bi * b.Bsr.block) + ii and j = (bj * b.Bsr.block) + jj in
          if i < b.Bsr.rows && j < b.Bsr.cols then
            Dense.set d i j
              b.Bsr.data.((p * b.Bsr.block * b.Bsr.block) + (ii * b.Bsr.block) + jj)
        done
      done
    done
  done;
  d

(* Both construction paths emit non-empty block rows in ascending order
   with no repeats, so the gather map is strictly increasing by
   construction: declaring it saves the parallel executor's runtime scan. *)
let row_ids_tensor (m : t) : Tir.Tensor.t =
  let t =
    Tir.Tensor.of_int_array [ max 1 m.nrows_b ]
      (if m.nrows_b = 0 then [| 0 |] else Array.copy m.row_ids)
  in
  Tir.Tensor.Facts.declare t Tir.Tensor.Facts.Monotone_inc;
  t

(* The uniform accessor set: the compressed indptr runs over stored block
   rows (nrows_b + 1 entries), unlike [Bsr.indptr_tensor]'s rows_b + 1. *)
let indptr_tensor (m : t) : Tir.Tensor.t =
  let t =
    Tir.Tensor.of_int_array [ m.nrows_b + 1 ]
      (Array.sub m.base.Bsr.indptr 0 (m.nrows_b + 1))
  in
  Tir.Tensor.Facts.declare t Tir.Tensor.Facts.Monotone_nd;
  t
