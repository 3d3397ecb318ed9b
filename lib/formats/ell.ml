(* ELLPACK storage with an optional row map.

   The plain ELL format stores a fixed number of columns per row, padding
   short rows; the row-mapped variant stores only a subset of the original
   rows (identified by [row_map]) — the building block of the paper's hyb
   composable format (Figure 11), where each bucket of a column partition is
   one row-mapped ELL sub-matrix. *)

type t = {
  rows : int;            (* stored rows *)
  cols : int;            (* coordinate-space column extent *)
  width : int;           (* stored columns per row *)
  indices : int array;   (* rows * width; padded entries point at column 0 *)
  data : float array;    (* rows * width; padded entries are 0.0 *)
  row_map : int array option; (* original row id per stored row *)
  padded : int;          (* number of padded slots *)
}

let original_row (m : t) (r : int) : int =
  match m.row_map with Some map -> map.(r) | None -> r

(* ELL as a descriptor: a dense row level over a globally-fitted slice
   level ([Fit max_int] = one width for the whole matrix). *)
let descriptor ~rows ~cols : Descriptor.t =
  Descriptor.make ~name:"ell" ~dims:[| rows; cols |]
    [ Levels.dense rows; Levels.fixed_slice (Levels.Fit max_int) ]

(* Convert a CSR matrix to plain ELL with width = max row length. *)
let of_csr (c : Csr.t) : t =
  let st =
    Descriptor.build
      (descriptor ~rows:c.Csr.rows ~cols:c.Csr.cols)
      (Csr.to_canon c)
  in
  let lv = st.Descriptor.st_levels.(1) in
  { rows = c.Csr.rows;
    cols = c.Csr.cols;
    width = lv.Descriptor.ld_width;
    indices = (match lv.Descriptor.ld_crd with Some a -> a | None -> [||]);
    data = st.Descriptor.st_vals;
    row_map = None;
    padded = st.Descriptor.st_padded }

(* Pre-descriptor reference construction (differential tests, formats
   benchmark). *)
let of_csr_ref (c : Csr.t) : t =
  let width = ref 1 in
  for i = 0 to c.Csr.rows - 1 do
    width := max !width (Csr.row_len c i)
  done;
  let w = !width in
  let indices = Array.make (c.Csr.rows * w) 0 in
  let data = Array.make (c.Csr.rows * w) 0.0 in
  let padded = ref 0 in
  for i = 0 to c.Csr.rows - 1 do
    let l = Csr.row_len c i in
    for k = 0 to l - 1 do
      let p = c.Csr.indptr.(i) + k in
      indices.((i * w) + k) <- c.Csr.indices.(p);
      data.((i * w) + k) <- c.Csr.data.(p)
    done;
    padded := !padded + (w - l)
  done;
  { rows = c.Csr.rows; cols = c.Csr.cols; width = w; indices; data;
    row_map = None; padded = !padded }

let to_dense (m : t) ~(orig_rows : int) : Dense.t =
  let d = Dense.create orig_rows m.cols in
  for r = 0 to m.rows - 1 do
    let i = original_row m r in
    for k = 0 to m.width - 1 do
      let j = m.indices.((r * m.width) + k) in
      let v = m.data.((r * m.width) + k) in
      if v <> 0.0 then Dense.set d i j (Dense.get d i j +. v)
    done
  done;
  d

let indices_tensor (m : t) : Tir.Tensor.t =
  Tir.Tensor.of_int_array [ max 1 (m.rows * m.width) ]
    (if m.rows * m.width = 0 then [| 0 |] else Array.copy m.indices)

let data_tensor ?(dtype = Tir.Dtype.F32) (m : t) : Tir.Tensor.t =
  Tir.Tensor.of_float_array ~dtype
    [ max 1 (m.rows * m.width) ]
    (if m.rows * m.width = 0 then [| 0.0 |] else Array.copy m.data)

let row_map_tensor (m : t) : Tir.Tensor.t =
  let map =
    match m.row_map with Some a -> a | None -> Array.init m.rows Fun.id
  in
  let t =
    Tir.Tensor.of_int_array [ max 1 m.rows ]
      (if m.rows = 0 then [| 0 |] else map)
  in
  (* Establish ordering facts at construction: the identity map is strictly
     increasing by definition, and explicit maps (hyb/RGMS buckets emit rows
     in ascending order, duplicated only across a split row's pseudo-rows)
     get the strongest fact one construction-time pass supports, so the
     parallel executor never pays a runtime scan for a format-constructed
     map. *)
  (if m.row_map = None then
     Tir.Tensor.Facts.declare t Tir.Tensor.Facts.Monotone_inc
   else Tir.Tensor.Facts.declare_order t);
  t
