(* Diagonal format: one stored vector per non-empty diagonal.  Natural for
   the band matrices of sparse attention (Longformer); also exercises the
   axis framework with affine index expressions. *)

type t = {
  rows : int;
  cols : int;
  offsets : int array;  (* diagonal offsets, ascending: j - i *)
  data : float array;   (* n_diags * rows; out-of-range slots are 0 *)
  padded : int;
}

let n_diags (m : t) = Array.length m.offsets

(* DIA as a descriptor: diagonal-transformed coordinates (j-i, i), an
   offset level over a dense per-diagonal vector. *)
let descriptor ~rows ~cols : Descriptor.t =
  Descriptor.make ~name:"dia" ~transform:Descriptor.Diagonal
    ~dims:[| rows; cols |]
    [ Levels.offset (); Levels.dense rows ]

let of_csr (c : Csr.t) : t =
  let st =
    Descriptor.build
      (descriptor ~rows:c.Csr.rows ~cols:c.Csr.cols)
      (Csr.to_canon c)
  in
  let lv = st.Descriptor.st_levels.(0) in
  { rows = c.Csr.rows;
    cols = c.Csr.cols;
    offsets = (match lv.Descriptor.ld_crd with Some a -> a | None -> [||]);
    data =
      (if Array.length st.Descriptor.st_vals > 0 then st.Descriptor.st_vals
       else [| 0.0 |]);
    padded = st.Descriptor.st_padded }

(* Pre-descriptor reference construction (differential tests, formats
   benchmark). *)
let of_csr_ref (c : Csr.t) : t =
  let module IS = Set.Make (Int) in
  let diags = ref IS.empty in
  for i = 0 to c.Csr.rows - 1 do
    for p = c.Csr.indptr.(i) to c.Csr.indptr.(i + 1) - 1 do
      diags := IS.add (c.Csr.indices.(p) - i) !diags
    done
  done;
  let offsets = Array.of_list (IS.elements !diags) in
  let nd = Array.length offsets in
  let data = Array.make (max 1 (nd * c.Csr.rows)) 0.0 in
  let filled = ref 0 in
  let slot_of = Hashtbl.create 16 in
  Array.iteri (fun s o -> Hashtbl.replace slot_of o s) offsets;
  for i = 0 to c.Csr.rows - 1 do
    for p = c.Csr.indptr.(i) to c.Csr.indptr.(i + 1) - 1 do
      let o = c.Csr.indices.(p) - i in
      let s = Hashtbl.find slot_of o in
      data.((s * c.Csr.rows) + i) <- c.Csr.data.(p);
      incr filled
    done
  done;
  { rows = c.Csr.rows; cols = c.Csr.cols; offsets; data;
    padded = (nd * c.Csr.rows) - !filled }

let to_dense (m : t) : Dense.t =
  let d = Dense.create m.rows m.cols in
  Array.iteri
    (fun s o ->
      for i = 0 to m.rows - 1 do
        let j = i + o in
        if j >= 0 && j < m.cols then
          Dense.set d i j m.data.((s * m.rows) + i)
      done)
    m.offsets;
  d
