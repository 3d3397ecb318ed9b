(* Banded storage: the second descriptor-only format (see banded.mli). *)

type t = {
  rows : int;
  cols : int;
  band : int;
  storage : Descriptor.storage;
}

let descriptor ~band ~rows ~cols : Descriptor.t =
  Descriptor.make ~name:"banded" ~transform:Descriptor.Diagonal
    ~dims:[| rows; cols |]
    [ Levels.offset ~band (); Levels.dense rows ]

let of_csr ~band (c : Csr.t) : t =
  { rows = c.Csr.rows;
    cols = c.Csr.cols;
    band;
    storage =
      Descriptor.build
        (descriptor ~band ~rows:c.Csr.rows ~cols:c.Csr.cols)
        (Csr.to_canon c) }

let n_diags (m : t) = (2 * m.band) + 1

let to_dense (m : t) : Dense.t =
  let d = Dense.create m.rows m.cols in
  let vals = m.storage.Descriptor.st_vals in
  for s = 0 to n_diags m - 1 do
    let o = s - m.band in
    for i = 0 to m.rows - 1 do
      let j = i + o in
      if j >= 0 && j < m.cols && vals.((s * m.rows) + i) <> 0.0 then
        Dense.set d i j vals.((s * m.rows) + i)
    done
  done;
  d

let offsets_tensor (m : t) : Tir.Tensor.t =
  Descriptor.crd_tensor m.storage ~level:0

let data_tensor ?dtype (m : t) : Tir.Tensor.t =
  Descriptor.vals_tensor ?dtype ~shape:[ n_diags m; m.rows ] m.storage
