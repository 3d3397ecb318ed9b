(* Sliced ELLPACK: the first of the two formats that exist only as
   descriptors — construction, tensors, facts and stage-I axes all come
   from the generic machinery. *)

type t = {
  rows : int;
  cols : int;
  slice : int;
  storage : Descriptor.storage;
}

let descriptor ~slice ~rows ~cols : Descriptor.t =
  Descriptor.make ~name:"sell" ~dims:[| rows; cols |]
    [ Levels.dense rows; Levels.fixed_slice (Levels.Fit slice) ]

let of_csr ?(slice = 32) (c : Csr.t) : t =
  { rows = c.Csr.rows;
    cols = c.Csr.cols;
    slice;
    storage =
      Descriptor.build
        (descriptor ~slice ~rows:c.Csr.rows ~cols:c.Csr.cols)
        (Csr.to_canon c) }

let slots (m : t) = m.storage.Descriptor.st_levels.(1)
let padded (m : t) = m.storage.Descriptor.st_padded

let pos (m : t) : int array =
  match (slots m).Descriptor.ld_pos with Some a -> a | None -> [| 0 |]

let width_of (m : t) (i : int) : int =
  let p = pos m in
  p.(i + 1) - p.(i)

let to_dense (m : t) : Dense.t =
  let d = Dense.create m.rows m.cols in
  let p = pos m in
  let crd =
    match (slots m).Descriptor.ld_crd with Some a -> a | None -> [||]
  in
  let vals = m.storage.Descriptor.st_vals in
  for i = 0 to m.rows - 1 do
    for q = p.(i) to p.(i + 1) - 1 do
      if vals.(q) <> 0.0 then
        Dense.set d i crd.(q) (Dense.get d i crd.(q) +. vals.(q))
    done
  done;
  d

let data_tensor ?dtype (m : t) : Tir.Tensor.t =
  Descriptor.vals_tensor ?dtype m.storage
