(* Coordinate-format sparse matrices: the interchange representation used to
   build the compressed formats.  Entries are kept sorted by (row, col) with
   duplicates summed. *)

type t = {
  rows : int;
  cols : int;
  entries : (int * int * float) array; (* sorted by (row, col) *)
}

let nnz (m : t) = Array.length m.entries

(* The canonical-intermediate pipeline shared by every descriptor-built
   format (DESIGN.md §3g): stable sort, duplicates summed, zero-valued
   entries dropped (COO is the only format that drops them eagerly). *)
let normalize rows cols (entries : (int * int * float) array) : t =
  let cn =
    try Descriptor.filter_zeros (Descriptor.canon2 ~rows ~cols entries)
    with Invalid_argument _ ->
      let bad =
        Array.to_list entries
        |> List.find (fun (i, j, _) -> i < 0 || i >= rows || j < 0 || j >= cols)
      in
      let i, j, _ = bad in
      invalid_arg
        (Printf.sprintf "Coo: entry (%d,%d) out of %dx%d" i j rows cols)
  in
  { rows;
    cols;
    entries =
      Array.map
        (fun (co, v) -> (co.(0), co.(1), v))
        cn.Descriptor.cn_entries }

let of_entries ~rows ~cols entries : t = normalize rows cols (Array.of_list entries)

let of_dense (d : Dense.t) : t =
  let acc = ref [] in
  for i = d.Dense.rows - 1 downto 0 do
    for j = d.Dense.cols - 1 downto 0 do
      let v = Dense.get d i j in
      if v <> 0.0 then acc := (i, j, v) :: !acc
    done
  done;
  { rows = d.Dense.rows; cols = d.Dense.cols; entries = Array.of_list !acc }

let to_dense (m : t) : Dense.t =
  let d = Dense.create m.rows m.cols in
  Array.iter (fun (i, j, v) -> Dense.set d i j (Dense.get d i j +. v)) m.entries;
  d

let transpose (m : t) : t =
  normalize m.cols m.rows (Array.map (fun (i, j, v) -> (j, i, v)) m.entries)

(* COO as a descriptor: a non-unique compressed row stream over a singleton
   column stream — one stored position per entry at both levels. *)
let descriptor (m : t) : Descriptor.t =
  Descriptor.make ~name:"coo" ~dims:[| m.rows; m.cols |]
    [ Levels.compressed
        ~props:{ Levels.compressed_props with unique = false }
        ();
      Levels.singleton () ]

let storage (m : t) : Descriptor.storage =
  (* entries are already sorted/merged/non-zero: a valid canon as-is *)
  Descriptor.build (descriptor m)
    { Descriptor.cn_dims = [| m.rows; m.cols |];
      cn_entries = Array.map (fun (i, j, v) -> ([| i; j |], v)) m.entries }

(* Tensor accessors derived from the descriptor.  The row stream is sorted
   but repeats rows, so it carries [Monotone_nd] — enough for the engine's
   ordered-gather dispatch without a runtime scan. *)
let row_tensor (m : t) : Tir.Tensor.t =
  Descriptor.crd_tensor (storage m) ~level:0
