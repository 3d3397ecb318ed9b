(* Dense row-major matrices: the reference representation all sparse formats
   convert to and from, and the substrate of reference computations used to
   validate compiled kernels. *)

type t = {
  rows : int;
  cols : int;
  data : float array; (* row-major *)
}

let create rows cols : t = { rows; cols; data = Array.make (rows * cols) 0.0 }

let of_array rows cols data : t =
  if Array.length data <> rows * cols then invalid_arg "Dense.of_array: size";
  { rows; cols; data }

let get (m : t) i j = m.data.((i * m.cols) + j)
let set (m : t) i j x = m.data.((i * m.cols) + j) <- x

let init rows cols f : t =
  { rows; cols; data = Array.init (rows * cols) (fun p -> f (p / cols) (p mod cols)) }

(* Deterministic pseudo-random matrix (splitmix-style hash of the seed and
   position), values in [-1, 1). *)
let random ?(seed = 42) rows cols : t =
  let hash x =
    let x = Int64.of_int x in
    let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
    let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
    Int64.logxor x (Int64.shift_right_logical x 31)
  in
  init rows cols (fun i j ->
      let h = hash ((seed * 1000003) + (i * 8191) + j) in
      let u = Int64.to_float (Int64.logand h 0xfffffL) /. 1048576.0 in
      (2.0 *. u) -. 1.0)

let matmul (a : t) (b : t) : t =
  if a.cols <> b.rows then invalid_arg "Dense.matmul: shape mismatch";
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          set c i j (get c i j +. (aik *. get b k j))
        done
    done
  done;
  c

let transpose (m : t) : t = init m.cols m.rows (fun i j -> get m j i)

let max_abs_diff (a : t) (b : t) : float =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Dense.max_abs_diff: shape mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun i x -> worst := Float.max !worst (Float.abs (x -. b.data.(i))))
    a.data;
  !worst

let to_tensor (m : t) : Tir.Tensor.t =
  Tir.Tensor.of_float_array [ m.rows; m.cols ] (Array.copy m.data)
