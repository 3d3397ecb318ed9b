(* Clocks, order statistics and the seeded draws shared by every
   workload. *)

let now () = Unix.gettimeofday ()

(* Wall milliseconds of [f ()], with its result. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

(* Nearest-rank percentile, [p] in [0, 1]; [nan] on no samples. *)
let percentile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let r = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))
  end

(* Median with the two middle samples averaged on even counts. *)
let median (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  end

(* Sums in sorted order, so that the result does not depend on the order
   the values arrived in. *)
let geomean (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | xs ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun a x -> a +. log (Float.max 1e-30 x)) 0.0 xs /. n)

let sum (xs : float array) = Array.fold_left ( +. ) 0.0 xs

(* Seeded uniform draw in [lo, hi). *)
let uniform (rng : Random.State.t) lo hi = lo +. Random.State.float rng (hi -. lo)

(* Peak major-heap size of this process, in MB. *)
let peak_heap_mb () : float =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Exact float-array equality, the bit-identity contract of the repo's
   differential tests. *)
let same_floats (a : float array) (b : float array) : bool =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false) a;
      !ok)

(* Largest |a - b| relative to the largest |b|; for checks against host
   references that sum in a different order. *)
let rel_diff (a : float array) (b : float array) : float =
  if Array.length a <> Array.length b then infinity
  else begin
    let d = ref 0.0 and m = ref 1e-12 in
    Array.iteri
      (fun i x ->
        d := Float.max !d (Float.abs (x -. b.(i)));
        m := Float.max !m (Float.abs b.(i)))
      a;
    !d /. !m
  end
