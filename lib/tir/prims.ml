(* Hot-path primitives shared by the two execution backends.

   The tree-walking interpreter ([Tir.Eval]) and the compiled closure engine
   ([Engine], lib/engine/) must agree exactly on the semantics of the binary
   searches emitted by coordinate translation (Eq. 4's "find") and of the
   tensor-core MMA intrinsic.  Keeping the single implementation here means
   the two backends cannot drift. *)

(* Both searches match the index tensor's storage once and probe the int
   array directly; any other storage takes the [Tensor.get_i] path. *)

(* Position of [v] in the sorted segment [lo, hi) of [t]; [hi] if absent. *)
let binary_search (t : Tensor.t) ~lo ~hi (v : int) : int =
  match t.data with
  | I a ->
      let rec go lo' hi' =
        if lo' >= hi' then hi
        else
          let mid = (lo' + hi') / 2 in
          let x = a.(mid) in
          if x = v then mid else if x < v then go (mid + 1) hi' else go lo' mid
      in
      go lo hi
  | F _ | B _ ->
      let rec go lo' hi' =
        if lo' >= hi' then hi
        else
          let mid = (lo' + hi') / 2 in
          let x = Tensor.get_i t mid in
          if x = v then mid else if x < v then go (mid + 1) hi' else go lo' mid
      in
      go lo hi

(* Rightmost position in [lo, hi) whose element is <= v (requires one to
   exist, which holds for nonempty indptr segments since indptr[0] = 0 <= v).
   An empty segment ([lo >= hi]) has no position at all: return [hi],
   matching [binary_search]'s absent convention — the recursion's
   "t[lo'] <= v" invariant was never established, so returning [lo] would
   hand callers a bogus position outside the segment. *)
let upper_bound (t : Tensor.t) ~lo ~hi (v : int) : int =
  (* invariant of [go]: t[lo'] <= v; answer in [lo', hi') *)
  if lo >= hi then hi
  else
    match t.data with
    | I a ->
        let rec go lo' hi' =
          if lo' + 1 >= hi' then lo'
          else
            let mid = (lo' + hi') / 2 in
            if a.(mid) <= v then go mid hi' else go lo' mid
        in
        go lo hi
    | F _ | B _ ->
        let rec go lo' hi' =
          if lo' + 1 >= hi' then lo'
          else
            let mid = (lo' + hi') / 2 in
            if Tensor.get_i t mid <= v then go mid hi' else go lo' mid
        in
        go lo hi

(* The MMA intrinsic's accumulating tile product: C += A * B over an
   m x n x k tile, each operand a (tensor, flat origin, leading dimension)
   triple.  Operand storage is matched once per tile: float storage (every
   float dtype) runs the k-loop directly over the arrays, anything else
   takes the per-element [Tensor.get_f] path.  Both paths accumulate in the
   same order from the same starting value, and store each element like
   [Tensor.set_f] — one version bump, F16 rounding — so they agree
   bit-for-bit. *)
let mma ~(m : int) ~(n : int) ~(k : int)
    ((ta, ba, lda) : Tensor.t * int * int)
    ((tb, bb, ldb) : Tensor.t * int * int)
    ((tc, bc, ldc) : Tensor.t * int * int) : unit =
  match (ta.data, tb.data, tc.data) with
  | F a, F b, F c ->
      let f16 = tc.dtype = Dtype.F16 in
      for i = 0 to m - 1 do
        let ai = ba + (i * lda) in
        for j = 0 to n - 1 do
          let ci = bc + (i * ldc) + j in
          let acc = ref c.(ci) in
          for k' = 0 to k - 1 do
            let x = a.(ai + k') in
            let y = b.(bb + (k' * ldb) + j) in
            acc := !acc +. (x *. y)
          done;
          tc.version <- tc.version + 1;
          c.(ci) <- (if f16 then Dtype.round_f16 !acc else !acc)
        done
      done
  | _ ->
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref (Tensor.get_f tc (bc + (i * ldc) + j)) in
          for k' = 0 to k - 1 do
            let a = Tensor.get_f ta (ba + (i * lda) + k') in
            let b = Tensor.get_f tb (bb + (k' * ldb) + j) in
            acc := !acc +. (a *. b)
          done;
          Tensor.set_f tc (bc + (i * ldc) + j) !acc
        done
      done
