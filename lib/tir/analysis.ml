(* Structural analyses over the IR: substitution, traversal, free variables,
   buffer collection, simplification and linear (stride) analysis of index
   expressions.  These underpin the schedule primitives, the lowering passes
   and the GPU simulator's coalescing model. *)

open Ir

module Int_map = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

let rec subst_expr (env : expr Int_map.t) (e : expr) : expr =
  match e with
  | Int_imm _ | Float_imm _ | Bool_imm _ -> e
  | Evar x -> ( match Int_map.find_opt x.vid env with Some r -> r | None -> e)
  | Load (b, idx) -> Load (b, List.map (subst_expr env) idx)
  | Binop (op, a, b) -> Binop (op, subst_expr env a, subst_expr env b)
  | Unop (op, a) -> Unop (op, subst_expr env a)
  | Select (c, t, f) ->
      Select (subst_expr env c, subst_expr env t, subst_expr env f)
  | Cast (dt, a) -> Cast (dt, subst_expr env a)
  | Bsearch b ->
      Bsearch
        { b with
          bs_lo = subst_expr env b.bs_lo;
          bs_hi = subst_expr env b.bs_hi;
          bs_v = subst_expr env b.bs_v }

let rec subst_stmt (env : expr Int_map.t) (s : stmt) : stmt =
  let se = subst_expr env and ss = subst_stmt env in
  match s with
  | Store (b, idx, value) -> Store (b, List.map se idx, se value)
  | Seq l -> Seq (List.map ss l)
  | For f -> For { f with extent = se f.extent; body = ss f.body }
  | If (c, t, f) -> If (se c, ss t, Option.map ss f)
  | Let_stmt (x, value, body) -> Let_stmt (x, se value, ss body)
  | Block_stmt blk ->
      Block_stmt
        { blk with
          blk_iters =
            List.map
              (fun bi -> { bi with bi_dom = se bi.bi_dom; bi_bind = se bi.bi_bind })
              blk.blk_iters;
          blk_reads = List.map (subst_region env) blk.blk_reads;
          blk_writes = List.map (subst_region env) blk.blk_writes;
          blk_init = Option.map ss blk.blk_init;
          blk_body = ss blk.blk_body }
  | Alloc (b, body) -> Alloc (b, ss body)
  | Eval e -> Eval (se e)
  | Mma_sync m ->
      let op o = { o with op_origin = List.map se o.op_origin; op_ld = se o.op_ld } in
      Mma_sync { m with mma_a = op m.mma_a; mma_b = op m.mma_b; mma_c = op m.mma_c }
  | Sp_iter_stmt sp ->
      Sp_iter_stmt
        { sp with sp_init = Option.map ss sp.sp_init; sp_body = ss sp.sp_body }

and subst_region env (r : region) : region =
  { r with
    rg_bounds =
      List.map (fun (lo, ext) -> (subst_expr env lo, subst_expr env ext)) r.rg_bounds }

let subst1_expr (x : var) (value : expr) e =
  subst_expr (Int_map.singleton x.vid value) e

let subst1_stmt (x : var) (value : expr) s =
  subst_stmt (Int_map.singleton x.vid value) s

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let rec iter_expr (f : expr -> unit) (e : expr) : unit =
  f e;
  match e with
  | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> ()
  | Load (_, idx) -> List.iter (iter_expr f) idx
  | Binop (_, a, b) -> iter_expr f a; iter_expr f b
  | Unop (_, a) -> iter_expr f a
  | Select (c, t, e') -> iter_expr f c; iter_expr f t; iter_expr f e'
  | Cast (_, a) -> iter_expr f a
  | Bsearch b -> iter_expr f b.bs_lo; iter_expr f b.bs_hi; iter_expr f b.bs_v

let rec iter_stmt ?(enter_expr = fun (_ : expr) -> ()) (f : stmt -> unit)
    (s : stmt) : unit =
  f s;
  let ie = iter_expr enter_expr and is = iter_stmt ~enter_expr f in
  match s with
  | Store (_, idx, value) -> List.iter ie idx; ie value
  | Seq l -> List.iter is l
  | For fo -> ie fo.extent; is fo.body
  | If (c, t, e) -> ie c; is t; Option.iter is e
  | Let_stmt (_, value, body) -> ie value; is body
  | Block_stmt blk ->
      List.iter (fun bi -> ie bi.bi_dom; ie bi.bi_bind) blk.blk_iters;
      Option.iter is blk.blk_init;
      is blk.blk_body
  | Alloc (_, body) -> is body
  | Eval e -> ie e
  | Mma_sync m ->
      List.iter
        (fun o -> List.iter ie o.op_origin; ie o.op_ld)
        [ m.mma_a; m.mma_b; m.mma_c ]
  | Sp_iter_stmt sp -> Option.iter is sp.sp_init; is sp.sp_body

(* Rebuild a statement by applying [f] bottom-up to every sub-statement. *)
let rec map_stmt (f : stmt -> stmt) (s : stmt) : stmt =
  let m = map_stmt f in
  let rebuilt =
    match s with
    | Store _ | Eval _ | Mma_sync _ -> s
    | Seq l -> Seq (List.map m l)
    | For fo -> For { fo with body = m fo.body }
    | If (c, t, e) -> If (c, m t, Option.map m e)
    | Let_stmt (x, value, body) -> Let_stmt (x, value, m body)
    | Block_stmt blk ->
        Block_stmt
          { blk with blk_init = Option.map m blk.blk_init; blk_body = m blk.blk_body }
    | Alloc (b, body) -> Alloc (b, m body)
    | Sp_iter_stmt sp ->
        Sp_iter_stmt
          { sp with sp_init = Option.map m sp.sp_init; sp_body = m sp.sp_body }
  in
  f rebuilt

(* ------------------------------------------------------------------ *)
(* Collections                                                         *)
(* ------------------------------------------------------------------ *)

let free_vars_expr (e : expr) : var list =
  let acc = ref Int_map.empty in
  iter_expr
    (function Evar x -> acc := Int_map.add x.vid x !acc | _ -> ())
    e;
  Int_map.fold (fun _ x l -> x :: l) !acc []

let collect_buffers_stmt (s : stmt) : buffer list =
  let acc = ref Int_map.empty in
  let add (b : buffer) = acc := Int_map.add b.buf_id b !acc in
  let on_expr = function
    | Load (b, _) -> add b
    | Bsearch b -> add b.bs_buf
    | _ -> ()
  in
  iter_stmt ~enter_expr:on_expr
    (function
      | Store (b, _, _) -> add b
      | Alloc (b, _) -> add b
      | Mma_sync m ->
          add m.mma_a.op_buf; add m.mma_b.op_buf; add m.mma_c.op_buf
      | _ -> ())
    s;
  Int_map.fold (fun _ b l -> b :: l) !acc []

let stmt_contains_sparse_constructs (s : stmt) : bool =
  let found = ref false in
  let on_expr = function
    | Load (b, _) when is_sparse_buffer b -> found := true
    | _ -> ()
  in
  iter_stmt ~enter_expr:on_expr
    (function
      | Sp_iter_stmt _ -> found := true
      | Store (b, _, _) when is_sparse_buffer b -> found := true
      | _ -> ())
    s;
  !found

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

let rec simplify (e : expr) : expr =
  let open Builder in
  match e with
  | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> e
  | Load (b, idx) -> Load (b, List.map simplify idx)
  | Binop (op, a, b) -> (
      let a = simplify a and b = simplify b in
      match op with
      | Add -> a +: b
      | Sub -> a -: b
      | Mul -> a *: b
      | Div -> a /: b
      | Floor_div -> a /^ b
      | Floor_mod -> a %^ b
      | Min -> min_ a b
      | Max -> max_ a b
      | _ -> Binop (op, a, b))
  | Unop (op, a) -> Unop (op, simplify a)
  | Select (c, t, f) -> (
      match simplify c with
      | Bool_imm true -> simplify t
      | Bool_imm false -> simplify f
      | c -> Select (c, simplify t, simplify f))
  | Cast (dt, a) -> (
      match simplify a with
      | Int_imm n when Dtype.is_float dt -> Float_imm (float_of_int n)
      | a -> Cast (dt, a))
  | Bsearch b ->
      Bsearch
        { b with
          bs_lo = simplify b.bs_lo;
          bs_hi = simplify b.bs_hi;
          bs_v = simplify b.bs_v }

let const_int_opt (e : expr) : int option =
  match simplify e with Int_imm n -> Some n | _ -> None

(* ------------------------------------------------------------------ *)
(* Linear analysis                                                     *)
(* ------------------------------------------------------------------ *)

(* Conservative interval arithmetic over simplified index expressions.
   [ienv] maps variable ids to inclusive [lo, hi] ranges (enclosing serial
   loop vars with constant extents).  Returns None when the range cannot be
   bounded. *)
let rec interval (ienv : (int * int) Int_map.t) (e : expr) : (int * int) option
    =
  let fdiv a k = if a >= 0 then a / k else -(((-a) + k - 1) / k) in
  match e with
  | Int_imm n -> Some (n, n)
  | Evar v -> Int_map.find_opt v.vid ienv
  | Binop (Add, a, b) -> (
      match (interval ienv a, interval ienv b) with
      | Some (al, ah), Some (bl, bh) -> Some (al + bl, ah + bh)
      | _ -> None)
  | Binop (Sub, a, b) -> (
      match (interval ienv a, interval ienv b) with
      | Some (al, ah), Some (bl, bh) -> Some (al - bh, ah - bl)
      | _ -> None)
  | Binop (Mul, a, b) -> (
      match (interval ienv a, interval ienv b) with
      | Some (al, ah), Some (bl, bh) ->
          let ps = [ al * bl; al * bh; ah * bl; ah * bh ] in
          Some (List.fold_left min max_int ps, List.fold_left max min_int ps)
      | _ -> None)
  | Binop (Min, a, b) -> (
      match (interval ienv a, interval ienv b) with
      | Some (al, ah), Some (bl, bh) -> Some (min al bl, min ah bh)
      | _ -> None)
  | Binop (Max, a, b) -> (
      match (interval ienv a, interval ienv b) with
      | Some (al, ah), Some (bl, bh) -> Some (max al bl, max ah bh)
      | _ -> None)
  | Binop (Floor_div, a, Int_imm k) when k > 0 -> (
      match interval ienv a with
      | Some (al, ah) -> Some (fdiv al k, fdiv ah k)
      | None -> None)
  | Binop (Floor_mod, _, Int_imm k) when k > 0 -> Some (0, k - 1)
  | Select (_, t, f) -> (
      match (interval ienv t, interval ienv f) with
      | Some (tl, th), Some (fl, fh) -> Some (min tl fl, max th fh)
      | _ -> None)
  | Cast (_, a) -> interval ienv a
  | _ -> None

(* Decompose [e] as [coeff * x + rest] where [rest] does not mention [x].
   Returns None when [e] is not linear in [x] (e.g. x appears inside a load
   index or a division).  Used by the coalescing model: the stride of an
   address in the thread/lane variable decides the number of memory
   transactions per warp. *)
let rec linear_in (x : var) (e : expr) : (int * expr) option =
  let mentions e = List.exists (fun (y : var) -> y.vid = x.vid) (free_vars_expr e) in
  match e with
  | Evar y when y.vid = x.vid -> Some (1, Int_imm 0)
  | e when not (mentions e) -> Some (0, e)
  | Binop (Add, a, b) -> (
      match (linear_in x a, linear_in x b) with
      | Some (ca, ra), Some (cb, rb) ->
          Some (ca + cb, simplify (Binop (Add, ra, rb)))
      | _ -> None)
  | Binop (Sub, a, b) -> (
      match (linear_in x a, linear_in x b) with
      | Some (ca, ra), Some (cb, rb) ->
          Some (ca - cb, simplify (Binop (Sub, ra, rb)))
      | _ -> None)
  | Binop (Mul, a, b) -> (
      match (linear_in x a, const_int_opt b, const_int_opt a, linear_in x b) with
      | Some (ca, ra), Some k, _, _ ->
          Some (ca * k, simplify (Binop (Mul, ra, Int_imm k)))
      | _, _, Some k, Some (cb, rb) ->
          Some (k * cb, simplify (Binop (Mul, Int_imm k, rb)))
      | _ -> None)
  | Cast (_, a) -> linear_in x a
  | _ -> None

let buffers_of_expr (e : expr) : buffer list =
  collect_buffers_stmt (Eval e)

(* ------------------------------------------------------------------ *)
(* Loop-invariant index arithmetic                                     *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

(* Variables bound anywhere inside [s] (loop vars, lets, block iters).  An
   expression mentioning one of these cannot be evaluated before the
   statement runs, so it is never loop-invariant from the outside. *)
let inner_bound_vids (s : stmt) : Int_set.t =
  let acc = ref Int_set.empty in
  iter_stmt
    (function
      | For f -> acc := Int_set.add f.for_var.vid !acc
      | Let_stmt (v, _, _) -> acc := Int_set.add v.vid !acc
      | Block_stmt blk ->
          List.iter
            (fun bi -> acc := Int_set.add bi.bi_var.vid !acc)
            blk.blk_iters
      | _ -> ())
    s;
  !acc

(* Buffers [s] may mutate (stores, MMA accumulators) or whose contents are
   not stable across the statement (Alloc re-creates the tensor).  A hoisted
   expression must not read any of these. *)
let mutated_buf_ids (s : stmt) : Int_set.t =
  let acc = ref Int_set.empty in
  iter_stmt
    (function
      | Store (b, _, _) -> acc := Int_set.add b.buf_id !acc
      | Alloc (b, _) -> acc := Int_set.add b.buf_id !acc
      | Mma_sync m -> acc := Int_set.add m.mma_c.op_buf.buf_id !acc
      | _ -> ())
    s;
  !acc

(* Hoisting evaluates an expression unconditionally before the loop runs,
   where the original site may have been guarded by an If or a zero-trip
   loop.  Safe expressions therefore cannot raise: division only by nonzero
   constants, no Bsearch (its segment bounds may probe outside the tensor),
   no reads of buffers the statement mutates. *)
let rec hoist_safe (inner : Int_set.t) (mutated : Int_set.t) (e : expr) : bool
    =
  let ok = hoist_safe inner mutated in
  match e with
  | Int_imm _ | Float_imm _ | Bool_imm _ -> true
  | Evar v -> not (Int_set.mem v.vid inner)
  | Load (b, idx) ->
      (not (Int_set.mem b.buf_id mutated))
      && (not (is_sparse_buffer b))
      && List.for_all ok idx
  | Binop ((Div | Floor_div | Floor_mod), a, b) ->
      ok a && ok b
      && (match const_int_opt b with
         | Some k -> k <> 0
         | None -> ( match b with Float_imm x -> x <> 0.0 | _ -> false))
  | Binop (_, a, b) -> ok a && ok b
  | Unop (_, a) -> ok a
  | Select (c, t, f) -> ok c && ok t && ok f
  | Cast (_, a) -> ok a
  | Bsearch _ -> false

(* Only expressions that actually do work earn a slot: immediates and lone
   variables are already one closure call. *)
let rec worth_hoisting (e : expr) : bool =
  match e with
  | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> false
  | Load _ | Binop _ | Select _ | Bsearch _ -> true
  | Unop (_, a) | Cast (_, a) -> worth_hoisting a

(* Walk every buffer-index position in [s] ([Load]/[Store] indices, [Bsearch]
   segment bounds and probe value, MMA origins and leading dimensions),
   handing each index expression to [on_index].  With [into_block_binds =
   false] the walk does not descend into nested blockIdx-bound loops: the
   engine analyzes those for write-disjointness against their original
   bodies, so they must stay untouched by enclosing rewrites. *)
let iter_index_positions ~(into_block_binds : bool) (on_index : expr -> unit)
    (s : stmt) : unit =
  let rec in_expr (e : expr) : unit =
    (match e with
    | Load (_, idx) -> List.iter on_index idx
    | Bsearch bs -> on_index bs.bs_lo; on_index bs.bs_hi; on_index bs.bs_v
    | _ -> ());
    match e with
    | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> ()
    | Load (_, idx) -> List.iter in_expr idx
    | Binop (_, a, b) -> in_expr a; in_expr b
    | Unop (_, a) -> in_expr a
    | Select (c, t, f) -> in_expr c; in_expr t; in_expr f
    | Cast (_, a) -> in_expr a
    | Bsearch bs -> in_expr bs.bs_lo; in_expr bs.bs_hi; in_expr bs.bs_v
  in
  let rec go (s : stmt) : unit =
    match s with
    | Store (_, idx, value) ->
        List.iter on_index idx;
        List.iter in_expr idx;
        in_expr value
    | Seq l -> List.iter go l
    | For f ->
        if
          into_block_binds
          || not
               (match f.kind with
               | Thread_bind (Block_x | Block_y | Block_z) -> true
               | _ -> false)
        then (in_expr f.extent; go f.body)
    | If (c, t, f) -> in_expr c; go t; Option.iter go f
    | Let_stmt (_, value, body) -> in_expr value; go body
    | Block_stmt blk ->
        List.iter (fun bi -> in_expr bi.bi_dom; in_expr bi.bi_bind)
          blk.blk_iters;
        Option.iter go blk.blk_init;
        go blk.blk_body
    | Alloc (_, body) -> go body
    | Eval e -> in_expr e
    | Mma_sync m ->
        List.iter
          (fun (o : mma_operand) ->
            List.iter on_index o.op_origin;
            List.iter in_expr o.op_origin;
            on_index o.op_ld;
            in_expr o.op_ld)
          [ m.mma_a; m.mma_b; m.mma_c ]
    | Sp_iter_stmt sp -> Option.iter go sp.sp_init; go sp.sp_body
  in
  go s

let invariant_of_loop ?(into_block_binds = true) (x : var) (body : stmt) :
    expr list =
  let inner = Int_set.add x.vid (inner_bound_vids body) in
  let mutated = mutated_buf_ids body in
  let out = ref [] in
  let emit e = if not (List.mem e !out) then out := e :: !out in
  (* maximal invariant sub-expressions: stop descending at the first
     hoistable node *)
  let rec collect (e : expr) : unit =
    if hoist_safe inner mutated e && worth_hoisting e then emit e
    else
      match e with
      | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> ()
      | Load (_, idx) -> List.iter collect idx
      | Binop (_, a, b) -> collect a; collect b
      | Unop (_, a) -> collect a
      | Select (c, t, f) -> collect c; collect t; collect f
      | Cast (_, a) -> collect a
      | Bsearch bs -> collect bs.bs_lo; collect bs.bs_hi; collect bs.bs_v
  in
  iter_index_positions ~into_block_binds collect body;
  List.rev !out

let linear_indices_of_loop ?(into_block_binds = true) (x : var) (body : stmt)
    : (expr * int * expr) list =
  let inner = Int_set.add x.vid (inner_bound_vids body) in
  let mutated = mutated_buf_ids body in
  let out = ref [] in
  let on_index (e : expr) : unit =
    match e with
    | Evar _ -> ()
    | _ -> (
        match linear_in x e with
        | Some (c, rest)
          when c <> 0
               && hoist_safe inner mutated rest
               && hoist_safe (Int_set.remove x.vid inner) mutated e
               && not (List.exists (fun (e', _, _) -> e' = e) !out) ->
            out := (e, c, rest) :: !out
        | _ -> ())
  in
  iter_index_positions ~into_block_binds on_index body;
  List.rev !out

let replace_exprs ?(into_block_binds = true) (subs : (expr * expr) list)
    (s : stmt) : stmt =
  let subs =
    List.map
      (fun (pat, rep) ->
        ( pat,
          rep,
          List.map (fun (v : var) -> v.vid) (free_vars_expr pat) ))
      subs
  in
  let rec rexpr (bound : Int_set.t) (e : expr) : expr =
    match
      List.find_opt
        (fun (pat, _, fvs) ->
          pat = e && not (List.exists (fun vid -> Int_set.mem vid bound) fvs))
        subs
    with
    | Some (_, rep, _) -> rep
    | None -> (
        let re = rexpr bound in
        match e with
        | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> e
        | Load (b, idx) -> Load (b, List.map re idx)
        | Binop (op, a, b) -> Binop (op, re a, re b)
        | Unop (op, a) -> Unop (op, re a)
        | Select (c, t, f) -> Select (re c, re t, re f)
        | Cast (dt, a) -> Cast (dt, re a)
        | Bsearch bs ->
            Bsearch
              { bs with
                bs_lo = re bs.bs_lo;
                bs_hi = re bs.bs_hi;
                bs_v = re bs.bs_v })
  in
  let rec rstmt (bound : Int_set.t) (s : stmt) : stmt =
    let re = rexpr bound and rs = rstmt bound in
    match s with
    | Store (b, idx, value) -> Store (b, List.map re idx, re value)
    | Seq l -> Seq (List.map rs l)
    | For f ->
        if
          (not into_block_binds)
          && (match f.kind with
             | Thread_bind (Block_x | Block_y | Block_z) -> true
             | _ -> false)
        then s
        else
          For
            { f with
              extent = re f.extent;
              body = rstmt (Int_set.add f.for_var.vid bound) f.body }
    | If (c, t, f) -> If (re c, rs t, Option.map rs f)
    | Let_stmt (v, value, body) ->
        Let_stmt (v, re value, rstmt (Int_set.add v.vid bound) body)
    | Block_stmt blk ->
        let bound' =
          List.fold_left
            (fun b bi -> Int_set.add bi.bi_var.vid b)
            bound blk.blk_iters
        in
        Block_stmt
          { blk with
            blk_iters =
              List.map
                (fun bi -> { bi with bi_dom = re bi.bi_dom; bi_bind = re bi.bi_bind })
                blk.blk_iters;
            blk_init = Option.map (rstmt bound') blk.blk_init;
            blk_body = rstmt bound' blk.blk_body }
    | Alloc (b, body) -> Alloc (b, rs body)
    | Eval e -> Eval (re e)
    | Mma_sync m ->
        let op o =
          { o with op_origin = List.map re o.op_origin; op_ld = re o.op_ld }
        in
        Mma_sync
          { m with mma_a = op m.mma_a; mma_b = op m.mma_b; mma_c = op m.mma_c }
    | Sp_iter_stmt sp ->
        Sp_iter_stmt
          { sp with sp_init = Option.map rs sp.sp_init; sp_body = rs sp.sp_body }
  in
  rstmt Int_set.empty s

(* ------------------------------------------------------------------ *)
(* Write-disjointness                                                  *)
(* ------------------------------------------------------------------ *)

(* Witness that distinct values of a loop variable write disjoint regions of
   one buffer: either a direct linear index in some dimension, or a linear
   index routed through a gather from an index map whose structural facts
   (injectivity / monotonicity, established at run time by
   [Tensor.Facts.holds]) make the scatter conflict-free. *)
type witness =
  | W_direct of { dim : int; coeff : int; arity : int option }
  | W_gather of { dim : int; coeff : int; scale : int; map : buffer }

type fail_reason =
  | Fr_indirect (* store routed through an index load; facts must decide *)
  | Fr_bsearch (* binary search / MMA tile over a written buffer *)
  | Fr_non_linear (* an index is not linear in the loop variable *)
  | Fr_no_witness (* linear, but no dimension agrees across all accesses *)

type verdict = Par of (buffer * witness) list | Serial of fail_reason

(* Can the iterations of [for x in range(n): body] run concurrently without
   write conflicts?  We prove a strong sufficient condition: for every buffer
   the body writes (and does not allocate locally), all accesses — loads and
   stores alike, since a read of another iteration's write is also a race —
   agree on a witness dimension [d] whose index is either

   - [c * x + rest] with [c > 0] and [rest] provably inside [0, c)
     ([W_direct]: distinct iterations touch disjoint index slabs), or
   - [a * map[c * x + r] + rest] with [r] inside [0, c), [rest] inside
     [0, a), and [map] an unwritten non-sparse integer buffer ([W_gather]:
     iteration [x] touches the slabs of rows [map[c*x .. c*x+c)]; if [map]
     is injective the row sets of distinct iterations are disjoint, and if
     it is merely non-decreasing the executor may still cut chunks at strict
     increases of [map]).

   Block-iter and let-bound variables are substituted by their binding
   expressions first, so indices are analyzed in terms of actual loop
   variables; enclosing constant-extent loops contribute ranges for the
   residual interval checks.  Anything we cannot bound (bsearch or MMA tiles
   over a written buffer, non-linear or unbounded indices, leftover sparse
   constructs) fails conservatively with a [fail_reason]. *)
let loop_disjointness (x : var) (body : stmt) : verdict =
  let exception Not_disjoint of fail_reason in
  let written : (int, buffer) Hashtbl.t = Hashtbl.create 8 in
  let hazard : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let local : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* buf_id -> accesses, each an (index list, interval env) pair: the env in
     scope at the access site bounds its residual expressions. *)
  let accesses : (int, (expr list * (int * int) Int_map.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let add_access ienv (b : buffer) idx =
    if not (Hashtbl.mem local b.buf_id) then
      let l =
        match Hashtbl.find_opt accesses b.buf_id with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add accesses b.buf_id l;
            l
      in
      l := (idx, ienv) :: !l
  in
  let norm env e = simplify (subst_expr env e) in
  (* Record every load / bsearch inside an (already substituted) expr. *)
  let rec scan_expr ienv (e : expr) : unit =
    (match e with
    | Load (b, idx) -> add_access ienv b idx
    | Bsearch bs ->
        if not (Hashtbl.mem local bs.bs_buf.buf_id) then
          Hashtbl.replace hazard bs.bs_buf.buf_id ()
    | _ -> ());
    match e with
    | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> ()
    | Load (_, idx) -> List.iter (scan_expr ienv) idx
    | Binop (_, a, b) -> scan_expr ienv a; scan_expr ienv b
    | Unop (_, a) -> scan_expr ienv a
    | Select (c, t, f) -> scan_expr ienv c; scan_expr ienv t; scan_expr ienv f
    | Cast (_, a) -> scan_expr ienv a
    | Bsearch bs ->
        scan_expr ienv bs.bs_lo; scan_expr ienv bs.bs_hi; scan_expr ienv bs.bs_v
  in
  let collect env ienv e = scan_expr ienv (norm env e) in
  let rec walk env ienv (s : stmt) : unit =
    match s with
    | Store (b, idx, value) ->
        let idx = List.map (norm env) idx in
        if not (Hashtbl.mem local b.buf_id) then
          Hashtbl.replace written b.buf_id b;
        add_access ienv b idx;
        List.iter (scan_expr ienv) idx;
        collect env ienv value
    | Seq l -> List.iter (walk env ienv) l
    | For f ->
        collect env ienv f.extent;
        let ienv' =
          match const_int_opt (norm env f.extent) with
          | Some n when n > 0 -> Int_map.add f.for_var.vid (0, n - 1) ienv
          | _ -> ienv
        in
        walk env ienv' f.body
    | If (c, t, f) ->
        collect env ienv c;
        walk env ienv t;
        Option.iter (walk env ienv) f
    | Let_stmt (v, value, body) ->
        collect env ienv value;
        walk (Int_map.add v.vid (norm env value) env) ienv body
    | Block_stmt blk ->
        let env =
          List.fold_left
            (fun env bi ->
              collect env ienv bi.bi_dom;
              collect env ienv bi.bi_bind;
              Int_map.add bi.bi_var.vid (norm env bi.bi_bind) env)
            env blk.blk_iters
        in
        Option.iter (walk env ienv) blk.blk_init;
        walk env ienv blk.blk_body
    | Alloc (b, body) ->
        Hashtbl.replace local b.buf_id ();
        walk env ienv body
    | Eval e -> collect env ienv e
    | Mma_sync m ->
        List.iter
          (fun (o : mma_operand) ->
            if not (Hashtbl.mem local o.op_buf.buf_id) then
              Hashtbl.replace hazard o.op_buf.buf_id ();
            List.iter (collect env ienv) o.op_origin;
            collect env ienv o.op_ld)
          [ m.mma_a; m.mma_b; m.mma_c ];
        if not (Hashtbl.mem local m.mma_c.op_buf.buf_id) then
          Hashtbl.replace written m.mma_c.op_buf.buf_id m.mma_c.op_buf
    | Sp_iter_stmt _ -> raise (Not_disjoint Fr_non_linear)
  in
  (* Replace every occurrence of a structurally-equal sub-expression
     (expressions contain no binders, so plain equality suffices). *)
  let rec replace_sub (pat : expr) (rep : expr) (e : expr) : expr =
    if e = pat then rep
    else
      let r = replace_sub pat rep in
      match e with
      | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> e
      | Load (b, idx) -> Load (b, List.map r idx)
      | Binop (op, a, b) -> Binop (op, r a, r b)
      | Unop (op, a) -> Unop (op, r a)
      | Select (c, t, f) -> Select (r c, r t, r f)
      | Cast (dt, a) -> Cast (dt, r a)
      | Bsearch bs ->
          Bsearch
            { bs with bs_lo = r bs.bs_lo; bs_hi = r bs.bs_hi; bs_v = r bs.bs_v }
  in
  let rec load_subterms (e : expr) : expr list =
    let sub =
      match e with
      | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> []
      | Load (_, idx) -> List.concat_map load_subterms idx
      | Binop (_, a, b) -> load_subterms a @ load_subterms b
      | Unop (_, a) -> load_subterms a
      | Select (c, t, f) ->
          load_subterms c @ load_subterms t @ load_subterms f
      | Cast (_, a) -> load_subterms a
      | Bsearch bs ->
          load_subterms bs.bs_lo @ load_subterms bs.bs_hi
          @ load_subterms bs.bs_v
    in
    match e with Load _ -> e :: sub | _ -> sub
  in
  (* The gather variable stands in for a [map[...]] load during linear
     analysis; the substitution is local to one index expression, so a fixed
     negative id cannot collide with program variables. *)
  let gather_var = { vid = -1; vname = "$gather"; vdtype = Dtype.I32 } in
  (* a map buffer may be routed through when nothing in the body can change
     it mid-loop: non-sparse, integral, never written or probed by a
     hazard-class construct *)
  let eligible_map (m : buffer) =
    (not (is_sparse_buffer m))
    && (not (Dtype.is_float m.buf_dtype))
    && m.buf_dtype <> Dtype.Bool
    && (not (Hashtbl.mem written m.buf_id))
    && (not (Hashtbl.mem hazard m.buf_id))
    && not (Hashtbl.mem local m.buf_id)
  in
  let bounded_in ienv (e : expr) ~(below : int) =
    match interval ienv (simplify e) with
    | Some (lo, hi) -> lo >= 0 && hi < below
    | None -> false
  in
  (* Witness keys for one access: dims whose index is [c * x + rest] with
     rest in [0, c) (direct), or [a * map[c * x + r] + rest] with r in
     [0, c) and rest in [0, a) (gather). *)
  let witnesses (idx, ienv) : (int * witness) list =
    List.concat
      (List.mapi
         (fun d e ->
           match linear_in x e with
           | Some (c, rest) when c > 0 && bounded_in ienv rest ~below:c ->
               [ (d, W_direct { dim = d; coeff = c; arity = None }) ]
           | Some _ -> []
           | None ->
               List.concat_map
                 (fun l ->
                   match l with
                   | Load (m, [ mi ]) when eligible_map m -> (
                       match linear_in x mi with
                       | Some (c, r) when c > 0 && bounded_in ienv r ~below:c
                         -> (
                           let e' = replace_sub l (Evar gather_var) e in
                           match linear_in gather_var e' with
                           | Some (a, rest)
                             when a > 0 && bounded_in ienv rest ~below:a ->
                               [ ( d,
                                   W_gather
                                     { dim = d; coeff = c; scale = a; map = m }
                                 ) ]
                           | _ -> [])
                       | _ -> [])
                   | _ -> [])
                 (List.sort_uniq compare (load_subterms e)))
         idx)
  in
  (* Witness equality for the cross-access intersection: the arity slot of a
     direct witness is resolved afterwards, everything else must agree. *)
  let same_witness (a : witness) (b : witness) =
    match (a, b) with
    | W_direct da, W_direct db -> da.dim = db.dim && da.coeff = db.coeff
    | W_gather ga, W_gather gb ->
        ga.dim = gb.dim && ga.coeff = gb.coeff && ga.scale = gb.scale
        && ga.map.buf_id = gb.map.buf_id
    | _ -> false
  in
  let classify_failure (accs : (expr list * (int * int) Int_map.t) list) :
      fail_reason =
    let idxs = List.concat_map fst accs in
    if List.exists (fun e -> load_subterms e <> []) idxs then Fr_indirect
    else if List.exists (fun e -> linear_in x e = None) idxs then Fr_non_linear
    else Fr_no_witness
  in
  try
    let out = ref [] in
    walk Int_map.empty Int_map.empty body;
    Hashtbl.iter
      (fun id (b : buffer) ->
        if Hashtbl.mem hazard id then raise (Not_disjoint Fr_bsearch);
        let accs =
          match Hashtbl.find_opt accesses id with Some l -> !l | None -> []
        in
        match accs with
        | [] ->
            (* written via hazard-only paths (MMA origins) *)
            raise (Not_disjoint Fr_no_witness)
        | first :: rest ->
            let surviving =
              List.fold_left
                (fun cands acc ->
                  let ws = witnesses acc in
                  List.filter
                    (fun (_, w) ->
                      List.exists (fun (_, w') -> same_witness w w') ws)
                    cands)
                (witnesses first) rest
            in
            let chosen =
              (* prefer a direct witness: it needs no runtime fact check *)
              match
                List.find_opt
                  (fun (_, w) -> match w with W_direct _ -> true | _ -> false)
                  surviving
              with
              | Some w -> Some w
              | None -> (
                  match surviving with w :: _ -> Some w | [] -> None)
            in
            (match chosen with
            | None -> raise (Not_disjoint (classify_failure accs))
            | Some (_, W_direct dw) ->
                (* the executor can only tile dimension-contiguous strips
                   when every access spells the index the same way *)
                let arities =
                  List.sort_uniq compare
                    (List.map (fun (idx, _) -> List.length idx) accs)
                in
                let arity =
                  match arities with [ n ] -> Some n | _ -> None
                in
                out := (b, W_direct { dw with arity }) :: !out
            | Some (_, w) -> out := (b, w) :: !out))
      written;
    Par !out
  with Not_disjoint r -> Serial r
