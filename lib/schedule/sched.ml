(* Composable Stage II/III schedule primitives.

   A schedule wraps a function and rewrites its statement tree in place.
   Loops are addressed by their variable name (unique names are enforced by
   the lowering passes and by the renaming done here: split produces
   "<name>.o"/"<name>.i", fuse produces "<a>.<b>").  Blocks are addressed by
   block name.

   Because block iteration variables are *bound* to expressions over loop
   variables, loop rewrites only need to substitute loop variables in
   subtrees; block semantics are preserved automatically. *)

open Tir
open Tir.Ir

exception Schedule_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Schedule_error s)) fmt

type t = { mutable fn : func }

let create (fn : func) : t = { fn }
let get (s : t) : func = s.fn

(* ------------------------------------------------------------------ *)
(* Loop lookup                                                         *)
(* ------------------------------------------------------------------ *)

let loop_names (s : t) : string list =
  let acc = ref [] in
  Analysis.iter_stmt
    (function
      | For { for_var; _ } -> acc := for_var.vname :: !acc
      | _ -> ())
    s.fn.fn_body;
  List.rev !acc

let find_loop_exn (s : t) (name : string) : var * expr * for_kind =
  let found = ref None in
  Analysis.iter_stmt
    (function
      | For { for_var; extent; kind; _ } when String.equal for_var.vname name ->
          (match !found with
          | Some _ -> err "loop name %s is ambiguous" name
          | None -> found := Some (for_var, extent, kind))
      | _ -> ())
    s.fn.fn_body;
  match !found with
  | Some r -> r
  | None ->
      err "no loop named %s (have: %s)" name (String.concat ", " (loop_names s))

(* Replace the unique loop [name] using [f]; errors when absent. *)
let rewrite_loop (s : t) (name : string)
    (f : var -> expr -> for_kind -> stmt -> stmt) : unit =
  ignore (find_loop_exn s name);
  let body =
    Analysis.map_stmt
      (function
        | For { for_var; extent; kind; body } when String.equal for_var.vname name
          ->
            f for_var extent kind body
        | st -> st)
      s.fn.fn_body
  in
  s.fn <- { s.fn with fn_body = body }

(* ------------------------------------------------------------------ *)
(* split / fuse / reorder                                              *)
(* ------------------------------------------------------------------ *)

(* Split [loop] into an outer loop of extent ceil(n/factor) and an inner loop
   of extent [factor].  A bounds guard is inserted unless the extent is a
   constant multiple of the factor.  Returns the new (outer, inner) names. *)
let split (s : t) ~(loop : string) ~(factor : int) : string * string =
  if factor <= 0 then err "split %s: factor must be positive" loop;
  let outer_name = loop ^ ".o" and inner_name = loop ^ ".i" in
  rewrite_loop s loop (fun x extent kind body ->
      let xo = Builder.var outer_name and xi = Builder.var inner_name in
      let open Builder in
      let combined = (v xo *: int factor) +: v xi in
      let body = Analysis.subst1_stmt x combined body in
      let needs_guard =
        match Analysis.const_int_opt extent with
        | Some n -> Stdlib.( <> ) (n mod factor) 0
        | None -> true
      in
      let body = if needs_guard then If (combined <: extent, body, None) else body in
      For
        { for_var = xo;
          extent = Analysis.simplify (ceil_div extent (int factor));
          kind;
          body = For { for_var = xi; extent = int factor; kind = Serial; body } });
  (outer_name, inner_name)

(* Fuse two perfectly nested loops [outer]/[inner] into one; returns the fused
   loop's name. *)
let fuse (s : t) ~(outer : string) ~(inner : string) : string =
  let fused_name = outer ^ "." ^ inner in
  rewrite_loop s outer (fun xo extent_o kind body ->
      match body with
      | For { for_var = xi; extent = extent_i; kind = _; body = inner_body }
        when String.equal xi.vname inner ->
          let xf = Builder.var fused_name in
          let open Builder in
          let body =
            Analysis.subst_stmt
              (Analysis.Int_map.add xo.vid
                 (Analysis.simplify (v xf /^ extent_i))
                 (Analysis.Int_map.singleton xi.vid
                    (Analysis.simplify (v xf %^ extent_i))))
              inner_body
          in
          For
            { for_var = xf;
              extent = Analysis.simplify (extent_o *: extent_i);
              kind;
              body }
      | _ -> err "fuse: %s is not immediately nested inside %s" inner outer);
  fused_name

(* First loop of [names] encountered in a depth-first walk: the outermost of
   the set in the tree. *)
let outermost_of (s : t) (names : string list) : string =
  let rec first st =
    match st with
    | For { for_var; body; _ } ->
        if List.mem for_var.vname names then Some for_var.vname else first body
    | Seq l -> List.fold_left (fun acc x -> if acc = None then first x else acc) None l
    | If (_, t, e) -> ( match first t with None -> Option.bind e first | r -> r)
    | Let_stmt (_, _, b) | Alloc (_, b) -> first b
    | Block_stmt b -> first b.blk_body
    | Store _ | Eval _ | Mma_sync _ -> None
    | Sp_iter_stmt sp -> ( match first sp.sp_body with None -> Option.bind sp.sp_init first | r -> r)
  in
  match first s.fn.fn_body with
  | Some n -> n
  | None -> err "none of the loops %s found" (String.concat "," names)

(* Reorder a nest of loops so that they appear in the order given.  The named
   loops must form a contiguous nest, possibly interleaved with guard [If]
   statements (introduced by split); guards are re-emitted innermost, which
   is valid because they only restrict the iteration domain. *)
let reorder (s : t) ~(loops : string list) : unit =
  match loops with
  | [] | [ _ ] -> ()
  | _ ->
      let first = outermost_of s loops in
      rewrite_loop s first (fun x0 e0 k0 b0 ->
          (* Collect the nest starting at [first]: every loop in the chain
             must be one of the requested loops, guards pass through. *)
          let rec collect acc guards st remaining =
            if remaining = [] then (List.rev acc, List.rev guards, st)
            else
              match st with
              | For { for_var; extent; kind; body } ->
                  if not (List.mem for_var.vname remaining) then
                    err "reorder: loop %s interrupts the nest" for_var.vname
                  else
                    let remaining =
                      List.filter
                        (fun n -> not (String.equal n for_var.vname))
                        remaining
                    in
                    collect ((for_var, extent, kind) :: acc) guards body remaining
              | If (c, t, None) -> collect acc (c :: guards) t remaining
              | _ ->
                  err "reorder: loops are not perfectly nested (missing: %s)"
                    (String.concat "," remaining)
          in
          let rest = List.filter (fun n -> not (String.equal n first)) loops in
          let frames, guards, innermost =
            collect [ (x0, e0, k0) ] [] b0 rest
          in
          let frame_of name =
            try List.find (fun ((x : var), _, _) -> String.equal x.vname name) frames
            with Not_found -> err "reorder: loop %s not found in nest" name
          in
          let ordered = List.map frame_of loops in
          (* legality: a loop's extent may only reference loops placed above
             it (a variable axis cannot move above its parent) *)
          List.iteri
            (fun pos ((x : var), extent, _) ->
              ignore x;
              List.iter
                (fun (y : var) ->
                  List.iteri
                    (fun pos' ((z : var), _, _) ->
                      if pos' >= pos && var_equal y z then
                        err
                          "reorder: extent of loop %s depends on %s, which \
                           would no longer enclose it"
                          x.vname z.vname)
                    ordered)
                (Analysis.free_vars_expr extent))
            ordered;
          let innermost =
            List.fold_right (fun c st -> If (c, st, None)) guards innermost
          in
          List.fold_right
            (fun (x, extent, kind) body -> For { for_var = x; extent; kind; body })
            ordered innermost)

(* ------------------------------------------------------------------ *)
(* Loop annotations                                                    *)
(* ------------------------------------------------------------------ *)

let set_kind (s : t) ~(loop : string) (kind : for_kind) : unit =
  rewrite_loop s loop (fun x extent _ body ->
      For { for_var = x; extent; kind; body })

let bind (s : t) ~(loop : string) (tag : thread_tag) : unit =
  set_kind s ~loop (Thread_bind tag)

let vectorize (s : t) ~(loop : string) : unit =
  let _, extent, _ = find_loop_exn s loop in
  (match Analysis.const_int_opt extent with
  | Some n when n <= 8 -> ()
  | Some n -> err "vectorize %s: extent %d exceeds the widest vector (8)" loop n
  | None -> err "vectorize %s: extent must be constant" loop);
  set_kind s ~loop Vectorized

let unroll (s : t) ~(loop : string) : unit = set_kind s ~loop Unrolled

(* ------------------------------------------------------------------ *)
(* Block lookup                                                        *)
(* ------------------------------------------------------------------ *)

let find_block_exn (s : t) (name : string) : block =
  let found = ref None in
  Analysis.iter_stmt
    (function
      | Block_stmt blk when String.equal blk.blk_name name -> found := Some blk
      | _ -> ())
    s.fn.fn_body;
  match !found with
  | Some b -> b
  | None -> err "no block named %s" name

(* ------------------------------------------------------------------ *)
(* Shared helpers for block-level primitives                           *)
(* ------------------------------------------------------------------ *)

(* Substitution replacing each block iteration variable by the expression it
   is bound to (valid outside the block). *)
let block_var_bindings (blk : block) : expr Analysis.Int_map.t =
  List.fold_left
    (fun m bi -> Analysis.Int_map.add bi.bi_var.vid bi.bi_bind m)
    Analysis.Int_map.empty blk.blk_iters

(* The unique store performed by a block body. *)
let single_store_exn (blk : block) : buffer * expr list * expr =
  let stores = ref [] in
  Analysis.iter_stmt
    (function Store (b, idx, value) -> stores := (b, idx, value) :: !stores | _ -> ())
    blk.blk_body;
  match !stores with
  | [ s ] -> s
  | l -> err "block %s: expected exactly one store, found %d" blk.blk_name
           (List.length l)

(* Loop variables appearing in the bindings of reduce-kind block iters. *)
let reduce_loop_vars (blk : block) : string list =
  List.concat_map
    (fun bi ->
      match bi.bi_kind with
      | Reduce -> List.map (fun (x : var) -> x.vname) (Analysis.free_vars_expr bi.bi_bind)
      | Spatial -> [])
    blk.blk_iters

(* When [st] is a chain of loops/guards (each over vars in [chain_vars])
   terminating exactly at block [block_name], return the loop names along the
   chain. *)
let rec chain_to_block ~chain_vars ~block_name (st : stmt) : string list option
    =
  match st with
  | Block_stmt b -> if String.equal b.blk_name block_name then Some [] else None
  | For { for_var; body; _ } ->
      if List.mem for_var.vname chain_vars then
        Option.map
          (fun names -> for_var.vname :: names)
          (chain_to_block ~chain_vars ~block_name body)
      else None
  | If (_, t, None) -> chain_to_block ~chain_vars ~block_name t
  | _ -> None

(* Apply [wrap] at the outermost point of the tree where the remaining
   subtree is a pure chain of [chain_vars]-loops leading to [block_name] and
   the chain contains every loop named in [required] that exists in the
   function (an incomplete chain means the reduction loops are not innermost
   — reorder them first).  Exactly one such point is rewritten. *)
let rewrite_at_chain_top (s : t) ~chain_vars ?(required = []) ~block_name
    (wrap : stmt -> stmt) : unit =
  let existing = loop_names s in
  let required = List.filter (fun r -> List.mem r existing) required in
  let chain_ok st =
    match chain_to_block ~chain_vars ~block_name st with
    | Some names -> List.for_all (fun r -> List.mem r names) required
    | None -> false
  in
  let done_ = ref false in
  (* Only a For may anchor the chain: anchoring at a guard If would let the
     wrapper sequence statements (write-backs) outside the guard, executing
     them for iterations the guard excludes. *)
  let is_for = function For _ -> true | _ -> false in
  let rec go st =
    if (not !done_) && is_for st && chain_ok st then begin
      done_ := true;
      wrap st
    end
    else
      match st with
      | Store _ | Eval _ | Mma_sync _ -> st
      | Seq l -> Seq (List.map go l)
      | For f -> For { f with body = go f.body }
      | If (c, t, e) -> If (c, go t, Option.map go e)
      | Let_stmt (x, v', b) -> Let_stmt (x, v', go b)
      | Block_stmt blk ->
          Block_stmt
            { blk with
              blk_init = Option.map go blk.blk_init;
              blk_body = go blk.blk_body }
      | Alloc (b, body) -> Alloc (b, go body)
      | Sp_iter_stmt sp ->
          Sp_iter_stmt
            { sp with
              sp_init = Option.map go sp.sp_init;
              sp_body = go sp.sp_body }
  in
  let body = go s.fn.fn_body in
  if not !done_ then
    err
      "no complete reduction-loop chain leading to block %s found (reorder the \
       reduction loops innermost first)"
      block_name;
  s.fn <- { s.fn with fn_body = body }

(* Rewrite the unique block called [name]. *)
let rewrite_block (s : t) (name : string) (f : block -> stmt) : unit =
  ignore (find_block_exn s name);
  let body =
    Analysis.map_stmt
      (function
        | Block_stmt blk when String.equal blk.blk_name name -> f blk
        | st -> st)
      s.fn.fn_body
  in
  s.fn <- { s.fn with fn_body = body }

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

type path_frame =
  | Pf_for of var * expr * for_kind
  | Pf_if of expr
  | Pf_other

(* Frames from the root down to (exclusive) the named block. *)
let path_to_block (s : t) (block : string) : path_frame list =
  let exception Found of path_frame list in
  let rec go acc st =
    match st with
    | Block_stmt b when String.equal b.blk_name block -> raise (Found (List.rev acc))
    | Block_stmt b ->
        Option.iter (go (Pf_other :: acc)) b.blk_init;
        go (Pf_other :: acc) b.blk_body
    | For { for_var; extent; kind; body } ->
        go (Pf_for (for_var, extent, kind) :: acc) body
    | If (c, t, e) ->
        go (Pf_if c :: acc) t;
        Option.iter (go (Pf_other :: acc)) e
    | Seq l -> List.iter (go (Pf_other :: acc)) l
    | Let_stmt (_, _, b) -> go (Pf_other :: acc) b
    | Alloc (_, b) -> go (Pf_other :: acc) b
    | Store _ | Eval _ | Mma_sync _ -> ()
    | Sp_iter_stmt sp ->
        Option.iter (go (Pf_other :: acc)) sp.sp_init;
        go (Pf_other :: acc) sp.sp_body
  in
  try
    go [] s.fn.fn_body;
    err "no block named %s" block
  with Found p -> p

(* Longest suffix of the path made only of For/If frames (the pure loop
   chain immediately above the block). *)
let chain_suffix (path : path_frame list) : path_frame list =
  List.fold_left
    (fun acc f ->
      match f with
      | Pf_for _ | Pf_if _ -> f :: acc
      | Pf_other -> [])
    [] (List.rev (List.rev path))
  |> fun collected ->
  (* fold_left above builds reversed suffix; restore order *)
  List.rev collected
