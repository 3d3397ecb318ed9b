(* Pretty-printer producing a TVMScript-like rendering of the IR.  Used in
   documentation, examples and golden tests. *)

open Ir

let rec expr_to_string (e : expr) : string =
  match e with
  | Int_imm n -> string_of_int n
  | Float_imm x -> Printf.sprintf "%g" x
  | Bool_imm b -> string_of_bool b
  | Evar x -> x.vname
  | Load (b, idx) ->
      Printf.sprintf "%s[%s]" b.buf_name
        (String.concat ", " (List.map expr_to_string idx))
  | Binop (((Min | Max) as op), a, b) ->
      Printf.sprintf "%s(%s, %s)" (binop_to_string op) (expr_to_string a)
        (expr_to_string b)
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_to_string op)
        (expr_to_string b)
  | Unop (((Exp | Sqrt | Log | Abs) as op), a) ->
      Printf.sprintf "%s(%s)" (unop_to_string op) (expr_to_string a)
  | Unop (op, a) -> Printf.sprintf "%s%s" (unop_to_string op) (expr_to_string a)
  | Select (c, t, f) ->
      Printf.sprintf "select(%s, %s, %s)" (expr_to_string c) (expr_to_string t)
        (expr_to_string f)
  | Cast (dt, a) ->
      Printf.sprintf "%s(%s)" (Dtype.to_string dt) (expr_to_string a)
  | Bsearch b ->
      Printf.sprintf "binary_search(%s, lo=%s, hi=%s, v=%s)" b.bs_buf.buf_name
        (expr_to_string b.bs_lo) (expr_to_string b.bs_hi)
        (expr_to_string b.bs_v)

let axis_kind_to_string = function
  | Dense_fixed -> "dense_fixed"
  | Dense_variable -> "dense_variable"
  | Sparse_fixed -> "sparse_fixed"
  | Sparse_variable -> "sparse_variable"

let axis_to_string (a : axis) : string =
  let parent =
    match a.ax_parent with None -> "" | Some p -> Printf.sprintf "%s, " p.ax_name
  in
  Printf.sprintf "%s = %s(%s%s)" a.ax_name (axis_kind_to_string a.ax_kind)
    parent
    (expr_to_string a.ax_length)

let for_kind_to_string = function
  | Serial -> ""
  | Parallel -> "parallel "
  | Vectorized -> "vectorized "
  | Unrolled -> "unrolled "
  | Thread_bind tag -> Printf.sprintf "thread<%s> " (thread_tag_to_string tag)

let region_to_string (r : region) : string =
  Printf.sprintf "%s[%s]" r.rg_buf.buf_name
    (String.concat ", "
       (List.map
          (fun (lo, ext) ->
            match ext with
            | Int_imm 1 -> expr_to_string lo
            | _ ->
                Printf.sprintf "%s:%s" (expr_to_string lo)
                  (expr_to_string Builder.(lo +: ext)))
          r.rg_bounds))

(* Rendered lines at the given indentation depth (2 spaces per level). *)
let rec stmt_lines ~indent (s : stmt) : string list =
  let pad = String.make (indent * 2) ' ' in
  let line fmt = Printf.ksprintf (fun str -> pad ^ str) fmt in
  match s with
  | Store (b, idx, value) ->
      [ line "%s[%s] = %s" b.buf_name
          (String.concat ", " (List.map expr_to_string idx))
          (expr_to_string value) ]
  | Seq ss -> List.concat_map (stmt_lines ~indent) ss
  | For { for_var; extent; kind; body } ->
      line "for %s in %srange(%s):" for_var.vname (for_kind_to_string kind)
        (expr_to_string extent)
      :: stmt_lines ~indent:(indent + 1) body
  | If (c, t, f) -> (
      let then_lines =
        line "if %s:" (expr_to_string c) :: stmt_lines ~indent:(indent + 1) t
      in
      match f with
      | None -> then_lines
      | Some e -> then_lines @ (line "else:" :: stmt_lines ~indent:(indent + 1) e))
  | Let_stmt (x, value, body) ->
      line "%s = %s" x.vname (expr_to_string value)
      :: stmt_lines ~indent body
  | Block_stmt blk ->
      let iters =
        List.map
          (fun bi ->
            Printf.sprintf "%s: %s(%s) = %s" bi.bi_var.vname
              (match bi.bi_kind with Spatial -> "S" | Reduce -> "R")
              (expr_to_string bi.bi_dom)
              (expr_to_string bi.bi_bind))
          blk.blk_iters
      in
      let header = line "block %s(%s):" blk.blk_name (String.concat ", " iters) in
      let pad1 = String.make ((indent + 1) * 2) ' ' in
      let reads =
        if blk.blk_reads = [] then []
        else
          [ pad1 ^ "reads: "
            ^ String.concat ", " (List.map region_to_string blk.blk_reads) ]
      in
      let writes =
        if blk.blk_writes = [] then []
        else
          [ pad1 ^ "writes: "
            ^ String.concat ", " (List.map region_to_string blk.blk_writes) ]
      in
      let init =
        match blk.blk_init with
        | None -> []
        | Some i ->
            (pad1 ^ "init:") :: stmt_lines ~indent:(indent + 2) i
      in
      (header :: reads) @ writes @ init @ stmt_lines ~indent:(indent + 1) blk.blk_body
  | Alloc (b, body) ->
      let scope =
        match b.buf_scope with
        | Global -> "global"
        | Shared -> "shared"
        | Local -> "local"
      in
      line "%s = alloc(%s, [%s], %s)" b.buf_name
        (Dtype.to_string b.buf_dtype)
        (String.concat ", " (List.map expr_to_string b.buf_shape))
        scope
      :: stmt_lines ~indent body
  | Eval e -> [ line "evaluate(%s)" (expr_to_string e) ]
  | Mma_sync m ->
      [ line "mma_sync[%dx%dx%d](C=%s[%s], A=%s[%s], B=%s[%s])" m.mma_m
          m.mma_n m.mma_k m.mma_c.op_buf.buf_name
          (String.concat ", " (List.map expr_to_string m.mma_c.op_origin))
          m.mma_a.op_buf.buf_name
          (String.concat ", " (List.map expr_to_string m.mma_a.op_origin))
          m.mma_b.op_buf.buf_name
          (String.concat ", " (List.map expr_to_string m.mma_b.op_origin)) ]
  | Sp_iter_stmt sp ->
      let kinds =
        String.concat ""
          (List.map (function Spatial -> "S" | Reduce -> "R") sp.sp_kinds)
      in
      let header =
        line "with sp_iter([%s], \"%s\", \"%s\") as [%s]:"
          (String.concat ", " (List.map (fun (a : axis) -> a.ax_name) sp.sp_axes))
          kinds sp.sp_name
          (String.concat ", " (List.map (fun (x : var) -> x.vname) sp.sp_vars))
      in
      let init =
        match sp.sp_init with
        | None -> []
        | Some i ->
            (String.make ((indent + 1) * 2) ' ' ^ "with init():")
            :: stmt_lines ~indent:(indent + 2) i
      in
      (header :: init) @ stmt_lines ~indent:(indent + 1) sp.sp_body

let stmt_to_string (s : stmt) : string =
  String.concat "\n" (stmt_lines ~indent:0 s)

let buffer_decl_to_string (b : buffer) : string =
  match b.buf_axes with
  | Some axes ->
      Printf.sprintf "%s = match_sparse_buffer((%s), %s)" b.buf_name
        (String.concat ", " (List.map (fun (a : axis) -> a.ax_name) axes))
        (Dtype.to_string b.buf_dtype)
  | None ->
      Printf.sprintf "%s = buffer([%s], %s)" b.buf_name
        (String.concat ", " (List.map expr_to_string b.buf_shape))
        (Dtype.to_string b.buf_dtype)

let func_to_string (f : func) : string =
  let params = List.map buffer_decl_to_string f.fn_params in
  let axes =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (b : buffer) ->
        match b.buf_axes with
        | None -> ()
        | Some axes ->
            List.iter
              (fun (a : axis) ->
                List.iter
                  (fun (anc : axis) ->
                    if not (Hashtbl.mem tbl anc.ax_name) then
                      Hashtbl.add tbl anc.ax_name (axis_to_string anc))
                  (axis_ancestors a))
              axes)
      f.fn_params;
    Hashtbl.fold (fun _ s acc -> s :: acc) tbl [] |> List.sort compare
  in
  String.concat "\n"
    ((Printf.sprintf "def %s:" f.fn_name)
     :: List.map (fun s -> "  " ^ s) (axes @ params)
    @ stmt_lines ~indent:1 f.fn_body)
