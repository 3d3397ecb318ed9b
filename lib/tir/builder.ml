(* Construction DSL for the IR: fresh variables/buffers, axis constructors
   mirroring the paper's Python interface (dense_fixed, sparse_variable, ...),
   arithmetic smart constructors with constant folding, and statement
   builders. *)

open Ir

let var_counter = ref 0
let buf_counter = ref 0

let fresh_id counter =
  incr counter;
  !counter

let var ?(dtype = Dtype.I32) name : var =
  { vid = fresh_id var_counter; vname = name; vdtype = dtype }

let fvar name : var = var ~dtype:Dtype.F32 name

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let int n = Int_imm n
let float x = Float_imm x
let v (x : var) = Evar x

let rec ( +: ) a b =
  match (a, b) with
  | Int_imm x, Int_imm y -> Int_imm (Stdlib.( + ) x y)
  | Float_imm x, Float_imm y -> Float_imm (x +. y)
  | Int_imm 0, e | e, Int_imm 0 -> e
  | Binop (Add, e, Int_imm x), Int_imm y ->
      e +: Int_imm (Stdlib.( + ) x y)
  (* (x - y) + y = x: lets fused-iteration offsets collapse back to the
     fused loop variable *)
  | Binop (Sub, x, y), e when y = e -> x
  | e, Binop (Sub, x, y) when y = e -> x
  | _ -> Binop (Add, a, b)

let ( -: ) a b =
  match (a, b) with
  | Int_imm x, Int_imm y -> Int_imm (Stdlib.( - ) x y)
  | Float_imm x, Float_imm y -> Float_imm (x -. y)
  | e, Int_imm 0 -> e
  | _ -> Binop (Sub, a, b)

let ( *: ) a b =
  match (a, b) with
  | Int_imm x, Int_imm y -> Int_imm (Stdlib.( * ) x y)
  | Float_imm x, Float_imm y -> Float_imm (x *. y)
  | Int_imm 0, _ | _, Int_imm 0 -> Int_imm 0
  | Int_imm 1, e | e, Int_imm 1 -> e
  | _ -> Binop (Mul, a, b)

let ( /: ) a b =
  match (a, b) with
  | Float_imm x, Float_imm y -> Float_imm (x /. y)
  | e, Float_imm 1.0 -> e
  | _ -> Binop (Div, a, b)

let ( /^ ) a b =
  (* floor division *)
  match (a, b) with
  | Int_imm x, Int_imm y when y <> 0 ->
      Int_imm (if Stdlib.( >= ) x 0 then Stdlib.( / ) x y
               else Stdlib.( - ) (Stdlib.( / ) (Stdlib.( + ) x 1) y) 1)
  | e, Int_imm 1 -> e
  | _ -> Binop (Floor_div, a, b)

let ( %^ ) a b =
  match (a, b) with
  | Int_imm x, Int_imm y when y <> 0 ->
      let r = Stdlib.( mod ) x y in
      Int_imm (if Stdlib.( >= ) r 0 then r else Stdlib.( + ) r y)
  | _, Int_imm 1 -> Int_imm 0
  | _ -> Binop (Floor_mod, a, b)

let min_ a b =
  match (a, b) with
  | Int_imm x, Int_imm y -> Int_imm (Stdlib.min x y)
  | _ -> Binop (Min, a, b)

let max_ a b =
  match (a, b) with
  | Int_imm x, Int_imm y -> Int_imm (Stdlib.max x y)
  | _ -> Binop (Max, a, b)

let ( =: ) a b = Binop (Eq, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( &&: ) a b = Binop (And, a, b)
let exp_ a = Unop (Exp, a)
let select c t f = Select (c, t, f)
let cast dt e = Cast (dt, e)
let f32 e = Cast (Dtype.F32, e)

(* Ceiling division on expressions: (a + b - 1) // b *)
let ceil_div a b = (a +: b -: int 1) /^ b

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)
(* ------------------------------------------------------------------ *)

let buffer ?(scope = Global) ?(dtype = Dtype.F32) name shape : buffer =
  { buf_id = fresh_id buf_counter;
    buf_name = name;
    buf_dtype = dtype;
    buf_shape = shape;
    buf_axes = None;
    buf_scope = scope }

(* Bind a sparse buffer to a composition of axes (the paper's
   match_sparse_buffer).  The dense [buf_shape] records the per-axis
   coordinate-space extents for region analysis. *)
let match_sparse_buffer ?(scope = Global) ?(dtype = Dtype.F32) name
    (axes : axis list) : buffer =
  let shape = List.map (fun (a : axis) -> a.ax_length) axes in
  { buf_id = fresh_id buf_counter;
    buf_name = name;
    buf_dtype = dtype;
    buf_shape = shape;
    buf_axes = Some axes;
    buf_scope = scope }

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let dense_fixed ?(idtype = Dtype.I32) ?parent name ~length : axis =
  { ax_name = name; ax_kind = Dense_fixed; ax_parent = parent;
    ax_length = length; ax_nnz = None; ax_nnz_cols = None;
    ax_indptr = None; ax_indices = None; ax_idtype = idtype }

let dense_variable ?(idtype = Dtype.I32) name ~parent ~length ~nnz ~indptr :
    axis =
  { ax_name = name; ax_kind = Dense_variable; ax_parent = Some parent;
    ax_length = length; ax_nnz = Some nnz; ax_nnz_cols = None;
    ax_indptr = Some indptr; ax_indices = None; ax_idtype = idtype }

let sparse_fixed ?(idtype = Dtype.I32) name ~parent ~length ~nnz_cols ~indices :
    axis =
  { ax_name = name; ax_kind = Sparse_fixed; ax_parent = Some parent;
    ax_length = length; ax_nnz = None; ax_nnz_cols = Some nnz_cols;
    ax_indptr = None; ax_indices = Some indices; ax_idtype = idtype }

let sparse_variable ?(idtype = Dtype.I32) name ~parent ~length ~nnz ~indptr
    ~indices : axis =
  { ax_name = name; ax_kind = Sparse_variable; ax_parent = Some parent;
    ax_length = length; ax_nnz = Some nnz; ax_nnz_cols = None;
    ax_indptr = Some indptr; ax_indices = Some indices; ax_idtype = idtype }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let store buf idx value = Store (buf, idx, value)
let load buf idx = Load (buf, idx)

let seq = function
  | [ s ] -> s
  | ss -> Seq ss

let for_ ?(kind = Serial) name extent (f : expr -> stmt) : stmt =
  let x = var name in
  For { for_var = x; extent; kind; body = f (Evar x) }

let if_ cond then_ = If (cond, then_, None)

let alloc buf body = Alloc (buf, body)

(* Stage I sparse iteration.  [kinds] is the paper's "SRS"-style string:
   'S' for spatial, 'R' for reduction, one character per axis.  [init] builds
   the paper's "with init():" statement and receives the same iteration
   variables as the body. *)
let sp_iter ~name ~axes ~kinds ?(init : (expr list -> stmt) option)
    (f : expr list -> stmt) : stmt =
  let n_axes = List.length axes in
  if Stdlib.( <> ) (String.length kinds) n_axes then
    invalid_arg "sp_iter: kinds string length must match number of axes";
  let parse = function
    | 'S' -> Spatial
    | 'R' -> Reduce
    | c -> invalid_arg (Printf.sprintf "sp_iter: bad iterator kind %c" c)
  in
  let kinds = List.init n_axes (fun i -> parse kinds.[i]) in
  let vars =
    List.map
      (fun (a : axis) -> var ~dtype:a.ax_idtype (String.lowercase_ascii a.ax_name))
      axes
  in
  let var_exprs = List.map (fun x -> Evar x) vars in
  Sp_iter_stmt
    { sp_name = name; sp_axes = axes; sp_kinds = kinds; sp_vars = vars;
      sp_fused = List.init n_axes (fun i -> [ i ]);
      sp_init = Option.map (fun g -> g var_exprs) init;
      sp_body = f var_exprs }

let func ?(domains = []) name params body : func =
  { fn_name = name; fn_params = params; fn_body = body; fn_domains = domains }
