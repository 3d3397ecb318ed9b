(* Architectural cost model: walks a Stage III function at warp granularity,
   evaluating integer control flow against the real buffer contents (indptr /
   indices arrays), classifying every memory access by its per-lane stride
   (coalesced / strided / gather / broadcast), driving per-SM L1 and a shared
   L2 cache simulator, and accounting CUDA-core, tensor-core and shared-memory
   throughput.

   Key modeling decisions (see DESIGN.md S2):
   - threadIdx.x is symbolic within a warp: every integer expression carries
     its value at lane 0 plus its lane dependence (uniform / linear with known
     coefficient / divergent).  Linear addresses become strided cache runs;
     divergent addresses become gathers of one transaction per active lane.
   - Loops with lane-divergent trip counts (e.g. row-per-thread CSR kernels)
     execute max-over-lanes iterations with per-step active lane counts,
     which is exactly the SIMT serialization that causes the load-imbalance
     the paper's hyb format removes.
   - Long uniform serial loops are summarized: two probe iterations establish
     the per-request stride, then the whole loop is charged as strided cache
     runs.  Loops that cannot be summarized are sampled.
   - Blocks are assigned to SMs round-robin; kernel time is the maximum over
     SMs of per-resource throughput times, bounded below by the longest
     single-block critical path and the device-wide DRAM/L2 time.

   Each run first resolves the function once (DESIGN.md S3j): every variable
   and buffer gets a dense slot, every load its arity and row-major strides,
   every loop its kind and whether it holds an MMA.  The walk then reads and
   binds slots in arrays, returns an expression's lane-0 value as an int and
   leaves its lane dependence in the walker state, so it neither hashes nor
   allocates per IR node.  The walk state lives for one run only. *)

open Tir
open Tir.Ir

exception Cost_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Cost_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lane dependence                                                     *)
(* ------------------------------------------------------------------ *)

(* An expression's lane dependence is an int: [uniform] (the same value on
   every lane), [divergent] (unknown per-lane variation, e.g. a gather), or
   else the coefficient c of a value v0 + c * lane.  A linear value whose
   coefficient cancels to 0 is uniform, so 0 is never a coefficient. *)
let uniform = 0
let divergent = min_int

(* The dependence of a variable slot that holds no binding. *)
let unbound = max_int

let dep_add a b = if a = divergent || b = divergent then divergent else a + b
let dep_neg d = if d = divergent then d else -d
let dep_mul_const d k = if d = divergent then d else d * k

(* ------------------------------------------------------------------ *)
(* Memory requests                                                     *)
(* ------------------------------------------------------------------ *)

type space = Sp_global | Sp_shared | Sp_register

(* A request recorded by a probe walk instead of being charged. *)
type req = {
  rq_space : space;
  rq_base : int;        (* byte address at lane 0 *)
  rq_lane_stride : int; (* byte stride per lane; 0 = broadcast *)
  rq_gather : bool;     (* divergent address: one transaction per lane *)
  rq_bytes : int;       (* bytes per lane *)
  rq_store : bool;
}

(* ------------------------------------------------------------------ *)
(* Accumulators                                                        *)
(* ------------------------------------------------------------------ *)

type wacc = {
  mutable a_insts : float;     (* warp instructions *)
  mutable a_l1 : float;        (* transactions that hit in L1 *)
  mutable a_l2 : float;        (* transactions served by L2 *)
  mutable a_dram : float;      (* transactions served by DRAM *)
  mutable a_dram_bytes : float;
  mutable a_smem : float;      (* shared-memory transactions *)
  mutable a_tc : float;        (* tensor-core MAC operations *)
  mutable a_flops : float;
}

let wacc_zero () =
  { a_insts = 0.; a_l1 = 0.; a_l2 = 0.; a_dram = 0.; a_dram_bytes = 0.;
    a_smem = 0.; a_tc = 0.; a_flops = 0. }

let wacc_add (dst : wacc) (src : wacc) ~(scale : float) =
  dst.a_insts <- dst.a_insts +. (scale *. src.a_insts);
  dst.a_l1 <- dst.a_l1 +. (scale *. src.a_l1);
  dst.a_l2 <- dst.a_l2 +. (scale *. src.a_l2);
  dst.a_dram <- dst.a_dram +. (scale *. src.a_dram);
  dst.a_dram_bytes <- dst.a_dram_bytes +. (scale *. src.a_dram_bytes);
  dst.a_smem <- dst.a_smem +. (scale *. src.a_smem);
  dst.a_tc <- dst.a_tc +. (scale *. src.a_tc);
  dst.a_flops <- dst.a_flops +. (scale *. src.a_flops)

(* Warp critical-path cycles (latency view): bounds the kernel from below
   when few blocks exist or one warp carries a hub row.  Memory latencies are
   divided by a memory-level-parallelism factor — a warp keeps several loads
   in flight — so the critical path reflects pipelined, not serialized,
   accesses. *)
let mlp_factor = 4.0

let wacc_latency (spec : Spec.t) (w : wacc) : float =
  w.a_insts
  +. ((w.a_l1 *. spec.l1_txn_cycles) /. mlp_factor)
  +. ((w.a_l2 *. spec.l2_txn_cycles) /. mlp_factor)
  +. ((w.a_dram *. spec.dram_txn_cycles) /. mlp_factor)
  +. (w.a_smem *. spec.smem_txn_cycles /. mlp_factor)
  +. (w.a_tc /. 64.0)

(* per-SM totals for throughput aggregation *)
type sm_tot = {
  mutable s_insts : float;
  mutable s_l1 : float;
  mutable s_smem : float;
  mutable s_tc : float;
  mutable s_blocks : int;
}

(* ------------------------------------------------------------------ *)
(* Resolved IR                                                         *)
(* ------------------------------------------------------------------ *)

(* The walker's private form of a Stage III function: variables and
   buffers are slots, casts are dropped, and everything that does not
   depend on the walk is computed once. *)
type rexpr =
  | R_int of int               (* integer and boolean immediates *)
  | R_float of float           (* walks as 0; a lane re-evaluation truncates *)
  | R_var of int
  | R_load of load
  | R_binop of binop * rexpr * rexpr
  | R_unop of unop * rexpr
  | R_select of rexpr * rexpr * rexpr
  | R_bsearch of bsearch

and load = {
  ld_buf : buffer;
  ld_slot : int;
  ld_idx : rexpr array;
  ld_addr : addressing;
  ld_tensor : Tensor.t option;  (* the bound contents, for parameters *)
  ld_int : bool;                (* integer element type: the value matters *)
}

(* How a load's indices become a flat element offset. *)
and addressing =
  | Flat                  (* one index into a tensor of rank <> 1 *)
  | Strided of int array  (* row-major strides, one per index *)
  | Mismatch              (* index count differs from the shape's rank *)

and bsearch = {
  bs_ir : buffer;
  bs_slot : int;
  bs_tensor : Tensor.t option;
  bs_lo_r : rexpr;
  bs_hi_r : rexpr;
  bs_v_r : rexpr;
  bs_upper : bool;
}

type loop_kind = L_thread_x | L_thread_y | L_thread_z | L_parallel
               | L_vectorized | L_serial | L_unrolled

type rstmt =
  | S_store of load * rexpr
  | S_seq of rstmt array
  | S_eval of rexpr
  | S_let of int * rexpr * rstmt
  | S_if of rexpr * rstmt * rstmt option
  | S_block of block_r
  | S_alloc of alloc
  | S_mma of mma_r
  | S_loop of loop
  | S_error of string  (* raised when the walk reaches it *)

and block_r = {
  bk_slots : int array;
  bk_binds : rexpr array;
  bk_reduce : bool array;
  bk_v0 : int array;   (* scratch: the binds' values before binding *)
  bk_dep : int array;
  bk_init : rstmt option;
  bk_body : rstmt;
}

and alloc = {
  al_buf : buffer;
  al_slot : int;
  al_dims : dim array;
  al_body : rstmt;
}

and dim = Dim_const of int | Dim_expr of rexpr

and mma_r = { mm : mma; mm_a : operand; mm_b : operand; mm_c : operand }

and operand = {
  op_ir : buffer;
  op_slot : int;
  op_tensor : Tensor.t option;
  op_origin_r : rexpr array;
  op_ld_r : rexpr;
}

and loop = {
  lp_slot : int;
  lp_extent : rexpr;
  lp_kind : loop_kind;
  lp_mma : bool;  (* body holds an MMA: never summarized *)
  lp_body : rstmt;
}

(* One top-level statement of the function: a kernel launch. *)
type kernel = {
  k_dims : (int * int) array;  (* grid var slots and extents, innermost first *)
  k_total : int;
  k_step : int;                (* grid sampling stride *)
  k_body : rstmt;
}

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)
(* ------------------------------------------------------------------ *)

type resolver = {
  var_slots : (int, int) Hashtbl.t;  (* vid -> slot *)
  mutable var_names : string list;   (* by slot, reversed *)
  buf_slots : (int, int) Hashtbl.t;  (* buf_id -> slot *)
  tensors : (int, Tensor.t) Hashtbl.t;  (* buffer slot -> bound tensor *)
}

let var_slot (r : resolver) (x : var) : int =
  match Hashtbl.find_opt r.var_slots x.vid with
  | Some s -> s
  | None ->
      let s = Hashtbl.length r.var_slots in
      Hashtbl.add r.var_slots x.vid s;
      r.var_names <- x.vname :: r.var_names;
      s

let buf_slot (r : resolver) (b : buffer) : int =
  match Hashtbl.find_opt r.buf_slots b.buf_id with
  | Some s -> s
  | None ->
      let s = Hashtbl.length r.buf_slots in
      Hashtbl.add r.buf_slots b.buf_id s;
      s

(* MMA statements charge tensor-core work directly (outside the probe
   machinery), so loops containing them must not be summarized. *)
let contains_mma (st : stmt) : bool =
  let found = ref false in
  Analysis.iter_stmt (function Mma_sync _ -> found := true | _ -> ()) st;
  !found

let strides (shape : int list) : int array =
  let rec go = function
    | [] -> []
    | _ :: rest -> List.fold_left ( * ) 1 rest :: go rest
  in
  Array.of_list (go shape)

let rec resolve_expr (r : resolver) (e : expr) : rexpr =
  match e with
  | Int_imm n -> R_int n
  | Float_imm x -> R_float x
  | Bool_imm b -> R_int (if b then 1 else 0)
  | Evar x -> R_var (var_slot r x)
  | Load (b, idx) -> R_load (resolve_load r b idx)
  | Binop (op, a, b) -> R_binop (op, resolve_expr r a, resolve_expr r b)
  | Unop (op, a) -> R_unop (op, resolve_expr r a)
  | Select (c, t, f) ->
      R_select (resolve_expr r c, resolve_expr r t, resolve_expr r f)
  | Cast (_, a) -> resolve_expr r a
  | Bsearch bs ->
      let slot = buf_slot r bs.bs_buf in
      R_bsearch
        { bs_ir = bs.bs_buf; bs_slot = slot;
          bs_tensor = Hashtbl.find_opt r.tensors slot;
          bs_lo_r = resolve_expr r bs.bs_lo; bs_hi_r = resolve_expr r bs.bs_hi;
          bs_v_r = resolve_expr r bs.bs_v; bs_upper = bs.bs_ub }

and resolve_load (r : resolver) (b : buffer) (idx : expr list) : load =
  let slot = buf_slot r b in
  let tensor = Hashtbl.find_opt r.tensors slot in
  let arity = List.length idx in
  let addr =
    match tensor with
    | Some t when arity = 1 && Array.length t.Tensor.shape <> 1 -> Flat
    | _ ->
        let shape =
          match tensor with
          | Some t -> Array.to_list t.Tensor.shape
          | None ->
              List.map
                (fun e ->
                  match Analysis.const_int_opt e with Some n -> n | None -> 1)
                b.buf_shape
        in
        if List.length shape = arity then Strided (strides shape) else Mismatch
  in
  { ld_buf = b; ld_slot = slot;
    ld_idx = Array.of_list (List.map (resolve_expr r) idx);
    ld_addr = addr; ld_tensor = tensor; ld_int = Dtype.is_int b.buf_dtype }

let rec resolve_stmt (r : resolver) (st : stmt) : rstmt =
  match st with
  | Store (b, idx, value) -> S_store (resolve_load r b idx, resolve_expr r value)
  | Seq l -> S_seq (Array.of_list (List.map (resolve_stmt r) l))
  | Eval e -> S_eval (resolve_expr r e)
  | Let_stmt (x, value, body) ->
      S_let (var_slot r x, resolve_expr r value, resolve_stmt r body)
  | If (c, t, f) ->
      S_if (resolve_expr r c, resolve_stmt r t, Option.map (resolve_stmt r) f)
  | Block_stmt blk ->
      let iters = Array.of_list blk.blk_iters in
      let n = Array.length iters in
      S_block
        { bk_slots = Array.map (fun bi -> var_slot r bi.bi_var) iters;
          bk_binds = Array.map (fun bi -> resolve_expr r bi.bi_bind) iters;
          bk_reduce = Array.map (fun bi -> bi.bi_kind = Reduce) iters;
          bk_v0 = Array.make n 0;
          bk_dep = Array.make n uniform;
          bk_init = Option.map (resolve_stmt r) blk.blk_init;
          bk_body = resolve_stmt r blk.blk_body }
  | Alloc (b, body) ->
      let dim e =
        match Analysis.const_int_opt e with
        | Some n -> Dim_const n
        | None -> Dim_expr (resolve_expr r e)
      in
      S_alloc
        { al_buf = b; al_slot = buf_slot r b;
          al_dims = Array.of_list (List.map dim b.buf_shape);
          al_body = resolve_stmt r body }
  | Mma_sync m ->
      let operand (o : mma_operand) =
        let slot = buf_slot r o.op_buf in
        { op_ir = o.op_buf; op_slot = slot;
          op_tensor = Hashtbl.find_opt r.tensors slot;
          op_origin_r = Array.of_list (List.map (resolve_expr r) o.op_origin);
          op_ld_r = resolve_expr r o.op_ld }
      in
      S_mma
        { mm = m; mm_a = operand m.mma_a; mm_b = operand m.mma_b;
          mm_c = operand m.mma_c }
  | Sp_iter_stmt sp ->
      S_error
        (Printf.sprintf "sparse iteration %s reached the simulator: compile it first"
           sp.sp_name)
  | For { for_var; extent; kind; body } -> (
      let loop kind =
        S_loop
          { lp_slot = var_slot r for_var; lp_extent = resolve_expr r extent;
            lp_kind = kind; lp_mma = contains_mma body;
            lp_body = resolve_stmt r body }
      in
      match kind with
      | Thread_bind (Block_x | Block_y | Block_z) ->
          S_error
            (Printf.sprintf "grid loop %s nested inside a thread block"
               for_var.vname)
      | Thread_bind Thread_x -> loop L_thread_x
      | Thread_bind Thread_y -> loop L_thread_y
      | Thread_bind Thread_z -> loop L_thread_z
      | Parallel -> loop L_parallel
      | Vectorized -> loop L_vectorized
      | Serial -> loop L_serial
      | Unrolled -> loop L_unrolled)

(* Large grids of blocks are sampled: blocks are walked with a stride and
   their work is scaled, which preserves per-SM distribution (ordinals keep
   their original round-robin assignment) while bounding simulation time. *)
let grid_sample_cap = 1024

(* Split a kernel statement into its grid loops (the outermost chain of
   Block_* bound loops with constant extents) and the block body. *)
let resolve_kernel (r : resolver) (st : stmt) : kernel =
  let rec grid_dims st acc =
    match st with
    | For { for_var; extent; kind = Thread_bind (Block_x | Block_y | Block_z); body }
      -> (
        match Analysis.const_int_opt extent with
        | Some n -> grid_dims body ((for_var, n) :: acc)
        | None -> (acc, st))
    | _ -> (acc, st)
  in
  let dims, body = grid_dims st [] in
  let total = List.fold_left (fun a (_, n) -> a * n) 1 dims in
  (* Sampling is only sound when every block does the same work AND the
     address stream is block-local: a data-dependent loop extent (indptr
     read) means per-block imbalance, and an indirect (gathered) address
     means cross-block cache reuse — both must be walked exactly. *)
  let uniform_blocks =
    let ok = ref true in
    let gather_free (e : Ir.expr) =
      match e with
      | Load (_, idx) ->
          List.iter
            (fun i ->
              Analysis.iter_expr
                (function Load _ | Bsearch _ -> ok := false | _ -> ())
                i)
            idx
      | _ -> ()
    in
    Analysis.iter_stmt ~enter_expr:gather_free
      (function
        | For { extent; _ } ->
            Analysis.iter_expr
              (function Load _ | Bsearch _ -> ok := false | _ -> ())
              extent
        | _ -> ())
      body;
    !ok
  in
  { k_dims = Array.of_list (List.map (fun (x, n) -> (var_slot r x, n)) dims);
    k_total = total;
    k_step = (if uniform_blocks then max 1 (total / grid_sample_cap) else 1);
    k_body = resolve_stmt r body }

(* ------------------------------------------------------------------ *)
(* Walker state                                                        *)
(* ------------------------------------------------------------------ *)

type buf_info = {
  bi_base : int;   (* simulated base byte address *)
  bi_space : space;
  bi_dsize : int;
}

let unregistered = { bi_base = 0; bi_space = Sp_register; bi_dsize = 0 }

(* Float counters kept apart from [ctx], whose mixed record would box them
   on every update. *)
type tally = {
  mutable flops : float;      (* kernel-wide flop counter *)
  mutable probe_ops : float;  (* ops of the probe walk in progress *)
  mutable probed_ops : float; (* ops of the last finished probe walk *)
}

type ctx = {
  spec : Spec.t;
  l2 : Cache.t;
  l1s : Cache.t array;                   (* one per SM *)
  mutable sm : int;                      (* SM executing the current block *)
  (* variable slots: a binding is a lane-0 value, a lane dependence
     ([unbound] when none) and, when the dependence is not uniform, the
     definition a per-lane re-evaluation walks *)
  v0 : int array;
  dep : int array;
  def : rexpr array;
  names : string array;
  infos : buf_info array;                (* by buffer slot *)
  mutable lane : int;                    (* slot of the threadIdx.x loop var *)
  mutable warp_base : int;
  mutable active : int;                  (* active lanes in current warp *)
  mutable acc : wacc;                    (* current warp accumulator *)
  mutable rdep : int;                    (* lane dependence of the last walked expression *)
  mutable probing : bool;                (* record requests/ops instead of charging *)
  mutable probe_reqs : req list;         (* recorded requests, newest first *)
  tally : tally;
  mutable next_addr : int;               (* simulated allocator *)
  mutable next_smem : int;
  (* inside address computations: arithmetic is strength-reduced by real
     code generators, so it does not charge instructions *)
  mutable in_index : bool;
}

let no_lane = -1

let register (ctx : ctx) (slot : int) (b : buffer) ~(numel : int) : unit =
  if ctx.infos.(slot) == unregistered then begin
    let dsize = Dtype.size_bytes b.buf_dtype in
    let bytes = numel * dsize in
    let space, base =
      match b.buf_scope with
      | Global ->
          let a = ctx.next_addr in
          ctx.next_addr <- a + ((bytes + 255) / 256 * 256) + 256;
          (Sp_global, a)
      | Shared ->
          let a = ctx.next_smem in
          ctx.next_smem <- a + bytes;
          (Sp_shared, a)
      | Local -> (Sp_register, 0)
    in
    ctx.infos.(slot) <- { bi_base = base; bi_space = space; bi_dsize = dsize }
  end

let buf_info (ctx : ctx) (slot : int) (b : buffer) : buf_info =
  let info = ctx.infos.(slot) in
  if info == unregistered then
    err "buffer %s not registered with the simulator" b.buf_name;
  info

(* ------------------------------------------------------------------ *)
(* Charging                                                            *)
(* ------------------------------------------------------------------ *)

let charge_ops (ctx : ctx) (n : float) : unit =
  if not ctx.in_index then
    if ctx.probing then ctx.tally.probe_ops <- ctx.tally.probe_ops +. n
    else ctx.acc.a_insts <- ctx.acc.a_insts +. n

let charge_flops (ctx : ctx) (n : float) : unit =
  if not ctx.probing then begin
    ctx.acc.a_flops <- ctx.acc.a_flops +. n;
    ctx.tally.flops <- ctx.tally.flops +. n
  end

(* Charge a global-memory cache run of [txn]-fold transactions; splits hits
   among L1/L2/DRAM.  A zero-stride run re-issues the same transaction
   [count] times: the cache sees the line once, but every repeat is a
   (hitting) transaction. *)
let charge_global_run (ctx : ctx) ~base ~stride ~count ~bytes ~(txn : int) :
    unit =
  let l1 = ctx.l1s.(ctx.sm) and l2 = ctx.l2 and acc = ctx.acc in
  let f = float_of_int in
  let txn_mult = f txn in
  let h0 = l1.hits and m0 = l1.misses in
  Cache.run l1 ~base ~stride ~count ~bytes;
  let h1 = l1.hits - h0 and m1 = l1.misses - m0 in
  if stride = 0 && count > 1 then
    acc.a_l1 <- acc.a_l1 +. (f (count - 1) *. txn_mult);
  let h0 = l2.hits and m0 = l2.misses in
  if m1 <> 0 then Cache.run l2 ~base ~stride ~count ~bytes;
  let h2 = l2.hits - h0 and m2 = l2.misses - m0 in
  let l2_rate = if h2 + m2 = 0 then 0.0 else f h2 /. f (h2 + m2) in
  let to_l2 = f m1 *. l2_rate and to_dram = f m1 *. (1.0 -. l2_rate) in
  acc.a_l1 <- acc.a_l1 +. (f h1 *. txn_mult);
  acc.a_l2 <- acc.a_l2 +. (to_l2 *. txn_mult);
  acc.a_dram <- acc.a_dram +. (to_dram *. txn_mult);
  acc.a_dram_bytes <-
    acc.a_dram_bytes +. (to_dram *. txn_mult *. f ctx.spec.l2_line)

(* Shared-memory transactions of one warp request: bank conflicts ignored,
   one transaction per 128B. *)
let smem_txns (ctx : ctx) ~gather ~lane_stride ~bytes : float =
  if gather then float_of_int ctx.active
  else if lane_stride = 0 then 1.0
  else Float.of_int (max 1 ((ctx.active * max bytes lane_stride + 127) / 128))

(* One warp request: recorded while probing, charged otherwise. *)
let charge (ctx : ctx) ~space ~base ~lane_stride ~gather ~bytes ~store : unit =
  if ctx.probing then
    ctx.probe_reqs <-
      { rq_space = space; rq_base = base; rq_lane_stride = lane_stride;
        rq_gather = gather; rq_bytes = bytes; rq_store = store }
      :: ctx.probe_reqs
  else
    match space with
    | Sp_register -> ()
    | Sp_shared ->
        ctx.acc.a_smem <- ctx.acc.a_smem +. smem_txns ctx ~gather ~lane_stride ~bytes
    | Sp_global ->
        if gather then
          (* probe one lane's line; assume similar fate for other lanes *)
          charge_global_run ctx ~base ~stride:0 ~count:1 ~bytes ~txn:ctx.active
        else if lane_stride = 0 then
          charge_global_run ctx ~base ~stride:0 ~count:1 ~bytes ~txn:1
        else
          charge_global_run ctx ~base ~stride:lane_stride ~count:ctx.active
            ~bytes ~txn:1

(* ------------------------------------------------------------------ *)
(* Integer evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let eval_binop_int op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | Floor_div ->
      if y = 0 then 0
      else if x >= 0 then x / y
      else -(((-x) + y - 1) / y)
  | Floor_mod ->
      if y = 0 then 0
      else
        let r = x mod y in
        if r >= 0 then r else r + y
  | Min -> min x y
  | Max -> max x y
  | Eq -> if x = y then 1 else 0
  | Ne -> if x <> y then 1 else 0
  | Lt -> if x < y then 1 else 0
  | Le -> if x <= y then 1 else 0
  | Gt -> if x > y then 1 else 0
  | Ge -> if x >= y then 1 else 0
  | And -> if x <> 0 && y <> 0 then 1 else 0
  | Or -> if x <> 0 || y <> 0 then 1 else 0

let bsearch_data (t : Tensor.t) ~lo ~hi ~v ~ub : int =
  let n = Tensor.numel t in
  let lo = max 0 lo and hi = min n hi in
  if ub then begin
    let rec go lo' hi' =
      if lo' + 1 >= hi' then lo'
      else
        let mid = (lo' + hi') / 2 in
        if Tensor.get_i t mid <= v then go mid hi' else go lo' mid
    in
    if lo >= hi then lo else go lo hi
  end
  else
    let rec go lo' hi' =
      if lo' >= hi' then hi
      else
        let mid = (lo' + hi') / 2 in
        let x = Tensor.get_i t mid in
        if x = v then mid else if x < v then go (mid + 1) hi' else go lo' mid
    in
    go lo hi

(* Lane dependence of [x op y] from the operands' values and dependences. *)
let binop_dep op x xd y yd : int =
  let both_uniform = xd = uniform && yd = uniform in
  match op with
  | Add -> dep_add xd yd
  | Sub -> dep_add xd (dep_neg yd)
  | Mul ->
      if both_uniform then uniform
      else if yd = uniform && xd <> divergent then dep_mul_const xd y
      else if xd = uniform && yd <> divergent then dep_mul_const yd x
      else divergent
  | Floor_div | Floor_mod ->
      if both_uniform then uniform
      else if
        yd = uniform && xd <> divergent && y > 0 && xd > 0 && xd * 31 < y
        && (x mod y) + (xd * 31) < y
      then
        (* no wraparound within the warp: the whole warp lands in the same
           quotient, and the remainder stays linear *)
        if op = Floor_div then uniform else xd
      else divergent
  | Min | Max | Div | Eq | Ne | Lt | Le | Gt | Ge | And | Or ->
      if both_uniform then uniform else divergent

(* Pure re-evaluation of [e] for a specific lane (no charging). *)
let rec eval_lane (ctx : ctx) (lane : int) (e : rexpr) : int =
  match e with
  | R_int n -> n
  | R_float x -> int_of_float x
  | R_var s ->
      if s = ctx.lane then ctx.warp_base + lane
      else begin
        let d = ctx.dep.(s) in
        if d = unbound then err "cost walker: unbound variable %s" ctx.names.(s);
        if d <> uniform then eval_lane ctx lane ctx.def.(s) else ctx.v0.(s)
      end
  | R_load l -> (
      ignore (buf_info ctx l.ld_slot l.ld_buf);
      match l.ld_tensor with
      | None -> 0
      | Some t ->
          let flat = lane_offset ctx lane l t in
          if flat < 0 || flat >= Tensor.numel t then 0 else Tensor.get_i t flat)
  | R_binop (op, a, b) ->
      let y = eval_lane ctx lane b in
      eval_binop_int op (eval_lane ctx lane a) y
  | R_unop (Neg, a) -> -eval_lane ctx lane a
  | R_unop (Not, a) -> if eval_lane ctx lane a = 0 then 1 else 0
  | R_unop ((Exp | Sqrt | Log | Abs), a) -> abs (eval_lane ctx lane a)
  | R_select (c, t, f) ->
      if eval_lane ctx lane c <> 0 then eval_lane ctx lane t else eval_lane ctx lane f
  | R_bsearch bs -> (
      ignore (buf_info ctx bs.bs_slot bs.bs_ir);
      match bs.bs_tensor with
      | None -> 0
      | Some t ->
          let lo = eval_lane ctx lane bs.bs_lo_r in
          let hi = eval_lane ctx lane bs.bs_hi_r in
          let v = eval_lane ctx lane bs.bs_v_r in
          bsearch_data t ~lo ~hi ~v ~ub:bs.bs_upper)

(* Flat offset of a load into its bound tensor for one lane; -1 when an
   index is out of its dimension's bounds. *)
and lane_offset (ctx : ctx) (lane : int) (l : load) (t : Tensor.t) : int =
  match l.ld_addr with
  | Flat -> eval_lane ctx lane l.ld_idx.(0)
  | Strided st ->
      let off = ref 0 and ok = ref true in
      for d = 0 to Array.length st - 1 do
        let i = eval_lane ctx lane l.ld_idx.(d) in
        if i < 0 || i >= t.Tensor.shape.(d) then ok := false;
        off := !off + (i * st.(d))
      done;
      if !ok then !off else -1
  | Mismatch ->
      (* the index count differs from the rank: check what bounds there
         are and let [Tensor.flat_index] report the mismatch *)
      let arr = Array.map (eval_lane ctx lane) l.ld_idx in
      let ok = ref true in
      Array.iteri
        (fun d i -> if i < 0 || i >= t.Tensor.shape.(d) then ok := false)
        arr;
      if not !ok then -1 else Tensor.flat_index t arr

(* ------------------------------------------------------------------ *)
(* Charging walk                                                       *)
(* ------------------------------------------------------------------ *)

(* Evaluates integer structure at lane 0, returning the value and leaving
   its lane dependence in [ctx.rdep], while charging instruction and memory
   costs.  Operands are walked left to right: the cache state depends on
   the order of accesses. *)
let rec walk_expr (ctx : ctx) (e : rexpr) : int =
  match e with
  | R_int n -> ctx.rdep <- uniform; n
  | R_float _ -> ctx.rdep <- uniform; 0
  | R_var s ->
      if s = ctx.lane then begin
        ctx.rdep <- 1;
        ctx.warp_base
      end
      else begin
        let d = ctx.dep.(s) in
        if d = unbound then err "cost walker: unbound variable %s" ctx.names.(s);
        ctx.rdep <- d;
        ctx.v0.(s)
      end
  | R_load l -> walk_load ctx l ~store:false
  | R_binop (op, a, b) ->
      let x = walk_expr ctx a in
      let xd = ctx.rdep in
      let y = walk_expr ctx b in
      let yd = ctx.rdep in
      charge_ops ctx 1.0;
      (match op with
      | Add | Sub | Mul | Div -> charge_flops ctx 1.0
      | _ -> ());
      ctx.rdep <- binop_dep op x xd y yd;
      eval_binop_int op x y
  | R_unop (op, a) ->
      let x = walk_expr ctx a in
      charge_ops ctx 1.0;
      if op = Exp || op = Sqrt || op = Log then charge_ops ctx 3.0;
      if ctx.rdep <> uniform then ctx.rdep <- divergent;
      (match op with Neg -> -x | Not -> if x = 0 then 1 else 0 | _ -> x)
  | R_select (c, t, f) ->
      let cv = walk_expr ctx c in
      charge_ops ctx 1.0;
      if ctx.rdep = uniform then
        if cv <> 0 then walk_expr ctx t else walk_expr ctx f
      else begin
        (* divergent select: both sides execute *)
        let tv = walk_expr ctx t in
        let fv = walk_expr ctx f in
        ctx.rdep <- divergent;
        if cv <> 0 then tv else fv
      end
  | R_bsearch bs ->
      let lo = walk_expr ctx bs.bs_lo_r in
      let lo_d = ctx.rdep in
      let hi = walk_expr ctx bs.bs_hi_r in
      let hi_d = ctx.rdep in
      let v = walk_expr ctx bs.bs_v_r in
      let args_uniform = lo_d = uniform && hi_d = uniform && ctx.rdep = uniform in
      let info = buf_info ctx bs.bs_slot bs.bs_ir in
      let result =
        match bs.bs_tensor with
        | Some t -> bsearch_data t ~lo ~hi ~v ~ub:bs.bs_upper
        | None -> lo
      in
      let steps = ceil (log (float_of_int (max 2 (hi - lo))) /. log 2.0) in
      charge_ops ctx (4.0 *. steps);
      (* each step reads one element, effectively a gather *)
      let mid = (lo + max lo hi) / 2 in
      for _ = 1 to int_of_float steps do
        charge ctx ~space:info.bi_space ~base:(info.bi_base + (mid * info.bi_dsize))
          ~lane_stride:0 ~gather:(not args_uniform) ~bytes:info.bi_dsize
          ~store:false
      done;
      ctx.rdep <- (if args_uniform then uniform else divergent);
      result

and walk_load (ctx : ctx) (l : load) ~(store : bool) : int =
  let info = buf_info ctx l.ld_slot l.ld_buf in
  let saved_in_index = ctx.in_index in
  ctx.in_index <- true;
  (* flat element offset at lane 0 + lane dependence *)
  let flat0 = ref 0 and dep = ref uniform in
  (match l.ld_addr with
  | Flat ->
      flat0 := walk_expr ctx l.ld_idx.(0);
      dep := ctx.rdep
  | Strided st ->
      for d = 0 to Array.length st - 1 do
        let i = walk_expr ctx l.ld_idx.(d) in
        flat0 := !flat0 + (i * st.(d));
        dep := dep_add !dep (dep_mul_const ctx.rdep st.(d))
      done
  | Mismatch ->
      for d = 0 to Array.length l.ld_idx - 1 do
        ignore (walk_expr ctx l.ld_idx.(d))
      done;
      invalid_arg "Cost: index count differs from the buffer's rank");
  ctx.in_index <- saved_in_index;
  charge_ops ctx 1.0;
  let dep = !dep and flat = !flat0 in
  charge ctx ~space:info.bi_space ~base:(info.bi_base + (flat * info.bi_dsize))
    ~lane_stride:(if dep = divergent then 0 else dep * info.bi_dsize)
    ~gather:(dep = divergent) ~bytes:info.bi_dsize ~store;
  ctx.rdep <- (if dep = uniform then uniform else divergent);
  (* value: only integer buffers matter for control flow *)
  match l.ld_tensor with
  | Some t when l.ld_int ->
      if flat >= 0 && flat < Tensor.numel t then Tensor.get_i t flat else 0
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Statement walker                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-block walker state. *)
type blk_state = {
  warps : (int * int * int, wacc) Hashtbl.t;
  mutable cur_ty : int;
  mutable cur_tz : int;
  mutable smem_high : int;
}

let summarize_min = 8
let divergent_cap = 256
let fallback_cap = 64

let warp_acc (bs : blk_state) (key : int * int * int) : wacc =
  match Hashtbl.find_opt bs.warps key with
  | Some a -> a
  | None ->
      let a = wacc_zero () in
      Hashtbl.replace bs.warps key a;
      a

let req_compatible (a : req) (b : req) : bool =
  a.rq_space = b.rq_space && a.rq_gather = b.rq_gather && a.rq_bytes = b.rq_bytes
  && a.rq_store = b.rq_store
  && a.rq_lane_stride = b.rq_lane_stride

let charge_req (ctx : ctx) (r : req) ~(bytes : int) : unit =
  charge ctx ~space:r.rq_space ~base:r.rq_base ~lane_stride:r.rq_lane_stride
    ~gather:r.rq_gather ~bytes ~store:r.rq_store

(* A loop variable binding is a uniform value with no definition, so
   binding one writes the value and the dependence and leaves the
   definition cell alone; the caller restores both afterwards. *)
let set_uniform (ctx : ctx) (slot : int) (v : int) : unit =
  ctx.v0.(slot) <- v;
  ctx.dep.(slot) <- uniform

let rec walk_stmt (ctx : ctx) (bs : blk_state) (st : rstmt) : unit =
  match st with
  | S_store (l, value) ->
      ignore (walk_expr ctx value);
      ignore (walk_load ctx l ~store:true)
  | S_seq a ->
      for k = 0 to Array.length a - 1 do
        walk_stmt ctx bs a.(k)
      done
  | S_eval e -> ignore (walk_expr ctx e)
  | S_let (s, value, body) ->
      let v = walk_expr ctx value in
      let d = ctx.rdep in
      let o0 = ctx.v0.(s) and od = ctx.dep.(s) and odef = ctx.def.(s) in
      ctx.v0.(s) <- v;
      ctx.dep.(s) <- d;
      ctx.def.(s) <- value;
      walk_stmt ctx bs body;
      ctx.v0.(s) <- o0;
      ctx.dep.(s) <- od;
      ctx.def.(s) <- odef
  | S_if (c, t, f) -> (
      let cv = walk_expr ctx c in
      charge_ops ctx 1.0;
      if cv <> 0 then walk_stmt ctx bs t
      else match f with Some f -> walk_stmt ctx bs f | None -> ())
  | S_block b ->
      for k = 0 to Array.length b.bk_slots - 1 do
        b.bk_v0.(k) <- walk_expr ctx b.bk_binds.(k);
        b.bk_dep.(k) <- ctx.rdep
      done;
      bind_iters ctx bs b 0
  | S_alloc a ->
      let numel = ref 1 in
      for k = 0 to Array.length a.al_dims - 1 do
        match a.al_dims.(k) with
        | Dim_const n -> numel := !numel * n
        | Dim_expr e -> numel := !numel * max 1 (walk_expr ctx e)
      done;
      register ctx a.al_slot a.al_buf ~numel:!numel;
      if a.al_buf.buf_scope = Shared then
        bs.smem_high <- max bs.smem_high ctx.next_smem;
      walk_stmt ctx bs a.al_body
  | S_mma m -> walk_mma ctx m
  | S_error msg -> raise (Cost_error msg)
  | S_loop l -> walk_loop ctx bs l

(* Bind a block's iterators one by one (their values are already walked),
   then run the init at the reduction's first point and the body. *)
and bind_iters (ctx : ctx) (bs : blk_state) (b : block_r) (k : int) : unit =
  if k < Array.length b.bk_slots then begin
    let s = b.bk_slots.(k) in
    let o0 = ctx.v0.(s) and od = ctx.dep.(s) and odef = ctx.def.(s) in
    ctx.v0.(s) <- b.bk_v0.(k);
    ctx.dep.(s) <- b.bk_dep.(k);
    ctx.def.(s) <- b.bk_binds.(k);
    bind_iters ctx bs b (k + 1);
    ctx.v0.(s) <- o0;
    ctx.dep.(s) <- od;
    ctx.def.(s) <- odef
  end
  else begin
    let at_init = ref true in
    for j = 0 to k - 1 do
      if b.bk_reduce.(j) && b.bk_v0.(j) <> 0 then at_init := false
    done;
    (match b.bk_init with
    | Some init when !at_init -> walk_stmt ctx bs init
    | _ -> ());
    walk_stmt ctx bs b.bk_body
  end

and walk_loop (ctx : ctx) (bs : blk_state) (l : loop) : unit =
  let slot = l.lp_slot in
  let o0 = ctx.v0.(slot) and od = ctx.dep.(slot) in
  (match l.lp_kind with
  | L_thread_y | L_thread_z ->
      let e = walk_expr ctx l.lp_extent in
      for tv = 0 to max 0 e - 1 do
        if l.lp_kind = L_thread_y then bs.cur_ty <- tv else bs.cur_tz <- tv;
        set_uniform ctx slot tv;
        walk_stmt ctx bs l.lp_body
      done;
      bs.cur_ty <- 0;
      bs.cur_tz <- 0;
      ctx.acc <- warp_acc bs (0, 0, 0)
  | L_thread_x ->
      let e = walk_expr ctx l.lp_extent in
      let total = max 1 e in
      let nw = (total + 31) / 32 in
      let saved_lane = ctx.lane in
      for w = 0 to nw - 1 do
        ctx.lane <- slot;
        ctx.warp_base <- w * 32;
        ctx.active <- min 32 (total - (w * 32));
        ctx.acc <- warp_acc bs (bs.cur_ty, bs.cur_tz, w);
        walk_stmt ctx bs l.lp_body
      done;
      ctx.lane <- saved_lane;
      ctx.warp_base <- 0;
      ctx.active <- 1;
      ctx.acc <- warp_acc bs (bs.cur_ty, bs.cur_tz, 0)
  | L_parallel ->
      (* Cooperative (block-wide) loop: iterations map one-per-thread, so
         32 iterations execute as one warp instruction.  Memory charges
         are already line-granular (strided runs), so only instruction
         and shared-memory counts collapse by the warp width. *)
      let e = walk_expr ctx l.lp_extent in
      let saved = ctx.acc in
      let tmp = wacc_zero () in
      ctx.acc <- tmp;
      walk_serial ctx bs l e ~overhead:0.5;
      ctx.acc <- saved;
      saved.a_insts <- saved.a_insts +. (tmp.a_insts /. 32.0);
      saved.a_smem <- saved.a_smem +. (tmp.a_smem /. 32.0);
      saved.a_l1 <- saved.a_l1 +. tmp.a_l1;
      saved.a_l2 <- saved.a_l2 +. tmp.a_l2;
      saved.a_dram <- saved.a_dram +. tmp.a_dram;
      saved.a_dram_bytes <- saved.a_dram_bytes +. tmp.a_dram_bytes;
      saved.a_tc <- saved.a_tc +. tmp.a_tc;
      saved.a_flops <- saved.a_flops +. tmp.a_flops
  | L_vectorized ->
      (* one wide instruction; memory requests widened *)
      let lanes = max 1 (walk_expr ctx l.lp_extent) in
      let reqs = probe ctx bs l 0 in
      charge_ops ctx ctx.tally.probed_ops;
      List.iter (fun r -> charge_req ctx r ~bytes:(r.rq_bytes * lanes)) reqs
  | L_serial | L_unrolled ->
      let e = walk_expr ctx l.lp_extent in
      if ctx.rdep = uniform then
        walk_serial ctx bs l e
          ~overhead:(if l.lp_kind = L_unrolled then 0.25 else 2.0)
      else walk_divergent ctx bs l);
  ctx.v0.(slot) <- o0;
  ctx.dep.(slot) <- od

(* Walk the body once with the loop variable at [i], recording requests and
   ops instead of charging them.  Returns the requests in issue order and
   leaves the ops in [ctx.tally.probed_ops]. *)
and probe (ctx : ctx) (bs : blk_state) (l : loop) (i : int) : req list =
  let t = ctx.tally in
  let saved_probing = ctx.probing and saved_reqs = ctx.probe_reqs in
  let saved_ops = t.probe_ops in
  ctx.probing <- true;
  ctx.probe_reqs <- [];
  t.probe_ops <- 0.0;
  set_uniform ctx l.lp_slot i;
  walk_stmt ctx bs l.lp_body;
  let reqs = ctx.probe_reqs in
  t.probed_ops <- t.probe_ops;
  ctx.probing <- saved_probing;
  ctx.probe_reqs <- saved_reqs;
  t.probe_ops <- saved_ops;
  List.rev reqs

(* Walk iterations 0, step, ..., (count-1)*step, each with its overhead. *)
and iterate (ctx : ctx) (bs : blk_state) (l : loop) ~overhead ~count ~step :
    unit =
  for k = 0 to count - 1 do
    charge_ops ctx overhead;
    set_uniform ctx l.lp_slot (k * step);
    walk_stmt ctx bs l.lp_body
  done

(* Walk [cap] evenly spaced iterations of an [n]-iteration loop and scale
   what they charge by n / cap. *)
and sample (ctx : ctx) (bs : blk_state) (l : loop) ~overhead ~n ~cap : unit =
  let saved = ctx.acc in
  let tmp = wacc_zero () in
  ctx.acc <- tmp;
  iterate ctx bs l ~overhead ~count:cap ~step:(n / cap);
  ctx.acc <- saved;
  wacc_add saved tmp ~scale:(float_of_int n /. float_of_int cap)

(* Uniform serial loop: summarize via two probes when possible; otherwise
   iterate (sampling long loops). *)
and walk_serial (ctx : ctx) (bs : blk_state) (l : loop) (n : int)
    ~(overhead : float) : unit =
  if n <= 0 then ()
  else if n < summarize_min || l.lp_mma then
    if n <= 4 * fallback_cap then iterate ctx bs l ~overhead ~count:n ~step:1
    else sample ctx bs l ~overhead ~n ~cap:fallback_cap
  else begin
    (* probe iterations 0 and 1 *)
    let r0 = probe ctx bs l 0 in
    let o0 = ctx.tally.probed_ops in
    let r1 = probe ctx bs l 1 in
    let o1 = ctx.tally.probed_ops in
    let compatible =
      List.length r0 = List.length r1
      && List.for_all2 req_compatible r0 r1
      && Float.abs (o0 -. o1) < 0.5
    in
    if compatible then begin
      charge_ops ctx ((o0 +. overhead) *. float_of_int n);
      List.iter2
        (fun (a : req) (b : req) ->
          let iter_stride = b.rq_base - a.rq_base in
          match a.rq_space with
          | Sp_register -> ()
          | Sp_shared ->
              let per_iter =
                smem_txns ctx ~gather:a.rq_gather ~lane_stride:a.rq_lane_stride
                  ~bytes:a.rq_bytes
              in
              ctx.acc.a_smem <- ctx.acc.a_smem +. (per_iter *. float_of_int n)
          | Sp_global ->
              if a.rq_gather then
                charge_global_run ctx ~base:a.rq_base ~stride:iter_stride
                  ~count:n ~bytes:a.rq_bytes ~txn:ctx.active
              else if a.rq_lane_stride = 0 then
                charge_global_run ctx ~base:a.rq_base ~stride:iter_stride
                  ~count:n ~bytes:a.rq_bytes ~txn:1
              else
                (* warp footprint per iteration *)
                charge_global_run ctx ~base:a.rq_base ~stride:iter_stride
                  ~count:n
                  ~bytes:(ctx.active * a.rq_lane_stride)
                  ~txn:1)
        r0 r1
    end
    else if n <= fallback_cap then iterate ctx bs l ~overhead ~count:n ~step:1
    else sample ctx bs l ~overhead ~n ~cap:fallback_cap
  end

(* Lane-divergent loop: per-lane trip counts; max-over-lanes iterations with
   shrinking active masks (SIMT serialization). *)
and walk_divergent (ctx : ctx) (bs : blk_state) (l : loop) : unit =
  let lanes = ctx.active in
  let counts =
    Array.init lanes (fun lane -> max 0 (eval_lane ctx lane l.lp_extent))
  in
  let emax = Array.fold_left max 0 counts in
  if emax > 0 then begin
    let saved_active = ctx.active in
    let run_step s =
      let active_s = Array.fold_left (fun a c -> if c > s then a + 1 else a) 0 counts in
      ctx.active <- max 1 active_s;
      charge_ops ctx 2.0;
      set_uniform ctx l.lp_slot s;
      walk_stmt ctx bs l.lp_body
    in
    if emax <= divergent_cap then
      for s = 0 to emax - 1 do run_step s done
    else begin
      let step = emax / divergent_cap in
      let saved = ctx.acc in
      let tmp = wacc_zero () in
      ctx.acc <- tmp;
      for k = 0 to divergent_cap - 1 do run_step (k * step) done;
      ctx.acc <- saved;
      wacc_add saved tmp
        ~scale:(float_of_int emax /. float_of_int divergent_cap)
    end;
    ctx.active <- saved_active
  end

(* Tensor-core MMA: charge MAC throughput and operand traffic. *)
and walk_mma (ctx : ctx) (m : mma_r) : unit =
  let macs = float_of_int (m.mm.mma_m * m.mm.mma_n * m.mm.mma_k) in
  ctx.acc.a_tc <- ctx.acc.a_tc +. macs;
  charge_flops ctx macs;
  charge_ops ctx 4.0;
  walk_operand ctx m.mm_a ~rows:m.mm.mma_m ~cols:m.mm.mma_k ~rw:1;
  walk_operand ctx m.mm_b ~rows:m.mm.mma_k ~cols:m.mm.mma_n ~rw:1;
  walk_operand ctx m.mm_c ~rows:m.mm.mma_m ~cols:m.mm.mma_n ~rw:2

and walk_operand (ctx : ctx) (o : operand) ~(rows : int) ~(cols : int)
    ~(rw : int) : unit =
  let info = buf_info ctx o.op_slot o.op_ir in
  let origin = o.op_origin_r in
  let n = Array.length origin in
  (* one index is the flat offset; several address the bound tensor, and
     any out of its bounds (or no tensor to bound them) gives offset 0 *)
  let flat0 =
    if n = 1 then walk_expr ctx origin.(0)
    else begin
      let flat = ref 0 and ok = ref true in
      for d = 0 to n - 1 do
        let i = walk_expr ctx origin.(d) in
        match o.op_tensor with
        | Some t when n = Array.length t.Tensor.shape ->
            if i < 0 || i >= t.Tensor.shape.(d) then ok := false;
            flat := (!flat * t.Tensor.shape.(d)) + i
        | _ -> ok := false
      done;
      if !ok then !flat else 0
    end
  in
  let ld = walk_expr ctx o.op_ld_r in
  match info.bi_space with
  | Sp_register -> ()
  | Sp_shared ->
      ctx.acc.a_smem <-
        ctx.acc.a_smem
        +. (float_of_int rw *. float_of_int (rows * cols * info.bi_dsize) /. 128.0)
  | Sp_global ->
      let base = info.bi_base + (flat0 * info.bi_dsize) in
      for _ = 1 to rw do
        charge_global_run ctx ~base ~stride:(ld * info.bi_dsize) ~count:rows
          ~bytes:(cols * info.bi_dsize) ~txn:1
      done

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type t = { ctx : ctx; kernels : kernel list }

let create (spec : Spec.t) (fn : func) (tensors : Tensor.t list) : t =
  let r =
    { var_slots = Hashtbl.create 64; var_names = [];
      buf_slots = Hashtbl.create 32; tensors = Hashtbl.create 32 }
  in
  let params =
    List.map2
      (fun b t ->
        let slot = buf_slot r b in
        if not (Hashtbl.mem r.tensors slot) then Hashtbl.add r.tensors slot t;
        (slot, b, t))
      fn.fn_params tensors
  in
  let kernels =
    List.map (resolve_kernel r)
      (match fn.fn_body with Seq l -> l | st -> [ st ])
  in
  let nvars = Hashtbl.length r.var_slots in
  let ctx =
    { spec;
      l2 = Cache.create ~bytes:spec.l2_bytes ~line:spec.l2_line ~assoc:spec.l2_assoc;
      l1s =
        Array.init spec.num_sms (fun _ ->
            Cache.create ~bytes:spec.l1_bytes ~line:spec.l1_line ~assoc:spec.l1_assoc);
      sm = 0;
      v0 = Array.make nvars 0;
      dep = Array.make nvars unbound;
      def = Array.make nvars (R_int 0);
      names = Array.of_list (List.rev r.var_names);
      infos = Array.make (Hashtbl.length r.buf_slots) unregistered;
      lane = no_lane;
      warp_base = 0;
      active = 1;
      acc = wacc_zero ();
      rdep = uniform;
      probing = false;
      probe_reqs = [];
      tally = { flops = 0.0; probe_ops = 0.0; probed_ops = 0.0 };
      next_addr = 256;
      next_smem = 0;
      in_index = false }
  in
  List.iter
    (fun (slot, b, t) -> register ctx slot b ~numel:(Tensor.numel t))
    params;
  { ctx; kernels }

let kernels (w : t) : kernel list = w.kernels
let l1s (w : t) : Cache.t array = w.ctx.l1s
let l2 (w : t) : Cache.t = w.ctx.l2
let total_flops (w : t) : float = w.ctx.tally.flops

let run_kernel (w : t) (k : kernel) ~(block_ordinal : int ref)
    (sm_tots : sm_tot array) ~(max_critical : float ref) ~(smem_high : int ref)
    ~(traffic : wacc) : unit =
  let ctx = w.ctx and spec = w.ctx.spec in
  let step = k.k_step in
  let scale = float_of_int step in
  let g = ref 0 in
  while !g < k.k_total do
    (* decode the linear block id into per-dim values *)
    let rem = ref !g in
    Array.iter
      (fun (slot, n) ->
        set_uniform ctx slot (!rem mod n);
        rem := !rem / n)
      k.k_dims;
    let bs = { warps = Hashtbl.create 8; cur_ty = 0; cur_tz = 0; smem_high = 0 } in
    let ord = !block_ordinal in
    block_ordinal := ord + step;
    let sm = ord mod spec.num_sms in
    ctx.sm <- sm;
    ctx.next_smem <- 0;
    ctx.acc <- warp_acc bs (0, 0, 0);
    ctx.lane <- no_lane;
    ctx.active <- 1;
    walk_stmt ctx bs k.k_body;
    smem_high := max !smem_high bs.smem_high;
    let tot = sm_tots.(sm) in
    let block_work = wacc_zero () in
    Hashtbl.iter (fun _ w -> wacc_add block_work w ~scale:1.0) bs.warps;
    let crit = ref 0.0 in
    Hashtbl.iter (fun _ w -> crit := Float.max !crit (wacc_latency spec w)) bs.warps;
    max_critical := Float.max !max_critical !crit;
    tot.s_insts <- tot.s_insts +. (scale *. block_work.a_insts);
    tot.s_l1 <-
      tot.s_l1 +. (scale *. (block_work.a_l1 +. block_work.a_l2 +. block_work.a_dram));
    tot.s_smem <- tot.s_smem +. (scale *. block_work.a_smem);
    tot.s_tc <- tot.s_tc +. (scale *. block_work.a_tc);
    tot.s_blocks <- tot.s_blocks + step;
    wacc_add traffic block_work ~scale;
    g := !g + step
  done;
  Array.iter (fun (slot, _) -> ctx.dep.(slot) <- unbound) k.k_dims
