(* Differential harness for the two execution engines.

   Every kernel family in lib/kernels/ plus the GraphSAGE training epoch is
   built twice and executed once under the tree-walking interpreter and once
   under the compiled closure engine.  Both engines execute the identical
   flat IR with identical operation order, so the outputs must agree
   bit-for-bit — any divergence is a codegen bug, not float noise.

   Also checks the codegen/cache contract: a warm tuner search is served
   entirely from the compile cache and the engine memo, compiling nothing. *)

open Formats

(* Build fresh (steps, out) twice; run one under each engine; outputs must be
   bit-identical.  The second build hits the pipeline compile cache, which is
   part of the point: cached funcs execute like fresh ones. *)
let check_pair (name : string)
    (build : unit -> (Tir.Ir.func * Gpusim.bindings) list * Tir.Tensor.t) :
    unit =
  let run engine =
    let steps, out = build () in
    Gpusim.execute_many ~engine steps;
    Tir.Tensor.to_float_array out
  in
  let interp = run Engine.Interp in
  let compiled = run Engine.Compiled in
  Alcotest.(check bool)
    (name ^ ": engines agree bit-for-bit") true (interp = compiled)

let single (c : unit -> Tir.Ir.func * Gpusim.bindings * Tir.Tensor.t) () =
  let fn, bindings, out = c () in
  ([ (fn, bindings) ], out)

let graph () =
  Workloads.Graphs.generate ~seed:5
    { Workloads.Graphs.g_name = "engine"; g_nodes = 90; g_edges = 600;
      g_shape = Workloads.Graphs.Power_law 1.8 }

(* ---------------- SpMM ---------------- *)

let test_spmm () =
  let a = graph () in
  let feat = 8 in
  let x = Dense.random ~seed:2 a.Csr.cols feat in
  let of_spmm (c : Kernels.Spmm.compiled) =
    (c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings, c.Kernels.Spmm.out)
  in
  List.iter
    (fun (name, build) ->
      check_pair ("spmm_" ^ name) (single (fun () -> of_spmm (build ()))))
    [ ("taco", fun () -> Kernels.Spmm.taco a x ~feat);
      ("cusparse", fun () -> Kernels.Spmm.cusparse a x ~feat);
      ("dgsparse", fun () -> Kernels.Spmm.dgsparse a x ~feat);
      ("sputnik", fun () -> Kernels.Spmm.sputnik a x ~feat);
      ("no_hyb",
       fun () -> Kernels.Spmm.sparsetir_no_hyb ~row_group:4 ~vec:2 a x ~feat);
      ("hyb", fun () -> fst (Kernels.Spmm.sparsetir_hyb ~c:2 a x ~feat));
      ("sell", fun () -> fst (Kernels.Spmm.sell ~slice:8 a x ~feat)) ]

(* ---------------- SDDMM ---------------- *)

let test_sddmm () =
  let a = graph () in
  let feat = 8 in
  let xs = Dense.random ~seed:3 a.Csr.rows feat in
  let ys = Dense.random ~seed:4 feat a.Csr.cols in
  let of_sddmm (c : Kernels.Sddmm.compiled) =
    (c.Kernels.Sddmm.fn, c.Kernels.Sddmm.bindings, c.Kernels.Sddmm.out)
  in
  List.iter
    (fun (name, build) ->
      check_pair ("sddmm_" ^ name) (single (fun () -> of_sddmm (build ()))))
    [ ("taco", fun () -> Kernels.Sddmm.taco a xs ys ~feat);
      ("cusparse", fun () -> Kernels.Sddmm.cusparse a xs ys ~feat);
      ("dgl", fun () -> Kernels.Sddmm.dgl a xs ys ~feat);
      ("dgsparse", fun () -> Kernels.Sddmm.dgsparse a xs ys ~feat);
      ("two_stage",
       fun () -> Kernels.Sddmm.two_stage ~edges:2 ~group:4 a xs ys ~feat);
      ("sparsetir", fun () -> Kernels.Sddmm.sparsetir a xs ys ~feat) ]

(* ---------------- dense GEMM ---------------- *)

let test_gemm () =
  let x = Dense.random ~seed:7 32 16 in
  let y = Dense.random ~seed:8 16 32 in
  let of_gemm (c : Kernels.Gemm.compiled) =
    (c.Kernels.Gemm.fn, c.Kernels.Gemm.bindings, c.Kernels.Gemm.out)
  in
  List.iter
    (fun (name, build) ->
      check_pair ("gemm_" ^ name) (single (fun () -> of_gemm (build ()))))
    [ ("cublas_tc", fun () -> Kernels.Gemm.cublas_tc x y);
      ("cublas_fp32", fun () -> Kernels.Gemm.cublas_fp32 x y) ]

(* ---------------- block-sparse ---------------- *)

let test_block_sparse () =
  let mask = Workloads.Attention.band ~size:64 ~band:16 () in
  let bsr = Bsr.of_csr ~block:16 mask in
  let heads = 2 in
  let xh = Workloads.Attention.batched_dense ~heads ~rows:64 ~cols:32 () in
  let of_bs (c : Kernels.Block_sparse.compiled) =
    ( c.Kernels.Block_sparse.fn,
      c.Kernels.Block_sparse.bindings,
      c.Kernels.Block_sparse.out )
  in
  let w =
    Workloads.Pruning.movement_pruned ~rows:128 ~cols:96 ~density:0.08 ()
  in
  let dbsr_w =
    Workloads.Pruning.block_pruned ~rows:128 ~cols:96 ~block:16 ~density:0.2 ()
  in
  let dense96 = Dense.random ~seed:4 96 32 in
  List.iter
    (fun (name, build) ->
      check_pair ("block_sparse_" ^ name) (single (fun () -> of_bs (build ()))))
    [ ("bsr_spmm", fun () -> Kernels.Block_sparse.bsr_spmm bsr ~heads xh ~feat:32);
      ("triton_bsr_spmm",
       fun () -> Kernels.Block_sparse.triton_bsr_spmm bsr ~heads xh ~feat:32);
      ("csr_spmm_batched",
       fun () -> Kernels.Block_sparse.csr_spmm_batched mask ~heads xh ~feat:32);
      ("bsr_sddmm",
       fun () ->
         Kernels.Block_sparse.bsr_sddmm bsr ~heads ~feat:32 xh
           (Workloads.Attention.batched_dense ~seed:9 ~heads ~rows:32 ~cols:64
              ()));
      ("dbsr_spmm",
       fun () -> Kernels.Block_sparse.dbsr_spmm (Dbsr.of_csr ~block:16 dbsr_w) dense96);
      ("bsr_spmm_single",
       fun () ->
         Kernels.Block_sparse.bsr_spmm_single (Bsr.of_csr ~block:16 dbsr_w) dense96);
      ("sr_bcrs_spmm",
       fun () ->
         Kernels.Block_sparse.sr_bcrs_spmm (Sr_bcrs.of_csr ~tile:8 ~group:16 w)
           dense96) ]

(* ---------------- sparse tensors ---------------- *)

let test_sptensor () =
  let t = Csf.random ~dim_i:12 ~dim_j:10 ~dim_k:9 ~nnz:80 () in
  let rank = 6 in
  let b = Dense.random ~seed:3 t.Csf.dim_j rank in
  let c = Dense.random ~seed:4 t.Csf.dim_k rank in
  let of_sp (k : Kernels.Sptensor.compiled) =
    (k.Kernels.Sptensor.fn, k.Kernels.Sptensor.bindings, k.Kernels.Sptensor.out)
  in
  check_pair "mttkrp" (single (fun () -> of_sp (Kernels.Sptensor.mttkrp t b c)));
  let a = graph () in
  let x = Dense.random ~seed:5 a.Csr.rows 8 in
  let z = Dense.random ~seed:6 a.Csr.cols 8 in
  let v = Dense.random ~seed:7 a.Csr.cols 4 in
  check_pair "fusedmm"
    (single (fun () -> of_sp (Kernels.Sptensor.fusedmm a x z v)));
  check_pair "unfused_sddmm_spmm" (fun () -> Kernels.Sptensor.unfused a x z v)

(* ---------------- RGMS / sparse conv ---------------- *)

let test_rgms () =
  let hetero =
    Workloads.Hetero.generate
      { Workloads.Hetero.h_name = "engine"; h_nodes = 48; h_edges = 400;
        h_etypes = 3 }
  in
  let rels = hetero.Workloads.Hetero.relations in
  let x = Dense.random ~seed:3 48 16 in
  let w = Array.init 3 (fun r -> Dense.random ~seed:(50 + r) 16 16) in
  List.iter
    (fun (name, build) ->
      check_pair ("rgms_" ^ name) (fun () ->
          let c : Kernels.Rgms.compiled = build () in
          (c.Kernels.Rgms.steps, c.Kernels.Rgms.out)))
    [ ("naive", fun () -> Kernels.Rgms.naive rels x w);
      ("hyb", fun () -> Kernels.Rgms.hyb rels x w);
      ("hyb_tc", fun () -> Kernels.Rgms.hyb_tc rels x w);
      ("two_stage", fun () -> Kernels.Rgms.two_stage rels x w);
      ("gather_two_stage", fun () -> Kernels.Rgms.gather_two_stage rels x w) ]

(* ---------------- GraphSAGE epoch ---------------- *)

let test_graphsage () =
  let a = graph () in
  List.iter
    (fun (name, variant) ->
      check_pair ("graphsage_" ^ name) (fun () ->
          let m =
            Nn.Graphsage.epoch variant a ~in_feat:16 ~hidden:16 ~out_feat:8 ()
          in
          (m.Nn.Graphsage.steps, m.Nn.Graphsage.h2)))
    [ ("dgl", Nn.Graphsage.Dgl); ("sparsetir", Nn.Graphsage.Sparsetir 1) ]

(* ---------------- reduction-init with float binds ---------------- *)

(* Regression: a Reduce block iter bound to a non-integer float must not
   re-fire the block init mid-reduction.  The domain-start check used to
   truncate the bind through [int_of_float], so any value in (-1, 1) — e.g.
   0.5 at r = 1 when the bind is r * 0.5 — counted as the domain start and
   clobbered the partial sum.  With the exact comparison both engines
   accumulate 1 + 2 + 3 + 4 = 10; the buggy check yields 9 (init re-fires at
   r = 1, dropping A[0]). *)
let test_float_reduction_init () =
  let open Tir in
  let open Builder in
  let n = 4 in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int n ] in
  let out_buf = buffer ~dtype:Dtype.F32 "Out" [ int 1 ] in
  let body =
    for_ "r" (int n) (fun r ->
        let rf = fvar "rf" in
        Ir.Block_stmt
          { Ir.blk_name = "acc";
            blk_iters =
              [ { Ir.bi_var = rf;
                  bi_dom = float (float_of_int n *. 0.5);
                  bi_kind = Ir.Reduce;
                  bi_bind = cast Dtype.F32 r *: float 0.5 } ];
            blk_reads = [];
            blk_writes = [];
            blk_init = Some (store out_buf [ int 0 ] (float 0.0));
            blk_body =
              store out_buf [ int 0 ]
                (load out_buf [ int 0 ] +: load a_buf [ r ]) })
  in
  let fn = func "float_reduce_init" [ a_buf; out_buf ] body in
  let run engine =
    let a = Tensor.of_float_array [ n ] [| 1.0; 2.0; 3.0; 4.0 |] in
    let out = Tensor.create Dtype.F32 [ 1 ] in
    Engine.execute ~kind:engine fn [ a; out ];
    (Tensor.to_float_array out).(0)
  in
  Alcotest.(check (float 0.0))
    "interp sums across the whole domain" 10.0 (run Engine.Interp);
  Alcotest.(check (float 0.0))
    "compiled sums across the whole domain" 10.0 (run Engine.Compiled)

(* ---------------- F16 cast rounding ---------------- *)

(* Cast to F16 must round to nearest-even in BOTH engines.  The probe value
   1 + 3*2^-11 sits exactly halfway between the two neighbouring half-
   precision values 1 + 2^-10 and 1 + 2^-9: nearest-even picks 1 + 2^-9
   (even mantissa), whereas truncation would keep 1 + 2^-10 — so an engine
   that truncated would differ bit-for-bit. *)
let test_f16_cast_rounding () =
  let open Tir in
  let open Builder in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int 1 ] in
  let out_buf = buffer ~dtype:Dtype.F32 "Out" [ int 1 ] in
  let body =
    store out_buf [ int 0 ] (cast Dtype.F16 (load a_buf [ int 0 ]))
  in
  let fn = func "f16_cast" [ a_buf; out_buf ] body in
  let v = 1.0 +. (3.0 *. (2.0 ** -11.0)) in
  let expect = 1.0 +. (2.0 ** -9.0) in
  let truncated = 1.0 +. (2.0 ** -10.0) in
  Alcotest.(check bool) "probe distinguishes truncation" true
    (expect <> truncated);
  let run engine =
    let a = Tensor.of_float_array [ 1 ] [| v |] in
    let out = Tensor.create Dtype.F32 [ 1 ] in
    Engine.execute ~kind:engine fn [ a; out ];
    (Tensor.to_float_array out).(0)
  in
  Alcotest.(check (float 0.0))
    "interp rounds to nearest even" expect (run Engine.Interp);
  Alcotest.(check (float 0.0))
    "compiled rounds to nearest even" expect (run Engine.Compiled)

(* ---------------- fusion peephole ---------------- *)

(* Fused and unfused artifacts of the same func must agree bit-for-bit, and
   the SpMM shape must actually trigger the peephole (nonzero site
   counters).  Compiles via [Engine.compile] directly: the fusion knob is
   compile-time, so the memoized artifact must be bypassed. *)
let test_fusion_differential () =
  let a = graph () in
  let feat = 8 in
  let x = Dense.random ~seed:7 a.Csr.cols feat in
  let run ~fusion =
    Engine.set_fusion fusion;
    Fun.protect ~finally:(fun () -> Engine.set_fusion true) @@ fun () ->
    let c = Kernels.Spmm.dgsparse a x ~feat in
    let fn = c.Kernels.Spmm.fn in
    let art = Engine.compile fn in
    Engine.run art
      (List.map
         (fun (b : Tir.Ir.buffer) ->
           List.assoc b.Tir.Ir.buf_name c.Kernels.Spmm.bindings)
         fn.Tir.Ir.fn_params);
    (art, Tir.Tensor.to_float_array c.Kernels.Spmm.out)
  in
  let fused_art, fused = run ~fusion:true in
  let unfused_art, unfused = run ~fusion:false in
  Alcotest.(check bool) "fused = unfused bit-for-bit" true (fused = unfused);
  Alcotest.(check bool)
    "spmm triggers the peephole" true
    (Engine.fused_sites fused_art > 0
    && Engine.hoisted_sites fused_art + Engine.linear_sites fused_art > 0);
  Alcotest.(check int)
    "unfused artifact reports no sites" 0
    (Engine.fused_sites unfused_art
    + Engine.hoisted_sites unfused_art
    + Engine.linear_sites unfused_art)

(* An index expression that READS a buffer the loop body WRITES must not be
   hoisted: its value changes between iterations.  The cursor pattern below
   bumps Ptr[0] then stores through it — a stale hoist would land every
   store on the same cell. *)
let test_fusion_no_stale_hoist () =
  let open Tir in
  let open Builder in
  let ptr = buffer ~dtype:Dtype.I32 "Ptr" [ int 1 ] in
  let out = buffer ~dtype:Dtype.F32 "Out" [ int 4 ] in
  let body =
    for_ "i" (int 3) (fun _ ->
        seq
          [ store ptr [ int 0 ] (load ptr [ int 0 ] +: int 1);
            store out [ load ptr [ int 0 ] ] (float 1.0) ])
  in
  let fn = func "cursor_scatter" [ ptr; out ] body in
  let run engine =
    let p = Tensor.create Dtype.I32 [ 1 ] in
    let o = Tensor.create Dtype.F32 [ 4 ] in
    Engine.execute ~kind:engine fn [ p; o ];
    Tensor.to_float_array o
  in
  let interp = run Engine.Interp in
  let compiled = run Engine.Compiled in
  Alcotest.(check bool) "engines agree" true (interp = compiled);
  Alcotest.(check (array (float 0.0)))
    "cells 1..3 written once each" [| 0.0; 1.0; 1.0; 1.0 |] compiled

(* ---------------- warm tuner compiles nothing ---------------- *)

let test_warm_tuner_no_codegen () =
  Pipeline.reset ();
  Engine.reset ();
  let a = graph () in
  let feat = 16 in
  let x = Dense.random ~seed:3 a.Csr.cols feat in
  let search () =
    Tuner.search (Tuner.spmm_no_hyb_candidates Gpusim.Spec.v100 a x ~feat)
  in
  let r1 = search () in
  let after_cold = Engine.compiles () in
  Alcotest.(check bool) "cold search compiles" true (after_cold > 0);
  let r2 = search () in
  Alcotest.(check int) "warm search compiles nothing" after_cold
    (Engine.compiles ());
  Alcotest.(check int) "warm search misses nothing" 0 r2.Tuner.cache_misses;
  Alcotest.(check string) "same winner" r1.Tuner.best_label r2.Tuner.best_label

(* A pipeline cache hit after Engine.reset re-seeds the engine memo from the
   cached artifact instead of recompiling. *)
let test_cache_reseeds_memo () =
  Pipeline.reset ();
  Engine.reset ();
  let a = graph () in
  let feat = 16 in
  let x = Dense.random ~seed:2 a.Csr.cols feat in
  ignore (Kernels.Spmm.dgsparse a x ~feat);
  let cold = Engine.compiles () in
  Engine.reset ();
  let c = Kernels.Spmm.dgsparse a x ~feat in
  Alcotest.(check int) "hit re-seeds, compiles nothing" 0 (Engine.compiles ());
  (* and the re-seeded artifact actually executes *)
  Gpusim.execute c.Kernels.Spmm.fn c.Kernels.Spmm.bindings;
  Alcotest.(check int) "still nothing compiled" 0 (Engine.compiles ());
  Alcotest.(check bool) "cold build did compile" true (cold > 0)

(* ---------------- domains-parallel dispatch ---------------- *)

(* Chunk grain: never zero (no empty chunks), never a 1-iteration flood when
   n < 4 * domains, at most 4 * domains chunks, and alignment is respected
   without overshooting the per-domain share. *)
let test_chunk_grain () =
  Alcotest.(check int) "n=0 degenerates to 1" 1
    (Engine.chunk_grain ~n:0 ~domains:4 ~align:1);
  Alcotest.(check int) "n=1" 1 (Engine.chunk_grain ~n:1 ~domains:8 ~align:1);
  for n = 1 to 64 do
    for d = 1 to 8 do
      let g = Engine.chunk_grain ~n ~domains:d ~align:1 in
      if g < 1 then Alcotest.failf "grain %d for n=%d d=%d" g n d;
      let chunks = (n + g - 1) / g in
      if chunks > 4 * d then
        Alcotest.failf "%d chunks (> 4d) for n=%d d=%d grain=%d" chunks n d g
    done
  done;
  Alcotest.(check int) "small n rounds up to align" 8
    (Engine.chunk_grain ~n:5 ~domains:4 ~align:8);
  Alcotest.(check int) "large n stays aligned" 0
    (Engine.chunk_grain ~n:1000 ~domains:4 ~align:16 mod 16)

(* A blockIdx loop accumulating through C[M[i]] earns a gather witness; the
   runtime decision then hangs on the bound map tensor's facts. *)
let gather_fn name n =
  let open Tir in
  let open Builder in
  let m_buf = buffer ~dtype:Dtype.I32 "M" [ int n ] in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int n ] in
  let c_buf = buffer ~dtype:Dtype.F32 "C" [ int n ] in
  func name [ m_buf; a_buf; c_buf ]
    (for_ ~kind:(Ir.Thread_bind Ir.Block_x) "i" (int n) (fun i ->
         store c_buf
           [ load m_buf [ i ] ]
           (load c_buf [ load m_buf [ i ] ] +: load a_buf [ i ])))

let gather_expected n perm a_val =
  let e = Array.make n 0.0 in
  Array.iteri (fun i p -> e.(p) <- e.(p) +. a_val i) perm;
  e

(* Injective map (a reversing permutation — deliberately NOT monotone, so
   only the injectivity scan can prove it): the loop must dispatch parallel
   with the exact same result as the serial run. *)
let test_gather_injective_parallel () =
  let open Tir in
  let n = 128 in
  let fn = gather_fn "eng_gather_inj" n in
  let perm = Array.init n (fun i -> n - 1 - i) in
  let m = Tensor.of_int_array [ n ] perm in
  let a = Tensor.of_float_array [ n ] (Array.init n float_of_int) in
  let c = Tensor.create Dtype.F32 [ n ] in
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ m; a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check bool) "gather loop ran parallel" true
    (Engine.par_runs art >= 1);
  Alcotest.(check int) "no fallback" 0 (Engine.fallback_runs art);
  Alcotest.(check bool) "scatter result exact" true
    (Tensor.to_float_array c = gather_expected n perm float_of_int)

(* A map with non-contiguous duplicates (i mod k) satisfies no fact: the
   run must fall back to serial — counted under the "indirect" reason — and
   the duplicated-cell accumulation must stay exact. *)
let test_gather_unprovable_fallback () =
  let open Tir in
  let n = 96 in
  let fn = gather_fn "eng_gather_dup" n in
  let dup = Array.init n (fun i -> i mod (n / 2)) in
  let m = Tensor.of_int_array [ n ] dup in
  let a = Tensor.of_float_array [ n ] (Array.make n 1.0) in
  let c = Tensor.create Dtype.F32 [ n ] in
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ m; a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check int) "never parallel" 0 (Engine.par_runs art);
  Alcotest.(check bool) "fell back" true (Engine.fallback_runs art >= 1);
  Alcotest.(check bool) "counted as indirect" true
    (List.assoc "indirect" (Engine.fallback_reasons art) >= 1);
  Alcotest.(check bool) "duplicate accumulation exact" true
    (Tensor.to_float_array c = gather_expected n dup (fun _ -> 1.0))

(* Mutating a map tensor after a successful parallel run bumps its version:
   the memoized fact is invalidated, the rescan fails, and the same artifact
   falls back to serial on the next run. *)
let test_fact_invalidation () =
  let open Tir in
  let n = 64 in
  let fn = gather_fn "eng_gather_invalidate" n in
  let m = Tensor.of_int_array [ n ] (Array.init n Fun.id) in
  let a = Tensor.of_float_array [ n ] (Array.make n 1.0) in
  let c = Tensor.create Dtype.F32 [ n ] in
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ m; a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check bool) "identity map ran parallel" true
    (Engine.par_runs art >= 1);
  let par_before = Engine.par_runs art in
  (* break injectivity AND monotonicity in one write *)
  Tensor.set_i m 0 (n - 1);
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ m; a; c ];
  Alcotest.(check int) "no new parallel run after mutation" par_before
    (Engine.par_runs art);
  Alcotest.(check bool) "serial fallback resumed" true
    (Engine.fallback_runs art >= 1)

(* Engine.reset zeroes the per-artifact counters of artifacts that survive
   the reset by re-registration (a pipeline-cache warm hit re-seeds the memo
   with the same compiled value), so a fresh measurement window counts from
   zero instead of inheriting a prior session's runs. *)
let test_reset_zeroes_reregistered_counters () =
  let open Tir in
  let n = 64 in
  let fn = gather_fn "eng_reset_rereg" n in
  let m = Tensor.of_int_array [ n ] (Array.init n Fun.id) in
  let a = Tensor.of_float_array [ n ] (Array.make n 1.0) in
  let c = Tensor.create Dtype.F32 [ n ] in
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ m; a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check bool) "counter nonzero before reset" true
    (Engine.par_runs art >= 1);
  Engine.reset ();
  Engine.register fn art;
  Alcotest.(check int) "re-registered artifact counts from zero" 0
    (Engine.par_runs art);
  Alcotest.(check int) "fallback counter zeroed too" 0
    (Engine.fallback_runs art);
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ m; a; c ];
  Alcotest.(check int) "counting resumes after reset" 1 (Engine.par_runs art)

(* hyb bucket kernels: every blockIdx loop (direct witness on the ELL part,
   gather witnesses through the bucket row maps) must dispatch parallel at
   4 domains with zero fallbacks, and the result must be bit-identical to
   the 1-domain run. *)
let test_hyb_parallel_no_fallback () =
  let a = graph () in
  let feat = 8 in
  let x = Dense.random ~seed:2 a.Csr.cols feat in
  let c, _ = Kernels.Spmm.sparsetir_hyb ~c:2 a x ~feat in
  let exec nd =
    Gpusim.execute ~num_domains:nd c.Kernels.Spmm.fn c.Kernels.Spmm.bindings;
    Tir.Tensor.to_float_array c.Kernels.Spmm.out
  in
  let serial = exec 1 in
  let parallel = exec 4 in
  let art = Engine.artifact c.Kernels.Spmm.fn in
  Alcotest.(check bool) "hyb buckets ran parallel" true
    (Engine.par_runs art >= 1);
  Alcotest.(check int) "hyb buckets never fell back" 0
    (Engine.fallback_runs art);
  Alcotest.(check bool) "serial = parallel bit-for-bit" true
    (serial = parallel)

(* Format accessors declare their ordering facts at construction time
   (Descriptor / Facts.declare), so the parallel dispatch proof over a
   format's index tensor is cheaper than over an undeclared copy of the
   same data: the Monotone_nd check hits the declared fact instead of
   scanning.  The scatter map is a COO row stream — sorted but repeating,
   so neither leg can prove injectivity and the ordering fact is the only
   route to parallel dispatch.  Both legs must dispatch parallel with no
   serial fallback; the declared leg must need strictly fewer scans. *)
let test_format_facts_no_scan () =
  let open Tir in
  let entries =
    List.init 128 (fun e ->
        (e / 2, e * 3 mod 7, float_of_int (1 + (e mod 5)) /. 2.0))
  in
  let m = Coo.of_entries ~rows:64 ~cols:7 entries in
  let n = Coo.nnz m in
  let a = Tensor.of_float_array [ n ] (Array.make n 1.0) in
  let dispatch name map =
    let fn = gather_fn name n in
    let c = Tensor.create Dtype.F32 [ n ] in
    let scans0 = Tensor.Facts.scan_count () in
    Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ map; a; c ];
    let art = Engine.artifact fn in
    Alcotest.(check bool) (name ^ " ran parallel") true
      (Engine.par_runs art >= 1);
    Alcotest.(check int) (name ^ " never fell back") 0
      (Engine.fallback_runs art);
    Tensor.Facts.scan_count () - scans0
  in
  let declared = dispatch "eng_coo_rowmap_declared" (Coo.row_tensor m) in
  let stripped =
    dispatch "eng_coo_rowmap_stripped"
      (Tensor.of_int_array [ n ] (Tensor.to_int_array (Coo.row_tensor m)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "declared facts scan less (%d < %d)" declared stripped)
    true
    (declared < stripped);
  (* the Csf accessor swap in the MTTKRP bindings keeps its thread-bound
     fiber loop on the parallel path *)
  let t = Csf.random ~dim_i:48 ~dim_j:10 ~dim_k:9 ~nnz:300 () in
  let b = Dense.random ~seed:3 t.Csf.dim_j 6 in
  let c = Dense.random ~seed:4 t.Csf.dim_k 6 in
  let k = Kernels.Sptensor.mttkrp t b c in
  Gpusim.execute ~num_domains:4 k.Kernels.Sptensor.fn
    k.Kernels.Sptensor.bindings;
  let art = Engine.artifact k.Kernels.Sptensor.fn in
  Alcotest.(check bool) "mttkrp ran parallel" true (Engine.par_runs art >= 1);
  Alcotest.(check int) "mttkrp never fell back" 0 (Engine.fallback_runs art)

(* Narrow accumulator (one f32 per iteration, far below a cache line): the
   executor must give each domain a private write strip and stitch the
   chunks back bit-identically.  Extents run from a single iteration (never
   parallel) through loops with fewer 16-iteration cache-line units than
   domains up to many units per domain. *)
let test_narrow_output_strips () =
  let open Tir in
  let open Builder in
  List.iter
    (fun n ->
      let a_buf = buffer ~dtype:Dtype.F32 "A" [ int n ] in
      let c_buf = buffer ~dtype:Dtype.F32 "C" [ int n ] in
      let fn =
        func
          (Printf.sprintf "eng_narrow_strips_%d" n)
          [ a_buf; c_buf ]
          (for_ ~kind:(Ir.Thread_bind Ir.Block_x) "i" (int n) (fun i ->
               store c_buf [ i ] (load c_buf [ i ] +: load a_buf [ i ])))
      in
      let a = Tensor.of_float_array [ n ] (Array.init n float_of_int) in
      let seed = Array.init n (fun i -> float_of_int (i * 7 mod 13)) in
      let run nd =
        let c = Tensor.of_float_array [ n ] (Array.copy seed) in
        Engine.execute ~kind:Engine.Compiled ~num_domains:nd fn [ a; c ];
        Tensor.to_float_array c
      in
      let serial = run 1 in
      List.iter
        (fun nd ->
          let label = Printf.sprintf "n=%d d=%d" n nd in
          let art = Engine.artifact fn in
          let tiled0 = Engine.tiled_runs art in
          let parallel = run nd in
          Alcotest.(check bool)
            (label ^ ": strips engaged iff parallel")
            (n > 1)
            (Engine.tiled_runs art > tiled0);
          Alcotest.(check int) (label ^ ": no fallback") 0
            (Engine.fallback_runs art);
          Alcotest.(check bool)
            (label ^ ": stitched result bit-identical")
            true (serial = parallel))
        [ 2; 4 ])
    [ 1; 3; 5; 17; 256 ]

(* Construction tasks on the chunk scheduler: every index runs exactly once
   at every width, unleased or under a lease, a task of a call that spread
   sees width 1 (inline calls keep the caller's width), a raising task
   re-raises only once every task that started has finished, and the pool
   and lease books are intact for the next call. *)
let test_parallel_tasks () =
  let saved = Engine.num_domains () in
  Fun.protect ~finally:(fun () -> Engine.set_num_domains saved) @@ fun () ->
  List.iter
    (fun nd ->
      Engine.set_num_domains nd;
      let leases = Engine.leases_in_use () in
      let once ?(width = nd) label k =
        let hits = Array.init k (fun _ -> Atomic.make 0) in
        let widths = Array.make k 0 in
        Engine.parallel_tasks k (fun i ->
            Atomic.incr hits.(i);
            widths.(i) <- Engine.parallel_width ());
        let inner = if min width k > 1 then 1 else width in
        Array.iteri
          (fun i h ->
            Alcotest.(check int)
              (Printf.sprintf "%s d=%d k=%d: task %d ran once" label nd k i)
              1 (Atomic.get h);
            Alcotest.(check int)
              (Printf.sprintf "%s d=%d k=%d: task %d width" label nd k i)
              inner widths.(i))
          hits
      in
      List.iter (once "first") [ 0; 1; 3; 7; 64 ];
      (* a leased caller spreads over its lease only *)
      let width = min 2 nd in
      let l = Option.get (Engine.try_lease ~width) in
      Fun.protect
        ~finally:(fun () -> Engine.release l)
        (fun () ->
          Engine.run_leased l (fun () ->
              Alcotest.(check int) "leased width" width
                (Engine.parallel_width ());
              List.iter (once ~width "leased") [ 1; 7; 64 ]));
      let started = Atomic.make 0 and finished = Atomic.make 0 in
      (match
         Engine.parallel_tasks 7 (fun i ->
             Atomic.incr started;
             if i = 3 then failwith "task 3";
             for _ = 1 to 20_000 do
               Domain.cpu_relax ()
             done;
             Atomic.incr finished)
       with
      | () -> Alcotest.failf "d=%d: raising task did not re-raise" nd
      | exception Failure m ->
          Alcotest.(check string) "the task's exception" "task 3" m);
      Alcotest.(check int)
        (Printf.sprintf "d=%d: every started task finished before the raise"
           nd)
        (Atomic.get started - 1) (Atomic.get finished);
      Alcotest.(check int)
        (Printf.sprintf "d=%d: caller's width restored" nd)
        nd (Engine.parallel_width ());
      once "after a raise" 64;
      Alcotest.(check int)
        (Printf.sprintf "d=%d: leases unchanged" nd)
        leases (Engine.leases_in_use ()))
    [ 1; 2; 4 ]

(* Persistent parallel runtime: once an artifact has run at a domain count,
   repeated executes reuse its cached replica states (zero rebuilds); a
   domain-count change rebuilds once, and unregistering the artifact drops
   the cache with it. *)
let test_replica_reuse () =
  let open Tir in
  let n = 256 in
  let fn = gather_fn "eng_replica_reuse" n in
  let m = Tensor.of_int_array [ n ] (Array.init n Fun.id) in
  let a = Tensor.of_float_array [ n ] (Array.make n 1.0) in
  let c = Tensor.create Dtype.F32 [ n ] in
  let exec nd =
    Engine.execute ~kind:Engine.Compiled ~num_domains:nd fn [ m; a; c ]
  in
  exec 4;
  let art = Engine.artifact fn in
  Alcotest.(check bool) "warmup ran parallel" true (Engine.par_runs art >= 1);
  let b0 = Engine.replica_builds () in
  for _ = 1 to 8 do
    exec 4
  done;
  Alcotest.(check int) "warm runs allocate no replicas" 0
    (Engine.replica_builds () - b0);
  exec 2;
  Alcotest.(check bool) "domain-count change rebuilds" true
    (Engine.replica_builds () > b0);
  exec 4;
  let b1 = Engine.replica_builds () in
  for _ = 1 to 4 do
    exec 4
  done;
  Alcotest.(check int) "warm again after the switch back" 0
    (Engine.replica_builds () - b1);
  Engine.unregister fn;
  exec 4;
  Alcotest.(check bool) "unregister drops the cache" true
    (Engine.replica_builds () > b1)

(* Skewed hyb input (one dense row split into many pseudo-rows over a tail
   of short rows): the bucket loops take the work-stealing scheduler
   (gather witnesses always do).  Outputs must stay bit-identical to the
   serial run with zero fallbacks at 4 domains, warm or cold. *)
let test_stealing_skewed_bit_identical () =
  let rows = 96 and cols = 64 in
  let entries = ref [] in
  for j = 0 to cols - 1 do
    entries := (0, j, float_of_int (j + 1)) :: !entries
  done;
  for i = 1 to rows - 1 do
    entries :=
      (i, i mod cols, 1.0) :: (i, ((i * 7) + 1) mod cols, 2.0) :: !entries
  done;
  let a = Csr.of_coo (Coo.of_entries ~rows ~cols !entries) in
  let feat = 8 in
  let x = Dense.random ~seed:11 cols feat in
  let c, _ = Kernels.Spmm.sparsetir_hyb ~c:2 a x ~feat in
  let exec nd =
    Gpusim.execute ~num_domains:nd c.Kernels.Spmm.fn c.Kernels.Spmm.bindings;
    Tir.Tensor.to_float_array c.Kernels.Spmm.out
  in
  let serial = exec 1 in
  let stolen0 = Engine.stolen_chunks () in
  let cold = exec 4 in
  let warm = exec 4 in
  let art = Engine.artifact c.Kernels.Spmm.fn in
  Alcotest.(check bool) "skewed hyb ran parallel" true
    (Engine.par_runs art >= 1);
  Alcotest.(check int) "no fallback" 0 (Engine.fallback_runs art);
  Alcotest.(check bool) "serial = stolen parallel bit-for-bit" true
    (serial = cold && serial = warm);
  Alcotest.(check bool) "stolen-chunk counter monotone" true
    (Engine.stolen_chunks () >= stolen0)

(* An unprovable blockIdx loop counts a serial fallback only when the
   domain budget would have run it parallel: on 1 domain it runs serially
   uncounted, as a provable loop does, and on 4 domains every run counts. *)
let test_fallback_needs_budget () =
  let open Tir in
  let open Builder in
  let n = 16 in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int n ] in
  let c_buf = buffer ~dtype:Dtype.F32 "C" [ int 1 ] in
  let fn =
    func "eng_fallback_budget" [ a_buf; c_buf ]
      (for_ ~kind:(Ir.Thread_bind Ir.Block_x) "i" (int n) (fun i ->
           store c_buf [ int 0 ] (load c_buf [ int 0 ] +: load a_buf [ i ])))
  in
  let a = Tensor.of_float_array [ n ] (Array.make n 1.0) in
  let c = Tensor.create Dtype.F32 [ 1 ] in
  let total () = List.fold_left (fun s (_, k) -> s + k) 0 in
  let _, fb0, _ = Engine.parallel_totals () in
  Engine.execute ~kind:Engine.Compiled ~num_domains:1 fn [ a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check int) "1 domain: no fallback" 0 (Engine.fallback_runs art);
  Alcotest.(check int) "1 domain: no reason counted" 0
    (total () (Engine.fallback_reasons art));
  let _, fb1, _ = Engine.parallel_totals () in
  Alcotest.(check int) "1 domain: process total unchanged" fb0 fb1;
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ a; c ];
  Alcotest.(check int) "4 domains: one fallback" 1 (Engine.fallback_runs art);
  Alcotest.(check int) "4 domains: one reason counted" 1
    (total () (Engine.fallback_reasons art));
  Alcotest.(check int) "never parallel" 0 (Engine.par_runs art);
  Alcotest.(check (float 0.0)) "both runs accumulated exactly"
    (float_of_int (2 * n))
    (Tensor.to_float_array c).(0)

(* ---------------- specialized buffer access ---------------- *)

(* Run [fn] on fresh arguments under the interpreter and under artifacts
   compiled with fusion on and off (via [Engine.compile], bypassing the
   memo).  [args ()] returns the arguments and the output to read; each leg
   yields the output's bit patterns, or [None] when the run raised
   [Invalid_argument]. *)
let legs (fn : Tir.Ir.func)
    (args : unit -> Tir.Tensor.t list * Tir.Tensor.t) :
    (string * int64 array option) list =
  let run exec =
    let a, out = args () in
    match exec a with
    | () ->
        Some (Array.map Int64.bits_of_float (Tir.Tensor.to_float_array out))
    | exception Invalid_argument _ -> None
  in
  let compiled fusion =
    Engine.set_fusion fusion;
    Fun.protect ~finally:(fun () -> Engine.set_fusion true) (fun () ->
        let art = Engine.compile fn in
        run (Engine.run art))
  in
  [ ("interp", run (Tir.Eval.run_func fn));
    ("fused", compiled true);
    ("unfused", compiled false) ]

(* Every leg bit-identical to the interpreter; returns the interpreter's
   output as floats (None when it raised). *)
let check_legs name fn args : float array option =
  match legs fn args with
  | (_, interp) :: rest ->
      List.iter
        (fun (leg, out) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s = interp bit-for-bit" name leg)
            true (out = interp))
        rest;
      Option.map (Array.map Int64.float_of_bits) interp
  | [] -> assert false

let bits (xs : float array) = Array.map Int64.bits_of_float xs

(* Out-of-range and negative indices on 1-D and 2-D loads read 0, through
   constant, slot and computed index leaves; a single index into 2-D
   storage is a flat offset checked against numel. *)
let test_oob_loads () =
  let open Tir in
  let open Builder in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int 4 ] in
  let m_buf = buffer ~dtype:Dtype.F32 "M" [ int 2; int 3 ] in
  let i_buf = buffer ~dtype:Dtype.I32 "I" [ int 3 ] in
  let out = buffer ~dtype:Dtype.F32 "Out" [ int 40 ] in
  let ld1 b e = Ir.Load (b, [ e ]) and ld2 b e f = Ir.Load (b, [ e; f ]) in
  let fixed =
    [ ld1 a_buf (int (-1)); ld1 a_buf (int 4); ld1 a_buf (int 3);
      ld2 m_buf (int (-1)) (int 0); ld2 m_buf (int 2) (int 0);
      ld2 m_buf (int 0) (int 3); ld2 m_buf (int 0) (int (-1));
      ld2 m_buf (int 1) (int 2); ld1 m_buf (int 5); ld1 m_buf (int 6);
      cast Dtype.F32 (ld1 i_buf (int (-1)));
      cast Dtype.F32 (ld1 i_buf (int 3));
      cast Dtype.F32 (ld1 i_buf (int 2)) ]
  in
  let nf = List.length fixed in
  let body =
    seq
      (List.mapi (fun k e -> store out [ int k ] e) fixed
      @ [ for_ "i" (int 6) (fun i ->
              let im1 = Ir.Binop (Ir.Sub, i, int 1) in
              seq
                [ store out [ int nf +: i ] (ld1 a_buf im1);
                  store out
                    [ int (nf + 6) +: i ]
                    (ld2 m_buf (Ir.Binop (Ir.Sub, i, int 2)) im1);
                  store out
                    [ int (nf + 12) +: i ]
                    (cast Dtype.F32 (ld2 i_buf i (int 0))) ]) ])
  in
  let fn = func "eng_oob_loads" [ a_buf; m_buf; i_buf; out ] body in
  let args () =
    let o = Tensor.create Dtype.F32 [ 40 ] in
    ( [ Tensor.of_float_array [ 4 ] [| 1.; 2.; 3.; 4. |];
        Tensor.of_float_array [ 2; 3 ] [| 5.; 6.; 7.; 8.; 9.; 10. |];
        Tensor.of_int_array [ 3 ] [| 11; 12; 13 |];
        o ],
      o )
  in
  match check_legs "oob loads" fn args with
  | None -> Alcotest.fail "an out-of-range load raised"
  | Some r ->
      Alcotest.(check (array (float 0.0)))
        "fixed indices" [| 0.; 0.; 4.; 0.; 0.; 0.; 0.; 10.; 10.; 0.; 0.; 0.; 13. |]
        (Array.sub r 0 nf);
      Alcotest.(check (array (float 0.0)))
        "A[i - 1]" [| 0.; 1.; 2.; 3.; 4.; 0. |] (Array.sub r nf 6);
      Alcotest.(check (array (float 0.0)))
        "M[i - 2, i - 1]" [| 0.; 0.; 6.; 10.; 0.; 0. |] (Array.sub r (nf + 6) 6);
      Alcotest.(check (array (float 0.0)))
        "I[i, 0] on 1-D storage" [| 0.; 0.; 0.; 0.; 0.; 0. |]
        (Array.sub r (nf + 12) 6)

(* A buffer declared 2-D but bound to 1-D or 3-D storage: every 2-D load
   is rank-mismatched and reads 0, for float and int dtypes. *)
let test_rank_mismatch_reads_zero () =
  let open Tir in
  let open Builder in
  let m_buf = buffer ~dtype:Dtype.F32 "M" [ int 2; int 3 ] in
  let i_buf = buffer ~dtype:Dtype.I32 "I" [ int 2; int 3 ] in
  let out = buffer ~dtype:Dtype.F32 "Out" [ int 12 ] in
  let fn =
    func "eng_rank_mismatch" [ m_buf; i_buf; out ]
      (for_ "r" (int 2) (fun r ->
           for_ "c" (int 3) (fun c ->
               let k = (r *: int 3) +: c in
               seq
                 [ store out [ k ] (load m_buf [ r; c ]);
                   store out [ int 6 +: k ] (cast Dtype.F32 (load i_buf [ r; c ]))
                 ])))
  in
  List.iter
    (fun (label, shape) ->
      let args () =
        let o = Tensor.create Dtype.F32 [ 12 ] in
        ( [ Tensor.of_float_array shape (Array.make 6 7.0);
            Tensor.of_int_array shape (Array.make 6 9);
            o ],
          o )
      in
      match check_legs ("rank mismatch " ^ label) fn args with
      | None -> Alcotest.fail "a rank-mismatched load raised"
      | Some r ->
          Alcotest.(check (array (float 0.0)))
            (label ^ " storage reads 0") (Array.make 12 0.0) r)
    [ ("1-D", [ 6 ]); ("3-D", [ 1; 2; 3 ]) ]

(* Strict stores raise [Invalid_argument] in every engine: past the end of
   1-D storage, negative, out of range in either dimension of 2-D storage,
   and a single flat index past the end of 2-D storage. *)
let test_oob_store_raises () =
  let open Tir in
  let open Builder in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int 4 ] in
  let m_buf = buffer ~dtype:Dtype.F32 "M" [ int 2; int 3 ] in
  let cases =
    [ ("1-D past end", a_buf, [ int 4 ]); ("1-D negative", a_buf, [ int (-1) ]);
      ("2-D row", m_buf, [ int 2; int 0 ]); ("2-D col", m_buf, [ int 0; int 3 ]);
      ("2-D flat past end", m_buf, [ int 6 ]) ]
  in
  List.iter
    (fun (label, b, idx) ->
      let fn =
        func "eng_oob_store" [ a_buf; m_buf ]
          (for_ "i" (int 2) (fun i ->
               store b idx (cast Dtype.F32 i +: float 1.0)))
      in
      let args () =
        let a = Tensor.create Dtype.F32 [ 4 ] in
        ([ a; Tensor.create Dtype.F32 [ 2; 3 ] ], a)
      in
      List.iter
        (fun (leg, out) ->
          Alcotest.(check bool) (label ^ ": " ^ leg ^ " raises") true
            (out = None))
        (legs fn args))
    cases

(* Int and float Min/Max applied directly must keep [Stdlib.min]/[max]
   semantics: NaN and signed zeros resolve by operand order. *)
let test_min_max () =
  let open Tir in
  let open Builder in
  let f_buf = buffer ~dtype:Dtype.F32 "F" [ int 4 ] in
  let i_buf = buffer ~dtype:Dtype.I32 "I" [ int 3 ] in
  let out = buffer ~dtype:Dtype.F32 "Out" [ int 32 ] in
  let f k = load f_buf [ int k ] and i k = load i_buf [ int k ] in
  let mn a b = Ir.Binop (Ir.Min, a, b) and mx a b = Ir.Binop (Ir.Max, a, b) in
  let pairs = [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 1) ] in
  let float_cases =
    List.concat_map (fun (a, b) -> [ mn (f a) (f b); mx (f a) (f b) ]) pairs
  in
  let int_cases =
    [ mn (i 0) (i 1); mx (i 0) (i 1); mn (i 1) (int 3); mx (int 3) (i 2);
      mn (i 2) (i 2) ]
  in
  let mixed = [ mn (i 0) (f 0); mx (f 1) (i 1); mn (i 2) (f 1) ] in
  let cases =
    float_cases @ List.map (cast Dtype.F32) int_cases @ mixed
  in
  let fn =
    func "eng_min_max" [ f_buf; i_buf; out ]
      (seq (List.mapi (fun k e -> store out [ int k ] e) cases))
  in
  let args () =
    let o = Tensor.create Dtype.F32 [ 32 ] in
    ( [ Tensor.of_float_array [ 4 ] [| 1.0; Float.nan; -0.0; 0.0 |];
        Tensor.of_int_array [ 3 ] [| -5; 7; 2 |];
        o ],
      o )
  in
  match check_legs "min/max" fn args with
  | None -> Alcotest.fail "min/max raised"
  | Some r ->
      let n = List.length cases in
      let expect =
        List.concat_map
          (fun (a, b) ->
            let v = [| 1.0; Float.nan; -0.0; 0.0 |] in
            [ Stdlib.min v.(a) v.(b); Stdlib.max v.(a) v.(b) ])
          pairs
        @ [ -5.; 7.; 3.; 3.; 2.; -5.; 7.; Float.nan ]
      in
      Alcotest.(check bool) "Stdlib.min/max semantics, bit-for-bit" true
        (bits (Array.sub r 0 n) = bits (Array.of_list expect))

(* Mixed int and float arithmetic: int/int stays integral (truncating
   division, floor division and modulo of negatives), anything else
   computes in floats; comparisons of mixed operands compare as floats. *)
let test_mixed_arith () =
  let open Tir in
  let open Builder in
  let i_buf = buffer ~dtype:Dtype.I32 "I" [ int 3 ] in
  let f_buf = buffer ~dtype:Dtype.F32 "F" [ int 2 ] in
  let out = buffer ~dtype:Dtype.F32 "Out" [ int 32 ] in
  let iout = buffer ~dtype:Dtype.I32 "IOut" [ int 16 ] in
  let i k = load i_buf [ int k ] and f k = load f_buf [ int k ] in
  let bin op a b = Ir.Binop (op, a, b) in
  let fcases =
    [ bin Ir.Add (i 0) (f 0); bin Ir.Mul (i 1) (f 1); bin Ir.Div (i 0) (f 0);
      bin Ir.Sub (f 1) (i 2); bin Ir.Div (i 0) (i 2);
      cast Dtype.F32 (bin Ir.Lt (i 0) (f 0));
      cast Dtype.F32 (bin Ir.Ge (f 1) (i 1));
      cast Dtype.F32 (bin Ir.Eq (i 2) (int 3)) ]
  in
  let icases =
    [ bin Ir.Sub (i 0) (int 4); bin Ir.Sub (int 4) (i 0); bin Ir.Mul (i 1) (int 3);
      bin Ir.Div (i 0) (int 2); bin Ir.Div (i 0) (i 2);
      bin Ir.Floor_div (i 0) (int 2); bin Ir.Floor_div (i 0) (i 2);
      bin Ir.Floor_mod (i 0) (int 3); bin Ir.Floor_mod (i 0) (i 2);
      bin Ir.Add (bin Ir.Mul (i 1) (int 2)) (i 2);
      (* a float stored to an int buffer truncates *)
      bin Ir.Mul (f 1) (i 2) ]
  in
  let fn =
    func "eng_mixed_arith" [ i_buf; f_buf; out; iout ]
      (seq
         (List.mapi (fun k e -> store out [ int k ] e) fcases
         @ List.mapi (fun k e -> store iout [ int k ] e) icases))
  in
  let args () =
    let o = Tensor.create Dtype.F32 [ 32 ] and io = Tensor.create Dtype.I32 [ 16 ] in
    ( [ Tensor.of_int_array [ 3 ] [| -7; 5; 3 |];
        Tensor.of_float_array [ 2 ] [| 0.5; -2.25 |];
        o; io ],
      io )
  in
  (match check_legs "mixed arith (int out)" fn args with
  | None -> Alcotest.fail "mixed arithmetic raised"
  | Some r ->
      Alcotest.(check (array (float 0.0)))
        "int results"
        [| -11.; 11.; 15.; -3.; -2.; -4.; -3.; 2.; 2.; 13.; -6.; 0.; 0.; 0.; 0.; 0. |]
        r);
  let fargs () =
    let a, _ = args () in
    (a, List.nth a 2)
  in
  match check_legs "mixed arith (float out)" fn fargs with
  | None -> Alcotest.fail "mixed arithmetic raised"
  | Some r ->
      Alcotest.(check (array (float 0.0)))
        "float results" [| -6.5; -11.25; -14.; -5.25; -2.; 1.; 0.; 1. |]
        (Array.sub r 0 8)

let mma_fn name ~a_dt ~b_dt ~c_dt =
  let open Tir in
  let open Builder in
  let a_buf = buffer ~dtype:a_dt "A" [ int 4; int 4 ] in
  let b_buf = buffer ~dtype:b_dt "B" [ int 4; int 4 ] in
  let c_buf = buffer ~dtype:c_dt "C" [ int 4; int 4 ] in
  let operand b = { Ir.op_buf = b; op_origin = [ int 0; int 0 ]; op_ld = int 4 } in
  func name [ a_buf; b_buf; c_buf ]
    (seq
       [ Ir.Mma_sync
           { Ir.mma_m = 4; mma_n = 4; mma_k = 4; mma_a = operand a_buf;
             mma_b = operand b_buf; mma_c = operand c_buf };
         (* a second product accumulates onto the first *)
         Ir.Mma_sync
           { Ir.mma_m = 4; mma_n = 4; mma_k = 4; mma_a = operand b_buf;
             mma_b = operand a_buf; mma_c = operand c_buf } ])

(* The MMA tile over float storage with an F16 accumulator: every stored
   element rounds through half precision, identically in every engine. *)
let test_mma_f16_accumulator () =
  let open Tir in
  let fn = mma_fn "eng_mma_f16" ~a_dt:Dtype.F32 ~b_dt:Dtype.F32 ~c_dt:Dtype.F16 in
  let args () =
    let c = Tensor.create Dtype.F16 [ 4; 4 ] in
    Tensor.fill_f c 0.1;
    ( [ Tensor.of_float_array [ 4; 4 ]
          (Array.init 16 (fun k -> 1.0 +. (float_of_int k *. (2.0 ** -11.0))));
        Tensor.of_float_array [ 4; 4 ]
          (Array.init 16 (fun k -> float_of_int (k - 7) /. 3.0));
        c ],
      c )
  in
  match check_legs "mma f16 accumulator" fn args with
  | None -> Alcotest.fail "mma raised"
  | Some r ->
      Alcotest.(check bool) "every element is half-precision" true
        (Array.for_all (fun x -> Dtype.round_f16 x = x) r)

(* Int-stored operands take [Prims.mma]'s per-element path, with the same
   result in every engine and the exact integer products. *)
let test_mma_int_storage () =
  let open Tir in
  let fn = mma_fn "eng_mma_int" ~a_dt:Dtype.I32 ~b_dt:Dtype.F32 ~c_dt:Dtype.F32 in
  let av = Array.init 16 (fun k -> k - 5) and bv = Array.init 16 (fun k -> 2 * k) in
  let args () =
    let c = Tensor.create Dtype.F32 [ 4; 4 ] in
    ( [ Tensor.of_int_array ~dtype:Dtype.I32 [ 4; 4 ] av;
        Tensor.of_float_array [ 4; 4 ] (Array.map float_of_int bv);
        c ],
      c )
  in
  let expect =
    Array.init 16 (fun k ->
        let i = k / 4 and j = k mod 4 in
        let s = ref 0 in
        for l = 0 to 3 do
          s := !s + (av.((i * 4) + l) * bv.((l * 4) + j))
               + (bv.((i * 4) + l) * av.((l * 4) + j))
        done;
        float_of_int !s)
  in
  match check_legs "mma int storage" fn args with
  | None -> Alcotest.fail "mma raised"
  | Some r -> Alcotest.(check (array (float 0.0))) "exact products" expect r

let () =
  Alcotest.run "engine"
    [ ( "differential",
        [ Alcotest.test_case "spmm" `Quick test_spmm;
          Alcotest.test_case "sddmm" `Quick test_sddmm;
          Alcotest.test_case "gemm" `Quick test_gemm;
          Alcotest.test_case "block_sparse" `Quick test_block_sparse;
          Alcotest.test_case "sptensor" `Quick test_sptensor;
          Alcotest.test_case "rgms" `Quick test_rgms;
          Alcotest.test_case "graphsage" `Quick test_graphsage;
          Alcotest.test_case "float reduction init" `Quick
            test_float_reduction_init;
          Alcotest.test_case "f16 cast rounding" `Quick test_f16_cast_rounding ] );
      ( "fusion",
        [ Alcotest.test_case "fused = unfused on spmm" `Quick
            test_fusion_differential;
          Alcotest.test_case "no stale hoist of written buffer" `Quick
            test_fusion_no_stale_hoist ] );
      ( "codegen_cache",
        [ Alcotest.test_case "warm tuner compiles nothing" `Quick
            test_warm_tuner_no_codegen;
          Alcotest.test_case "cache hit re-seeds engine memo" `Quick
            test_cache_reseeds_memo ] );
      ( "parallel",
        [ Alcotest.test_case "chunk grain edge cases" `Quick test_chunk_grain;
          Alcotest.test_case "injective gather runs parallel" `Quick
            test_gather_injective_parallel;
          Alcotest.test_case "unprovable gather falls back" `Quick
            test_gather_unprovable_fallback;
          Alcotest.test_case "mutation invalidates facts" `Quick
            test_fact_invalidation;
          Alcotest.test_case "reset zeroes re-registered counters" `Quick
            test_reset_zeroes_reregistered_counters;
          Alcotest.test_case "hyb buckets: parallel, no fallback" `Quick
            test_hyb_parallel_no_fallback;
          Alcotest.test_case "narrow output strips stitch exactly" `Quick
            test_narrow_output_strips;
          Alcotest.test_case "parallel tasks run each index once" `Quick
            test_parallel_tasks;
          Alcotest.test_case "declared format facts: no scans, no fallback"
            `Quick test_format_facts_no_scan;
          Alcotest.test_case "replica cache: reuse and invalidation" `Quick
            test_replica_reuse;
          Alcotest.test_case "work stealing: skewed hyb bit-identical" `Quick
            test_stealing_skewed_bit_identical;
          Alcotest.test_case "fallbacks count only with a budget" `Quick
            test_fallback_needs_budget ] );
      ( "access",
        [ Alcotest.test_case "out-of-range loads read 0" `Quick test_oob_loads;
          Alcotest.test_case "rank-mismatched binding reads 0" `Quick
            test_rank_mismatch_reads_zero;
          Alcotest.test_case "out-of-range store raises" `Quick
            test_oob_store_raises;
          Alcotest.test_case "int and float min/max" `Quick test_min_max;
          Alcotest.test_case "mixed int and float arithmetic" `Quick
            test_mixed_arith;
          Alcotest.test_case "mma with an f16 accumulator" `Quick
            test_mma_f16_accumulator;
          Alcotest.test_case "mma with int-stored operands" `Quick
            test_mma_int_storage ] ) ]
