(* GPU simulator tests: cache simulator behaviour, coalescing classification,
   profile invariants and load-imbalance sensitivity. *)

open Tir
open Formats

(* ---------------- cache simulator ---------------- *)

let test_cache_basic () =
  let c = Gpusim.Cache.create ~bytes:1024 ~line:32 ~assoc:2 in
  (* first touch misses, second hits *)
  Alcotest.(check bool) "cold miss" false (Gpusim.Cache.access_line c 0);
  Alcotest.(check bool) "warm hit" true (Gpusim.Cache.access_line c 0);
  Alcotest.(check bool) "same line hit" true (Gpusim.Cache.access_line c 16);
  Alcotest.(check bool) "different line miss" false (Gpusim.Cache.access_line c 64)

let test_cache_lru_eviction () =
  (* 2-way set: three conflicting lines evict the least recently used *)
  let c = Gpusim.Cache.create ~bytes:1024 ~line:32 ~assoc:2 in
  let sets = c.Gpusim.Cache.sets in
  let stride = sets * 32 in
  ignore (Gpusim.Cache.access_line c 0);
  ignore (Gpusim.Cache.access_line c stride);
  ignore (Gpusim.Cache.access_line c (2 * stride));
  (* line 0 was LRU and must be gone *)
  Alcotest.(check bool) "lru evicted" false (Gpusim.Cache.access_line c 0);
  (* line 2*stride is still resident *)
  Alcotest.(check bool) "mru resident" true (Gpusim.Cache.access_line c (2 * stride))

let test_cache_run () =
  let c = Gpusim.Cache.create ~bytes:4096 ~line:64 ~assoc:4 in
  (* a dense sweep over 256 bytes touches 4 lines, all cold *)
  let h, m = Gpusim.Cache.access_run c ~base:0 ~stride:4 ~count:64 ~bytes:4 in
  Alcotest.(check int) "cold lines" 4 m;
  Alcotest.(check int) "no hits on cold sweep" 0 h;
  let h2, m2 = Gpusim.Cache.access_run c ~base:0 ~stride:4 ~count:64 ~bytes:4 in
  Alcotest.(check int) "warm lines" 4 h2;
  Alcotest.(check int) "no misses when warm" 0 m2

(* ---------------- coalescing sensitivity ---------------- *)

(* Two variants of the same dense copy: feature-contiguous (coalesced) vs
   row-strided (uncoalesced).  The coalesced kernel must be faster and move
   fewer DRAM bytes. *)
let copy_kernel ~(coalesced : bool) ~(n : int) ~(d : int) :
    Ir.func * Gpusim.bindings =
  let open Builder in
  let src = buffer "SRC" [ int n; int d ] in
  let dst = buffer "DST" [ int n; int d ] in
  let bi = var "b" and tx = var "t" and s = var "s" in
  let body =
    Ir.For
      { for_var = bi; extent = int n; kind = Ir.Thread_bind Ir.Block_x;
        body =
          Ir.For
            { for_var = tx; extent = int 32; kind = Ir.Thread_bind Ir.Thread_x;
              body =
                (* repeat the sweep so the data is cache-resident and the
                   kernel is transaction-bound rather than DRAM-bound: only
                   then does coalescing change the duration (a strided
                   pattern that still covers every byte costs extra
                   transactions, not extra DRAM traffic) *)
                Ir.For
                  { for_var = Builder.var "rep"; extent = int 32;
                    kind = Ir.Serial;
                    body =
                      Ir.For
                        { for_var = s; extent = int (d / 32); kind = Ir.Serial;
                          body =
                            (let idx =
                               if coalesced then [ v bi; (v s *: int 32) +: v tx ]
                               else [ v bi; (v tx *: int (d / 32)) +: v s ]
                             in
                             store dst idx (load src idx)) } } } }
  in
  let src_t = Tensor.of_float_array [ n; d ] (Array.init (n * d) float_of_int) in
  let dst_t = Tensor.create Dtype.F32 [ n; d ] in
  (func "copy" [ src; dst ] body, [ ("SRC", src_t); ("DST", dst_t) ])

let test_coalescing_matters () =
  let spec = Gpusim.Spec.v100 in
  let fn_c, b_c = copy_kernel ~coalesced:true ~n:512 ~d:128 in
  let fn_u, b_u = copy_kernel ~coalesced:false ~n:512 ~d:128 in
  let p_c = Gpusim.run spec fn_c b_c in
  let p_u = Gpusim.run spec fn_u b_u in
  Alcotest.(check bool)
    (Printf.sprintf "coalesced (%.4f) faster than strided (%.4f)"
       p_c.Gpusim.p_time_ms p_u.Gpusim.p_time_ms)
    true
    (p_c.Gpusim.p_time_ms < p_u.Gpusim.p_time_ms)

(* ---------------- load imbalance sensitivity ---------------- *)

let test_imbalance_matters () =
  (* same nnz, one skewed graph vs one uniform: the row-per-thread (TACO)
     kernel must suffer more on the skewed graph than GE-SpMM-style *)
  let skew =
    Workloads.Graphs.generate ~seed:5
      { Workloads.Graphs.g_name = "skew"; g_nodes = 2000; g_edges = 20000;
        g_shape = Workloads.Graphs.Power_law 1.3 }
  in
  let uni =
    Workloads.Graphs.generate ~seed:5
      { Workloads.Graphs.g_name = "uni"; g_nodes = 2000; g_edges = 20000;
        g_shape = Workloads.Graphs.Centralized 0.1 }
  in
  let spec = Gpusim.Spec.v100 in
  let feat = 32 in
  let time g variant =
    let x = Dense.random ~seed:1 g.Csr.cols feat in
    let c =
      match variant with
      | `Taco -> Kernels.Spmm.taco g x ~feat
      | `Hyb -> fst (Kernels.Spmm.sparsetir_hyb ~c:1 g x ~feat)
    in
    (Gpusim.run ~horizontal_fusion:true spec c.Kernels.Spmm.fn
       c.Kernels.Spmm.bindings)
      .Gpusim.p_time_ms
  in
  let slowdown_taco = time skew `Taco /. time uni `Taco in
  let slowdown_hyb = time skew `Hyb /. time uni `Hyb in
  Alcotest.(check bool)
    (Printf.sprintf
       "row-per-thread degrades more under skew (taco %.2fx vs hyb %.2fx)"
       slowdown_taco slowdown_hyb)
    true
    (slowdown_taco > slowdown_hyb)

(* ---------------- profile invariants ---------------- *)

let test_profile_invariants () =
  let a = Csr.of_dense (Dense.random ~seed:2 64 64) in
  let x = Dense.random ~seed:3 64 32 in
  let c = Kernels.Spmm.dgsparse a x ~feat:32 in
  let p = Gpusim.run Gpusim.Spec.v100 c.Kernels.Spmm.fn c.Kernels.Spmm.bindings in
  Alcotest.(check bool) "positive time" true (p.Gpusim.p_time_ms > 0.0);
  Alcotest.(check bool) "hit rates in [0,1]" true
    (p.Gpusim.p_l1_hit_rate >= 0.0 && p.Gpusim.p_l1_hit_rate <= 1.0
    && p.Gpusim.p_l2_hit_rate >= 0.0 && p.Gpusim.p_l2_hit_rate <= 1.0);
  Alcotest.(check bool) "memory footprint counted" true
    (p.Gpusim.p_memory_bytes > 0);
  (* identical run is deterministic *)
  let p2 = Gpusim.run Gpusim.Spec.v100 c.Kernels.Spmm.fn c.Kernels.Spmm.bindings in
  Alcotest.(check (float 1e-9)) "deterministic" p.Gpusim.p_cycles p2.Gpusim.p_cycles

let test_horizontal_fusion_reduces_launches () =
  let a = Workloads.Graphs.by_name "cora" in
  let x = Dense.random ~seed:4 a.Csr.cols 32 in
  let c, _ = Kernels.Spmm.sparsetir_hyb ~c:2 a x ~feat:32 in
  let on =
    Gpusim.run ~horizontal_fusion:true Gpusim.Spec.v100 c.Kernels.Spmm.fn
      c.Kernels.Spmm.bindings
  in
  let off =
    Gpusim.run ~horizontal_fusion:false Gpusim.Spec.v100 c.Kernels.Spmm.fn
      c.Kernels.Spmm.bindings
  in
  Alcotest.(check bool) "multiple kernels" true (off.Gpusim.p_launches > 1);
  Alcotest.(check bool) "fusion faster" true
    (on.Gpusim.p_cycles < off.Gpusim.p_cycles)

(* ---------------- pinned profiles ---------------- *)

(* Every field of every profile of a fixed kernel corpus is pinned: floats by
   their bit patterns, ints as themselves.  A faster walker must charge
   exactly what the old one charged, so none of these may move.  Only a
   deliberate change to the cost model re-pins them; the failure message
   prints the new literal of every entry that moved. *)

let pinned_graph ~seed ~nodes ~edges shape =
  Workloads.Graphs.generate ~seed
    { Workloads.Graphs.g_name = "pinned"; g_nodes = nodes; g_edges = edges;
      g_shape = shape }

(* A uniform dense copy with more blocks than [grid_sample_cap]: the grid
   is walked with a stride. *)
let sampled_copy ~(n : int) ~(d : int) : Ir.func * Gpusim.bindings =
  let open Builder in
  let src = buffer "SRC" [ int n; int d ] in
  let dst = buffer "DST" [ int n; int d ] in
  let bi = var "b" and tx = var "t" and s = var "s" in
  let body =
    Ir.For
      { for_var = bi; extent = int n; kind = Ir.Thread_bind Ir.Block_x;
        body =
          Ir.For
            { for_var = tx; extent = int 32; kind = Ir.Thread_bind Ir.Thread_x;
              body =
                Ir.For
                  { for_var = s; extent = int (d / 32); kind = Ir.Serial;
                    body =
                      (let idx = [ v bi; (v s *: int 32) +: v tx ] in
                       store dst idx (load src idx)) } } }
  in
  let src_t = Tensor.of_float_array [ n; d ] (Array.init (n * d) float_of_int) in
  ( func "copy" [ src; dst ] body,
    [ ("SRC", src_t); ("DST", Tensor.create Dtype.F32 [ n; d ]) ] )

(* Serial loops whose iterations issue different requests (every third one
   stores), so the two probes disagree and neither can be summarized: one
   runs past [fallback_cap] and is sampled.  A third loop holds an MMA, so
   it is never summarized, and is long enough to be sampled too. *)
let strided_stores ~(n : int) : Ir.func * Gpusim.bindings =
  let open Builder in
  let src = buffer "SRC" [ int n ] and dst = buffer "DST" [ int n ] in
  let bi = var "b" and tx = var "t" in
  let i = var "i" and j = var "j" and m = var "m" in
  let tile buf = { Ir.op_buf = buf; op_origin = [ v m ]; op_ld = int 16 } in
  let mma =
    { Ir.mma_m = 16; mma_n = 16; mma_k = 16;
      mma_a = tile src; mma_b = tile src; mma_c = tile dst }
  in
  let guarded x =
    Ir.If ((v x %^ int 3) =: int 0, store dst [ v x ] (load src [ v x ]), None)
  in
  let serial x extent body = Ir.For { for_var = x; extent; kind = Ir.Serial; body } in
  let body =
    Ir.For
      { for_var = bi; extent = int 2; kind = Ir.Thread_bind Ir.Block_x;
        body =
          Ir.For
            { for_var = tx; extent = int 32; kind = Ir.Thread_bind Ir.Thread_x;
              body =
                Ir.Seq
                  [ serial i (int n) (guarded i);
                    serial j (int 40) (guarded j);
                    serial m (int n) (Ir.Mma_sync mma) ] } }
  in
  let src_t = Tensor.of_float_array [ n ] (Array.init n float_of_int) in
  ( func "strided" [ src; dst ] body,
    [ ("SRC", src_t); ("DST", Tensor.create Dtype.F32 [ n ]) ] )

(* Row-per-thread CSR SpMV: lane [t] of block [b] walks row [b*32+t], so
   the non-zero loop's trip count differs across the warp (SIMT
   divergence) and its column reads are gathers. *)
let row_per_thread (a : Csr.t) : Ir.func * Gpusim.bindings =
  let open Builder in
  let rows = a.Csr.rows and nnz = Csr.nnz a in
  let indptr = buffer ~dtype:Dtype.I32 "A_indptr" [ int (rows + 1) ] in
  let indices = buffer ~dtype:Dtype.I32 "A_indices" [ int nnz ] in
  let data = buffer "A" [ int nnz ] in
  let x = buffer "X" [ int a.Csr.cols ] and y = buffer "Y" [ int rows ] in
  let b = var "b" and t = var "t" and r = var "r" and j = var "j" in
  let pos = load indptr [ v r ] +: v j in
  let body =
    Ir.For
      { for_var = b; extent = int ((rows + 31) / 32);
        kind = Ir.Thread_bind Ir.Block_x;
        body =
          Ir.For
            { for_var = t; extent = int 32; kind = Ir.Thread_bind Ir.Thread_x;
              body =
                Ir.Let_stmt
                  ( r, (v b *: int 32) +: v t,
                    Ir.Seq
                      [ Ir.Eval ((v t %^ int 64) +: (v t /^ int 64));
                        Ir.If
                          ( v r <: int rows,
                            Ir.For
                              { for_var = j;
                                extent = load indptr [ v r +: int 1 ] -: load indptr [ v r ];
                                kind = Ir.Serial;
                                body =
                                  store y [ v r ]
                                    (load y [ v r ]
                                    +: exp_
                                         (load data [ pos ]
                                         *: load x [ load indices [ pos ] ]
                                         *: float 0.5)) },
                            None ) ] ) } }
  in
  ( func "row_per_thread" [ indptr; indices; data; x; y ] body,
    [ ("A_indptr", Csr.indptr_tensor a); ("A_indices", Csr.indices_tensor a);
      ("A", Csr.data_tensor a);
      ("X",
        Tensor.of_float_array [ a.Csr.cols ] (Array.init a.Csr.cols float_of_int));
      ("Y", Tensor.create Dtype.F32 [ rows ]) ] )

(* The pinned corpus: together its kernels take every path of the walker. *)
let pinned_corpus () : (string * (unit -> Gpusim.profile)) list =
  let v100 = Gpusim.Spec.v100 in
  let open Workloads.Graphs in
  let power = pinned_graph ~seed:21 ~nodes:600 ~edges:4800 (Power_law 1.6) in
  let skew = pinned_graph ~seed:5 ~nodes:2000 ~edges:20000 (Power_law 1.3) in
  let central = pinned_graph ~seed:22 ~nodes:500 ~edges:4000 (Centralized 0.3) in
  let hyb ?(spec = v100) c fused () =
    let x = Dense.random ~seed:23 power.Csr.cols 16 in
    let k, _ = Kernels.Spmm.sparsetir_hyb ~c power x ~feat:16 in
    Gpusim.run ~horizontal_fusion:fused spec k.Kernels.Spmm.fn
      k.Kernels.Spmm.bindings
  in
  let ir (fn, b) () = Gpusim.run v100 fn b in
  let spmm f a feat () =
    let k = f a (Dense.random ~seed:24 a.Csr.cols feat) ~feat in
    Gpusim.run v100 k.Kernels.Spmm.fn k.Kernels.Spmm.bindings
  in
  [ ("hyb c=1 fused", hyb 1 true); ("hyb c=1", hyb 1 false);
    ("hyb c=2 fused", hyb 2 true); ("hyb c=2", hyb 2 false);
    ("hyb c=4 fused", hyb 4 true); ("hyb c=4", hyb 4 false);
    ("csr vec=2 feat=64",
      spmm (fun a x ~feat -> Kernels.Spmm.sparsetir_no_hyb ~vec:2 a x ~feat)
        central 64);
    ("taco skewed", spmm Kernels.Spmm.taco skew 32);
    ("row per thread skewed", ir (row_per_thread skew));
    ("sddmm two-stage",
      fun () ->
        let x = Dense.random ~seed:25 central.Csr.rows 32 in
        let y = Dense.random ~seed:26 32 central.Csr.cols in
        let k = Kernels.Sddmm.two_stage central x y ~feat:32 in
        Gpusim.run v100 k.Kernels.Sddmm.fn k.Kernels.Sddmm.bindings);
    ("bsr tensorize",
      fun () ->
        let mask = Workloads.Attention.band ~size:128 ~band:32 () in
        let bsr = Bsr.of_csr ~block:16 mask in
        let b =
          Workloads.Attention.batched_dense ~seed:27 ~heads:2 ~rows:128 ~cols:32 ()
        in
        let k = Kernels.Block_sparse.bsr_spmm bsr ~heads:2 b ~feat:32 in
        Gpusim.run v100 k.Kernels.Block_sparse.fn k.Kernels.Block_sparse.bindings);
    ("dense copy sampled", ir (sampled_copy ~n:4096 ~d:64));
    ("serial unsummarized", ir (strided_stores ~n:300));
    ("hyb c=2 rtx3070", hyb ~spec:Gpusim.Spec.rtx3070 2 true);
    ("graphsage epoch",
      fun () ->
        let a =
          normalize_rows
            (pinned_graph ~seed:28 ~nodes:200 ~edges:1600 (Power_law 2.0))
        in
        let t =
          Nn.Graphsage.epoch (Nn.Graphsage.Sparsetir 2) a ~in_feat:16 ~hidden:16
            ~out_feat:8 ~seed:29 ()
        in
        Nn.Graphsage.profile ~horizontal_fusion:true v100 t) ]

let profile_bits (p : Gpusim.profile) : int64 array =
  let f = Int64.bits_of_float and i = Int64.of_int in
  [| f p.Gpusim.p_cycles; f p.Gpusim.p_time_ms; f p.Gpusim.p_l1_hit_rate;
     f p.Gpusim.p_l2_hit_rate; f p.Gpusim.p_dram_bytes; f p.Gpusim.p_flops;
     i p.Gpusim.p_launches; i p.Gpusim.p_blocks; i p.Gpusim.p_memory_bytes;
     i p.Gpusim.p_smem_high |]

let pinned : (string * int64 array) list =
  [ ("hyb c=1 fused",
     [| 0x40bb1b0000000000L; 0x3f729399be9bcae5L; 0x3fd42a9092c6640dL;
        0x3fe8b55555555555L; 0x4108690000000000L; 0x40d7df8000000000L;
        0x5L; 0x2dfL; 0x23030L; 0x0L |]);
    ("hyb c=1",
     [| 0x40de6f8000000000L; 0x3f94dbdb2c692b0bL; 0x3fd42a9092c6640dL;
        0x3fe8b55555555555L; 0x4108690000000000L; 0x40d7df8000000000L;
        0x5L; 0x2dfL; 0x23030L; 0x0L |]);
    ("hyb c=2 fused",
     [| 0x40bb0e0000000000L; 0x3f728ab0eba13816L; 0x3fda20f41cdc36d3L;
        0x3fe8adefe3e6143aL; 0x41085d8000000000L; 0x40e38dc000000000L;
        0x9L; 0x2caL; 0x231d0L; 0x0L |]);
    ("hyb c=2",
     [| 0x40eb142000000000L; 0x3fa28ee38a1c3369L; 0x3fda20f41cdc36d3L;
        0x3fe8adefe3e6143aL; 0x41085d8000000000L; 0x40e38dc000000000L;
        0x9L; 0x2caL; 0x231d0L; 0x0L |]);
    ("hyb c=4 fused",
     [| 0x40bb5e0000000000L; 0x3f72c184c2e2495fL; 0x3fddc4f7de8d5ec6L;
        0x3fe8d96d52ee2e73L; 0x4108a00000000000L; 0x40e9930000000000L;
        0x11L; 0x2c3L; 0x23820L; 0x0L |]);
    ("hyb c=4",
     [| 0x40f970a000000000L; 0x3fb16f63195f00cbL; 0x3fddc4f7de8d5ec6L;
        0x3fe8d96d52ee2e73L; 0x4108a00000000000L; 0x40e9930000000000L;
        0x11L; 0x2c3L; 0x23820L; 0x0L |]);
    ("csr vec=2 feat=64",
     [| 0x40bbd80000000000L; 0x3f7315216b2583b9L; 0x3fd6d44467ea117eL;
        0x3fe84bea9f082e3fL; 0x4120238000000000L; 0x40c5800000000000L;
        0x1L; 0x3fL; 0x46c94L; 0x0L |]);
    ("taco skewed",
     [| 0x40f5125940000000L; 0x3face1f7787ea381L; 0x3fe836688b0cfaeeL;
        0x3fe6559ed5a4a324L; 0x413892be00000000L; 0x4100690000000000L;
        0x1L; 0xfaL; 0xa453cL; 0x0L |]);
    ("row per thread skewed",
     [| 0x40ec5de74aaaaaabL; 0x3fa370e684ab5a93L; 0x3feb119d8e532f05L;
        0x3fe860afcb43057eL; 0x4121f39c55555558L; 0x40d5b94000000000L;
        0x1L; 0x3fL; 0x2b3bcL; 0x0L |]);
    ("sddmm two-stage",
     [| 0x40dd8e0000000000L; 0x3f94414fa5a9c256L; 0x3feefc54559574f7L;
        0x3fee981bcec21335L; 0x4107c55555555555L; 0x41218b0000000000L;
        0x1L; 0x1f3L; 0x2b6f4L; 0x20L |]);
    ("bsr tensorize",
     [| 0x40be878000000000L; 0x3f74ec4decfcb03bL; 0x3fe512872d255128L;
        0x3fda5875f298cbbaL; 0x40f9cc0000000000L; 0x4116094000000000L;
        0x1L; 0x20L; 0x1187cL; 0x200L |]);
    ("dense copy sampled",
     [| 0x40d3440000000000L; 0x3f8a683b2cd6d2baL; 0x0L;
        0x0L; 0x4150000000000000L; 0x40c0000000000000L;
        0x1L; 0x1000L; 0x200000L; 0x0L |]);
    ("serial unsummarized",
     [| 0x40ea96c90f0f0f0fL; 0x3fa238fcf41e7c0cL; 0x3fefa7068dcd8e00L;
        0x3feeff6d63140b74L; 0x40c393c3c3c3c3c4L; 0x4120000000000000L;
        0x1L; 0x2L; 0x960L; 0x0L |]);
    ("hyb c=2 rtx3070",
     [| 0x40c0540000000000L; 0x3f73cb1b6dd290b0L; 0x3fdb9b5c8390f123L;
        0x3fe88debcbc3e173L; 0x4108488000000000L; 0x40e38dc000000000L;
        0x9L; 0x2caL; 0x231d0L; 0x0L |]);
    ("graphsage epoch",
     [| 0x40dc8f6666666668L; 0x3f9392d2956aae8cL; 0x3fd6ff76f24abe22L;
        0x3fd5e57fe6bd2959L; 0x412c77c000000000L; 0x40fbc40000000000L;
        0x2aL; 0x27bL; 0x2cf18L; 0x0L |]) ]

let test_profiles_pinned () =
  let actual =
    List.map (fun (name, run) -> (name, profile_bits (run ()))) (pinned_corpus ())
  in
  let moved =
    List.filter (fun (name, bits) -> List.assoc_opt name pinned <> Some bits) actual
  in
  let literal (name, bits) =
    let hex lo hi =
      String.concat "; "
        (List.init (hi - lo) (fun k -> Printf.sprintf "0x%LxL" bits.(lo + k)))
    in
    Printf.sprintf "    (%S,\n     [| %s;\n        %s;\n        %s |]);" name
      (hex 0 3) (hex 3 6) (hex 6 10)
  in
  if moved <> [] || List.length pinned <> List.length actual then
    Alcotest.failf "%d of %d pinned profiles moved; now:\n%s" (List.length moved)
      (List.length actual) (String.concat "\n" (List.map literal moved))

(* A run leaves nothing behind: A on a V100, B on an RTX 3070, a run that
   raises part-way, then A again, bit for bit. *)
let test_runs_independent () =
  let a =
    pinned_graph ~seed:21 ~nodes:600 ~edges:4800 (Workloads.Graphs.Power_law 1.6)
  in
  let x = Dense.random ~seed:23 a.Csr.cols 16 in
  let k, _ = Kernels.Spmm.sparsetir_hyb ~c:2 a x ~feat:16 in
  let run spec =
    profile_bits
      (Gpusim.run ~horizontal_fusion:true spec k.Kernels.Spmm.fn k.Kernels.Spmm.bindings)
  in
  let first = run Gpusim.Spec.v100 in
  ignore (run Gpusim.Spec.rtx3070);
  let stage1 = Kernels.Spmm.stage1 a ~feat:16 in
  let bindings, _ = Kernels.Spmm.base_bindings a x ~feat:16 in
  (match Gpusim.run Gpusim.Spec.v100 stage1 bindings with
  | _ -> Alcotest.fail "a stage-I function reached the simulator without error"
  | exception Gpusim.Cost.Cost_error _ -> ());
  Alcotest.(check (array int64)) "same profile after other runs" first
    (run Gpusim.Spec.v100)

let test_f16_rounding () =
  Alcotest.(check (float 1e-9)) "1.0 exact" 1.0 (Dtype.round_f16 1.0);
  Alcotest.(check (float 1e-9)) "0.5 exact" 0.5 (Dtype.round_f16 0.5);
  let x = 0.1 in
  let r = Dtype.round_f16 x in
  Alcotest.(check bool) "0.1 rounds" true (Float.abs (r -. x) > 0.0);
  Alcotest.(check bool) "0.1 close" true (Float.abs (r -. x) < 1e-3);
  Alcotest.(check bool) "65504 finite" true (Float.is_finite (Dtype.round_f16 65504.0));
  Alcotest.(check bool) "1e6 overflows to inf" true
    (Dtype.round_f16 1.0e6 = Float.infinity)

let () =
  Alcotest.run "gpusim"
    [ ( "cache",
        [ Alcotest.test_case "basic" `Quick test_cache_basic;
          Alcotest.test_case "lru" `Quick test_cache_lru_eviction;
          Alcotest.test_case "runs" `Quick test_cache_run ] );
      ( "model",
        [ Alcotest.test_case "coalescing" `Quick test_coalescing_matters;
          Alcotest.test_case "imbalance" `Quick test_imbalance_matters;
          Alcotest.test_case "profile invariants" `Quick test_profile_invariants;
          Alcotest.test_case "horizontal fusion" `Quick
            test_horizontal_fusion_reduces_launches;
          Alcotest.test_case "f16 rounding" `Quick test_f16_rounding ] );
      ( "profiles",
        [ Alcotest.test_case "profiles pinned" `Quick test_profiles_pinned;
          Alcotest.test_case "runs independent" `Quick test_runs_independent ] ) ]
