(* Interpreter-vs-compiled throughput on the bechamel kernel set.

   Each kernel is built once through the pipeline (codegen happens there and
   is excluded from the timed region), then executed under both engines in
   alternating rounds ([time_pair]).  Prints the per-kernel comparison and
   writes BENCH_engine.json so the perf trajectory is tracked across PRs. *)

open Formats

(* ck_fns: the stage-III funcs the kernel executes, so the per-kernel table
   can show the fusion peephole's compile-time site counters next to the
   timings (the acceptance gate wants them nonzero on MMA and SpMM). *)
type case = {
  ck_name : string;
  ck_run : Engine.kind -> unit;
  ck_fns : Tir.Ir.func list;
}

let cases () : case list =
  let graph =
    Workloads.Graphs.generate ~seed:3
      { Workloads.Graphs.g_name = "bench"; g_nodes = 300; g_edges = 2400;
        g_shape = Workloads.Graphs.Power_law 1.8 }
  in
  let feat = 32 in
  let x = Dense.random ~seed:11 graph.Csr.cols feat in
  let exec (c : Kernels.Spmm.compiled) engine =
    Gpusim.execute ~engine c.Kernels.Spmm.fn c.Kernels.Spmm.bindings
  in
  let exec_bs (c : Kernels.Block_sparse.compiled) engine =
    Gpusim.execute ~engine c.Kernels.Block_sparse.fn
      c.Kernels.Block_sparse.bindings
  in
  let spmm_hyb, _ = Kernels.Spmm.sparsetir_hyb ~c:1 graph x ~feat in
  let spmm_csr = Kernels.Spmm.dgsparse graph x ~feat in
  let xs = Dense.random ~seed:5 graph.Csr.rows feat in
  let ys = Dense.random ~seed:6 feat graph.Csr.cols in
  let sddmm = Kernels.Sddmm.sparsetir graph xs ys ~feat in
  let mask = Workloads.Attention.band ~size:128 ~band:32 () in
  let battn =
    Kernels.Block_sparse.bsr_spmm (Bsr.of_csr ~block:16 mask) ~heads:2
      (Workloads.Attention.batched_dense ~heads:2 ~rows:128 ~cols:32 ())
      ~feat:32
  in
  let w =
    Workloads.Pruning.movement_pruned ~rows:128 ~cols:96 ~density:0.08 ()
  in
  let srb =
    Kernels.Block_sparse.sr_bcrs_spmm
      (Sr_bcrs.of_csr ~tile:8 ~group:16 w)
      (Dense.random ~seed:4 96 32)
  in
  let dbsr_w =
    Workloads.Pruning.block_pruned ~rows:128 ~cols:96 ~block:16 ~density:0.2 ()
  in
  let dbsr =
    Kernels.Block_sparse.dbsr_spmm
      (Dbsr.of_csr ~block:16 dbsr_w)
      (Dense.random ~seed:4 96 32)
  in
  let hetero =
    Workloads.Hetero.generate
      { Workloads.Hetero.h_name = "bench"; h_nodes = 64; h_edges = 600;
        h_etypes = 4 }
  in
  let x_h = Dense.random ~seed:3 64 16 in
  let w_h = Array.init 4 (fun r -> Dense.random ~seed:(50 + r) 16 16) in
  let rgms = Kernels.Rgms.hyb_tc hetero.Workloads.Hetero.relations x_h w_h in
  let cloud = Workloads.Pointcloud.generate ~grid:16 ~target_points:300 () in
  let conv_rels = Workloads.Pointcloud.conv_relations cloud in
  let npts = Workloads.Pointcloud.n_points cloud in
  let conv =
    Kernels.Rgms.gather_two_stage conv_rels
      (Dense.random ~seed:3 npts 16)
      (Array.init (Array.length conv_rels) (fun r ->
           Dense.random ~seed:r 16 16))
  in
  let gsage =
    Nn.Graphsage.epoch Nn.Graphsage.Dgl graph ~in_feat:16 ~hidden:16
      ~out_feat:8 ()
  in
  [ { ck_name = "spmm_hyb";
      ck_run = exec spmm_hyb;
      ck_fns = [ spmm_hyb.Kernels.Spmm.fn ] };
    { ck_name = "spmm_csr";
      ck_run = exec spmm_csr;
      ck_fns = [ spmm_csr.Kernels.Spmm.fn ] };
    { ck_name = "sddmm";
      ck_run =
        (fun engine ->
          Gpusim.execute ~engine sddmm.Kernels.Sddmm.fn
            sddmm.Kernels.Sddmm.bindings);
      ck_fns = [ sddmm.Kernels.Sddmm.fn ] };
    { ck_name = "attention_bsr";
      ck_run = exec_bs battn;
      ck_fns = [ battn.Kernels.Block_sparse.fn ] };
    { ck_name = "dbsr";
      ck_run = exec_bs dbsr;
      ck_fns = [ dbsr.Kernels.Block_sparse.fn ] };
    { ck_name = "srbcrs";
      ck_run = exec_bs srb;
      ck_fns = [ srb.Kernels.Block_sparse.fn ] };
    { ck_name = "rgms_hyb_tc";
      ck_run = (fun engine -> Kernels.Rgms.execute ~engine rgms);
      ck_fns = List.map fst rgms.Kernels.Rgms.steps };
    { ck_name = "sparse_conv";
      ck_run = (fun engine -> Kernels.Rgms.execute ~engine conv);
      ck_fns = List.map fst conv.Kernels.Rgms.steps };
    { ck_name = "graphsage_epoch";
      ck_run = (fun engine -> Nn.Graphsage.execute ~engine gsage);
      ck_fns = List.map fst gsage.Nn.Graphsage.steps } ]

(* ns/iter with an adaptive iteration count: one untimed warm-up run (also
   forces codegen for the compiled engine), then enough iterations to fill
   the time budget. *)
let time_ns ~(budget : float) (f : unit -> unit) : float =
  f ();
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let iters = max 3 (int_of_float (budget /. Float.max once 1e-9)) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

(* Rounds [time_pair] alternates over; odd, so the median is one round. *)
let pair_rounds = 7

(* Median ns/iter of two legs timed alternately.  Each leg gets one untimed
   warm-up run (which also forces codegen for the compiled engine) and one
   calibration run that sizes its per-round iteration count to [budget]
   seconds; then [pair_rounds] rounds time both legs back to back, swapping
   which goes first every round.  A shared host's speed drifts by tens of
   percent within seconds: alternation exposes both legs to the same drift,
   and the median drops the rounds a burst of contention disturbed. *)
let time_pair ~(budget : float) (a : unit -> unit) (b : unit -> unit) :
    float * float =
  let iters f =
    f ();
    let t0 = Unix.gettimeofday () in
    f ();
    max 1 (int_of_float (budget /. Float.max (Unix.gettimeofday () -. t0) 1e-9))
  in
  let ia = iters a and ib = iters b in
  let ns f k =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to k do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int k
  in
  let ta = Array.make pair_rounds 0.0 and tb = Array.make pair_rounds 0.0 in
  for r = 0 to pair_rounds - 1 do
    if r mod 2 = 0 then begin
      ta.(r) <- ns a ia;
      tb.(r) <- ns b ib
    end
    else begin
      tb.(r) <- ns b ib;
      ta.(r) <- ns a ia
    end
  done;
  let median xs =
    Array.sort compare xs;
    xs.(pair_rounds / 2)
  in
  (median ta, median tb)

let run ?(full = false) () =
  Report.header "Engine: interpreter vs compiled closures (wall clock)";
  (* pinned to one domain: this bench isolates codegen throughput, and its
     JSON feeds the CI trend check — parallel scaling is measured separately
     by the [parallel] target *)
  let saved_domains = Engine.num_domains () in
  Engine.set_num_domains 1;
  Fun.protect ~finally:(fun () -> Engine.set_num_domains saved_domains)
  @@ fun () ->
  let budget = if full then 0.5 else 0.05 in
  let rows = ref [] and speedups = ref [] in
  Printf.printf "%-20s %14s %14s %9s %12s  %s\n" "kernel" "interp ns/it"
    "compiled ns/it" "speedup" "fused/hoist" "fb reasons";
  List.iter
    (fun c ->
      let interp_ns, compiled_ns =
        time_pair ~budget
          (fun () -> c.ck_run Engine.Interp)
          (fun () -> c.ck_run Engine.Compiled)
      in
      let speedup = interp_ns /. compiled_ns in
      (* one untimed probe run at two domains: the timed legs pin domains=1
         where the parallel dispatch never fires, so this is what populates
         the artifacts' fallback-reason counters for the last column *)
      Engine.set_num_domains 2;
      c.ck_run Engine.Compiled;
      Engine.set_num_domains 1;
      (* the compiled leg's warm-up forced codegen, so the memoized artifacts
         carry this kernel's fusion-site counters *)
      let fused, hoisted =
        List.fold_left
          (fun (f, h) fn ->
            let a = Engine.artifact fn in
            (f + Engine.fused_sites a, h + Engine.hoisted_sites a))
          (0, 0) c.ck_fns
      in
      let reasons =
        List.fold_left
          (fun acc fn ->
            List.map2
              (fun (l, n) (_, n') -> (l, n + n'))
              acc
              (Engine.fallback_reasons (Engine.artifact fn)))
          (List.map (fun l -> (l, 0)) [ "indirect"; "bsearch"; "non-linear";
                                        "no-witness" ])
          c.ck_fns
      in
      Printf.printf "%-20s %14.0f %14.0f %8.2fx %7d/%4d  %s\n%!" c.ck_name
        interp_ns compiled_ns speedup fused hoisted
        (Engine.reasons_to_string reasons);
      speedups := speedup :: !speedups;
      rows :=
        !rows
        @ [ Report.row c.ck_name "interp_ns" "ns/iter" interp_ns;
            Report.row c.ck_name "compiled_ns" "ns/iter" compiled_ns;
            Report.row ~gate:Ratio c.ck_name "speedup" "x" speedup ])
    (cases ());
  let geomean_speedup = Report.geomean !speedups in
  Printf.printf "geomean speedup: %.2fx (compiled vs interp)\n" geomean_speedup;
  Report.write_json ~bench:"engine"
    (!rows @ [ Report.row "all" "geomean_speedup" "x" geomean_speedup ])
