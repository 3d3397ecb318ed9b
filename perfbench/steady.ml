(* Workload "steady": compiled kernels run many times.  Closed loop, one
   client.

   Set-up compiles the paper's kernel set once and runs each kernel once.
   Each op is then one execution of the next kernel in a fixed rotation;
   the compile layers do no work, so op time is engine execution.  The
   rotation has seven entries, so the median op falls inside one kernel's
   distribution rather than on the edge between two. *)

open Formats

type kernel = {
  name : string;
  build : unit -> (Tir.Ir.func * Gpusim.bindings) list * Tir.Tensor.t;
      (** builds an instance: same inputs every call, fresh tensors *)
  fused : bool;  (** simulated with horizontal fusion *)
}

let graph ~seed ~nodes ~degree shape =
  Workloads.Graphs.generate ~seed
    { Workloads.Graphs.g_name = "steady"; g_nodes = nodes; g_edges = nodes * degree;
      g_shape = shape }

let single (fn, bindings, out) = ([ (fn, bindings) ], out)

(* The kernel set, with inputs drawn from [seed]. *)
let kernels ~(seed : int) : kernel list =
  let power = lazy (graph ~seed ~nodes:1200 ~degree:8 (Workloads.Graphs.Power_law 1.8)) in
  let central = lazy (graph ~seed:(seed + 1) ~nodes:1200 ~degree:8 (Workloads.Graphs.Centralized 0.3)) in
  let small = lazy (graph ~seed:(seed + 6) ~nodes:400 ~degree:8 (Workloads.Graphs.Power_law 1.8)) in
  let sage = lazy (Workloads.Graphs.normalize_rows (graph ~seed:(seed + 2) ~nodes:200 ~degree:8 (Workloads.Graphs.Power_law 2.0))) in
  let hetero =
    lazy
      (Workloads.Hetero.generate ~seed:(seed + 3)
         { Workloads.Hetero.h_name = "steady"; h_nodes = 400; h_edges = 4000; h_etypes = 4 })
  in
  let attn mask =
    let bsr = lazy (Bsr.of_csr ~block:16 (Lazy.force mask)) in
    fun () ->
      let heads = 2 and f = 32 in
      let size = (Lazy.force mask).Csr.rows in
      let b = Workloads.Attention.batched_dense ~seed:(seed + 4) ~heads ~rows:size ~cols:f () in
      let c = Kernels.Block_sparse.bsr_spmm (Lazy.force bsr) ~heads b ~feat:f in
      single (c.Kernels.Block_sparse.fn, c.Kernels.Block_sparse.bindings, c.Kernels.Block_sparse.out)
  in
  [ { name = "spmm_hyb"; fused = true;
      build =
        (fun () ->
          let a = Lazy.force power in
          let c, _ = Kernels.Spmm.sparsetir_hyb ~c:2 a (Dense.random ~seed a.Csr.cols 16) ~feat:16 in
          single (c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings, c.Kernels.Spmm.out)) };
    { name = "spmm_nohyb"; fused = false;
      build =
        (fun () ->
          let a = Lazy.force central in
          let c = Kernels.Spmm.sparsetir_no_hyb a (Dense.random ~seed a.Csr.cols 16) ~feat:16 in
          single (c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings, c.Kernels.Spmm.out)) };
    { name = "sddmm"; fused = false;
      build =
        (fun () ->
          let a = Lazy.force small in
          let x = Dense.random ~seed a.Csr.rows 16 in
          let y = Dense.random ~seed:(seed + 5) 16 a.Csr.cols in
          let c = Kernels.Sddmm.sparsetir a x y ~feat:16 in
          single (c.Kernels.Sddmm.fn, c.Kernels.Sddmm.bindings, c.Kernels.Sddmm.out)) };
    { name = "bsr_band"; fused = false;
      build = attn (lazy (Workloads.Attention.band ~size:256 ~band:64 ())) };
    { name = "bsr_butterfly"; fused = false;
      build = attn (lazy (Workloads.Attention.butterfly ~size:256 ~block:16 ())) };
    { name = "rgms_hyb_tc"; fused = true;
      build =
        (fun () ->
          let h = Lazy.force hetero in
          let n = h.Workloads.Hetero.spec.Workloads.Hetero.h_nodes in
          let rels = h.Workloads.Hetero.relations in
          let x = Dense.random ~seed n 16 in
          let w = Array.init (Array.length rels) (fun r -> Dense.random ~seed:(seed + 10 + r) 16 16) in
          let c = Kernels.Rgms.hyb_tc rels x w in
          (c.Kernels.Rgms.steps, c.Kernels.Rgms.out)) };
    { name = "graphsage"; fused = true;
      build =
        (fun () ->
          let t =
            Nn.Graphsage.epoch (Nn.Graphsage.Sparsetir 2) (Lazy.force sage) ~in_feat:16
              ~hidden:16 ~out_feat:8 ~seed ()
          in
          (t.Nn.Graphsage.steps, t.Nn.Graphsage.h2)) } ]

type instance = {
  k : kernel;
  steps : (Tir.Ir.func * Gpusim.bindings) list;
  out : Tir.Tensor.t;
  mutable expect : float array;  (** interpreter result of a sibling *)
  sim_us : float;
  mutable times : float list;  (** op latencies of the phase, ms *)
}

type state = { instances : instance array }

(* Compile every kernel and run it once, so the measured phase starts warm. *)
let setup ~(seed : int) : state =
  let instances =
    List.map
      (fun k ->
        let steps, out = k.build () in
        Gpusim.execute_many steps;
        let sim =
          (Gpusim.run_many ~horizontal_fusion:k.fused Gpusim.Spec.v100 steps).Gpusim.p_time_ms
        in
        { k; steps; out; expect = [||]; sim_us = sim *. 1000.0; times = [] })
      (kernels ~seed)
  in
  { instances = Array.of_list instances }

(* The reference of each kernel: a sibling instance run through the
   tree-walking interpreter ([Tir.Eval]), not the compiled engine. *)
let prepare (st : state) : state =
  Array.iter
    (fun i ->
      let steps, out = i.k.build () in
      Gpusim.execute_many ~engine:Engine.Interp steps;
      i.expect <- Tir.Tensor.to_float_array out)
    st.instances;
  st

let slo_ms = 150.0

(* Whole rotations for [seconds] of wall time, or exactly [ops] ops. *)
let run (st : state) ~(seconds : float) ~(ops : int option) : Run_result.t =
  Array.iter (fun i -> i.times <- []) st.instances;
  let lat = ref [] in
  let sims = ref [] in
  let tl = Run_result.tally () in
  let n = Array.length st.instances in
  let t_end = Util.now () +. seconds in
  let done_ () =
    match ops with Some m -> tl.Run_result.att >= m | None -> Util.now () >= t_end
  in
  while (not (done_ ())) || tl.Run_result.att mod n <> 0 do
    let i = st.instances.(tl.Run_result.att mod n) in
    tl.Run_result.att <- tl.Run_result.att + 1;
    Trace.op := tl.Run_result.att;
    Speed.tick ();
    match
      Util.timed (fun () ->
          Trace.span "harness.op" (fun () ->
              Trace.span ("engine.exec." ^ i.k.name) (fun () -> Gpusim.execute_many i.steps)))
    with
    | (), ms ->
        i.times <- ms :: i.times;
        sims := i.sim_us :: !sims;
        let got = Run_result.observed (Tir.Tensor.to_float_array i.out) in
        if not (Util.same_floats got i.expect) then
          Run_result.fail tl ("steady: " ^ i.k.name ^ " differs from the interpreter")
        else lat := Speed.scale ms :: !lat
    | exception e -> Run_result.fail tl ("steady: " ^ i.k.name ^ ": " ^ Printexc.to_string e)
  done;
  let latencies_ms = Array.of_list !lat in
  { Run_result.latencies_ms;
    busy_s = Util.sum latencies_ms /. 1000.0;
    attempted = tl.Run_result.att;
    failed = tl.Run_result.fail;
    sim_us = !sims;
    slo_ms;
    layer =
      List.concat_map
        (fun i ->
          [ ("engine.exec_ms." ^ i.k.name, Util.median (Array.of_list i.times));
            ("gpusim.sim_us." ^ i.k.name, i.sim_us) ])
        (Array.to_list st.instances) }
