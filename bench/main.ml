(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md S4 for the experiment index), then runs Bechamel
   wall-clock micro-benchmarks of representative kernels executing on the
   selected engine (compiled closures by default; see DESIGN.md S3c).

   Usage:
     dune exec bench/main.exe                 -- all experiments, quick scale
     dune exec bench/main.exe -- --full       -- paper-scale sweep (slower)
     dune exec bench/main.exe -- fig13 fig20  -- selected experiments
     dune exec bench/main.exe -- engine       -- interp-vs-compiled comparison
     dune exec bench/main.exe -- --no-bechamel
     dune exec bench/main.exe -- --engine=interp  -- run on the interpreter
     dune exec bench/main.exe -- parallel --domains=4
                                              -- serial vs domains-parallel *)

open Formats

let experiments ~full ~domains : (string * (unit -> unit)) list =
  [ ("table1", Gnn_bench.table1);
    ("fig12", Gnn_bench.fig12);
    ("fig13", fun () -> Gnn_bench.fig13 ~full ());
    ("fig14", fun () -> Gnn_bench.fig14 ~full ());
    ("fig15", fun () -> Gnn_bench.fig15 ~full ());
    ("fig16", fun () -> Transformer_bench.fig16 ~full ());
    ("fig17", fun () -> Transformer_bench.fig17 ~full ());
    ("fig19", fun () -> Transformer_bench.fig19 ~full ());
    ("table2", Rgms_bench.table2);
    ("fig20", fun () -> Rgms_bench.fig20 ~full ());
    ("fig23", fun () -> Rgms_bench.fig23 ~full ());
    ("ablations", Ablation_bench.run);
    ("pipeline", Pipeline_bench.run);
    ("engine", fun () -> Engine_bench.run ~full ());
    ("formats", fun () -> Formats_bench.run ~full ());
    ("parallel", fun () -> Parallel_bench.run ~full ~domains ());
    ("tuner", fun () -> Tuner_bench.run ~full ());
    ("mutate", fun () -> Mutate_bench.run ~full ()) ]

(* --------------- Bechamel micro-benchmarks ------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let small_graph =
    Workloads.Graphs.generate ~seed:3
      { Workloads.Graphs.g_name = "bench"; g_nodes = 300; g_edges = 2400;
        g_shape = Workloads.Graphs.Power_law 1.8 }
  in
  let feat = 32 in
  let x = Dense.random ~seed:11 small_graph.Csr.cols feat in
  let spmm_hyb, _ = Kernels.Spmm.sparsetir_hyb ~c:1 small_graph x ~feat in
  let spmm_csr = Kernels.Spmm.dgsparse small_graph x ~feat in
  let xs = Dense.random ~seed:5 small_graph.Csr.rows feat in
  let ys = Dense.random ~seed:6 feat small_graph.Csr.cols in
  let sddmm = Kernels.Sddmm.sparsetir small_graph xs ys ~feat in
  let mask = Workloads.Attention.band ~size:128 ~band:32 () in
  let bsr = Bsr.of_csr ~block:16 mask in
  let battn =
    Kernels.Block_sparse.bsr_spmm bsr ~heads:2
      (Workloads.Attention.batched_dense ~heads:2 ~rows:128 ~cols:32 ())
      ~feat:32
  in
  let w = Workloads.Pruning.movement_pruned ~rows:128 ~cols:96 ~density:0.08 () in
  let srb =
    Kernels.Block_sparse.sr_bcrs_spmm
      (Sr_bcrs.of_csr ~tile:8 ~group:16 w)
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
      (Array.init (Array.length conv_rels) (fun r -> Dense.random ~seed:r 16 16))
  in
  let gsage =
    Nn.Graphsage.epoch Nn.Graphsage.Dgl small_graph ~in_feat:16 ~hidden:16
      ~out_feat:8 ()
  in
  let dbsr_w =
    Workloads.Pruning.block_pruned ~rows:128 ~cols:96 ~block:16 ~density:0.2 ()
  in
  let dbsr =
    Kernels.Block_sparse.dbsr_spmm
      (Dbsr.of_csr ~block:16 dbsr_w)
      (Dense.random ~seed:4 96 32)
  in
  [ Test.make ~name:"table1_hyb_conversion"
      (Staged.stage (fun () ->
           ignore (Hyb.of_csr ~c:2 ~k:3 small_graph)));
    Test.make ~name:"fig12_hyb_partitioned"
      (Staged.stage (fun () ->
           let c, _ = Kernels.Spmm.sparsetir_hyb ~c:2 small_graph x ~feat in
           ignore c.Kernels.Spmm.fn));
    Test.make ~name:"fig13_spmm_hyb"
      (Staged.stage (fun () ->
           Gpusim.execute spmm_hyb.Kernels.Spmm.fn spmm_hyb.Kernels.Spmm.bindings));
    Test.make ~name:"fig13_spmm_csr"
      (Staged.stage (fun () ->
           Gpusim.execute spmm_csr.Kernels.Spmm.fn spmm_csr.Kernels.Spmm.bindings));
    Test.make ~name:"fig14_sddmm"
      (Staged.stage (fun () ->
           Gpusim.execute sddmm.Kernels.Sddmm.fn sddmm.Kernels.Sddmm.bindings));
    Test.make ~name:"fig15_graphsage_epoch"
      (Staged.stage (fun () -> Nn.Graphsage.execute gsage));
    Test.make ~name:"fig16_attention_bsr"
      (Staged.stage (fun () ->
           Gpusim.execute battn.Kernels.Block_sparse.fn
             battn.Kernels.Block_sparse.bindings));
    Test.make ~name:"fig17_dbsr"
      (Staged.stage (fun () ->
           Gpusim.execute dbsr.Kernels.Block_sparse.fn
             dbsr.Kernels.Block_sparse.bindings));
    Test.make ~name:"fig19_srbcrs"
      (Staged.stage (fun () ->
           Gpusim.execute srb.Kernels.Block_sparse.fn
             srb.Kernels.Block_sparse.bindings));
    Test.make ~name:"fig20_rgms_hyb_tc"
      (Staged.stage (fun () -> Kernels.Rgms.execute rgms));
    Test.make ~name:"fig23_sparse_conv"
      (Staged.stage (fun () -> Kernels.Rgms.execute conv)) ]

let run_bechamel () =
  Report.header
    (Printf.sprintf "Bechamel: %s-engine wall-clock of representative kernels"
       (Engine.kind_to_string !Engine.default_kind));
  let open Bechamel in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-28s %12.3f us/run\n%!" name (est /. 1000.0)
          | _ -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    (bechamel_tests ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  let names = List.map fst (experiments ~full ~domains:0) in
  (* --engine=interp|compiled selects the execution backend for every
     correctness run in the harness (the engine experiment still times both);
     --domains=N sets the engine's domain budget (0 = auto, same convention
     as Engine.set_num_domains — the single clamp) and the parallel bench's
     parallel leg.  An unknown argument or a malformed flag value prints the
     usage and exits 2. *)
  let domains = ref None and bad = ref [] in
  List.iter
    (fun a ->
      match String.index_opt a '=' with
      | Some i -> (
          let v = String.sub a (i + 1) (String.length a - i - 1) in
          match String.sub a 0 i with
          | "--engine" -> (
              match Engine.kind_of_string v with
              | k -> Engine.default_kind := k
              | exception Invalid_argument _ -> bad := a :: !bad)
          | "--domains" -> (
              match int_of_string_opt v with
              | Some n -> domains := Some n
              | None -> bad := a :: !bad)
          | _ -> bad := a :: !bad)
      | None ->
          if not (List.mem a ("--full" :: "--no-bechamel" :: names)) then
            bad := a :: !bad)
    args;
  if !bad <> [] then begin
    Printf.eprintf
      "bench: unknown argument(s) or bad flag value(s): %s\n\
       experiments: %s\n\
       flags: --full --no-bechamel --engine=interp|compiled --domains=N\n"
      (String.concat " " (List.rev !bad))
      (String.concat " " names);
    exit 2
  end;
  Option.iter Engine.set_num_domains !domains;
  let selected = List.filter (fun a -> List.mem a names) args in
  let exps = experiments ~full ~domains:(Option.value !domains ~default:0) in
  let to_run =
    if selected = [] then exps
    else List.filter (fun (n, _) -> List.mem n selected) exps
  in
  Printf.printf
    "SparseTIR reproduction benchmarks (%s scale, %s engine)\n\
     Simulated GPUs: V100, RTX3070 (see DESIGN.md for the substitution \
     rationale)\n"
    (if full then "paper" else "quick")
    (Engine.kind_to_string !Engine.default_kind);
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      f ();
      Printf.printf "[%s completed in %.1fs]\n%!" name
        (Unix.gettimeofday () -. t0))
    to_run;
  Report.header "Compilation pipeline summary (all experiments)";
  print_string (Pipeline.report ());
  if (not no_bechamel) && selected = [] then run_bechamel ()
