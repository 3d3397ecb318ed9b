(* sparsetir-cli: inspect the compilation pipeline and run individual
   experiments from the command line.

   Subcommands:
     show   --op spmm|sddmm --graph NAME --feat N [--stage 1|2|3]
     run    --op ... --system ... : time one kernel on a simulated GPU
     bench  NAME [--full]        : one experiment from the harness *)

open Cmdliner
open Formats

let graph_arg =
  let doc = "Graph workload (cora, citeseer, pubmed, ppi, ogbn-arxiv, \
             ogbn-proteins, reddit)." in
  Arg.(value & opt string "cora" & info [ "graph" ] ~docv:"NAME" ~doc)

let feat_arg =
  let doc = "Dense feature size." in
  Arg.(value & opt int 32 & info [ "feat" ] ~docv:"N" ~doc)

let stage_arg =
  let doc = "Pipeline stage to print (1 = coordinate space, 2 = position \
             space, 3 = flat loop IR)." in
  Arg.(value & opt int 3 & info [ "stage" ] ~docv:"STAGE" ~doc)

let op_arg =
  let doc = "Operator: spmm or sddmm." in
  Arg.(value & opt string "spmm" & info [ "op" ] ~docv:"OP" ~doc)

let gpu_arg =
  let doc = "Simulated GPU: v100 or rtx3070." in
  Arg.(value & opt string "v100" & info [ "gpu" ] ~docv:"GPU" ~doc)

let spec_of = function
  | "rtx3070" -> Gpusim.Spec.rtx3070
  | _ -> Gpusim.Spec.v100

let engine_arg =
  let doc = "Execution engine for correctness runs: $(b,compiled) (closure \
             codegen, the default) or $(b,interp) (tree-walking \
             interpreter)." in
  Arg.(value
      & opt (enum [ ("compiled", Engine.Compiled); ("interp", Engine.Interp) ])
          Engine.Compiled
      & info [ "engine" ] ~docv:"ENGINE" ~doc)

let show graph feat op stage =
  let a = Workloads.Graphs.by_name graph in
  let fn =
    match op with
    | "sddmm" -> Kernels.Sddmm.stage1 a ~feat
    | _ -> Kernels.Spmm.stage1 a ~feat
  in
  let fn =
    match stage with
    | 1 -> fn
    | 2 -> Sparse_ir.lower_iterations fn
    | _ -> Sparse_ir.compile fn
  in
  print_endline (Tir.Printer.func_to_string fn)

let domains_arg =
  let doc = "Domain budget for thread-bound outer loops in the compiled \
             engine (1 = serial; 0 = auto, the machine's recommended \
             count)." in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let run graph feat op gpu system engine domains =
  Engine.default_kind := engine;
  (* 0 = auto: Engine.set_num_domains owns the single clamp *)
  Engine.set_num_domains domains;
  let a = Workloads.Graphs.by_name graph in
  let spec = spec_of gpu in
  let x = Dense.random ~seed:11 a.Csr.cols feat in
  let profile, fn, bindings =
    match (op, system) with
    | "sddmm", _ ->
        let xs = Dense.random ~seed:5 a.Csr.rows feat in
        let ys = Dense.random ~seed:6 feat a.Csr.cols in
        let c =
          match system with
          | "dgl" -> Kernels.Sddmm.dgl a xs ys ~feat
          | "dgsparse" -> Kernels.Sddmm.dgsparse a xs ys ~feat
          | "taco" -> Kernels.Sddmm.taco a xs ys ~feat
          | _ -> Kernels.Sddmm.sparsetir a xs ys ~feat
        in
        ( Gpusim.run spec c.Kernels.Sddmm.fn c.Kernels.Sddmm.bindings,
          c.Kernels.Sddmm.fn, c.Kernels.Sddmm.bindings )
    | _, "hyb" ->
        let c, h = Kernels.Spmm.sparsetir_hyb a x ~feat in
        Printf.printf "hyb: %d buckets, %.1f%% padding\n"
          (List.length h.Hyb.buckets) (Hyb.padding_pct h);
        ( Gpusim.run ~horizontal_fusion:true spec c.Kernels.Spmm.fn
            c.Kernels.Spmm.bindings,
          c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings )
    | _, sys ->
        let c =
          match sys with
          | "cusparse" -> Kernels.Spmm.cusparse a x ~feat
          | "dgsparse" -> Kernels.Spmm.dgsparse a x ~feat
          | "sputnik" -> Kernels.Spmm.sputnik a x ~feat
          | "taco" -> Kernels.Spmm.taco a x ~feat
          | _ -> Kernels.Spmm.sparsetir_no_hyb a x ~feat
        in
        ( Gpusim.run spec c.Kernels.Spmm.fn c.Kernels.Spmm.bindings,
          c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings )
  in
  Printf.printf "%s %s on %s (%s, d=%d): %s\n" system op graph gpu feat
    (Gpusim.pp_profile profile);
  (* functional execution through the selected engine, timed for reference
     (the simulated profile above is the paper-facing number) *)
  Gpusim.execute ~engine fn bindings;
  let t0 = Unix.gettimeofday () in
  Gpusim.execute ~engine fn bindings;
  Printf.printf "functional run (%s engine): %.3f ms\n"
    (Engine.kind_to_string engine)
    ((Unix.gettimeofday () -. t0) *. 1000.0);
  if engine = Engine.Compiled then begin
    let art = Engine.artifact fn in
    Printf.printf "parallel: domains=%d, parallel runs=%d, serial \
                   fallbacks=%d (%s)\n"
      (Engine.num_domains ()) (Engine.par_runs art)
      (Engine.fallback_runs art)
      (Engine.reasons_to_string (Engine.fallback_reasons art));
    Printf.printf "fusion: fused stores=%d, hoisted=%d\n"
      (Engine.fused_sites art) (Engine.hoisted_sites art)
  end

(* serve: push the synthetic multi-tenant traffic mix through the serving
   loop and print its metrics plus the pipeline report (whose serve hook
   shows the process-wide totals). *)
let serve requests max_batch deadline_ms width inflight domains =
  Engine.set_num_domains domains;
  let cfg =
    {
      Serve.max_batch;
      deadline_ms;
      lease_width = width;
      max_inflight = inflight;
    }
  in
  let fams = Serve.Traffic.mix ~seed:13 ~requests () in
  let s = Serve.create ~config:cfg () in
  List.iter
    (fun (f : Serve.Traffic.family) ->
      let inst = f.Serve.Traffic.f_build () in
      ignore
        (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
           inst.Serve.Traffic.ti_steps);
      Serve.pump s)
    fams;
  Serve.drain s;
  Printf.printf "tenants: %s\n"
    (String.concat ", " (Serve.Traffic.family_names ()));
  print_endline (Serve.stats_to_string (Serve.stats s));
  print_string (Pipeline.report ())

(* tune: search a kernel family's candidate grid — exhaustively or guided
   by the analytical estimator — and print the ranked trials, the winner
   and the structure-keyed cache interaction. *)
let tune graph feat family gpu guided topk rho =
  let a = Workloads.Graphs.by_name graph in
  let spec = spec_of gpu in
  let x = Dense.random ~seed:11 a.Csr.cols feat in
  let st = Formats.Stats.of_csr a in
  Printf.printf "structure: %s\n  key: %s\n" (Formats.Stats.to_string st)
    (Formats.Stats.key st);
  let search cands =
    if guided then Tuner.search_guided ?topk ?rho cands else Tuner.search cands
  in
  let print_result (type a) (to_ints : a -> int list) (r : a Tuner.result) =
    List.iter
      (fun (label, t) ->
        if t = infinity then Printf.printf "  %-24s FAILED\n" label
        else Printf.printf "  %-24s %.4f ms\n" label t)
      (List.sort (fun (_, t1) (_, t2) -> compare t1 t2) r.Tuner.trials);
    Printf.printf
      "winner: %s (%.4f ms) — measured %d, skipped %d, failed %d, compile \
       cache %d hits / %d misses\n"
      r.Tuner.best_label r.Tuner.best.Gpusim.p_time_ms r.Tuner.measured
      r.Tuner.skipped r.Tuner.failed r.Tuner.cache_hits r.Tuner.cache_misses;
    Tuner.Cache.store ~family ~feat (Formats.Stats.key st)
      ~label:r.Tuner.best_label
      ~config:(to_ints r.Tuner.best_config);
    Printf.printf "schedule cache: stored under family %s (size %d)\n" family
      (Tuner.Cache.size ())
  in
  (match family with
  | "no-hyb" | "no_hyb" ->
      print_result
        (fun (g, v) -> [ g; v ])
        (search (Tuner.spmm_no_hyb_candidates spec a x ~feat))
  | "sell" ->
      print_result
        (fun (s, g) -> [ s; g ])
        (search (Tuner.spmm_sell_candidates spec a x ~feat))
  | "sddmm" ->
      let xs = Dense.random ~seed:5 a.Csr.rows feat in
      let ys = Dense.random ~seed:6 feat a.Csr.cols in
      print_result
        (fun (e, g, v) -> [ e; g; v ])
        (search (Tuner.sddmm_candidates spec a xs ys ~feat))
  | _ ->
      print_result
        (fun c -> [ c ])
        (search (Tuner.spmm_hyb_candidates spec a x ~feat)));
  print_string (Pipeline.report ())

let requests_arg =
  let doc = "Number of requests to push through the serving loop." in
  Arg.(value & opt int 32 & info [ "requests" ] ~docv:"N" ~doc)

let max_batch_arg =
  let doc = "Horizontal-fusion batch size: a tenant group flushes at this \
             many waiting requests." in
  Arg.(value & opt int 4 & info [ "max-batch" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Batching deadline in milliseconds: a group flushes when its \
             oldest waiter is this old even if not full." in
  Arg.(value & opt float 1.0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let width_arg =
  let doc = "Domain-lease width per launched batch (clamped to the domain \
             budget)." in
  Arg.(value & opt int 2 & info [ "width" ] ~docv:"N" ~doc)

let inflight_arg =
  let doc = "Maximum concurrently executing batches." in
  Arg.(value & opt int 2 & info [ "inflight" ] ~docv:"N" ~doc)

let system_arg =
  let doc = "Kernel strategy: cusparse, dgsparse, sputnik, taco, no-hyb, \
             hyb (SpMM) / dgl, dgsparse, taco, sparsetir (SDDMM)." in
  Arg.(value & opt string "hyb" & info [ "system" ] ~docv:"SYS" ~doc)

let family_arg =
  let doc = "Kernel family to tune: hyb, no-hyb, sell or sddmm." in
  Arg.(value & opt string "hyb" & info [ "family" ] ~docv:"FAM" ~doc)

let guided_arg =
  let doc = "Rank candidates with the analytical cost estimator and measure \
             only the top fraction (see $(b,--rho) / $(b,--topk)); off means \
             exhaustive measurement." in
  Arg.(value & flag & info [ "guided" ] ~doc)

let topk_arg =
  let doc = "Measure exactly K estimator-ranked candidates (overrides \
             $(b,--rho))." in
  Arg.(value & opt (some int) None & info [ "topk" ] ~docv:"K" ~doc)

let rho_arg =
  let doc = "Fraction of the candidate grid to measure under guided search." in
  Arg.(value & opt (some float) None & info [ "rho" ] ~docv:"RHO" ~doc)

let show_cmd =
  Cmd.v (Cmd.info "show" ~doc:"Print the IR of an operator at a pipeline stage")
    Term.(const show $ graph_arg $ feat_arg $ op_arg $ stage_arg)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Profile one kernel on a simulated GPU")
    Term.(
      const run $ graph_arg $ feat_arg $ op_arg $ gpu_arg $ system_arg
      $ engine_arg $ domains_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant serving loop over synthetic GNN traffic \
          (batched horizontal fusion, domain leases, tenant artifact cache)")
    Term.(
      const serve $ requests_arg $ max_batch_arg $ deadline_arg $ width_arg
      $ inflight_arg $ domains_arg)

let tune_cmd =
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search a kernel family's schedule grid on a simulated GPU, \
          exhaustively or guided by the analytical cost estimator, and print \
          the ranked trials plus the structure-keyed schedule-cache entry")
    Term.(
      const tune $ graph_arg $ feat_arg $ family_arg $ gpu_arg $ guided_arg
      $ topk_arg $ rho_arg)

let main_cmd =
  let doc = "SparseTIR (OCaml reproduction) command-line tools" in
  Cmd.group
    (Cmd.info "sparsetir-cli" ~doc)
    [ show_cmd; run_cmd; serve_cmd; tune_cmd ]

let () = exit (Cmd.eval main_cmd)
