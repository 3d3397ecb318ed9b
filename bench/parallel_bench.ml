(* Serial vs domains-parallel execution of thread-bound kernels.

   Each case is a compiled kernel whose outer loop carries a blockIdx
   binding: it runs through the compiled engine with num_domains = 1 and
   with the requested domain budget in alternating rounds
   ([Engine_bench.time_pair]), against the same artifact (the
   parallel decision is made per run, so nothing recompiles between the two
   legs).  Outputs are compared bit-for-bit — the disjointness analysis
   promises the parallel schedule is invisible to results — and the timing
   rows land in BENCH_parallel.json.

   Every case is expected to dispatch parallel: hyb's scatter through the
   bucket row maps is proven by the gather witness plus the tensor facts the
   format constructors declare (injective / non-decreasing bucket maps), so
   the table asserts spmm_hyb runs with zero fallbacks.  The fb column and
   the reasons column stay as regression tripwires — a nonzero fb with its
   reason label is the first thing to look at when a schedule change
   de-parallelizes a kernel.

   Note: speedups depend on the machine's core count; on a single-core host
   the parallel leg measures pool overhead (expect <= 1x). *)

open Formats

type case = {
  pk_name : string;
  pk_fn : Tir.Ir.func;
  pk_bindings : Gpusim.bindings;
  pk_out : Tir.Tensor.t;
}

let cases ~full () : case list =
  let nodes = if full then 8000 else 2000 in
  let edges = if full then 64000 else 16000 in
  let feat = 64 in
  let graph =
    Workloads.Graphs.generate ~seed:3
      { Workloads.Graphs.g_name = "bench"; g_nodes = nodes; g_edges = edges;
        g_shape = Workloads.Graphs.Power_law 1.8 }
  in
  let x = Dense.random ~seed:11 graph.Csr.cols feat in
  let xs = Dense.random ~seed:5 graph.Csr.rows feat in
  let ys = Dense.random ~seed:6 feat graph.Csr.cols in
  let spmm name (c : Kernels.Spmm.compiled) =
    { pk_name = name; pk_fn = c.Kernels.Spmm.fn;
      pk_bindings = c.Kernels.Spmm.bindings; pk_out = c.Kernels.Spmm.out }
  in
  let sddmm name (c : Kernels.Sddmm.compiled) =
    { pk_name = name; pk_fn = c.Kernels.Sddmm.fn;
      pk_bindings = c.Kernels.Sddmm.bindings; pk_out = c.Kernels.Sddmm.out }
  in
  [ spmm "spmm_dgsparse" (Kernels.Spmm.dgsparse graph x ~feat);
    spmm "spmm_sputnik" (Kernels.Spmm.sputnik graph x ~feat);
    spmm "spmm_no_hyb" (Kernels.Spmm.sparsetir_no_hyb graph x ~feat);
    spmm "spmm_hyb"
      (let c, _ = Kernels.Spmm.sparsetir_hyb ~c:1 graph x ~feat in
       c);
    sddmm "sddmm_sparsetir" (Kernels.Sddmm.sparsetir graph xs ys ~feat);
    sddmm "sddmm_dgsparse" (Kernels.Sddmm.dgsparse graph xs ys ~feat) ]

let run ?(full = false) ?(domains = 0) () =
  let domains =
    if domains > 0 then domains else max 4 (Domain.recommended_domain_count ())
  in
  Report.header
    (Printf.sprintf
       "Parallel: serial vs %d-domain compiled execution (wall clock)" domains);
  let cores = Domain.recommended_domain_count () in
  if cores < domains then
    Printf.printf
      "note: host exposes %d core(s); wall-clock speedup is bounded by that, \
       not by the domain budget\n"
      cores;
  (* on one core the parallel leg measures pool overhead, not scaling, so
     the speedup rows are recorded but not gated *)
  let gate = if cores < 2 then Report.Info else Ratio in
  let budget = if full then 0.5 else 0.1 in
  let rows = ref [] and speedups = ref [] in
  Printf.printf "%-20s %14s %14s %9s %5s %5s  %s\n" "kernel" "serial ns/it"
    "parallel ns/it" "speedup" "par" "fb" "reasons";
  List.iter
    (fun c ->
      let exec nd = Gpusim.execute ~num_domains:nd c.pk_fn c.pk_bindings in
      let serial_ns, parallel_ns =
        Engine_bench.time_pair ~budget
          (fun () -> exec 1)
          (fun () -> exec domains)
      in
      exec 1;
      let serial_out = Tir.Tensor.to_float_array c.pk_out in
      exec domains;
      let parallel_out = Tir.Tensor.to_float_array c.pk_out in
      if serial_out <> parallel_out then
        failwith
          (Printf.sprintf
             "parallel bench: %s output diverged between serial and \
              %d-domain runs"
             c.pk_name domains);
      let art = Engine.artifact c.pk_fn in
      let speedup = serial_ns /. parallel_ns in
      Printf.printf "%-20s %14.0f %14.0f %8.2fx %5d %5d  %s\n%!" c.pk_name
        serial_ns parallel_ns speedup (Engine.par_runs art)
        (Engine.fallback_runs art)
        (Engine.reasons_to_string (Engine.fallback_reasons art));
      if c.pk_name = "spmm_hyb" && Engine.par_runs art = 0 then
        failwith
          "parallel bench: spmm_hyb dispatched no parallel runs — the hyb \
           gather witness or its tensor facts regressed";
      speedups := speedup :: !speedups;
      rows :=
        !rows
        @ [ Report.row c.pk_name "serial_ns" "ns/iter" serial_ns;
            Report.row c.pk_name "parallel_ns" "ns/iter" parallel_ns;
            Report.row ~gate c.pk_name "speedup" "x" speedup ])
    (cases ~full ());
  let geomean_speedup = Report.geomean !speedups in
  let stolen = Engine.stolen_chunks () in
  Printf.printf "geomean speedup: %.2fx (%d domains vs serial, %d worker \
                 domains pooled)\n"
    geomean_speedup domains (Engine.pool_size ());
  Printf.printf "work stealing: %d chunk(s) stolen\n" stolen;
  Report.write_json ~bench:"parallel"
    (!rows
    @ [ Report.row "all" "domains" "count" (float_of_int domains);
        Report.row "all" "stolen_chunks" "count" (float_of_int stolen);
        Report.row "all" "geomean_speedup" "x" geomean_speedup ])
