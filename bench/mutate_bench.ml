(* Mutation bench (DESIGN.md §3i): O(Δ) delta updates vs cold rebuilds.

   A power-law graph takes a stream of seeded edge-delta batches, each
   sized at ≤ 1% of the starting nnz.  Two delta legs are timed against
   their cold comparators on the same batch stream:

   - csr-delta: [Csr.apply_delta_live] patching the live arrays in place,
     vs rebuilding the CSR from its coordinate stream each batch
     ([Csr.to_coo] + [Csr.of_coo] — what a system without the delta
     subsystem does when the structure changes).
   - hyb-delta: [Hyb.apply_delta] (in-place bucket writes + targeted
     rebuilds of shape-dirty buckets), vs a full [Hyb.of_csr]
     re-bucketization of the updated matrix.

   Both legs of each pair run in the same process on the same batches, so
   the delta-vs-cold ratio is host-stable and the trend gate applies
   unconditionally.  After the timed loops the live structures are
   asserted structurally equal to the cold-maintained ones (a cheap
   differential tripwire on top of test/test_delta.ml), the post-delta
   SpMM through the live bindings is asserted bit-identical to a cold
   kernel, and [Facts.scan_count] is asserted flat across the mutation
   loops — the delta path re-verifies touched indptr spans
   ([Facts.redeclare_span]), it never rescans a column. *)

open Formats

(* One timed pass over a pre-generated batch stream: the payload is
   stateful (each batch evolves the matrix), so unlike
   [Engine_bench.time_ns] the sequence runs exactly once and the mean is
   over distinct batches. *)
let bench_seq (n : int) (f : int -> unit) : float =
  let t0 = Unix.gettimeofday () in
  for e = 0 to n - 1 do
    f e
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n

let run ?(full = false) () =
  Report.header
    "Mutate: O(Δ) delta updates vs cold format rebuilds (DESIGN.md §3i)";
  let nodes = if full then 4000 else 1000 in
  let edges = if full then 32000 else 8000 in
  let n_batches = if full then 384 else 96 in
  let g =
    Workloads.Graphs.generate ~seed:3
      { Workloads.Graphs.g_name = "mutate"; g_nodes = nodes; g_edges = edges;
        g_shape = Workloads.Graphs.Power_law 1.8 }
  in
  let nnz0 = Csr.nnz g in
  let edits = max 1 (nnz0 / 100) in
  let delta_pct = 100.0 *. float_of_int edits /. float_of_int nnz0 in
  Printf.printf
    "graph: %d rows, %d nnz; %d batches of %d edits (Δ = %.2f%% of nnz)\n"
    g.Csr.rows nnz0 n_batches edits delta_pct;
  let batches =
    Array.init n_batches (fun e ->
        Delta.random ~seed:(100 + e) ~rows:g.Csr.rows ~cols:g.Csr.cols ~edits
          ())
  in
  (* delta legs: live structures patched in place, one version bump per
     tensor per batch, facts re-established span-wise (never rescanned) *)
  let lv = Csr.live ~slack:(4 * edits) g in
  let hlv = Hyb.live ~cap_slack:(4 * edits) ~c:2 ~k:2 g in
  let scans0 = Tir.Tensor.Facts.scan_count () in
  let spans0 = Tir.Tensor.Facts.span_check_count () in
  let csr_delta_ns =
    bench_seq n_batches (fun e -> ignore (Csr.apply_delta_live lv batches.(e)))
  in
  let hyb_delta_ns =
    bench_seq n_batches (fun e -> ignore (Hyb.apply_delta hlv batches.(e)))
  in
  let facts_rescans = Tir.Tensor.Facts.scan_count () - scans0 in
  let span_checks = Tir.Tensor.Facts.span_check_count () - spans0 in
  if facts_rescans <> 0 then
    failwith
      (Printf.sprintf
         "mutate bench: delta application triggered %d full Facts rescans \
          (spans must be re-verified, not rescanned)"
         facts_rescans);
  (* cold legs: fold the same batch into the content, then rebuild the
     format from scratch — coordinate stream for CSR, re-bucketization
     for hyb *)
  let mc = ref g in
  let csr_cold_ns =
    bench_seq n_batches (fun e ->
        mc := Csr.apply_delta !mc batches.(e);
        ignore (Csr.of_coo (Csr.to_coo !mc)))
  in
  let mh = ref g in
  let hyb_cold_ns =
    bench_seq n_batches (fun e ->
        mh := Csr.apply_delta !mh batches.(e);
        ignore (Hyb.of_csr ~c:2 ~k:2 !mh))
  in
  (* differential tripwire: both trajectories saw the same batches *)
  if Csr.live_csr lv <> !mc then
    failwith "mutate bench: live CSR diverged from the cold-maintained CSR";
  if Hyb.live_hyb hlv <> Hyb.of_csr ~c:2 ~k:2 !mh then
    failwith "mutate bench: live hyb diverged from a cold re-bucketization";
  (* steady post-delta SpMM through the live bindings, bit-identical to a
     cold kernel over the rebuilt matrix *)
  let feat = 32 in
  let x = Dense.random ~seed:11 g.Csr.cols feat in
  let live_k = Kernels.Spmm.sparsetir_hyb_live hlv x ~feat in
  let cold_k, _ = Kernels.Spmm.sparsetir_hyb ~c:2 ~k:2 !mh x ~feat in
  Gpusim.execute live_k.Kernels.Spmm.fn live_k.Kernels.Spmm.bindings;
  Gpusim.execute cold_k.Kernels.Spmm.fn cold_k.Kernels.Spmm.bindings;
  if
    Tir.Tensor.to_float_array live_k.Kernels.Spmm.out
    <> Tir.Tensor.to_float_array cold_k.Kernels.Spmm.out
  then
    failwith
      "mutate bench: post-delta SpMM over live bindings diverged from the \
       cold-rebuilt kernel";
  let spmm_ns =
    Engine_bench.time_ns
      ~budget:(if full then 0.3 else 0.05)
      (fun () ->
        Gpusim.execute live_k.Kernels.Spmm.fn live_k.Kernels.Spmm.bindings)
  in
  let csr_speedup = csr_cold_ns /. csr_delta_ns in
  let hyb_speedup = hyb_cold_ns /. hyb_delta_ns in
  let geomean_speedup = Report.geomean [ csr_speedup; hyb_speedup ] in
  Printf.printf "%-10s %14s %16s %9s\n" "format" "cold ns/batch"
    "delta ns/batch" "ratio";
  Printf.printf "%-10s %14.0f %16.0f %8.2fx\n" "csr" csr_cold_ns csr_delta_ns
    csr_speedup;
  Printf.printf "%-10s %14.0f %16.0f %8.2fx\n" "hyb" hyb_cold_ns hyb_delta_ns
    hyb_speedup;
  Printf.printf
    "geomean delta-vs-cold: %.2fx; facts rescans: %d (flat); span \
     re-verifications: %d; steady post-delta SpMM: %.0f ns/iter\n%!"
    geomean_speedup facts_rescans span_checks spmm_ns;
  if geomean_speedup < 5.0 then
    failwith
      (Printf.sprintf
         "mutate bench: delta updates only %.2fx faster than cold rebuilds \
          (acceptance bound: ≥ 5x at Δ ≤ 1%% of nnz)"
         geomean_speedup);
  Report.write_json ~bench:"mutate"
    [ Report.row "csr" "cold_ns" "ns/batch" csr_cold_ns;
      Report.row "csr" "delta_ns" "ns/batch" csr_delta_ns;
      Report.row ~gate:Ratio "csr" "speedup" "x" csr_speedup;
      Report.row "hyb" "cold_ns" "ns/batch" hyb_cold_ns;
      Report.row "hyb" "delta_ns" "ns/batch" hyb_delta_ns;
      Report.row ~gate:Ratio "hyb" "speedup" "x" hyb_speedup;
      Report.row "spmm_live" "steady_ns" "ns/iter" spmm_ns;
      Report.row "all" "delta_pct" "%" delta_pct;
      Report.row "all" "facts_rescans" "count" (float_of_int facts_rescans);
      Report.row "all" "span_checks" "count" (float_of_int span_checks);
      Report.row "all" "geomean_speedup" "x" geomean_speedup ]
