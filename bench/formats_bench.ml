(* Construction cost of the level-based descriptors (DESIGN.md S3g): every
   compressed format now builds through the generic canonical-COO pipeline
   (Descriptor.build), with the pre-descriptor bespoke builders kept as
   [*_ref].  This bench times both paths on the same inputs and lands the
   rows in BENCH_formats.json so a descriptor-path slowdown shows up in the
   trend check, not just in stdout.

   Before timing, each pair is asserted structurally equal — the bench
   doubles as a cheap differential tripwire on top of the QCheck properties
   in test/test_formats.ml.

   Descriptor construction is expected to cost more than the hand-rolled
   builders (it materializes the canonical intermediate and per-level
   streams); the row metric is descriptor speedup vs legacy, so values below
   1x are normal — the trend gate only cares that the ratio doesn't slide
   further between PRs. *)

open Formats

type case = {
  fk_name : string;
  fk_legacy : unit -> unit;
  fk_descriptor : unit -> unit;
  fk_equal : unit -> bool;
}

let cases ~full () : case list =
  let nodes = if full then 4000 else 1000 in
  let edges = if full then 32000 else 8000 in
  let graph =
    Workloads.Graphs.generate ~seed:3
      { Workloads.Graphs.g_name = "bench"; g_nodes = nodes; g_edges = edges;
        g_shape = Workloads.Graphs.Power_law 1.8 }
  in
  let coo = Csr.to_coo graph in
  (* DIA on a power-law graph stores O(rows) diagonals; a band matrix is the
     format's actual habitat and keeps the slot count honest *)
  let band = Workloads.Attention.band ~size:(if full then 512 else 256)
      ~band:32 ()
  in
  let t3 =
    Csf.random ~seed:7 ~dim_i:64 ~dim_j:32 ~dim_k:16
      ~nnz:(if full then 8000 else 2000) ()
  in
  let ents = ref [] in
  Csf.iter_entries t3 (fun i j k v -> ents := (i, j, k, v) :: !ents);
  let csf_entries = List.rev !ents in
  [ { fk_name = "csr";
      fk_legacy = (fun () -> ignore (Csr.of_coo_ref coo));
      fk_descriptor = (fun () -> ignore (Csr.of_coo coo));
      fk_equal = (fun () -> Csr.of_coo coo = Csr.of_coo_ref coo) };
    { fk_name = "ell";
      fk_legacy = (fun () -> ignore (Ell.of_csr_ref graph));
      fk_descriptor = (fun () -> ignore (Ell.of_csr graph));
      fk_equal = (fun () -> Ell.of_csr graph = Ell.of_csr_ref graph) };
    { fk_name = "bsr";
      fk_legacy = (fun () -> ignore (Bsr.of_csr_ref ~block:4 graph));
      fk_descriptor = (fun () -> ignore (Bsr.of_csr ~block:4 graph));
      fk_equal =
        (fun () -> Bsr.of_csr ~block:4 graph = Bsr.of_csr_ref ~block:4 graph)
    };
    { fk_name = "dbsr";
      fk_legacy = (fun () -> ignore (Dbsr.of_csr_ref ~block:4 graph));
      fk_descriptor = (fun () -> ignore (Dbsr.of_csr ~block:4 graph));
      fk_equal =
        (fun () ->
          Dbsr.of_csr ~block:4 graph = Dbsr.of_csr_ref ~block:4 graph) };
    { fk_name = "dia";
      fk_legacy = (fun () -> ignore (Dia.of_csr_ref band));
      fk_descriptor = (fun () -> ignore (Dia.of_csr band));
      fk_equal = (fun () -> Dia.of_csr band = Dia.of_csr_ref band) };
    { fk_name = "sr_bcrs";
      fk_legacy = (fun () -> ignore (Sr_bcrs.of_csr_ref ~tile:4 ~group:8 graph));
      fk_descriptor = (fun () -> ignore (Sr_bcrs.of_csr ~tile:4 ~group:8 graph));
      fk_equal =
        (fun () ->
          Sr_bcrs.of_csr ~tile:4 ~group:8 graph
          = Sr_bcrs.of_csr_ref ~tile:4 ~group:8 graph) };
    { fk_name = "hyb";
      fk_legacy = (fun () -> ignore (Hyb.of_csr_ref ~c:2 ~k:3 graph));
      fk_descriptor = (fun () -> ignore (Hyb.of_csr ~c:2 ~k:3 graph));
      fk_equal =
        (fun () ->
          Hyb.of_csr ~c:2 ~k:3 graph = Hyb.of_csr_ref ~c:2 ~k:3 graph) };
    { fk_name = "csf";
      fk_legacy =
        (fun () ->
          ignore (Csf.of_entries_ref ~dim_i:64 ~dim_j:32 ~dim_k:16 csf_entries));
      fk_descriptor =
        (fun () ->
          ignore (Csf.of_entries ~dim_i:64 ~dim_j:32 ~dim_k:16 csf_entries));
      fk_equal =
        (fun () ->
          Csf.of_entries ~dim_i:64 ~dim_j:32 ~dim_k:16 csf_entries
          = Csf.of_entries_ref ~dim_i:64 ~dim_j:32 ~dim_k:16 csf_entries) } ]

let run ?(full = false) () =
  Report.header
    "Formats: descriptor-driven vs legacy bespoke construction (wall clock)";
  let budget = if full then 0.3 else 0.05 in
  let rows = ref [] and speedups = ref [] in
  Printf.printf "%-10s %14s %16s %9s\n" "format" "legacy ns/it"
    "descriptor ns/it" "ratio";
  List.iter
    (fun c ->
      if not (c.fk_equal ()) then
        failwith
          (Printf.sprintf
             "formats bench: %s descriptor construction diverged from the \
              legacy builder"
             c.fk_name);
      let legacy_ns = Engine_bench.time_ns ~budget c.fk_legacy in
      let desc_ns = Engine_bench.time_ns ~budget c.fk_descriptor in
      let speedup = legacy_ns /. desc_ns in
      Printf.printf "%-10s %14.0f %16.0f %8.2fx\n%!" c.fk_name legacy_ns
        desc_ns speedup;
      speedups := speedup :: !speedups;
      rows :=
        !rows
        @ [ Report.row c.fk_name "legacy_ns" "ns/iter" legacy_ns;
            Report.row c.fk_name "descriptor_ns" "ns/iter" desc_ns;
            Report.row ~gate:Ratio c.fk_name "speedup" "x" speedup ])
    (cases ~full ());
  let geomean_speedup = Report.geomean !speedups in
  Printf.printf
    "geomean descriptor-vs-legacy: %.2fx (below 1x is expected: the generic \
     path pays for the canonical intermediate)\n"
    geomean_speedup;
  Report.write_json ~bench:"formats"
    (!rows @ [ Report.row "all" "geomean_speedup" "x" geomean_speedup ])
