(* Tuner bench (DESIGN.md §3j): estimator-guided search vs exhaustive
   measurement, plus the structure-keyed schedule cache.

   For each kernel family the full schedule grid is measured twice in the
   same process:

   - full leg: [Tuner.search] builds and walks every candidate.
   - guided leg: [Tuner.search_guided] ranks candidates with the analytical
     cost estimator and measures only the top fraction.

   The compile cache is reset between the legs so the guided leg cannot
   ride on artifacts compiled by the full one — the wall ratio is what a
   cold autotuning session actually saves.  Two properties are asserted on
   every family before the JSON is written (acceptance bar of the guided
   search, not informational):

   - regret: the guided winner's simulated time is within 10% of the
     exhaustive winner's.
   - budget: the guided leg measures at most half of the grid.

   The cache leg then re-tunes a structurally-similar matrix (same
   generator recipe, different seed) through the schedule cache keyed by
   [Formats.Stats.key]: the second matrix must quantize to the same
   structure key and be served the stored winner with zero candidate
   measurements, asserted via the cache's hit/miss counters. *)

open Formats

let wall_ns (f : unit -> unit) : float =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* One family's full-vs-guided pair: its search speedup and its rows.
   [cands] is re-evaluated per leg so estimator construction is paid by
   both sides. *)
let leg (type a) (name : string) (cands : unit -> a Tuner.candidate list) :
    float * Report.row list =
  let grid = List.length (cands ()) in
  Pipeline.reset ();
  let full = ref None in
  let full_ns = wall_ns (fun () -> full := Some (Tuner.search (cands ()))) in
  let full = Option.get !full in
  Pipeline.reset ();
  let guided = ref None in
  let guided_ns =
    wall_ns (fun () -> guided := Some (Tuner.search_guided (cands ())))
  in
  let guided = Option.get !guided in
  let regret =
    (guided.Tuner.best.Gpusim.p_time_ms /. full.Tuner.best.Gpusim.p_time_ms)
    -. 1.0
  in
  Printf.printf
    "%-12s grid %d: full %s -> guided %s (measured %d), winner %s vs %s \
     (regret %.1f%%)\n"
    name grid
    (Printf.sprintf "%.1fms" (full_ns /. 1e6))
    (Printf.sprintf "%.1fms" (guided_ns /. 1e6))
    guided.Tuner.measured full.Tuner.best_label guided.Tuner.best_label
    (100.0 *. regret);
  if regret > 0.10 then
    failwith
      (Printf.sprintf
         "tuner bench: %s guided winner %s regresses %.1f%% vs exhaustive \
          winner %s (bound 10%%)"
         name guided.Tuner.best_label (100.0 *. regret) full.Tuner.best_label);
  if 2 * guided.Tuner.measured > grid then
    failwith
      (Printf.sprintf
         "tuner bench: %s guided leg measured %d of %d candidates (bound \
          50%%)"
         name guided.Tuner.measured grid);
  let speedup = full_ns /. guided_ns in
  ( speedup,
    [ Report.row name "full_ns" "ns" full_ns;
      Report.row name "guided_ns" "ns" guided_ns;
      Report.row ~gate:Ratio name "speedup" "x" speedup;
      Report.row name "measured" "count" (float_of_int guided.Tuner.measured);
      Report.row name "grid" "count" (float_of_int grid);
      Report.row name "regret" "ratio" regret ] )

let run ?(full = false) () =
  Report.header
    "Tuner: estimator-guided search vs exhaustive measurement (DESIGN.md \
     §3j)";
  let nodes = if full then 4000 else 1500 in
  let edges = if full then 32000 else 12000 in
  let feat = 64 in
  let recipe seed =
    Workloads.Graphs.generate ~seed
      { Workloads.Graphs.g_name = "tune"; g_nodes = nodes; g_edges = edges;
        g_shape = Workloads.Graphs.Power_law 1.8 }
  in
  let g = recipe 3 in
  let x = Dense.random ~seed:11 g.Csr.cols feat in
  let xs = Dense.random ~seed:5 g.Csr.rows feat in
  let ys = Dense.random ~seed:6 feat g.Csr.cols in
  let spec = Gpusim.Spec.v100 in
  Printf.printf "graph: %d rows, %d nnz, feat %d (V100 model)\n" g.Csr.rows
    (Csr.nnz g) feat;
  let hyb = leg "spmm_hyb" (fun () -> Tuner.spmm_hyb_candidates spec g x ~feat) in
  let no_hyb =
    leg "spmm_no_hyb" (fun () -> Tuner.spmm_no_hyb_candidates spec g x ~feat)
  in
  let sell =
    leg "spmm_sell" (fun () -> Tuner.spmm_sell_candidates spec g x ~feat)
  in
  let sddmm = leg "sddmm" (fun () -> Tuner.sddmm_candidates spec g xs ys ~feat) in
  let legs = [ hyb; no_hyb; sell; sddmm ] in
  (* cache leg: same generator recipe under a different seed must quantize
     to the same structure key and be served the stored schedule with zero
     measurements *)
  Report.subheader "schedule cache: repeat tuning on a similar matrix";
  Tuner.Cache.reset ();
  let family = "spmm_hyb" in
  let cold = Tuner.search_guided (Tuner.spmm_hyb_candidates spec g x ~feat) in
  Tuner.Cache.store ~family ~feat
    (Stats.key (Stats.of_csr g))
    ~label:cold.Tuner.best_label ~config:[ cold.Tuner.best_config ];
  let g2 = recipe 7 in
  let key2 = Stats.key (Stats.of_csr g2) in
  let warm_measured, warm_label =
    match Tuner.Cache.find ~family ~feat key2 with
    | Some e -> (0, e.Tuner.Cache.ce_label)
    | None ->
        let r = Tuner.search_guided (Tuner.spmm_hyb_candidates spec g2 x ~feat) in
        (r.Tuner.measured, r.Tuner.best_label)
  in
  let warm_hits = Tuner.Cache.hits () in
  Printf.printf
    "similar matrix (seed 7, %d nnz): key %s -> %s, %d measurements, cache \
     %d hits / %d misses\n"
    (Csr.nnz g2)
    (if warm_measured = 0 then "warm" else "COLD")
    warm_label warm_measured warm_hits
    (Tuner.Cache.misses ());
  if warm_measured <> 0 then
    failwith
      (Printf.sprintf
         "tuner bench: structurally-similar matrix missed the schedule \
          cache (%d measurements; key %s)"
         warm_measured key2);
  let geo = Report.geomean (List.map fst legs) in
  Printf.printf "geomean search speedup (full/guided wall): %.2fx\n" geo;
  Report.write_json ~bench:"tuner"
    (List.concat_map snd legs
    @ [ Report.row "all" "warm_hits" "count" (float_of_int warm_hits);
        Report.row "all" "warm_measured" "count" (float_of_int warm_measured);
        Report.row "all" "geomean_speedup" "x" geo ])
