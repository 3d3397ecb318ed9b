(* Cost-model-guided autoscheduling (DESIGN.md §3j): structure statistics
   and their quantized keys, guided-search regret against exhaustive
   measurement, failure handling in the search loop, and the
   structure-keyed schedule cache down through serving admission. *)

open Formats

(* ------------------------------------------------------------------ *)
(* Stats: signature and quantization                                   *)
(* ------------------------------------------------------------------ *)

let csr_of_entries rows cols entries =
  Csr.of_coo (Coo.of_entries ~rows ~cols entries)

(* permute the rows of a matrix: same multiset of rows, new order *)
let permute_rows (m : Csr.t) (perm : int array) : Csr.t =
  let entries = ref [] in
  for i = 0 to m.Csr.rows - 1 do
    for p = m.Csr.indptr.(i) to m.Csr.indptr.(i + 1) - 1 do
      entries := (perm.(i), m.Csr.indices.(p), m.Csr.data.(p)) :: !entries
    done
  done;
  csr_of_entries m.Csr.rows m.Csr.cols !entries

let test_graph ?(seed = 3) ?(nodes = 400) ?(edges = 3200) () =
  Workloads.Graphs.generate ~seed
    { Workloads.Graphs.g_name = "tuner_t"; g_nodes = nodes; g_edges = edges;
      g_shape = Workloads.Graphs.Power_law 1.8 }

let test_stats_row_permutation_invariant () =
  let a = test_graph () in
  let n = a.Csr.rows in
  (* a fixed derangement-ish permutation: reverse *)
  let perm = Array.init n (fun i -> n - 1 - i) in
  let b = permute_rows a perm in
  let sa = Stats.of_csr a and sb = Stats.of_csr b in
  Alcotest.(check string) "key invariant under row permutation"
    (Stats.key sa) (Stats.key sb);
  Alcotest.(check (list int)) "quantized signature invariant"
    (Stats.quantized sa) (Stats.quantized sb);
  Alcotest.(check int) "max row length invariant" sa.Stats.max_len
    sb.Stats.max_len

let test_stats_sensitive_to_skew () =
  let rows = 64 and cols = 64 in
  (* balanced: 4 nnz per row on a shifted diagonal *)
  let balanced =
    List.concat_map
      (fun i -> List.init 4 (fun j -> (i, (i + (j * 16)) mod cols, 1.0)))
      (List.init rows (fun i -> i))
  in
  (* skewed: same nnz total, but one row holds a quarter of them *)
  let heavy = List.init 64 (fun j -> (0, j mod cols, 1.0)) in
  let rest =
    List.concat_map
      (fun i -> List.init 3 (fun j -> (i, (i + (j * 20)) mod cols, 1.0)))
      (List.init (rows - 1) (fun i -> i + 1))
  in
  let a = csr_of_entries rows cols balanced in
  let b = csr_of_entries rows cols (heavy @ rest) in
  Alcotest.(check bool) "skewed structure changes the key" true
    (Stats.key (Stats.of_csr a) <> Stats.key (Stats.of_csr b))

let test_stats_sensitive_to_block_density () =
  let rows = 64 and cols = 64 in
  (* clustered: each row's 4 nnz packed into one aligned 4-block *)
  let clustered =
    List.concat_map
      (fun i -> List.init 4 (fun j -> (i, (4 * (i mod 16)) + j, 1.0)))
      (List.init rows (fun i -> i))
  in
  (* scattered: same per-row count, one nnz per 4-block *)
  let scattered =
    List.concat_map
      (fun i -> List.init 4 (fun j -> (i, ((i + (j * 16)) mod 16) * 4, 1.0)))
      (List.init rows (fun i -> i))
  in
  let a = csr_of_entries rows cols clustered in
  let b = csr_of_entries rows cols scattered in
  let sa = Stats.of_csr a and sb = Stats.of_csr b in
  Alcotest.(check bool) "block density actually differs" true
    (sa.Stats.block_density > (2.0 *. sb.Stats.block_density));
  Alcotest.(check bool) "clustering changes the key" true
    (Stats.key sa <> Stats.key sb)

(* keys collide exactly when the quantized signatures are equal: the
   string join is injective over int lists, so two matrices share a cache
   line iff every quantized component matches *)
let prop_key_collision_iff_quantized_equal =
  let gen =
    QCheck.Gen.(
      let* rows = int_range 1 40 in
      let* cols = int_range 1 40 in
      let* nnz = int_range 0 (rows * cols / 2) in
      let* entries =
        list_repeat nnz
          (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
             (return 1.0))
      in
      return (rows, cols, entries))
  in
  let arb =
    QCheck.make
      ~print:(fun ((r, c, es), (r2, c2, es2)) ->
        Printf.sprintf "%dx%d nnz=%d vs %dx%d nnz=%d" r c (List.length es) r2
          c2 (List.length es2))
      QCheck.Gen.(pair gen gen)
  in
  QCheck.Test.make ~count:200 ~name:"key collides iff stats quantize equal"
    arb
    (fun ((r1, c1, e1), (r2, c2, e2)) ->
      let s1 = Stats.of_csr (csr_of_entries r1 c1 e1) in
      let s2 = Stats.of_csr (csr_of_entries r2 c2 e2) in
      Stats.key s1 = Stats.key s2 = (Stats.quantized s1 = Stats.quantized s2))

(* ------------------------------------------------------------------ *)
(* Guided search: regret and measurement budget                        *)
(* ------------------------------------------------------------------ *)

let check_guided name (cands : 'a Tuner.candidate list) =
  let grid = List.length cands in
  let full = Tuner.search cands in
  let guided = Tuner.search_guided cands in
  let regret =
    (guided.Tuner.best.Gpusim.p_time_ms /. full.Tuner.best.Gpusim.p_time_ms)
    -. 1.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s guided winner within 10%% (regret %.1f%%: %s vs %s)"
       name (100.0 *. regret) guided.Tuner.best_label full.Tuner.best_label)
    true (regret <= 0.10);
  Alcotest.(check bool)
    (Printf.sprintf "%s measured %d of %d" name guided.Tuner.measured grid)
    true
    (guided.Tuner.measured < grid);
  Alcotest.(check int)
    (Printf.sprintf "%s measured+skipped covers the grid" name)
    grid
    (guided.Tuner.measured + guided.Tuner.skipped)

let guided_feat = 64

let test_guided_spmm_hyb () =
  let a = test_graph () in
  let x = Dense.random ~seed:11 a.Csr.cols guided_feat in
  check_guided "spmm_hyb"
    (Tuner.spmm_hyb_candidates Gpusim.Spec.v100 a x ~feat:guided_feat)

let test_guided_spmm_sell () =
  let a = test_graph () in
  let x = Dense.random ~seed:11 a.Csr.cols guided_feat in
  check_guided "spmm_sell"
    (Tuner.spmm_sell_candidates Gpusim.Spec.v100 a x ~feat:guided_feat)

let test_guided_sddmm () =
  (* the sddmm edges-per-block sweep needs enough nnz for the occupancy
     terms to separate; at a few hundred rows the walker's block-tail
     effects dominate and no closed form ranks them *)
  let a = test_graph ~nodes:600 ~edges:4800 () in
  let xs = Dense.random ~seed:5 a.Csr.rows guided_feat in
  let ys = Dense.random ~seed:6 guided_feat a.Csr.cols in
  check_guided "sddmm"
    (Tuner.sddmm_candidates Gpusim.Spec.v100 a xs ys ~feat:guided_feat)

(* ------------------------------------------------------------------ *)
(* Failure handling                                                    *)
(* ------------------------------------------------------------------ *)

let test_failed_candidate_recorded () =
  let a = test_graph ~nodes:60 ~edges:300 () in
  let x = Dense.random ~seed:2 a.Csr.cols 16 in
  let good =
    List.hd (Tuner.spmm_hyb_candidates Gpusim.Spec.v100 a x ~feat:16)
  in
  let bad =
    { Tuner.label = "boom"; config = -1; est = 0.0;
      build = (fun () -> failwith "deliberate compile failure") }
  in
  (* the failing candidate estimates best, so guided search must measure
     it, record the failure and still return the good one *)
  let r = Tuner.search [ bad; good ] in
  Alcotest.(check string) "winner is the surviving candidate"
    good.Tuner.label r.Tuner.best_label;
  Alcotest.(check int) "one failure counted" 1 r.Tuner.failed;
  let marked = "boom" ^ Tuner.failed_marker in
  Alcotest.(check bool) "failure labeled in trials" true
    (List.mem_assoc marked r.Tuner.trials);
  Alcotest.(check bool) "failure carries an infinite time" true
    (List.assoc marked r.Tuner.trials = infinity);
  (* an all-failing grid surfaces the first candidate's exception, and
     builds every candidate exactly once *)
  let calls = ref [] in
  let raising label msg =
    { Tuner.label; config = -1; est = 0.0;
      build = (fun () -> calls := label :: !calls; failwith msg) }
  in
  Alcotest.check_raises "all-failed search re-raises the first failure"
    (Failure "first failure") (fun () ->
      ignore
        (Tuner.search [ raising "a" "first failure"; raising "b" "second failure" ]));
  Alcotest.(check (list string)) "each candidate built once" [ "a"; "b" ]
    (List.rev !calls)

(* ------------------------------------------------------------------ *)
(* Schedule cache                                                      *)
(* ------------------------------------------------------------------ *)

let test_cache_counters () =
  Tuner.Cache.reset ();
  Alcotest.(check int) "empty" 0 (Tuner.Cache.size ());
  let key = Stats.key (Stats.of_csr (test_graph ())) in
  Alcotest.(check bool) "cold lookup misses" true
    (Tuner.Cache.find ~family:"spmm_hyb" ~feat:64 key = None);
  Tuner.Cache.store ~family:"spmm_hyb" ~feat:64 key ~label:"hyb(c=2)"
    ~config:[ 2 ];
  (match Tuner.Cache.find ~family:"spmm_hyb" ~feat:64 key with
  | Some e ->
      Alcotest.(check string) "label round-trips" "hyb(c=2)"
        e.Tuner.Cache.ce_label;
      Alcotest.(check (list int)) "config round-trips" [ 2 ]
        e.Tuner.Cache.ce_config
  | None -> Alcotest.fail "stored entry not found");
  (* family and feat bucket partition the key space *)
  Alcotest.(check bool) "other family misses" true
    (Tuner.Cache.find ~family:"sddmm" ~feat:64 key = None);
  Alcotest.(check bool) "distant feat bucket misses" true
    (Tuner.Cache.find ~family:"spmm_hyb" ~feat:512 key = None);
  Alcotest.(check int) "hits counted" 1 (Tuner.Cache.hits ());
  Alcotest.(check int) "misses counted" 3 (Tuner.Cache.misses ());
  Tuner.Cache.reset ()

(* serving admission: the first tenant pays a guided search, a second
   tenant with a structurally-similar matrix (same generator recipe,
   different seed) admits warm with zero measurements *)
let test_serve_tuned_admission () =
  Tuner.Cache.reset ();
  let feat = 16 in
  (* seed-to-seed quantization stability needs scale: at a few hundred
     rows the degree-distribution sampling noise still moves the cv
     bucket, so the "similar tenant" pair draws from a larger recipe *)
  let a = test_graph ~seed:2 ~nodes:1500 ~edges:12000 () in
  let b = test_graph ~seed:15 ~nodes:1500 ~edges:12000 () in
  Alcotest.(check string) "similar matrices share a structure key"
    (Stats.key (Stats.of_csr a))
    (Stats.key (Stats.of_csr b));
  let s = Serve.create () in
  let xa = Dense.random ~seed:2 a.Csr.cols feat in
  let adm_a = Serve.submit_spmm_tuned s ~tenant:"t0" a xa ~feat in
  Alcotest.(check bool) "first admission is cold" false
    adm_a.Serve.ad_tuner_warm;
  Alcotest.(check bool) "cold admission measures" true
    (adm_a.Serve.ad_measured > 0);
  let xb = Dense.random ~seed:4 b.Csr.cols feat in
  let adm_b = Serve.submit_spmm_tuned s ~tenant:"t1" b xb ~feat in
  Alcotest.(check bool) "similar admission is warm" true
    adm_b.Serve.ad_tuner_warm;
  Alcotest.(check int) "warm admission measures nothing" 0
    adm_b.Serve.ad_measured;
  Alcotest.(check int) "warm config is the tuned winner"
    adm_a.Serve.ad_config adm_b.Serve.ad_config;
  Serve.drain s;
  let st = Serve.stats s in
  Alcotest.(check int) "stats count the warm admission" 1
    st.Serve.s_tuner_warm;
  Alcotest.(check int) "stats count the cold admission" 1
    st.Serve.s_tuner_cold;
  Alcotest.(check bool) "warm ratio surfaced" true
    (st.Serve.s_tuner_warm_ratio > 0.49
    && st.Serve.s_tuner_warm_ratio < 0.51);
  Tuner.Cache.reset ()

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tuner"
    [ ( "stats",
        [ Alcotest.test_case "row-permutation invariance" `Quick
            test_stats_row_permutation_invariant;
          Alcotest.test_case "skew sensitivity" `Quick
            test_stats_sensitive_to_skew;
          Alcotest.test_case "block-density sensitivity" `Quick
            test_stats_sensitive_to_block_density ] );
      ("stats-quantization", qsuite [ prop_key_collision_iff_quantized_equal ]);
      ( "guided-search",
        [ Alcotest.test_case "spmm_hyb regret" `Quick test_guided_spmm_hyb;
          Alcotest.test_case "spmm_sell regret" `Quick test_guided_spmm_sell;
          Alcotest.test_case "sddmm regret" `Quick test_guided_sddmm ] );
      ( "failures",
        [ Alcotest.test_case "failed candidate recorded" `Quick
            test_failed_candidate_recorded ] );
      ( "schedule-cache",
        [ Alcotest.test_case "counters and partitioning" `Quick
            test_cache_counters;
          Alcotest.test_case "serving admission warm path" `Quick
            test_serve_tuned_admission ] )
    ]
