(* Performance tuning (S2, "performance-tuning system"): searches the joint
   space of composable formats (e.g. hyb's column-partition count c) and
   composable transformations (row grouping, vector width, group sizes).

   Two search modes (DESIGN.md §3j):

   - [search] is the paper's exhaustive mode: every candidate runs through
     the GPU cost model and the fastest wins.  Candidates that fail to
     compile are recorded in [trials] with a " [failed]" marker and an
     infinite time, so pruning bugs cannot masquerade as a fast search.

   - [search_guided] is the two-stage mode: candidates are ranked by the
     closed-form analytical estimate attached at construction time
     ([candidate.est], built on [Gpusim.Estimate] from format/schedule
     parameters + structure statistics, never executing the
     warp-granularity walker), and only the top fraction is measured.

   On top of both sits [Cache]: tuned winners keyed by
   (kernel family, feature bucket, quantized structure statistics), so a
   structurally-similar matrix skips the search entirely — the serving
   layer's admission path (lib/serve) is the main client. *)

module Stats = Formats.Stats

type 'a candidate = {
  label : string;
  config : 'a;
  est : float; (* analytical estimate, ms — the guided-search ranking key *)
  build : unit -> Gpusim.profile;
}

type 'a result = {
  best_label : string;
  best_config : 'a;
  best : Gpusim.profile;
  trials : (string * float) list; (* label, time_ms; failures marked *)
  measured : int; (* candidates run through the cost model *)
  skipped : int; (* candidates pruned by the estimator *)
  failed : int; (* candidates whose build raised *)
  cache_hits : int; (* compile-cache hits incurred by this search *)
  cache_misses : int; (* compile-cache misses incurred by this search *)
}

let failed_marker = " [failed]"

(* Measure [chosen]; [skipped] only annotates the result. *)
let search_measuring (chosen : 'a candidate list) ~(skipped : int) : 'a result =
  match chosen with
  | [] -> invalid_arg "Tuner.search: no candidates"
  | _ ->
      let hits0 = Pipeline.cache_hits () and misses0 = Pipeline.cache_misses () in
      (* each candidate builds once; the first failure is kept so that an
         all-failed search can re-raise it *)
      let first_failure = ref None in
      let evaluated, failures =
        List.fold_left
          (fun (ev, fl) c ->
            match c.build () with
            | p -> ((c, p) :: ev, fl)
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                if Option.is_none !first_failure then first_failure := Some (e, bt);
                (ev, (c.label ^ failed_marker, infinity) :: fl))
          ([], []) chosen
      in
      let evaluated = List.rev evaluated and failures = List.rev failures in
      (match (evaluated, !first_failure) with
      | [], Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | _ -> ());
      let best_c, best =
        List.fold_left
          (fun ((_, bp) as acc) ((_, p) as cur) ->
            if p.Gpusim.p_time_ms < bp.Gpusim.p_time_ms then cur else acc)
          (List.hd evaluated) (List.tl evaluated)
      in
      { best_label = best_c.label;
        best_config = best_c.config;
        best;
        trials =
          List.map (fun (c, p) -> (c.label, p.Gpusim.p_time_ms)) evaluated
          @ failures;
        measured = List.length evaluated;
        skipped;
        failed = List.length failures;
        cache_hits = Pipeline.cache_hits () - hits0;
        cache_misses = Pipeline.cache_misses () - misses0 }

let search (candidates : 'a candidate list) : 'a result =
  search_measuring candidates ~skipped:0

let search_guided ?(rho = 0.25) ?topk (candidates : 'a candidate list) :
    'a result =
  match candidates with
  | [] -> invalid_arg "Tuner.search_guided: no candidates"
  | _ ->
      let n = List.length candidates in
      let k =
        match topk with
        | Some k -> max 1 (min n k)
        | None -> max 1 (int_of_float (ceil (rho *. float_of_int n)))
      in
      let ranked =
        List.stable_sort (fun a b -> Float.compare a.est b.est) candidates
      in
      let chosen = List.filteri (fun i _ -> i < k) ranked in
      search_measuring chosen ~skipped:(n - k)

(* Geometric mean, the aggregation used across feature sizes in Figures
   13-14. *)
let geomean (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun a x -> a +. log (Float.max 1e-30 x)) 0.0 xs /. n)

(* ------------------------------------------------------------------ *)
(* Structure-keyed schedule cache                                      *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  (* All candidate configs are small integer tuples, so a winner is stored
     shape-agnostically as the label plus the config rendered to ints. *)
  type entry = { ce_label : string; ce_config : int list }

  let table : (string, entry) Hashtbl.t = Hashtbl.create 64
  let hits_c = ref 0
  let misses_c = ref 0

  let cache_key ~(family : string) ~(feat : int) (k : Stats.key) : string =
    Printf.sprintf "%s|f%d|%s" family (Stats.qlog_int feat) k

  let find ~(family : string) ~(feat : int) (k : Stats.key) : entry option =
    match Hashtbl.find_opt table (cache_key ~family ~feat k) with
    | Some e ->
        incr hits_c;
        Some e
    | None ->
        incr misses_c;
        None

  let store ~(family : string) ~(feat : int) (k : Stats.key) ~(label : string)
      ~(config : int list) : unit =
    Hashtbl.replace table
      (cache_key ~family ~feat k)
      { ce_label = label; ce_config = config }

  let hits () = !hits_c
  let misses () = !misses_c
  let size () = Hashtbl.length table

  let reset () =
    Hashtbl.reset table;
    hits_c := 0;
    misses_c := 0
end

(* ------------------------------------------------------------------ *)
(* Analytical estimates per kernel family                              *)
(* ------------------------------------------------------------------ *)

(* Workload terms from format/schedule parameters and the structure scan —
   closed-form counts priced by [Gpusim.Estimate] with the same Spec
   coefficients as the walker.  ~4 warp instructions per non-zero per lane
   element (address arithmetic, index load, operand load, FMA); padding
   slots count like non-zeros because the generated kernels iterate them. *)
let insts_per_elem = 4.0

let ceil_div a b = (a + b - 1) / b

(* Sum over slices of slice_rows * max-row-length-in-slice — the exact slot
   count of the sliced-ELL descriptor (Fit slice), plus the per-row padded
   width array for the imbalance term. *)
let sell_shape (lens : int array) ~(slice : int) : float * float =
  let rows = Array.length lens in
  let slots = ref 0 in
  let wsum = ref 0.0 and wsq = ref 0.0 in
  let s = ref 0 in
  while !s < rows do
    let hi = min rows (!s + slice) in
    let w = ref 0 in
    for i = !s to hi - 1 do
      if lens.(i) > !w then w := lens.(i)
    done;
    slots := !slots + ((hi - !s) * !w);
    let fw = float_of_int !w in
    wsum := !wsum +. (fw *. float_of_int (hi - !s));
    wsq := !wsq +. (fw *. fw *. float_of_int (hi - !s));
    s := hi
  done;
  let mean = !wsum /. float_of_int (max 1 rows) in
  let var = (!wsq /. float_of_int (max 1 rows)) -. (mean *. mean) in
  let cv = if mean <= 0.0 then 0.0 else sqrt (Float.max 0.0 var) /. mean in
  (float_of_int !slots, cv)

(* Exact hyb(c, k) bucket shape without building the format: per-partition
   row lengths, the ceil-log2 push rule and the long-row split of
   [Hyb.bucketize], giving (pseudo-rows, padded slots, grid blocks). *)
let hyb_shape (a : Formats.Csr.t) ~(c : int) ~(k : int) :
    float * float * float =
  let rows = a.Formats.Csr.rows and cols = a.Formats.Csr.cols in
  let part_cols = ceil_div cols (max 1 c) in
  let maxw = 1 lsl k in
  let rows_w = Array.make (k + 1) 0 in
  let pseudo = ref 0 in
  let bucket_of len =
    let rec go w i = if len <= w then i else go (w * 2) (i + 1) in
    go 1 0
  in
  let plen = Array.make (max 1 c) 0 in
  for i = 0 to rows - 1 do
    Array.fill plen 0 (max 1 c) 0;
    for p = a.Formats.Csr.indptr.(i) to a.Formats.Csr.indptr.(i + 1) - 1 do
      let part = a.Formats.Csr.indices.(p) / part_cols in
      plen.(part) <- plen.(part) + 1
    done;
    Array.iter
      (fun len ->
        if len > 0 then begin
          let full = len / maxw and rem = len mod maxw in
          if full > 0 then begin
            rows_w.(k) <- rows_w.(k) + full;
            pseudo := !pseudo + full
          end;
          if rem > 0 then begin
            let b = bucket_of rem in
            rows_w.(b) <- rows_w.(b) + 1;
            incr pseudo
          end
        end)
      plen
  done;
  let slots = ref 0 and blocks = ref 0 in
  Array.iteri
    (fun b n ->
      if n > 0 then begin
        let w = 1 lsl b in
        slots := !slots + (n * w);
        let rows_per_block = max 1 (maxw / w) in
        blocks := !blocks + ceil_div n rows_per_block
      end)
    rows_w;
  (float_of_int !pseudo, float_of_int !slots, float_of_int !blocks)

let est_spmm_no_hyb (spec : Gpusim.Spec.t) (a : Formats.Csr.t)
    (st : Stats.t) ~(feat : int) ~(row_group : int) ~(vec : int) : float =
  let open Gpusim.Estimate in
  let vec = if feat mod (32 * vec) = 0 then vec else 1 in
  let rows = float_of_int a.Formats.Csr.rows in
  let nnz = float_of_int (Formats.Csr.nnz a) in
  let feat_f = float_of_int feat in
  let blocks = float_of_int (ceil_div a.Formats.Csr.rows (max 1 row_group)) in
  let vec_f = float_of_int vec in
  let insts =
    (nnz *. feat_f /. 32.0 *. (2.0 +. (2.0 /. vec_f)))
    +. (rows *. feat_f /. 32.0)
  in
  let imb = 1.0 +. (st.Stats.cv /. sqrt (float_of_int (max 1 row_group))) in
  (* longest row = longest single-warp chain: ~4 issue slots per element
     per lane (amortized by vectorization) + 4 line txns per load inst at
     l1 latency / MLP 4 *)
  let critical =
    float_of_int st.Stats.max_len *. feat_f /. 32.0
    *. ((4.0 /. vec_f) +. 2.0)
  in
  let w =
    { ideal with
      wl_blocks = blocks;
      wl_launches = 1.0;
      wl_insts = insts;
      wl_imbalance = imb;
      wl_critical = critical }
  in
  let w = stream_lines spec ~bytes:(nnz *. 8.0) ~reuse:1.0 w in
  let w = stream_lines spec ~bytes:(rows *. feat_f *. 4.0) ~reuse:1.0 w in
  let w =
    gather_lines spec
      ~accesses:(nnz *. feat_f /. 8.0)
      ~bytes_each:32.0
      ~footprint:(float_of_int a.Formats.Csr.cols *. feat_f *. 4.0)
      w
  in
  time_ms spec w

(* [lens] is the row-length vector: the slice-max padding and width-variance
   terms need it. *)
let est_spmm_sell (spec : Gpusim.Spec.t) (a : Formats.Csr.t)
    (lens : int array) ~(feat : int) ~(slice : int) ~(row_group : int) : float =
  let open Gpusim.Estimate in
  let rows = float_of_int a.Formats.Csr.rows in
  let feat_f = float_of_int feat in
  let slots, width_cv = sell_shape lens ~slice in
  let blocks = float_of_int (ceil_div a.Formats.Csr.rows (max 1 row_group)) in
  let insts =
    (slots *. feat_f /. 32.0 *. insts_per_elem) +. (rows *. feat_f /. 32.0)
  in
  let imb = 1.0 +. (width_cv /. sqrt (float_of_int (max 1 row_group))) in
  (* the widest slice is the longest warp chain (slice-uniform widths) *)
  let max_w = Array.fold_left max 0 lens in
  let critical = float_of_int max_w *. feat_f /. 32.0 *. 6.0 in
  let w =
    { ideal with
      wl_blocks = blocks;
      wl_launches = 1.0;
      wl_insts = insts;
      wl_imbalance = imb;
      wl_critical = critical }
  in
  (* padded slots carry values + indices and gather B like real ones *)
  let w = stream_lines spec ~bytes:(slots *. 8.0) ~reuse:1.0 w in
  let w = stream_lines spec ~bytes:(rows *. feat_f *. 4.0) ~reuse:1.0 w in
  let w =
    gather_lines spec
      ~accesses:(slots *. feat_f /. 8.0)
      ~bytes_each:32.0
      ~footprint:(float_of_int a.Formats.Csr.cols *. feat_f *. 4.0)
      w
  in
  time_ms spec w

(* Replays the bucketize push rule (ceil-log2 buckets, long-row split) per
   column partition to get exact pseudo-row/slot/block counts without
   building the format. *)
let est_spmm_hyb (spec : Gpusim.Spec.t) (a : Formats.Csr.t) ~(feat : int)
    ~(c : int) ~(k : int) : float =
  let open Gpusim.Estimate in
  let rows = float_of_int a.Formats.Csr.rows in
  let feat_f = float_of_int feat in
  let pseudo, slots, bucket_blocks = hyb_shape a ~c ~k in
  let init_blocks = float_of_int (ceil_div a.Formats.Csr.rows 8) in
  let insts =
    (slots *. feat_f /. 32.0 *. insts_per_elem)
    (* per-pseudo-row register accumulation flushed to C *)
    +. (pseudo *. feat_f /. 32.0 *. 2.0)
    (* init kernel: C = 0 *)
    +. (rows *. feat_f /. 32.0)
  in
  let w =
    { ideal with
      wl_blocks = bucket_blocks +. init_blocks;
      wl_launches = 1.0; (* horizontal fusion *)
      wl_insts = insts;
      wl_imbalance = 1.0; (* uniform bucket widths *)
      (* bucketing caps every warp chain at the 2^k bucket width *)
      wl_critical = float_of_int (1 lsl k) *. feat_f /. 32.0 *. 6.0 }
  in
  (* bucket values + indices + row maps *)
  let w = stream_lines spec ~bytes:((slots *. 8.0) +. (pseudo *. 4.0)) ~reuse:1.0 w in
  (* C: init write + read-modify-write per pseudo-row flush *)
  let w = stream_lines spec ~bytes:(rows *. feat_f *. 4.0) ~reuse:1.0 w in
  let w =
    gather_lines spec
      ~accesses:(pseudo *. feat_f /. 8.0 *. 2.0)
      ~bytes_each:32.0
      ~footprint:(rows *. feat_f *. 4.0)
      w
  in
  let w =
    gather_lines spec
      ~accesses:(slots *. feat_f /. 8.0)
      ~bytes_each:32.0
      ~footprint:(float_of_int a.Formats.Csr.cols *. feat_f *. 4.0)
      w
  in
  time_ms spec w

let est_sddmm (spec : Gpusim.Spec.t) (a : Formats.Csr.t) ~(feat : int)
    ~(edges : int) ~(group : int) ~(vec : int) : float =
  let open Gpusim.Estimate in
  let vec = if feat mod (group * vec) = 0 then vec else 1 in
  let group = if feat mod (group * vec) = 0 then group else min group feat in
  let nnz = float_of_int (Formats.Csr.nnz a) in
  let feat_f = float_of_int feat in
  let blocks = float_of_int (ceil_div (Formats.Csr.nnz a) (max 1 edges)) in
  let insts =
    (nnz *. feat_f /. 32.0 /. float_of_int vec *. insts_per_elem)
    (* second reduction stage over the [group] partials *)
    +. (nnz *. float_of_int group /. 32.0 *. 2.0)
    +. (nnz /. 32.0)
  in
  let w =
    { ideal with
      wl_blocks = blocks;
      wl_launches = 2.0; (* rfactor: partial + final reduction *)
      wl_insts = insts;
      wl_smem = nnz *. float_of_int group /. 32.0 *. 2.0;
      wl_imbalance = 1.0 (* edge-parallel: perfect balance *) }
  in
  let w = stream_lines spec ~bytes:(nnz *. 12.0) ~reuse:1.0 w in
  let w =
    gather_lines spec
      ~accesses:(nnz *. feat_f /. 8.0)
      ~bytes_each:32.0
      ~footprint:(float_of_int a.Formats.Csr.rows *. feat_f *. 4.0)
      w
  in
  (* Y is K x N: lanes gather down a column with stride N, so a load
     instruction coalesces nothing — one transaction per 2*vec elements
     (vectorization being the only amortizer) *)
  let w =
    gather_lines spec
      ~accesses:(nnz *. feat_f /. (2.0 *. float_of_int vec))
      ~bytes_each:32.0
      ~footprint:(feat_f *. float_of_int a.Formats.Csr.cols *. 4.0)
      w
  in
  time_ms spec w

(* ------------------------------------------------------------------ *)
(* Candidate factories                                                 *)
(* ------------------------------------------------------------------ *)

(* Search space of the hyb SpMM: column partitions c over {1, 2, 4, ...} with
   k fixed by the bucketing rule (S4.2.1). *)
let spmm_hyb_candidates ?(cs = [ 1; 2; 4 ]) (spec : Gpusim.Spec.t)
    (a : Formats.Csr.t) (x : Formats.Dense.t) ~(feat : int) :
    int candidate list =
  let k = Formats.Hyb.default_k a in
  List.map
    (fun c ->
      { label = Printf.sprintf "hyb(c=%d)" c;
        config = c;
        est = est_spmm_hyb spec a ~feat ~c ~k;
        build =
          (fun () ->
            let compiled, _ = Kernels.Spmm.sparsetir_hyb ~c a x ~feat in
            Gpusim.run ~horizontal_fusion:true spec compiled.Kernels.Spmm.fn
              compiled.Kernels.Spmm.bindings) })
    cs

(* Search space of the CSR (no-hyb) SparseTIR SpMM: row grouping and vector
   width. *)
let spmm_no_hyb_candidates ?(groups = [ 4; 8 ]) ?(vecs = [ 1; 2 ])
    (spec : Gpusim.Spec.t) (a : Formats.Csr.t) (x : Formats.Dense.t)
    ~(feat : int) : (int * int) candidate list =
  let st = Stats.of_csr a in
  List.concat_map
    (fun g ->
      List.map
        (fun v ->
          { label = Printf.sprintf "csr(g=%d,v=%d)" g v;
            config = (g, v);
            est = est_spmm_no_hyb spec a st ~feat ~row_group:g ~vec:v;
            build =
              (fun () ->
                let compiled =
                  Kernels.Spmm.sparsetir_no_hyb ~row_group:g ~vec:v a x ~feat
                in
                Gpusim.run spec compiled.Kernels.Spmm.fn
                  compiled.Kernels.Spmm.bindings) })
        vecs)
    groups

(* Search space of the sliced-ELL SpMM: the slice height is a format
   parameter (padding-vs-uniformity trade) and the row group a schedule
   parameter — the joint format x transformation search of S2, over a
   format that exists only as a descriptor. *)
let spmm_sell_candidates ?(slices = [ 4; 16; 32 ]) ?(groups = [ 4; 8 ])
    (spec : Gpusim.Spec.t) (a : Formats.Csr.t) (x : Formats.Dense.t)
    ~(feat : int) : (int * int) candidate list =
  let lens = Array.init a.Formats.Csr.rows (fun i -> Formats.Csr.row_len a i) in
  List.concat_map
    (fun s ->
      List.map
        (fun g ->
          { label = Printf.sprintf "sell(slice=%d,g=%d)" s g;
            config = (s, g);
            est = est_spmm_sell spec a lens ~feat ~slice:s ~row_group:g;
            build =
              (fun () ->
                let compiled, _ =
                  Kernels.Spmm.sell ~slice:s ~row_group:g a x ~feat
                in
                Gpusim.run spec compiled.Kernels.Spmm.fn
                  compiled.Kernels.Spmm.bindings) })
        groups)
    slices

(* Search space of the SparseTIR SDDMM: edges per block, reduction group
   size, vector width (the parameterization of S4.2.2). *)
let sddmm_candidates ?(edges = [ 8; 16 ]) ?(groups = [ 4; 8 ])
    ?(vecs = [ 2; 4 ]) (spec : Gpusim.Spec.t) (a : Formats.Csr.t)
    (x : Formats.Dense.t) (y : Formats.Dense.t) ~(feat : int) :
    (int * int * int) candidate list =
  List.concat_map
    (fun e ->
      List.concat_map
        (fun g ->
          List.map
            (fun v ->
              { label = Printf.sprintf "sddmm(e=%d,g=%d,v=%d)" e g v;
                config = (e, g, v);
                est = est_sddmm spec a ~feat ~edges:e ~group:g ~vec:v;
                build =
                  (fun () ->
                    let compiled =
                      Kernels.Sddmm.two_stage ~edges:e ~group:g ~vec:v a x y
                        ~feat
                    in
                    Gpusim.run spec compiled.Kernels.Sddmm.fn
                      compiled.Kernels.Sddmm.bindings) })
            vecs)
        groups)
    edges
