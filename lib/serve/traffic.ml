(* Synthetic multi-tenant GNN traffic for the serving bench and tests.

   Four tenant families over varied graphs — the spmm/graphsage/rgcn mix of
   the paper's end-to-end sections — each exposed as an instance-builder
   thunk.  Instances are independent (own output tensors, own binding
   tensors) but deterministic: calling a builder twice yields two instances
   with identical inputs, so a served instance can be validated bit-for-bit
   against a sequentially executed sibling.  Step funcs come out of the
   pipeline compile cache, so instances of one family share physical
   templates and coalesce into batches. *)

open Formats

type instance = {
  ti_tenant : string;
  ti_steps : (Tir.Ir.func * Gpusim.bindings) list;
  ti_out : Tir.Tensor.t;
}

type family = { f_name : string; f_build : unit -> instance }

let graph_spec name nodes edges : Workloads.Graphs.spec =
  {
    Workloads.Graphs.g_name = name;
    g_nodes = nodes;
    g_edges = edges;
    g_shape = Workloads.Graphs.Power_law 1.5;
  }

(* Shared read-only inputs, built once per process.  Output and
   per-instance scratch tensors are rebuilt per request. *)
let graph_a = lazy (Workloads.Graphs.generate ~seed:7 (graph_spec "serve_a" 240 1900))
let graph_b = lazy (Workloads.Graphs.generate ~seed:9 (graph_spec "serve_b" 160 1300))
let feats_a = lazy (Dense.random ~seed:21 240 32)
let feats_b = lazy (Dense.random ~seed:22 160 16)
let hetero = lazy
  (Workloads.Hetero.generate ~seed:5
     { Workloads.Hetero.h_name = "serve_h"; h_nodes = 64; h_edges = 700; h_etypes = 4 })

let families : family array =
  [|
    {
      f_name = "spmm-csr";
      f_build =
        (fun () ->
          let c = Kernels.Spmm.dgsparse (Lazy.force graph_a) (Lazy.force feats_a) ~feat:32 in
          {
            ti_tenant = "tenant-csr";
            ti_steps = [ (c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings) ];
            ti_out = c.Kernels.Spmm.out;
          });
    };
    {
      f_name = "spmm-hyb";
      f_build =
        (fun () ->
          let c, _ =
            Kernels.Spmm.sparsetir_hyb ~c:2 (Lazy.force graph_b) (Lazy.force feats_b) ~feat:16
          in
          {
            ti_tenant = "tenant-hyb";
            ti_steps = [ (c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings) ];
            ti_out = c.Kernels.Spmm.out;
          });
    };
    {
      f_name = "graphsage";
      f_build =
        (fun () ->
          let t =
            Nn.Graphsage.epoch Nn.Graphsage.Dgl (Lazy.force graph_b) ~in_feat:8
              ~hidden:8 ~out_feat:4 ~seed:3 ()
          in
          {
            ti_tenant = "tenant-sage";
            ti_steps = t.Nn.Graphsage.steps;
            ti_out = t.Nn.Graphsage.h2;
          });
    };
    {
      f_name = "rgcn";
      f_build =
        (fun () ->
          let t =
            Nn.Rgcn.inference Nn.Rgcn.Sparsetir_naive (Lazy.force hetero) ~feat:8
              ~seed:4 ()
          in
          {
            ti_tenant = "tenant-rgcn";
            ti_steps = t.Nn.Rgcn.steps;
            ti_out = t.Nn.Rgcn.out;
          });
    };
  |]

let family_names () = Array.to_list (Array.map (fun f -> f.f_name) families)

(* [requests] builder thunks in a seeded-shuffled arrival order: the small
   spmm families dominate (they are the horizontal-fusion candidates), the
   multi-step nn families arrive sparsely. *)
let mix ?(seed = 11) ~(requests : int) () : family list =
  let weights = [| 4; 3; 1; 1 |] in
  let pool =
    List.concat
      (Array.to_list
         (Array.mapi (fun i w -> List.init w (fun _ -> families.(i))) weights))
  in
  let n_pool = List.length pool in
  let arr =
    Array.init requests (fun k -> List.nth pool (k mod n_pool))
  in
  let rng = Random.State.make [| seed |] in
  for k = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let tmp = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Bit-identity predicate for served-vs-sequential validation: exact float
   array equality, not a tolerance — batched execution must not perturb a
   single ulp. *)
let identical (a : Tir.Tensor.t) (b : Tir.Tensor.t) : bool =
  Tir.Tensor.to_float_array a = Tir.Tensor.to_float_array b

(* ------------------------------------------------------------------ *)
(* Evolving-graph traffic (DESIGN.md §3i)                              *)
(* ------------------------------------------------------------------ *)

(* A tenant whose graph mutates between requests: each epoch applies one
   seeded edge-delta batch to a live hyb ([Hyb.apply_delta] — O(Δ) patches
   plus targeted bucket rebuilds), refreshes the pipeline cache's fact
   snapshots, and re-derives the serving instance.  Unchanged bucket
   shapes hit the compile cache, so the steady-state cost is the patch,
   not a recompile.  [ev_reference] rebuilds the same epoch cold (pure
   [Csr.apply_delta] chain + cold kernels) for bit-identity validation. *)
type evolving = {
  ev_name : string;
  ev_nodes : int;
  ev_edits : int; (* edits per epoch *)
  ev_step : unit -> instance * Hyb.delta_info; (* advance one epoch *)
  ev_reference : unit -> instance; (* cold rebuild of the current epoch *)
}

let evolving ?(seed = 17) ?(nodes = 160) ?(edges = 1300) ?(edits = 24)
    ?(slack = 0) () : evolving =
  let feat = 16 in
  let g =
    Workloads.Graphs.generate ~seed (graph_spec "serve_evolve" nodes edges)
  in
  let x = Dense.random ~seed:(seed + 1) g.Csr.cols feat in
  let lv = Hyb.live ~slack ~cap_slack:(4 * edits) ~c:2 ~k:2 g in
  let cold = ref g in
  let epoch = ref 0 in
  let instance_of (c : Kernels.Spmm.compiled) =
    { ti_tenant = "tenant-evolve";
      ti_steps = [ (c.Kernels.Spmm.fn, c.Kernels.Spmm.bindings) ];
      ti_out = c.Kernels.Spmm.out }
  in
  { ev_name = "spmm-evolve";
    ev_nodes = nodes;
    ev_edits = edits;
    ev_step =
      (fun () ->
        incr epoch;
        let batch =
          Delta.random ~seed:(seed + (31 * !epoch)) ~rows:g.Csr.rows
            ~cols:g.Csr.cols ~edits ()
        in
        let info = Hyb.apply_delta lv batch in
        cold := Csr.apply_delta !cold batch;
        let iptr, idx, v = Csr.live_tensors (Hyb.live_source lv) in
        Pipeline.refresh_fact_snapshots [ iptr; idx; v ];
        (instance_of (Kernels.Spmm.sparsetir_hyb_live lv x ~feat), info));
    ev_reference =
      (fun () ->
        let c, _ = Kernels.Spmm.sparsetir_hyb ~c:2 ~k:2 !cold x ~feat in
        instance_of c) }
