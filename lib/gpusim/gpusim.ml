(* Root of the GPU simulator library: kernel launch driver and profiles.

   [run] estimates the execution profile of a Stage III function on a
   simulated GPU; [execute] runs the same function for its numerical result
   (via the functional interpreter).  Top-level statements of the function
   body are treated as separate kernels (one launch overhead each) unless
   [horizontal_fusion] merges them into a single launch (S3.5). *)

module Spec = Spec
module Cache = Cache
module Cost = Cost
module Estimate = Estimate

open Tir
open Tir.Ir

type profile = {
  p_cycles : float;
  p_time_ms : float;
  p_l1_hit_rate : float;
  p_l2_hit_rate : float;
  p_dram_bytes : float;
  p_flops : float;
  p_launches : int;
  p_blocks : int;
  p_memory_bytes : int; (* footprint of bound global tensors *)
  p_smem_high : int;
}

let pp_profile (p : profile) : string =
  Printf.sprintf
    "time=%.4fms cycles=%.0f l1=%.1f%% l2=%.1f%% dram=%.2fMB flops=%.2eM \
     launches=%d blocks=%d mem=%.2fMB"
    p.p_time_ms p.p_cycles (100. *. p.p_l1_hit_rate) (100. *. p.p_l2_hit_rate)
    (p.p_dram_bytes /. 1.0e6) (p.p_flops /. 1.0e6) p.p_launches p.p_blocks
    (float_of_int p.p_memory_bytes /. 1.0e6)

let block_schedule_cycles = 50.0

(* Bindings map parameter buffer names to tensors. *)
type bindings = (string * Tensor.t) list

let find_binding (bindings : bindings) (b : buffer) : Tensor.t =
  match List.assoc_opt b.buf_name bindings with
  | Some t -> t
  | None ->
      Cost.err "no tensor bound for parameter %s" b.buf_name

(* Cost-model run.  [horizontal_fusion] merges the per-statement kernel
   launches into one. *)
let run ?(horizontal_fusion = false) ?(debug = false) (spec : Spec.t)
    (fn : func) (bindings : bindings) : profile =
  let w = Cost.create spec fn (List.map (find_binding bindings) fn.fn_params) in
  let kernels = Cost.kernels w in
  let sm_tots =
    Array.init spec.num_sms (fun _ ->
        Cost.{ s_insts = 0.; s_l1 = 0.; s_smem = 0.; s_tc = 0.; s_blocks = 0 })
  in
  let block_ordinal = ref 0 in
  let smem_high = ref 0 in
  let kernel_cycles = ref 0.0 in
  let launches = ref 0 in
  let traffic = Cost.wacc_zero () in
  let sm_time () =
    Array.fold_left
      (fun acc (t : Cost.sm_tot) ->
        let time =
          Float.max
            (t.s_insts /. spec.warp_issue_per_cycle)
            (Float.max (t.s_l1 *. 1.0)
               (Float.max (t.s_smem *. 1.0) (t.s_tc /. spec.tc_macs_per_cycle)))
          +. (float_of_int t.s_blocks *. block_schedule_cycles)
        in
        Float.max acc time)
      0.0 sm_tots
  in
  let reset_tots () =
    Array.iter
      (fun (t : Cost.sm_tot) ->
        t.s_insts <- 0.; t.s_l1 <- 0.; t.s_smem <- 0.; t.s_tc <- 0.;
        t.s_blocks <- 0)
      sm_tots
  in
  if horizontal_fusion then begin
    (* one launch: blocks of every kernel fill the device concurrently *)
    let max_critical = ref 0.0 in
    List.iter
      (fun k ->
        Cost.run_kernel w k ~block_ordinal sm_tots ~max_critical ~smem_high
          ~traffic)
      kernels;
    kernel_cycles := Float.max (sm_time ()) !max_critical;
    launches := 1;
    if debug then
      Printf.eprintf "[gpusim] fused kernel: sm_time=%.0f crit=%.0f\n%!"
        (sm_time ()) !max_critical
  end
  else
    List.iter
      (fun k ->
        reset_tots ();
        let max_critical = ref 0.0 in
        Cost.run_kernel w k ~block_ordinal sm_tots ~max_critical ~smem_high
          ~traffic;
        let t = sm_time () in
        if debug then
          Printf.eprintf "[gpusim] kernel: sm_time=%.0f crit=%.0f\n%!" t
            !max_critical;
        kernel_cycles := !kernel_cycles +. Float.max t !max_critical;
        incr launches)
      kernels;
  (* hit rates from the cache simulators; traffic volumes from the (sampled,
     scaled) per-block accumulation *)
  let l2 = Cost.l2 w in
  let l2_hits = l2.Cache.hits and l2_misses = l2.Cache.misses in
  let l1_hits = Array.fold_left (fun a c -> a + c.Cache.hits) 0 (Cost.l1s w) in
  let l1_misses =
    Array.fold_left (fun a c -> a + c.Cache.misses) 0 (Cost.l1s w)
  in
  let total_l2_txns = traffic.Cost.a_l2 +. traffic.Cost.a_dram in
  let total_dram_bytes = traffic.Cost.a_dram_bytes in
  let dram_time = total_dram_bytes /. spec.dram_bytes_per_cycle in
  let l2_time = total_l2_txns /. 64.0 in
  let launch_overhead = float_of_int !launches *. spec.kernel_launch_cycles in
  let cycles =
    Float.max !kernel_cycles (Float.max dram_time l2_time) +. launch_overhead
  in
  let mem_bytes =
    List.fold_left (fun a (_, t) -> a + Tensor.bytes t) 0 bindings
  in
  { p_cycles = cycles;
    p_time_ms = Spec.time_ms spec cycles;
    p_l1_hit_rate =
      (let t = l1_hits + l1_misses in
       if t = 0 then 1.0 else float_of_int l1_hits /. float_of_int t);
    p_l2_hit_rate =
      (let t = l2_hits + l2_misses in
       if t = 0 then 1.0 else float_of_int l2_hits /. float_of_int t);
    p_dram_bytes = total_dram_bytes;
    p_flops = Cost.total_flops w;
    p_launches = (if horizontal_fusion then List.length kernels else !launches);
    p_blocks = !block_ordinal;
    p_memory_bytes = mem_bytes;
    p_smem_high = !smem_high }

(* The positional argument list [Engine.run]/[Engine.execute] expects for
   [fn], resolved from name-keyed bindings.  The serving layer uses this to
   build concatenated argument lists for horizontally fused batches. *)
let args_for (fn : func) (bindings : bindings) : Tensor.t list =
  List.map (fun b -> find_binding bindings b) fn.fn_params

(* Correctness run.  Dispatches through [Engine]: the compiled closure
   backend by default, or the tree-walking interpreter when [?engine] (or
   [Engine.default_kind]) selects it. *)
let execute ?engine ?num_domains (fn : func) (bindings : bindings) : unit =
  Engine.execute ?kind:engine ?num_domains fn (args_for fn bindings)

(* Multi-kernel composition (e.g. two-stage RGMS pipelines): sequential
   execution; cycles add, memory footprint counts each distinct tensor
   once. *)
let run_many ?(horizontal_fusion = false) (spec : Spec.t)
    (steps : (func * bindings) list) : profile =
  let profiles =
    List.map (fun (fn, b) -> run ~horizontal_fusion spec fn b) steps
  in
  (* with horizontal fusion the steps batch into a single stream submission:
     one launch overhead for the whole pipeline *)
  let launch_correction =
    if horizontal_fusion then
      float_of_int (List.length steps - 1) *. spec.kernel_launch_cycles
    else 0.0
  in
  let tensors : Tensor.t list =
    List.concat_map (fun (_, b) -> List.map snd b) steps
    |> List.fold_left
         (fun acc t -> if List.memq t acc then acc else t :: acc)
         []
  in
  let mem = List.fold_left (fun a t -> a + Tensor.bytes t) 0 tensors in
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 profiles in
  let cycles = Float.max 1.0 (sum (fun p -> p.p_cycles) -. launch_correction) in
  { p_cycles = cycles;
    p_time_ms = Spec.time_ms spec cycles;
    p_l1_hit_rate =
      sum (fun p -> p.p_l1_hit_rate) /. float_of_int (List.length profiles);
    p_l2_hit_rate =
      sum (fun p -> p.p_l2_hit_rate) /. float_of_int (List.length profiles);
    p_dram_bytes = sum (fun p -> p.p_dram_bytes);
    p_flops = sum (fun p -> p.p_flops);
    p_launches = List.fold_left (fun a p -> a + p.p_launches) 0 profiles;
    p_blocks = List.fold_left (fun a p -> a + p.p_blocks) 0 profiles;
    p_memory_bytes = mem;
    p_smem_high = List.fold_left (fun a p -> max a p.p_smem_high) 0 profiles }

let execute_many ?engine ?num_domains (steps : (func * bindings) list) : unit =
  List.iter (fun (fn, b) -> execute ?engine ?num_domains fn b) steps
