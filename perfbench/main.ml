(* The repository benchmark.

     main.exe --workload cold|steady|serve --seed N --seconds S --trace 0|1
              [--ops N] [--corrupt K]

   Set-up runs nine times from a cold process state (caches dropped,
   counters zeroed) and [setup_s] is the median.  A run with [--trace 0]
   measures for S seconds with tracing off and prints the end-to-end
   metrics.  A run with [--trace 1] measures S/2 seconds with tracing off,
   then the same S/2 seconds again with spans recorded, prints the
   per-layer metrics of the traced half and writes its spans to
   .perfbench/.  The last line of standard output is one JSON object.

   [--ops N] replaces the time limit by exactly N ops per phase and prints
   both metric sets; [--corrupt K] corrupts the K-th output check.  Both
   serve the self-test in run.py. *)

module type WORKLOAD = sig
  type state

  val setup : seed:int -> state

  (* untimed: reference outputs *)
  val prepare : state -> state
  val run : state -> seconds:float -> ops:int option -> Run_result.t
end

type workload = {
  name : string;
  tail_p : float;  (** percentile of [latency_tail_ms] *)
  fresh : bool;  (** every phase starts with caches dropped *)
  m : (module WORKLOAD);
}

let workloads =
  [ { name = "cold"; tail_p = 0.95; fresh = true; m = (module Cold) };
    { name = "steady"; tail_p = 0.95; fresh = false; m = (module Steady) };
    { name = "serve"; tail_p = 0.99; fresh = false; m = (module Serve_load) } ]

let steady_kernels = List.map (fun k -> k.Steady.name) (Steady.kernels ~seed:0)
let fixed_passes = [ "lower_iterations"; "lower_buffers"; "decompose_format"; "codegen" ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type phase = {
  r : Run_result.t;
  counts : (string * float) list;  (** counter differences *)
  gauges : (string * float) list;
  runs : Pipeline.stats list;  (** pipeline runs of the phase *)
}

let ops_per_s (p : phase) = float_of_int (Array.length p.r.Run_result.latencies_ms) /. p.r.Run_result.busy_s

let end_to_end (w : workload) ~(setup_s : float) (p : phase) : (string * float * string) list =
  let r = p.r in
  let l = r.Run_result.latencies_ms in
  let within = Array.fold_left (fun a x -> if x <= r.Run_result.slo_ms then a + 1 else a) 0 l in
  [ ("setup_s", setup_s, "s");
    ("ops_per_s", ops_per_s p, "1/s");
    ("latency_p50_ms", Util.median l, "ms");
    ("latency_tail_ms", Util.percentile l w.tail_p, "ms");
    ("sim_gpu_us", Util.geomean r.Run_result.sim_us, "us");
    ("slo_met_ratio", float_of_int within /. float_of_int (max 1 r.Run_result.attempted), "ratio");
    ("peak_heap_mb", Util.peak_heap_mb (), "MB") ]

(* Self time of every span under each "harness.op" root, summed per span
   name, and the total duration of those roots. *)
let op_breakdown () : (string, float) Hashtbl.t * float =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) !Trace.spans;
  let rec root (s : Trace.span) =
    match Hashtbl.find_opt by_id s.Trace.parent with Some p -> root p | None -> s
  in
  let self = Hashtbl.create 32 and wall = ref 0.0 in
  List.iter
    (fun (s : Trace.span) ->
      let top = root s in
      if top.Trace.name = "harness.op" then begin
        if s == top then wall := !wall +. ((s.Trace.t1 -. s.Trace.t0) *. 1000.0);
        let v = Option.value (Hashtbl.find_opt self s.Trace.name) ~default:0.0 in
        Hashtbl.replace self s.Trace.name (v +. s.Trace.self_ms)
      end)
    !Trace.spans;
  (self, !wall)

let per_layer (w : workload) ~(untraced : phase) (p : phase) : (string * float * string) list =
  let r = p.r in
  let ops = float_of_int (max 1 r.Run_result.attempted) in
  let self, wall = op_breakdown () in
  let self_ms name = Option.value (Hashtbl.find_opt self name) ~default:0.0 in
  let per_op names = List.fold_left (fun a n -> a +. self_ms n) 0.0 names /. ops in
  let layer k = Option.value (List.assoc_opt k r.Run_result.layer) ~default:0.0 in
  let count k = Option.value (List.assoc_opt k p.counts) ~default:0.0 in
  let ms = "ms" and n = "count" and ratio = "ratio" in
  (* pipeline figures come from its own per-run records *)
  let compiled = List.filter (fun s -> s.Pipeline.st_passes <> []) p.runs in
  let pass_total pred =
    List.fold_left
      (fun a s ->
        List.fold_left
          (fun a (ps : Pipeline.pass_stat) -> if pred ps.Pipeline.ps_name then a +. ps.Pipeline.ps_ms else a)
          a s.Pipeline.st_passes)
      0.0 p.runs
  in
  let n_passes = List.fold_left (fun a s -> a + List.length s.Pipeline.st_passes) 0 p.runs in
  let nodes_out =
    List.fold_left
      (fun a s ->
        match List.rev s.Pipeline.st_passes with
        | last :: _ -> a +. float_of_int last.Pipeline.ps_after.Pipeline.sz_nodes
        | [] -> a)
      0.0 compiled
    /. float_of_int (max 1 (List.length compiled))
  in
  let layer_sum =
    Hashtbl.fold (fun k v a -> if Trace.layer_of k = "harness" then a else a +. v) self 0.0
  in
  let tail_beyond =
    let l = r.Run_result.latencies_ms in
    let t = Util.percentile l w.tail_p in
    Array.fold_left (fun a x -> if x > t then a + 1 else a) 0 l
  in
  [ ("formats.csr_build_ms", per_op [ "formats.csr_build" ], ms);
    ("formats.stats_key_ms", per_op [ "formats.stats_key" ], ms);
    ("formats.delta_ms", Util.median (Trace.durations "formats.delta"), ms);
    ("formats.delta_rebuilt", layer "formats.delta_rebuilt", n);
    ("kernels.assemble_ms", per_op [ "kernels.assemble" ], ms);
    ("tuner.cache_ms", per_op [ "tuner.cache_find"; "tuner.cache_store" ], ms);
    ("tuner.estimate_ms", per_op [ "tuner.estimate" ], ms);
    ("tuner.search_ms", per_op [ "tuner.search" ], ms);
    ("tuner.measured", layer "tuner.measured", n);
    ("tuner.skipped", layer "tuner.skipped", n);
    ("tuner.cache_hits", count "tuner.cache_hits", n);
    ("tuner.cache_misses", count "tuner.cache_misses", n);
    ("tuner.cache_hit_ratio", Counters.ratio p.counts "tuner.cache_hits" "tuner.cache_misses", ratio);
    ("gpusim.measure_ms", per_op [ "gpusim.measure" ], ms);
    ("pipeline.compile_ms", List.fold_left (fun a s -> a +. s.Pipeline.st_ms) 0.0 p.runs /. ops, ms) ]
  @ List.map
      (fun ps -> ("pipeline.pass_ms." ^ ps, pass_total (String.equal ps) /. ops, ms))
      fixed_passes
  @ [ ("pipeline.pass_ms.schedule", pass_total (fun x -> not (List.mem x fixed_passes)) /. ops, ms);
      ("pipeline.runs", float_of_int (List.length p.runs), n);
      ("pipeline.passes", float_of_int n_passes, n);
      ("pipeline.ir_nodes_out", nodes_out, n);
      ("pipeline.cache_hits", count "pipeline.cache_hits", n);
      ("pipeline.cache_misses", count "pipeline.cache_misses", n);
      ("pipeline.cache_hit_ratio", Counters.ratio p.counts "pipeline.cache_hits" "pipeline.cache_misses", ratio);
      ("pipeline.cache_evictions", count "pipeline.cache_evictions", n);
      ("engine.first_exec_ms", per_op [ "engine.first_exec" ], ms);
      ("engine.par_ratio", Counters.ratio p.counts "engine.par_runs" "engine.fallback_runs", ratio) ]
  @ List.filter_map
      (fun (k, v) ->
        if String.length k > 7 && String.sub k 0 7 = "engine." then Some (k, v, n) else None)
      p.counts
  @ List.concat_map
      (fun k ->
        [ ("engine.exec_ms." ^ k, layer ("engine.exec_ms." ^ k), ms);
          ("gpusim.sim_us." ^ k, layer ("gpusim.sim_us." ^ k), "us") ])
      steady_kernels
  @ [ ("serve.pump_p50_ms", layer "serve.pump_p50_ms", ms);
      ("serve.pump_p99_ms", layer "serve.pump_p99_ms", ms);
      ("serve.occupancy", layer "serve.occupancy", "req/batch");
      ("serve.batches", count "serve.batches", n);
      ("serve.max_queue", layer "serve.max_queue", n);
      ("serve.artifact_warm_ratio", layer "serve.artifact_warm_ratio", ratio);
      ("tir.facts_scans", count "tir.facts_scans", n);
      ("tir.facts_span_checks", count "tir.facts_span_checks", n);
      ("tir.facts_evictions", count "tir.facts_evictions", n) ]
  @ List.map (fun (k, v) -> (k, v, n)) p.gauges
  @ [ ("harness.gen_lag_p99_ms", layer "harness.gen_lag_p99_ms", ms);
      ("harness.self_ms", per_op [ "harness.op" ], ms);
      ("harness.layer_sum_ratio", (if wall > 0.0 then layer_sum /. wall else 0.0), ratio);
      ("harness.trace_overhead", ops_per_s p /. ops_per_s untraced, ratio);
      ("harness.host_speed", Speed.ref_ms /. Util.median (Array.of_list !Speed.all), ratio);
      ("harness.fail_ratio", float_of_int r.Run_result.failed /. ops, ratio);
      ("harness.tail_beyond", float_of_int tail_beyond, n) ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let phase (w : workload) ~(trace : bool) (run : unit -> Run_result.t) : phase =
  if w.fresh then Counters.reset_all ();
  Trace.enabled := trace;
  Trace.reset ();
  Speed.reset ();
  let c0 = Counters.read () in
  Counters.excluded := [];
  Counters.excluded_runs := [];
  let h0 = !Pipeline.history in
  let r = run () in
  Trace.enabled := false;
  (* a workload's own tally of a counter wins over the counter's diff *)
  let counts =
    List.map
      (fun (k, v) ->
        match List.assoc_opt k r.Run_result.layer with
        | Some mine -> (k, mine)
        | None -> (k, v -. Option.value (List.assoc_opt k !Counters.excluded) ~default:0.0))
      (Counters.diff c0 (Counters.read ()))
  in
  { r; counts; gauges = Counters.gauges ();
    runs = List.filter (fun s -> not (List.memq s !Counters.excluded_runs)) (Counters.runs_since h0) }

let json_metrics (ms : (string * float * string) list) : string =
  String.concat ", "
    (List.map
       (fun (k, v, u) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u)
       ms)

let usage () =
  prerr_endline
    "usage: main.exe --workload cold|steady|serve --seed N --seconds S --trace 0|1 \
     [--ops N] [--corrupt K]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let ops = ref None in
  let spec =
    [ ("--workload", Arg.Set_string workload, "cold|steady|serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--ops", Arg.Int (fun n -> ops := Some n), "exactly N ops per phase");
      ("--corrupt", Arg.Set_int Run_result.corrupt_at, "corrupt the K-th output check") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "perfbench"
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  let w = match List.find_opt (fun w -> w.name = !workload) workloads with Some w -> w | None -> usage () in
  if !trace <> 0 && !trace <> 1 then usage ();
  (* One engine domain: on a shared 2-core host the second core is taken
     away for minutes at a time, and runs with 2 domains then slowed by up
     to 1.6x, which no single-threaded speed probe sees. *)
  Engine.set_num_domains 1;
  let module M = (val w.m) in
  let st = ref None in
  let setup_s =
    Util.median
      (Array.init 9 (fun _ ->
           Counters.reset_all ();
           Gc.compact ();
           Speed.tick ();
           Speed.scale (snd (Util.timed (fun () -> st := Some (M.setup ~seed:!seed)))) /. 1000.0))
  in
  let st = M.prepare (Option.get !st) in
  let traced = !trace = 1 in
  let seconds = if traced then !seconds /. 2.0 else !seconds in
  let run () = M.run st ~seconds ~ops:!ops in
  let first = phase w ~trace:false run in
  let phases, metrics =
    if not traced then ([ first ], end_to_end w ~setup_s first)
    else begin
      let p = phase w ~trace:true run in
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      Trace.write (Printf.sprintf ".perfbench/trace-%s-s%d.jsonl" w.name !seed);
      ( [ first; p ],
        (if !ops <> None then end_to_end w ~setup_s first else [])
        @ per_layer w ~untraced:first p )
    end
  in
  let attempted = List.fold_left (fun a p -> a + p.r.Run_result.attempted) 0 phases in
  let failed = List.fold_left (fun a p -> a + p.r.Run_result.failed) 0 phases in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (json_metrics metrics)
