(* Every public counter of the library, read through its current accessor.
   A run snapshots them before and after its measured phase and reports
   the difference, so each figure covers that phase alone. *)

let read () : (string * float) list =
  let f = float_of_int in
  let par, fb, tiled = Engine.parallel_totals () in
  let fused, hoisted, linear = Engine.fusion_totals () in
  [ ("engine.compiles", f (Engine.compiles ()));
    ("engine.par_runs", f par);
    ("engine.fallback_runs", f fb);
    ("engine.tiled_runs", f tiled);
    ("engine.replica_builds", f (Engine.replica_builds ()));
    ("engine.stolen_chunks", f (Engine.stolen_chunks ()));
    ("engine.fusion_sites", f fused);
    ("engine.hoisted_sites", f hoisted);
    ("engine.linear_sites", f linear) ]
  @ List.map
      (fun (r, n) -> ("engine.fallback." ^ r, f n))
      (Engine.reason_totals ())
  @ [ ("tir.facts_scans", f (Tir.Tensor.Facts.scan_count ()));
      ("tir.facts_span_checks", f (Tir.Tensor.Facts.span_check_count ()));
      ("tir.facts_evictions", f (Tir.Tensor.Facts.eviction_count ()));
      ("pipeline.cache_hits", f (Pipeline.cache_hits ()));
      ("pipeline.cache_misses", f (Pipeline.cache_misses ()));
      ("pipeline.cache_evictions", f (Pipeline.cache_evictions ()));
      ("tuner.cache_hits", f (Tuner.Cache.hits ()));
      ("tuner.cache_misses", f (Tuner.Cache.misses ()));
      ("serve.requests", f !Serve.total_requests);
      ("serve.batches", f !Serve.total_batches);
      ("serve.occupancy_sum", f !Serve.total_occupancy);
      ("serve.artifact_warm", f !Serve.total_warm);
      ("serve.artifact_cold", f !Serve.total_cold) ]

(* Sizes at the end of the phase: not diffed. *)
let gauges () : (string * float) list =
  let f = float_of_int in
  [ ("engine.memo_size", f (Engine.memo_size ()));
    ("engine.pool_size", f (Engine.pool_size ()));
    ("tir.facts_size", f (Tir.Tensor.Facts.size ()));
    ("pipeline.cache_size", f (Pipeline.Cache.size Pipeline.shared_cache));
    ("pipeline.history_len", f (List.length !Pipeline.history));
    ("tuner.cache_size", f (Tuner.Cache.size ())) ]

let diff (before : (string * float) list) (after : (string * float) list) :
    (string * float) list =
  List.map
    (fun (k, v) -> (k, v -. Option.value (List.assoc_opt k before) ~default:0.0))
    after

(* Pipeline records newer than [since], oldest first. *)
let runs_since (since : Pipeline.stats list) : Pipeline.stats list =
  let rec take acc = function
    | l when l == since -> acc
    | [] -> acc
    | s :: rest -> take (s :: acc) rest
  in
  take [] !Pipeline.history

(* Counter movements and pipeline runs caused by the benchmark's own output
   checks rather than by the workload; a phase leaves them out. *)
let excluded : (string * float) list ref = ref []
let excluded_runs : Pipeline.stats list ref = ref []

let excluding (f : unit -> 'a) : 'a =
  let before = read () and h0 = !Pipeline.history in
  Fun.protect f ~finally:(fun () ->
      let d = diff before (read ()) in
      excluded :=
        List.map (fun (k, v) -> (k, v +. Option.value (List.assoc_opt k !excluded) ~default:0.0)) d;
      excluded_runs := runs_since h0 @ !excluded_runs)

(* Ratio of a diffed numerator to numerator + other, 0 when both are 0. *)
let ratio (d : (string * float) list) (num : string) (other : string) : float =
  let g k = Option.value (List.assoc_opt k d) ~default:0.0 in
  let n = g num and o = g other in
  if n +. o = 0.0 then 0.0 else n /. (n +. o)

(* Drop every cache and zero every counter, so that a set-up repetition or
   a measured phase starts from a cold process state. *)
let reset_all () =
  Pipeline.reset ();
  Engine.reset ();
  Tuner.Cache.reset ();
  Tir.Tensor.Facts.clear ();
  Serve.reset_totals ()
