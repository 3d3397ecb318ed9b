(* Workload "cold": a new matrix arrives.  Closed loop, one client.

   Each op takes one seeded sparse matrix from COO to a checked result over
   the public path [Serve.submit_spmm_tuned] uses: build the CSR, key its
   structure, look the key up in the schedule cache, tune on a miss, build
   the tuned hyb kernel and execute it once.

   Matrices come in cycles of [cycle] draws, and each cycle starts with an
   empty schedule cache, as a new fleet would.  The first [fresh] draws of
   a cycle cover the eight strata {power-law, centralized} x {800-1600,
   1600-2400 rows} x {mean degree 4-8, 8-12} once each, in a seeded order
   and with seeded parameters inside the stratum.  The remaining draws are
   earlier draws of the cycle with their rows shuffled: the structure key
   is invariant under row permutation, so these hit the schedule cache,
   while the fresh draws miss it.  Stratifying keeps the mix of sizes and
   of hits, and so the figures, steady from one seed to the next. *)

open Formats

let feat = 8
let spec = Gpusim.Spec.v100
let fresh = 8
let cycle = 12

type recipe = {
  power : bool;
  shape : float;
  rows : int;
  degree : float;
  gseed : int;
  perm : int option;  (** seed of a row shuffle *)
}

type input = {
  coo : Coo.t;
  x : Dense.t;
  expect : float array;  (** host reference over the generator's own CSR *)
}

(* The [cycle] recipes of cycle [k]. *)
let recipes ~(seed : int) (k : int) : recipe array =
  let rng = Random.State.make [| seed; k |] in
  let strata = Array.init fresh (fun i -> i) in
  for i = fresh - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = strata.(i) in
    strata.(i) <- strata.(j);
    strata.(j) <- t
  done;
  let draw i s =
    let power = s land 1 = 0 in
    let big = s land 2 <> 0 and dense = s land 4 <> 0 in
    { power;
      shape = (if power then Util.uniform rng 1.4 2.4 else Util.uniform rng 0.2 0.8);
      rows = int_of_float (if big then Util.uniform rng 1600.0 2400.0 else Util.uniform rng 800.0 1600.0);
      degree = (if dense then Util.uniform rng 8.0 12.0 else Util.uniform rng 4.0 8.0);
      gseed = (seed * 7919) + (k * cycle) + i;
      perm = None }
  in
  let first = Array.mapi draw strata in
  Array.init cycle (fun i ->
      if i < fresh then first.(i)
      else { (first.(Random.State.int rng fresh)) with perm = Some (Random.State.bits rng) })

let generate (r : recipe) : input =
  let g =
    Workloads.Graphs.generate ~seed:r.gseed
      { Workloads.Graphs.g_name = "cold";
        g_nodes = r.rows;
        g_edges = int_of_float (float_of_int r.rows *. r.degree);
        g_shape =
          (if r.power then Workloads.Graphs.Power_law r.shape
           else Workloads.Graphs.Centralized r.shape) }
  in
  let x = Dense.random ~seed:r.gseed g.Csr.cols feat in
  let y = (Csr.spmm g x).Dense.data in
  match r.perm with
  | None -> { coo = Csr.to_coo g; x; expect = y }
  | Some ps ->
      (* row i of [g] becomes row p.(i) *)
      let p = Array.init g.Csr.rows Fun.id in
      let rng = Random.State.make [| ps |] in
      for i = g.Csr.rows - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = p.(i) in
        p.(i) <- p.(j);
        p.(j) <- t
      done;
      let entries = ref [] in
      for i = 0 to g.Csr.rows - 1 do
        for q = g.Csr.indptr.(i) to g.Csr.indptr.(i + 1) - 1 do
          entries := (p.(i), g.Csr.indices.(q), g.Csr.data.(q)) :: !entries
        done
      done;
      let expect = Array.make (Array.length y) 0.0 in
      for i = 0 to g.Csr.rows - 1 do
        Array.blit y (i * feat) expect (p.(i) * feat) feat
      done;
      { coo = Coo.of_entries ~rows:g.Csr.rows ~cols:g.Csr.cols !entries; x; expect }

(* The inputs of cycle [k], generated before the cycle is served. *)
let batch ~seed k = Array.map generate (recipes ~seed k)

type state = { seed : int; first : input array }

let setup ~(seed : int) : state = { seed; first = batch ~seed 0 }

(* The references come with the inputs. *)
let prepare (st : state) = st

type op_out = { out : Tir.Tensor.t; sim_ms : float option; fn : Tir.Ir.func; bindings : Gpusim.bindings }

(* Tuner figures summed over the phase; the schedule cache's own counters
   restart with every cycle. *)
let measured = ref 0
let skipped = ref 0
let hits = ref 0
let misses = ref 0

let clear_schedule_cache () =
  hits := !hits + Tuner.Cache.hits ();
  misses := !misses + Tuner.Cache.misses ();
  Tuner.Cache.reset ()

(* One op, COO in, executed kernel out. *)
let op (inp : input) : op_out =
  let a = Trace.span "formats.csr_build" (fun () -> Csr.of_coo inp.coo) in
  let key = Trace.span "formats.stats_key" (fun () -> Stats.key (Stats.of_csr a)) in
  let hit =
    Trace.span "tuner.cache_find" (fun () ->
        Tuner.Cache.find ~family:Serve.tuner_family ~feat key)
  in
  let c, sim_ms =
    match hit with
    | Some e -> ((match e.Tuner.Cache.ce_config with c :: _ -> c | [] -> 1), None)
    | None ->
        let cands =
          Trace.span "tuner.estimate" (fun () -> Tuner.spmm_hyb_candidates spec a inp.x ~feat)
        in
        let cands =
          List.map
            (fun (cd : int Tuner.candidate) ->
              { cd with Tuner.build = (fun () -> Trace.span "gpusim.measure" cd.Tuner.build) })
            cands
        in
        let r = Trace.span "tuner.search" (fun () -> Tuner.search_guided cands) in
        Trace.span "tuner.cache_store" (fun () ->
            Tuner.Cache.store ~family:Serve.tuner_family ~feat key ~label:r.Tuner.best_label
              ~config:[ r.Tuner.best_config ]);
        measured := !measured + r.Tuner.measured;
        skipped := !skipped + r.Tuner.skipped;
        (r.Tuner.best_config, Some r.Tuner.best.Gpusim.p_time_ms)
  in
  let compiled, _ = Trace.span "kernels.assemble" (fun () -> Kernels.Spmm.sparsetir_hyb ~c a inp.x ~feat) in
  Trace.span "engine.first_exec" (fun () ->
      Gpusim.execute compiled.Kernels.Spmm.fn compiled.Kernels.Spmm.bindings);
  { out = compiled.Kernels.Spmm.out; sim_ms; fn = compiled.Kernels.Spmm.fn;
    bindings = compiled.Kernels.Spmm.bindings }

(* Latency limit of [slo_met_ratio]: about twice the seed's p99. *)
let slo_ms = 200.0

(* Run ops for [seconds] of wall time, or exactly [ops] ops. *)
let run (st : state) ~(seconds : float) ~(ops : int option) : Run_result.t =
  measured := 0;
  skipped := 0;
  hits := 0;
  misses := 0;
  let lat = ref [] in
  let sims = ref [] in
  let tl = Run_result.tally () in
  let t_end = Util.now () +. seconds in
  let done_ () =
    match ops with Some n -> tl.Run_result.att >= n | None -> Util.now () >= t_end
  in
  let k = ref 0 in
  while not (done_ ()) do
    let inputs = if !k = 0 then st.first else batch ~seed:st.seed !k in
    clear_schedule_cache ();
    Array.iter
      (fun inp ->
        if not (done_ ()) then begin
          tl.Run_result.att <- tl.Run_result.att + 1;
          Trace.op := tl.Run_result.att;
          Speed.tick ();
          match Util.timed (fun () -> Trace.span "harness.op" (fun () -> op inp)) with
          | o, ms ->
              let sim =
                match o.sim_ms with
                | Some t -> t
                | None ->
                    (Gpusim.run ~horizontal_fusion:true spec o.fn o.bindings).Gpusim.p_time_ms
              in
              sims := (sim *. 1000.0) :: !sims;
              let got = Run_result.observed (Tir.Tensor.to_float_array o.out) in
              if Util.rel_diff got inp.expect > 1e-5 then
                Run_result.fail tl "cold: kernel output differs from Csr.spmm"
              else lat := Speed.scale ms :: !lat
          | exception e -> Run_result.fail tl ("cold: " ^ Printexc.to_string e)
        end)
      inputs;
    incr k
  done;
  clear_schedule_cache ();
  let latencies_ms = Array.of_list !lat in
  { Run_result.latencies_ms;
    busy_s = Util.sum latencies_ms /. 1000.0;
    attempted = tl.Run_result.att;
    failed = tl.Run_result.fail;
    sim_us = !sims;
    slo_ms;
    layer =
      [ ("tuner.measured", float_of_int !measured);
        ("tuner.skipped", float_of_int !skipped);
        ("tuner.cache_hits", float_of_int !hits);
        ("tuner.cache_misses", float_of_int !misses) ] }
