(* Workload "serve": multi-tenant traffic with an evolving graph.  Closed
   loop with [clients] clients: each has one request outstanding and
   issues the next as soon as it retires, so the server always holds a
   queue of up to [clients] requests.  (An open loop at a fixed rate fell
   into an unbounded backlog whenever the shared host lost a core for a
   while, and its figures then spread far beyond any bound.)

   Requests are the [Serve.Traffic.mix] tenants plus, on about one request
   in eight, the [Serve.Traffic.evolving] tenant.  An evolving request
   applies its graph delta ([ev_step], which patches the live hyb in
   place) and then submits; because the live arrays are shared with the
   kernel, the delta waits until that tenant's previous request has
   retired.

   The engine's budget is one domain, so the server holds one lease of
   width 1 at a time: one driver domain runs batches while the client's
   domain queues, batches and checks.

   Request instances are built during set-up, several per family, and
   reused once their previous request has retired. *)

let clients = 4
let evolving_share = 0.125
let pool_per_family = 6
let config = { Serve.max_batch = 4; deadline_ms = 2.0; lease_width = 1; max_inflight = 1 }

(* Latency limit of [slo_met_ratio]: about twice the seed's p99. *)
let slo_ms = 200.0

type inst = {
  fam : int;  (** index into [Serve.Traffic.families]; -1 for evolving *)
  ti : Serve.Traffic.instance;
}

type state = {
  seed : int;
  ev : Serve.Traffic.evolving;
  free : inst list array;  (** per family *)
  expect : float array array;  (** per family: a sequentially run sibling *)
  fam_sim_us : float array;
  ev_sim_us : float;
}

let n_fam = Array.length Serve.Traffic.families

let sim_of (ti : Serve.Traffic.instance) =
  (Gpusim.run_many ~horizontal_fusion:true Gpusim.Spec.v100 ti.Serve.Traffic.ti_steps)
    .Gpusim.p_time_ms *. 1000.0

(* Run each batch size of each family once, so that the batched artifacts
   the measured phase needs are compiled. *)
let warm (free : inst list array) =
  let s = Serve.create ~config () in
  for b = 1 to config.Serve.max_batch do
    Array.iter
      (fun l ->
        List.iteri
          (fun i it ->
            if i < b then
              ignore (Serve.submit s ~tenant:it.ti.Serve.Traffic.ti_tenant it.ti.Serve.Traffic.ti_steps))
          l)
      free;
    Serve.drain s
  done

let setup ~(seed : int) : state =
  let free =
    Array.init n_fam (fun f ->
        List.init pool_per_family (fun _ ->
            { fam = f; ti = Serve.Traffic.families.(f).Serve.Traffic.f_build () }))
  in
  let ev = Serve.Traffic.evolving ~seed:(17 + seed) () in
  warm free;
  let fam_sim_us = Array.map (fun l -> sim_of (List.hd l).ti) free in
  let ev_sim_us = sim_of (fst (ev.Serve.Traffic.ev_step ())) in
  { seed; ev; free; expect = [||]; fam_sim_us; ev_sim_us }

(* One sibling per family, built afresh and run sequentially. *)
let prepare (st : state) : state =
  { st with
    expect =
      Array.map
        (fun (f : Serve.Traffic.family) ->
          let r = f.Serve.Traffic.f_build () in
          Gpusim.execute_many r.Serve.Traffic.ti_steps;
          Tir.Tensor.to_float_array r.Serve.Traffic.ti_out)
        Serve.Traffic.families }

(* The tenants of the first [n] requests, in issue order: evolving (-1)
   or a family index in [Serve.Traffic.mix] order. *)
let tenants ~seed n : int array =
  let rng = Random.State.make [| seed; 4099 |] in
  let mix = Array.of_list (Serve.Traffic.mix ~seed ~requests:n ()) in
  let index_of (f : Serve.Traffic.family) =
    let r = ref 0 in
    Array.iteri (fun i g -> if g == f then r := i) Serve.Traffic.families;
    !r
  in
  Array.map
    (fun f -> if Random.State.float rng 1.0 < evolving_share then -1 else index_of f)
    mix

type pending = {
  p_issued : float;
  p_inst : inst;
  p_check : bool;
  p_rq : Serve.request;
}

(* More requests than a run can serve at the host's speed. *)
let max_requests = 20_000

let run (st : state) ~(seconds : float) ~(ops : int option) : Run_result.t =
  let seq = tenants ~seed:st.seed (Option.value ops ~default:max_requests) in
  let rng = Random.State.make [| st.seed; 8191 |] in
  let s = Serve.create ~config () in
  let tl = Run_result.tally () in
  let lat = ref [] in
  let lag = ref [] in
  let pump_ms = ref [] in
  let delta_rebuilt = ref 0 in
  let sims = ref [] in
  let failed_ids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let outstanding : (int, pending) Hashtbl.t = Hashtbl.create 64 in
  let seen = ref s.Serve.completed in
  let last_done = ref 0.0 in
  (* whether the evolving tenant has a request in flight, and its
     requests waiting for it to retire *)
  let ev_busy = ref false in
  let ev_waiting = Queue.create () in
  (* when each client slot last became free, for the client's lateness *)
  let freed = Queue.create () in
  let finish (p : pending) =
    let rq = p.p_rq in
    let failed = Hashtbl.mem failed_ids rq.Serve.rq_id in
    let ms = (rq.Serve.rq_done -. p.p_issued) *. 1000.0 in
    last_done := Float.max !last_done rq.Serve.rq_done;
    let matches () =
      let got = Run_result.observed (Tir.Tensor.to_float_array p.p_inst.ti.Serve.Traffic.ti_out) in
      if p.p_inst.fam >= 0 then Util.same_floats got st.expect.(p.p_inst.fam)
      else
        Counters.excluding (fun () ->
            let r = st.ev.Serve.Traffic.ev_reference () in
            Gpusim.execute_many r.Serve.Traffic.ti_steps;
            Util.same_floats got (Tir.Tensor.to_float_array r.Serve.Traffic.ti_out))
    in
    if failed then Run_result.fail tl "serve: batch raised"
    else if p.p_check && not (matches ()) then
      Run_result.fail tl "serve: output differs from a sequential run"
    else lat := Speed.scale ms :: !lat;
    if p.p_inst.fam >= 0 then st.free.(p.p_inst.fam) <- p.p_inst :: st.free.(p.p_inst.fam)
    else ev_busy := false;
    Queue.push rq.Serve.rq_done freed
  in
  (* Requests retired since the last sweep, oldest first. *)
  let sweep () =
    let rec take acc = function
      | l when l == !seen -> acc
      | [] -> acc
      | rq :: rest -> take (rq :: acc) rest
    in
    let fresh = take [] s.Serve.completed in
    seen := s.Serve.completed;
    List.iter
      (fun (rq : Serve.request) ->
        match Hashtbl.find_opt outstanding rq.Serve.rq_id with
        | Some p ->
            Hashtbl.remove outstanding rq.Serve.rq_id;
            finish p
        | None -> ())
      fresh
  in
  (* [Serve.pump], counting a batch whose driver raised as failed.  [reap]
     re-raises such a failure in the middle of its sweep, leaving the
     batches after it unjoined, unreleased and out of [completed]; those
     are retired here. *)
  let guarded_pump () =
    let before = s.Serve.inflight in
    let raised = (try Serve.pump s; None with e -> Some e) in
    let retired = List.filter (fun i -> not (List.memq i s.Serve.inflight)) before in
    List.iter
      (fun (i : Serve.inflight) ->
        if Option.is_some (Atomic.get i.Serve.in_fail) then
          List.iter (fun (r : Serve.request) -> Hashtbl.replace failed_ids r.Serve.rq_id ()) i.Serve.in_reqs)
      retired;
    (match raised with
     | None -> ()
     | Some e ->
         prerr_endline ("perfbench: serve loop raised: " ^ Printexc.to_string e);
         List.iter
           (fun (i : Serve.inflight) ->
             let r0 = List.hd i.Serve.in_reqs in
             if not (List.memq r0 s.Serve.completed) then begin
               (try Domain.join i.Serve.in_domain with _ -> ());
               Engine.release i.Serve.in_lease;
               s.Serve.completed <- i.Serve.in_reqs @ s.Serve.completed
             end)
           retired;
         (* requests neither queued, running nor retired were lost *)
         let live = Hashtbl.create 16 in
         List.iter (fun (r : Serve.request) -> Hashtbl.replace live r.Serve.rq_id ()) s.Serve.pending;
         List.iter
           (fun (i : Serve.inflight) ->
             List.iter (fun (r : Serve.request) -> Hashtbl.replace live r.Serve.rq_id ()) i.Serve.in_reqs)
           s.Serve.inflight;
         List.iter (fun (r : Serve.request) -> Hashtbl.replace live r.Serve.rq_id ()) s.Serve.completed;
         Hashtbl.iter
           (fun id (p : pending) ->
             if not (Hashtbl.mem live id) then begin
               Hashtbl.replace failed_ids id ();
               p.p_rq.Serve.rq_done <- Util.now ();
               s.Serve.completed <- p.p_rq :: s.Serve.completed
             end)
           outstanding)
  in
  let pump () =
    let t0 = Util.now () in
    Trace.span "serve.pump" guarded_pump;
    pump_ms := ((Util.now () -. t0) *. 1000.0) :: !pump_ms;
    sweep ()
  in
  let submit ~issued (it : inst) =
    tl.Run_result.att <- tl.Run_result.att + 1;
    Trace.op := tl.Run_result.att;
    let rq =
      Trace.span "serve.submit" (fun () ->
          Serve.submit s ~tenant:it.ti.Serve.Traffic.ti_tenant it.ti.Serve.Traffic.ti_steps)
    in
    (* an evolving check rebuilds the epoch cold, so it is sampled less *)
    let check = Random.State.float rng 1.0 < (if it.fam >= 0 then 0.5 else 0.125) in
    Hashtbl.replace outstanding rq.Serve.rq_id { p_issued = issued; p_inst = it; p_check = check; p_rq = rq };
    sims := (if it.fam >= 0 then st.fam_sim_us.(it.fam) else st.ev_sim_us) :: !sims
  in
  let arrive ~issued fam =
    let it =
      match st.free.(fam) with
      | it :: rest ->
          st.free.(fam) <- rest;
          it
      | [] -> { fam; ti = Serve.Traffic.families.(fam).Serve.Traffic.f_build () }
    in
    submit ~issued it
  in
  let evolve ~issued =
    ev_busy := true;
    let ti, info = Trace.span "formats.delta" (fun () -> st.ev.Serve.Traffic.ev_step ()) in
    delta_rebuilt := !delta_rebuilt + info.Formats.Hyb.di_rebuilt;
    submit ~issued { fam = -1; ti }
  in
  let t_start = Util.now () in
  let t_end = t_start +. seconds in
  let n_issued = ref 0 in
  let issuing () =
    !n_issued < Array.length seq && (ops <> None || Util.now () < t_end)
  in
  let in_use () = Hashtbl.length outstanding + Queue.length ev_waiting in
  let last_tick = ref 0.0 in
  (* after issuing stops, run on until every request has retired: the
     drain pumps too, so that every batch retires through [guarded_pump],
     where a failed driver is seen *)
  while issuing () || in_use () > 0 do
    let now = Util.now () in
    if now -. !last_tick > 0.025 then begin
      Speed.tick ();
      last_tick := now
    end;
    if issuing () && in_use () < clients then begin
      let fam = seq.(!n_issued) in
      incr n_issued;
      if not (Queue.is_empty freed) then lag := ((now -. Queue.pop freed) *. 1000.0) :: !lag;
      Trace.span "harness.op" (fun () ->
          if fam >= 0 then arrive ~issued:now fam else Queue.push now ev_waiting);
      pump ()
    end
    else if (not !ev_busy) && not (Queue.is_empty ev_waiting) then begin
      let issued = Queue.pop ev_waiting in
      Trace.span "harness.op" (fun () -> evolve ~issued);
      pump ()
    end
    else begin
      pump ();
      Unix.sleepf 5e-4
    end
  done;
  if Engine.leases_in_use () <> 0 then
    Run_result.fail tl (Printf.sprintf "serve: %d leases still held" (Engine.leases_in_use ()));
  let stats = Serve.stats s in
  let latencies_ms = Array.of_list !lat in
  { Run_result.latencies_ms;
    busy_s = Float.max 1e-9 (Speed.scale_phase (!last_done -. t_start));
    attempted = tl.Run_result.att;
    failed = tl.Run_result.fail;
    sim_us = !sims;
    slo_ms;
    layer =
      [ ("serve.pump_p50_ms", Util.percentile (Array.of_list !pump_ms) 0.5);
        ("serve.pump_p99_ms", Util.percentile (Array.of_list !pump_ms) 0.99);
        ("serve.occupancy", stats.Serve.s_occupancy);
        ("serve.max_queue", float_of_int stats.Serve.s_max_queue);
        ("serve.artifact_warm_ratio", stats.Serve.s_warm_ratio);
        ("formats.delta_rebuilt", float_of_int !delta_rebuilt);
        ("harness.gen_lag_p99_ms", Util.percentile (Array.of_list !lag) 0.99) ] }
