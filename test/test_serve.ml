(* Serving subsystem: batched multi-tenant execution must be bit-identical
   to sequential execution — under random arrival orders, random batching
   configs, concurrent leased drivers, and forced artifact eviction. *)

open Formats

let with_domains (n : int) (f : unit -> 'a) : 'a =
  let saved = Engine.num_domains () in
  Engine.set_num_domains n;
  Fun.protect ~finally:(fun () -> Engine.set_num_domains saved) f

(* ---------------- batched funcs ---------------- *)

let graph () =
  Workloads.Graphs.generate ~seed:5
    { Workloads.Graphs.g_name = "serve_t"; g_nodes = 100; g_edges = 700;
      g_shape = Workloads.Graphs.Power_law 1.7 }

(* batch_func over B instances of one template: one launch of the batched
   artifact must write every instance's output exactly as B single runs. *)
let test_batch_func_bit_identical () =
  let a = graph () in
  let feat = 16 in
  let x = Dense.random ~seed:2 a.Csr.cols feat in
  let insts = List.init 3 (fun _ -> Kernels.Spmm.dgsparse a x ~feat) in
  let refs = List.init 3 (fun _ -> Kernels.Spmm.dgsparse a x ~feat) in
  let tmpl = (List.hd insts).Kernels.Spmm.fn in
  List.iter
    (fun (c : Kernels.Spmm.compiled) ->
      Alcotest.(check bool) "instances share the physical template" true
        (c.Kernels.Spmm.fn == tmpl))
    insts;
  let batched = Serve.batch_func ~copies:3 tmpl in
  let args =
    List.concat_map
      (fun (c : Kernels.Spmm.compiled) ->
        Gpusim.args_for tmpl c.Kernels.Spmm.bindings)
      insts
  in
  Engine.execute ~kind:Engine.Compiled batched args;
  List.iter
    (fun (r : Kernels.Spmm.compiled) ->
      Gpusim.execute r.Kernels.Spmm.fn r.Kernels.Spmm.bindings)
    refs;
  List.iter2
    (fun (c : Kernels.Spmm.compiled) (r : Kernels.Spmm.compiled) ->
      Alcotest.(check bool) "batched copy bit-identical to single run" true
        (Tir.Tensor.to_float_array c.Kernels.Spmm.out
        = Tir.Tensor.to_float_array r.Kernels.Spmm.out))
    insts refs

let test_batch_func_single_copy_is_identity () =
  let a = graph () in
  let c = Kernels.Spmm.dgsparse a (Dense.random ~seed:3 a.Csr.cols 8) ~feat:8 in
  Alcotest.(check bool) "copies=1 returns the template itself" true
    (Serve.batch_func ~copies:1 c.Kernels.Spmm.fn == c.Kernels.Spmm.fn)

(* ---------------- lease accounting ---------------- *)

let test_lease_accounting () =
  with_domains 4 (fun () ->
      let l1 = Engine.try_lease ~width:2 in
      let l2 = Engine.try_lease ~width:2 in
      Alcotest.(check bool) "two width-2 leases fit a budget of 4" true
        (Option.is_some l1 && Option.is_some l2);
      Alcotest.(check bool) "budget exhausted" true
        (Option.is_none (Engine.try_lease ~width:1));
      Alcotest.(check int) "two outstanding" 2 (Engine.leases_in_use ());
      let l1 = Option.get l1 and l2 = Option.get l2 in
      Alcotest.(check int) "width recorded" 2 (Engine.lease_width l1);
      Engine.release l1;
      Engine.release l1 (* idempotent *);
      Alcotest.(check bool) "freed capacity re-leases" true
        (Option.is_some
           (match Engine.try_lease ~width:2 with
           | Some l ->
               Engine.release l;
               Some l
           | None -> None));
      Engine.release l2;
      Alcotest.(check int) "all released" 0 (Engine.leases_in_use ());
      Alcotest.check_raises "released lease cannot run"
        (Invalid_argument "Engine.run_leased: released lease") (fun () ->
          Engine.run_leased l1 (fun () -> ())))

(* Two batches whose drivers both raise, finishing before one [pump]: the
   pump re-raises, and only after joining, releasing and retiring both —
   no lease left in use, every request retired, nothing inflight. *)
let test_reap_failures_release_all () =
  let open Tir in
  let open Builder in
  with_domains 2 (fun () ->
      let a_buf = buffer ~dtype:Dtype.F32 "A" [ int 2 ] in
      let fn =
        func "serve_raising" [ a_buf ] (store a_buf [ int 2 ] (float 1.0))
      in
      let cfg =
        { Serve.max_batch = 1; deadline_ms = 0.0; lease_width = 1;
          max_inflight = 2 }
      in
      let s = Serve.create ~config:cfg () in
      let leases = Engine.leases_in_use () in
      let reqs =
        List.map
          (fun tenant ->
            Serve.submit s ~tenant
              [ (fn, [ ("A", Tensor.create Dtype.F32 [ 2 ]) ]) ])
          [ "fail_a"; "fail_b" ]
      in
      Serve.pump s;
      Alcotest.(check int) "both batches launched" 2
        (List.length s.Serve.inflight);
      while
        not
          (List.for_all
             (fun (i : Serve.inflight) -> Atomic.get i.Serve.in_done)
             s.Serve.inflight)
      do
        Domain.cpu_relax ()
      done;
      Alcotest.(check bool) "pump re-raises the driver failure" true
        (match Serve.pump s with () -> false | exception _ -> true);
      Alcotest.(check int) "no lease left in use" leases
        (Engine.leases_in_use ());
      Alcotest.(check int) "nothing inflight" 0
        (List.length s.Serve.inflight);
      List.iter
        (fun (r : Serve.request) ->
          Alcotest.(check bool)
            (r.Serve.rq_tenant ^ " retired")
            true
            (List.memq r s.Serve.completed))
        reqs)

(* ---------------- served = sequential (QCheck) ---------------- *)

(* One served window: submit [requests] mixed-tenant instances in a
   seeded-shuffled arrival order, drain, then execute sibling instances
   sequentially and demand exact equality of every output. *)
let serve_matches_sequential ~(seed : int) ~(requests : int)
    ~(max_batch : int) () : bool =
  let fams = Serve.Traffic.mix ~seed ~requests () in
  let cfg =
    {
      Serve.max_batch;
      deadline_ms = 0.2;
      lease_width = 2;
      max_inflight = 2;
    }
  in
  let s = Serve.create ~config:cfg () in
  let pairs =
    List.map
      (fun (f : Serve.Traffic.family) ->
        let inst = f.Serve.Traffic.f_build () in
        let refr = f.Serve.Traffic.f_build () in
        ignore
          (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
             inst.Serve.Traffic.ti_steps);
        Serve.pump s;
        (inst, refr))
      fams
  in
  Serve.drain s;
  let st = Serve.stats s in
  if st.Serve.s_requests <> requests then false
  else
    List.for_all
      (fun ((i : Serve.Traffic.instance), (r : Serve.Traffic.instance)) ->
        Gpusim.execute_many r.Serve.Traffic.ti_steps;
        Serve.Traffic.identical i.Serve.Traffic.ti_out r.Serve.Traffic.ti_out)
      pairs

let qcheck_serve_sequential =
  QCheck.Test.make ~count:6 ~name:"served batches = sequential execution"
    QCheck.(triple (int_range 0 1000) (int_range 3 10) (int_range 1 4))
    (fun (seed, requests, max_batch) ->
      with_domains 2 (fun () ->
          serve_matches_sequential ~seed ~requests ~max_batch ()))

(* Same property with the pipeline cache squeezed to 2 entries: batched
   artifacts are evicted (and their engine memo entries unregistered)
   between and during windows, so cold rebuilds and plans holding evicted
   artifacts must still serve exact results. *)
let qcheck_serve_under_eviction =
  QCheck.Test.make ~count:4 ~name:"served = sequential under LRU eviction"
    QCheck.(pair (int_range 0 1000) (int_range 3 8))
    (fun (seed, requests) ->
      let saved = Pipeline.cache_capacity () in
      Fun.protect
        ~finally:(fun () -> Pipeline.set_cache_capacity saved)
        (fun () ->
          Pipeline.set_cache_capacity 2;
          with_domains 2 (fun () ->
              serve_matches_sequential ~seed ~requests ~max_batch:3 ())))

(* ---------------- warm reuse ---------------- *)

(* Two identical windows: the second must serve a positive warm-hit ratio
   from the tenant-scoped artifact cache. *)
let test_steady_state_warm_hits () =
  with_domains 2 (fun () ->
      let window () =
        let fams = Serve.Traffic.mix ~seed:42 ~requests:8 () in
        let s = Serve.create () in
        List.iter
          (fun (f : Serve.Traffic.family) ->
            let inst = f.Serve.Traffic.f_build () in
            ignore
              (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
                 inst.Serve.Traffic.ti_steps);
            Serve.pump s)
          fams;
        Serve.drain s;
        Serve.stats s
      in
      ignore (window ());
      let st = window () in
      Alcotest.(check bool) "steady window reuses batched artifacts" true
        (st.Serve.s_warm_ratio > 0.0))

(* ---------------- evolving-graph traffic ---------------- *)

(* A tenant whose graph mutates between requests: each epoch's served
   output must be bit-identical to a cold rebuild of the same epoch, and
   epochs whose deltas rebuilt no bucket must not bump the live
   generation (the serving loop kept its bindings). *)
let test_evolving_traffic () =
  with_domains 2 (fun () ->
      let ev = Serve.Traffic.evolving ~seed:23 ~edits:16 () in
      let s = Serve.create () in
      for _epoch = 1 to 4 do
        let inst, _info = ev.Serve.Traffic.ev_step () in
        ignore
          (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
             inst.Serve.Traffic.ti_steps);
        Serve.drain s;
        let refr = ev.Serve.Traffic.ev_reference () in
        Gpusim.execute_many refr.Serve.Traffic.ti_steps;
        Alcotest.(check bool) "served epoch = cold rebuild" true
          (Serve.Traffic.identical inst.Serve.Traffic.ti_out
             refr.Serve.Traffic.ti_out)
      done;
      let st = Serve.stats s in
      Alcotest.(check int) "every epoch served" 4 st.Serve.s_requests)

(* ---------------- bounded memory ---------------- *)

(* A long-running server keeps nothing a retired request used.  Serve 1,000
   evolving-tenant requests in four windows, sampling the live heap after a
   full major collection at the end of each: over the last 500 requests it
   may grow by at most 1,000 words per request.  What remains is O(1)
   bookkeeping per request by design — the retired request's record in
   [completed] and the pipeline's per-run stats — about 150 words, while
   keeping each request's step funcs and bindings, or every template in
   the uid table, costs about 10,000 words per request here. *)
let test_soak_bounded_memory () =
  with_domains 1 (fun () ->
      let ev =
        Serve.Traffic.evolving ~seed:29 ~nodes:64 ~edges:400 ~edits:8 ()
      in
      let s = Serve.create () in
      let window () =
        for _ = 1 to 250 do
          let inst, _info = ev.Serve.Traffic.ev_step () in
          ignore
            (Serve.submit s ~tenant:inst.Serve.Traffic.ti_tenant
               inst.Serve.Traffic.ti_steps);
          Serve.drain s
        done;
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.live_words
      in
      let w = Array.init 4 (fun _ -> window ()) in
      Alcotest.(check int) "every request served" 1000
        (Serve.stats s).Serve.s_requests;
      let per_request = (w.(3) - w.(1)) / 500 in
      if per_request > 1000 then
        Alcotest.failf "live heap grew by %d words per request (%s)"
          per_request
          (String.concat " " (Array.to_list (Array.map string_of_int w))))

let () =
  Alcotest.run "serve"
    [ ( "batching",
        [ Alcotest.test_case "batched func bit-identical" `Quick
            test_batch_func_bit_identical;
          Alcotest.test_case "single copy is identity" `Quick
            test_batch_func_single_copy_is_identity ] );
      ( "leases",
        [ Alcotest.test_case "lease accounting" `Quick test_lease_accounting;
          Alcotest.test_case "failed batches release every lease" `Quick
            test_reap_failures_release_all ] );
      ( "scheduling",
        [ QCheck_alcotest.to_alcotest qcheck_serve_sequential;
          QCheck_alcotest.to_alcotest qcheck_serve_under_eviction;
          Alcotest.test_case "steady-state warm hits" `Quick
            test_steady_state_warm_hits ] );
      ( "evolving",
        [ Alcotest.test_case "evolving tenant = cold rebuild" `Quick
            test_evolving_traffic ] );
      ( "memory",
        [ Alcotest.test_case "soak: bounded live heap per request" `Quick
            test_soak_bounded_memory ] ) ]
