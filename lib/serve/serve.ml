(* Multi-tenant serving: async batched execution of compiled kernels.

   Turns the single-shot [Gpusim.execute] path into a serving loop.  Callers
   [submit] requests — a tenant name plus the (func, bindings) step list the
   nn/ layer already produces — and [drain] schedules them:

   - Horizontal fusion.  Requests whose step templates are physically the
     same funcs (the pipeline compile cache returns one shared func per
     (kernel, schedule), so instances of the same kernel alias) and whose
     tenant matches are coalesced into one batch.  Each batch step runs as a
     single batched artifact: the template is cloned per request with fresh
     buffer ids ([batch_func]), the bodies sequenced, and the per-request
     argument lists concatenated — one launch serves the whole batch.

   - Admission via domain leases.  Each launched batch takes an
     [Engine.try_lease] on a disjoint slice of the worker pool and runs on
     its own driver domain under [Engine.run_leased], so two batches
     execute concurrently without sharing workers.  Admission is bounded by
     [max_inflight] and by the lease budget; a batch that cannot get a
     lease waits for a running one to retire.

   - Tenant-scoped artifact reuse.  Batched funcs are cached in the
     pipeline compile cache under "serve!tenant!..." keys, so steady-state
     traffic re-runs warm artifacts (no re-clone, no re-compile) and LRU
     eviction unregisters engine artifacts exactly like ordinary pipeline
     entries.  Warm/cold lookups are counted per step.

   Batches form on size or deadline: a group flushes when it reaches
   [max_batch] waiters or its oldest waiter has aged past [deadline_ms]
   (and unconditionally at drain end).  All compilation, cache access and
   batch formation happen on the draining domain; driver domains only run
   already-compiled artifacts, so no shared mutable state crosses domains
   except tensors (disjoint per request) and the done flag.  See
   DESIGN.md §3h. *)

module Traffic = Traffic

open Tir
open Ir

(* ------------------------------------------------------------------ *)
(* Horizontal fusion: batched funcs                                    *)
(* ------------------------------------------------------------------ *)

(* Clone [fn] with every buffer given a fresh id and a [prefix]ed name.
   Vars are not renamed: the verifier only checks scoping and the engine
   threads its scope per path, so sharing var records between copies is
   harmless — buffer ids are what must stay distinct, since params bind
   positionally by buffer. *)
let rename_buffers (prefix : string) (fn : func) : func =
  let map : (int, buffer) Hashtbl.t = Hashtbl.create 16 in
  let rec fresh (b : buffer) : buffer =
    match Hashtbl.find_opt map b.buf_id with
    | Some b' -> b'
    | None ->
        let b' =
          {
            b with
            buf_id = Builder.fresh_id Builder.buf_counter;
            buf_name = prefix ^ b.buf_name;
            buf_shape = List.map ex b.buf_shape;
          }
        in
        Hashtbl.add map b.buf_id b';
        b'
  and ex (e : expr) : expr =
    match e with
    | Int_imm _ | Float_imm _ | Bool_imm _ | Evar _ -> e
    | Load (b, idx) -> Load (fresh b, List.map ex idx)
    | Binop (op, a, b) -> Binop (op, ex a, ex b)
    | Unop (op, a) -> Unop (op, ex a)
    | Select (c, a, b) -> Select (ex c, ex a, ex b)
    | Cast (dt, a) -> Cast (dt, ex a)
    | Bsearch r ->
        Bsearch
          {
            bs_buf = fresh r.bs_buf;
            bs_lo = ex r.bs_lo;
            bs_hi = ex r.bs_hi;
            bs_v = ex r.bs_v;
            bs_ub = r.bs_ub;
          }
  in
  let region (r : region) : region =
    {
      rg_buf = fresh r.rg_buf;
      rg_bounds = List.map (fun (a, b) -> (ex a, ex b)) r.rg_bounds;
    }
  in
  let operand (o : mma_operand) : mma_operand =
    {
      op_buf = fresh o.op_buf;
      op_origin = List.map ex o.op_origin;
      op_ld = ex o.op_ld;
    }
  in
  let rec st (s : stmt) : stmt =
    match s with
    | Store (b, idx, v) -> Store (fresh b, List.map ex idx, ex v)
    | Seq l -> Seq (List.map st l)
    | For f -> For { f with extent = ex f.extent; body = st f.body }
    | If (c, t, e) -> If (ex c, st t, Option.map st e)
    | Let_stmt (v, e, body) -> Let_stmt (v, ex e, st body)
    | Alloc (b, body) -> Alloc (fresh b, st body)
    | Eval e -> Eval (ex e)
    | Block_stmt blk ->
        Block_stmt
          {
            blk with
            blk_iters =
              List.map
                (fun bi -> { bi with bi_dom = ex bi.bi_dom; bi_bind = ex bi.bi_bind })
                blk.blk_iters;
            blk_reads = List.map region blk.blk_reads;
            blk_writes = List.map region blk.blk_writes;
            blk_init = Option.map st blk.blk_init;
            blk_body = st blk.blk_body;
          }
    | Mma_sync m ->
        Mma_sync
          {
            m with
            mma_a = operand m.mma_a;
            mma_b = operand m.mma_b;
            mma_c = operand m.mma_c;
          }
    | Sp_iter_stmt _ ->
        invalid_arg
          ("Serve.batch_func: sparse iteration survives in " ^ fn.fn_name
         ^ " (not a Stage III func)")
  in
  let params = List.map fresh fn.fn_params in
  let body = st fn.fn_body in
  let domains =
    List.map (fun (b, lo, hi) -> (fresh b, ex lo, ex hi)) fn.fn_domains
  in
  { fn with fn_params = params; fn_body = body; fn_domains = domains }

(* One func running [copies] independent instances of [fn] back to back:
   params concatenate copy-wise (instance 0's params first), so the batched
   argument list is the concatenation of the per-instance argument lists.
   [copies = 1] returns [fn] itself — the single-request fast path shares
   the kernel's own memoized artifact. *)
let batch_func ~(copies : int) (fn : func) : func =
  if copies <= 1 then fn
  else
    let cs =
      List.init copies (fun r -> rename_buffers (Printf.sprintf "r%d_" r) fn)
    in
    {
      fn_name = Printf.sprintf "%s_x%d" fn.fn_name copies;
      fn_params = List.concat_map (fun c -> c.fn_params) cs;
      fn_body = Seq (List.map (fun c -> c.fn_body) cs);
      fn_domains = List.concat_map (fun c -> c.fn_domains) cs;
    }

(* ------------------------------------------------------------------ *)
(* Template identity                                                   *)
(* ------------------------------------------------------------------ *)

(* Batch grouping keys on the physical identity of step templates: the
   pipeline compile cache hands every instance of a (kernel, schedule) the
   same func value, so [==] is exactly "same kernel, same schedule".  Ids
   are handed out per distinct template and never reused.  The table holds
   its keys weakly: a template no request, cache or caller still reaches
   drops out, so a long-running server with evolving tenants does not keep
   every template it ever saw. *)
module Fid = Ephemeron.K1.Make (struct
  type t = func

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let template_uids : int Fid.t = Fid.create 64
let template_next = ref 0

let template_uid (fn : func) : int =
  match Fid.find_opt template_uids fn with
  | Some u -> u
  | None ->
      let u = !template_next in
      incr template_next;
      Fid.add template_uids fn u;
      u

(* ------------------------------------------------------------------ *)
(* Requests and server state                                           *)
(* ------------------------------------------------------------------ *)

type config = {
  max_batch : int;  (** flush a group at this many waiters *)
  deadline_ms : float;  (** ... or when its oldest waiter is this old *)
  lease_width : int;  (** domains leased per launched batch *)
  max_inflight : int;  (** concurrent driver domains *)
}

let default_config =
  { max_batch = 4; deadline_ms = 2.0; lease_width = 2; max_inflight = 2 }

type request = {
  rq_id : int;
  rq_tenant : string;
  mutable rq_steps : (func * Gpusim.bindings) list;
      (** emptied when the request retires, so [completed] keeps only the
          record, id and timestamps, not the step funcs and bindings *)
  rq_key : string;  (** tenant + step-template uids: the batch group *)
  rq_arrival : float;
  mutable rq_done : float;
}

type inflight = {
  in_reqs : request list;
  in_lease : Engine.lease;
  in_done : bool Atomic.t;
  in_fail : exn option Atomic.t;
  in_domain : unit Domain.t;
}

type t = {
  cfg : config;
  mutable next_id : int;
  mutable pending : request list;  (** arrival order *)
  mutable inflight : inflight list;
  mutable completed : request list;
  mutable batches : int;
  mutable launches : int;  (** batched-artifact runs (steps x batches) *)
  mutable occupancy_sum : int;  (** requests summed over batches *)
  mutable max_queue : int;
  mutable warm_hits : int;
  mutable cold_misses : int;
  mutable tuner_warm : int;  (** admissions served from the schedule cache *)
  mutable tuner_cold : int;  (** admissions that ran a tuning search *)
  mutable t_first : float;  (** first submit; nan before *)
  mutable t_last : float;  (** last batch retirement *)
}

(* Process-wide totals for [Pipeline.report]. *)
let total_requests = ref 0
let total_batches = ref 0
let total_occupancy = ref 0
let total_warm = ref 0
let total_cold = ref 0

let hook_installed = ref false

let create ?(config = default_config) () : t =
  if not !hook_installed then begin
    hook_installed := true;
    Pipeline.add_report_hook (fun () ->
        if !total_requests = 0 then ""
        else
          Printf.sprintf
            "serve: %d requests in %d batches (%.2f avg occupancy), batched \
             artifacts %d warm / %d cold\n"
            !total_requests !total_batches
            (float_of_int !total_occupancy
            /. float_of_int (max 1 !total_batches))
            !total_warm !total_cold)
  end;
  {
    cfg =
      {
        config with
        max_batch = max 1 config.max_batch;
        lease_width = max 1 config.lease_width;
        max_inflight = max 1 config.max_inflight;
      };
    next_id = 0;
    pending = [];
    inflight = [];
    completed = [];
    batches = 0;
    launches = 0;
    occupancy_sum = 0;
    max_queue = 0;
    warm_hits = 0;
    cold_misses = 0;
    tuner_warm = 0;
    tuner_cold = 0;
    t_first = Float.nan;
    t_last = Float.nan;
  }

let group_key ~(tenant : string) (steps : (func * Gpusim.bindings) list) :
    string =
  Printf.sprintf "%s!%s" tenant
    (String.concat ","
       (List.map (fun (fn, _) -> string_of_int (template_uid fn)) steps))

let submit (t : t) ~(tenant : string)
    (steps : (func * Gpusim.bindings) list) : request =
  if steps = [] then invalid_arg "Serve.submit: empty step list";
  let now = Unix.gettimeofday () in
  if Float.is_nan t.t_first then t.t_first <- now;
  let rq =
    {
      rq_id = t.next_id;
      rq_tenant = tenant;
      rq_steps = steps;
      rq_key = group_key ~tenant steps;
      rq_arrival = now;
      rq_done = Float.nan;
    }
  in
  t.next_id <- t.next_id + 1;
  t.pending <- t.pending @ [ rq ];
  t.max_queue <- max t.max_queue (List.length t.pending);
  rq

let queue_depth (t : t) = List.length t.pending

(* ------------------------------------------------------------------ *)
(* Tuned admission (DESIGN.md §3j)                                     *)
(* ------------------------------------------------------------------ *)

(* A tenant arriving with a new sparse matrix gets a tuned hyb schedule:
   the matrix's quantized structure signature is looked up in the
   structure-keyed schedule cache first, so a tenant structurally similar
   to one already tuned admits with ZERO cost-model measurements; only a
   genuinely new structure pays a (guided) search.  The winner is stored
   back under the signature, warming the cache for the whole fleet. *)

type admission = {
  ad_request : request;
  ad_config : int;  (* chosen hyb column-partition count c *)
  ad_tuner_warm : bool;  (* admitted from the schedule cache *)
  ad_measured : int;  (* cost-model measurements paid (0 when warm) *)
}

let tuner_family = "spmm_hyb"

let submit_spmm_tuned ?(spec = Gpusim.Spec.v100) ?rho ?topk (t : t)
    ~(tenant : string) (a : Formats.Csr.t) (x : Formats.Dense.t)
    ~(feat : int) : admission =
  let key = Formats.Stats.key (Formats.Stats.of_csr a) in
  let c, warm, measured =
    match Tuner.Cache.find ~family:tuner_family ~feat key with
    | Some e ->
        t.tuner_warm <- t.tuner_warm + 1;
        ((match e.Tuner.Cache.ce_config with c :: _ -> c | [] -> 1), true, 0)
    | None ->
        t.tuner_cold <- t.tuner_cold + 1;
        let r =
          Tuner.search_guided ?rho ?topk
            (Tuner.spmm_hyb_candidates spec a x ~feat)
        in
        Tuner.Cache.store ~family:tuner_family ~feat key
          ~label:r.Tuner.best_label ~config:[ r.Tuner.best_config ];
        (r.Tuner.best_config, false, r.Tuner.measured)
  in
  let compiled, _ = Kernels.Spmm.sparsetir_hyb ~c a x ~feat in
  let rq =
    submit t ~tenant
      [ (compiled.Kernels.Spmm.fn, compiled.Kernels.Spmm.bindings) ]
  in
  { ad_request = rq; ad_config = c; ad_tuner_warm = warm;
    ad_measured = measured }

(* ------------------------------------------------------------------ *)
(* Batched-artifact resolution (tenant-scoped cache)                   *)
(* ------------------------------------------------------------------ *)

(* One (artifact, argument list) per step of the batch.  Batched funcs are
   cached in the shared pipeline cache under a tenant-scoped key so the LRU
   owns their engine artifacts; the [compiled] value is held directly in
   the plan, so a later eviction (which only unregisters the memo entry)
   cannot invalidate an already-formed plan. *)
let plan_of (t : t) (reqs : request list) :
    (Engine.compiled * Tensor.t list) list =
  let b = List.length reqs in
  let head = List.hd reqs in
  List.mapi
    (fun s ((tmpl : func), _) ->
      let key =
        Printf.sprintf "serve!%s!B%d!s%d!t%d" head.rq_tenant b s
          (template_uid tmpl)
      in
      let c =
        match Pipeline.Cache.find Pipeline.shared_cache key with
        | Some e -> (
            t.warm_hits <- t.warm_hits + 1;
            incr total_warm;
            match e.Pipeline.Cache.e_artifact with
            | Some c ->
                (* re-seed the engine memo in case [Engine.reset] dropped it *)
                Engine.register e.Pipeline.Cache.e_ir c;
                c
            | None ->
                let c = Engine.artifact e.Pipeline.Cache.e_ir in
                e.Pipeline.Cache.e_artifact <- Some c;
                c)
        | None ->
            t.cold_misses <- t.cold_misses + 1;
            incr total_cold;
            let bfn = batch_func ~copies:b tmpl in
            let c = Engine.artifact bfn in
            ignore (Pipeline.Cache.add Pipeline.shared_cache key ~artifact:c bfn);
            c
      in
      let args =
        List.concat_map
          (fun r -> Gpusim.args_for tmpl (snd (List.nth r.rq_steps s)))
          reqs
      in
      (c, args))
    head.rq_steps

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let by_id a b = compare a.rq_id b.rq_id

(* Pick the next batch: scan groups in arrival order and take the first
   whose group is ready (full, past deadline, or [force]).  The batch keeps
   the group's arrival order; everything else keeps the queue's. *)
let take_batch (t : t) ~(force : bool) ~(now : float) : request list option =
  let rec scan (seen : string list) = function
    | [] -> None
    | (r : request) :: rest when List.mem r.rq_key seen -> scan seen rest
    | r :: rest ->
        let same, _ = List.partition (fun q -> q.rq_key = r.rq_key) t.pending in
        let ready =
          force
          || List.length same >= t.cfg.max_batch
          || (now -. r.rq_arrival) *. 1000.0 >= t.cfg.deadline_ms
        in
        if not ready then scan (r.rq_key :: seen) rest
        else
          let rec split n acc = function
            | q :: qs when n > 0 -> split (n - 1) (q :: acc) qs
            | qs -> (List.rev acc, qs)
          in
          let batch, overflow = split t.cfg.max_batch [] same in
          t.pending <-
            List.sort by_id
              (overflow
              @ List.filter (fun q -> q.rq_key <> r.rq_key) t.pending);
          Some batch
  in
  scan [] t.pending

let launch (t : t) (reqs : request list) (lease : Engine.lease) : unit =
  let plan = plan_of t reqs in
  let done_flag = Atomic.make false in
  let fail = Atomic.make None in
  let dom =
    Domain.spawn (fun () ->
        (try
           Engine.run_leased lease (fun () ->
               List.iter (fun (c, args) -> Engine.run c args) plan)
         with e -> Atomic.set fail (Some e));
        let tdone = Unix.gettimeofday () in
        List.iter (fun r -> r.rq_done <- tdone) reqs;
        Atomic.set done_flag true)
  in
  t.batches <- t.batches + 1;
  incr total_batches;
  t.launches <- t.launches + List.length plan;
  t.occupancy_sum <- t.occupancy_sum + List.length reqs;
  total_occupancy := !total_occupancy + List.length reqs;
  total_requests := !total_requests + List.length reqs;
  t.inflight <-
    {
      in_reqs = reqs;
      in_lease = lease;
      in_done = done_flag;
      in_fail = fail;
      in_domain = dom;
    }
    :: t.inflight

(* A retired request drops its steps but keeps its record: [completed] is
   read by physical identity, and its id and timestamps feed [stats]. *)
let retire (t : t) (reqs : request list) : unit =
  List.iter (fun r -> r.rq_steps <- []) reqs;
  t.completed <- reqs @ t.completed

(* Last-resort progress: run a batch synchronously on the draining domain,
   no lease and no driver.  Used only when nothing is inflight and no lease
   can be had (e.g. the budget is held by leases outside this server), so
   [drain] terminates instead of spinning. *)
let run_inline (t : t) (reqs : request list) : unit =
  let plan = plan_of t reqs in
  List.iter (fun (c, args) -> Engine.run c args) plan;
  let tdone = Unix.gettimeofday () in
  List.iter (fun r -> r.rq_done <- tdone) reqs;
  t.batches <- t.batches + 1;
  incr total_batches;
  t.launches <- t.launches + List.length plan;
  t.occupancy_sum <- t.occupancy_sum + List.length reqs;
  total_occupancy := !total_occupancy + List.length reqs;
  total_requests := !total_requests + List.length reqs;
  t.t_last <- (if Float.is_nan t.t_last then tdone else max t.t_last tdone);
  retire t reqs

(* Retire finished batches; returns whether any retired.  Every finished
   batch is joined, released and retired first; then the first driver
   failure among them re-raises on the draining domain. *)
let reap (t : t) : bool =
  let fin, still = List.partition (fun i -> Atomic.get i.in_done) t.inflight in
  t.inflight <- still;
  let failure = ref None in
  List.iter
    (fun i ->
      Domain.join i.in_domain;
      Engine.release i.in_lease;
      List.iter
        (fun r ->
          t.t_last <-
            (if Float.is_nan t.t_last then r.rq_done else max t.t_last r.rq_done))
        i.in_reqs;
      retire t i.in_reqs;
      if Option.is_none !failure then failure := Atomic.get i.in_fail)
    fin;
  Option.iter raise !failure;
  fin <> []

(* Admit at most one batch; returns whether one launched. *)
let admit (t : t) ~(force : bool) ~(now : float) : bool =
  if List.length t.inflight >= t.cfg.max_inflight then false
  else
    match take_batch t ~force ~now with
    | None -> false
    | Some reqs -> (
        let width = min t.cfg.lease_width (Engine.num_domains ()) in
        match Engine.try_lease ~width with
        | Some lease ->
            launch t reqs lease;
            true
        | None ->
            (* No capacity: requeue and wait for a retirement. *)
            t.pending <- List.sort by_id (reqs @ t.pending);
            false)

(* Opportunistic progress: retire finished batches and admit ready groups.
   Non-blocking; callers interleave [pump] with [submit] to overlap request
   arrival with execution. *)
let pump (t : t) : unit =
  ignore (reap t);
  let now = Unix.gettimeofday () in
  while admit t ~force:false ~now do
    ()
  done

(* Run the queue to empty (deadlines waived on the final stragglers) and
   wait for every inflight batch. *)
let drain (t : t) : unit =
  let rec loop () =
    if t.pending = [] && t.inflight = [] then ()
    else begin
      let retired = reap t in
      let now = Unix.gettimeofday () in
      let admitted = ref false in
      while admit t ~force:true ~now do
        admitted := true
      done;
      if (not retired) && not !admitted then begin
        if t.inflight <> [] then Unix.sleepf 5e-5
        else
          (* nothing running, nothing admittable: force progress inline so
             drain terminates even with the lease budget held elsewhere *)
          match take_batch t ~force:true ~now with
          | Some reqs -> run_inline t reqs
          | None -> ()
      end;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  s_requests : int;
  s_batches : int;
  s_launches : int;
  s_occupancy : float;  (** mean requests per batch *)
  s_wall_s : float;  (** first submit to last retirement *)
  s_req_per_s : float;
  s_p50_ms : float;  (** submit-to-retirement latency percentiles *)
  s_p99_ms : float;
  s_max_queue : int;
  s_warm_hits : int;
  s_cold_misses : int;
  s_warm_ratio : float;  (** warm / (warm + cold) step lookups *)
  s_tuner_warm : int;  (** admissions served from the schedule cache *)
  s_tuner_cold : int;  (** admissions that ran a tuning search *)
  s_tuner_warm_ratio : float;  (** warm / (warm + cold) tuned admissions *)
}

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let stats (t : t) : stats =
  let n = List.length t.completed in
  let lats =
    Array.of_list
      (List.map (fun r -> (r.rq_done -. r.rq_arrival) *. 1000.0) t.completed)
  in
  Array.sort compare lats;
  let wall =
    if Float.is_nan t.t_first || Float.is_nan t.t_last then 0.0
    else max 1e-9 (t.t_last -. t.t_first)
  in
  let lookups = t.warm_hits + t.cold_misses in
  {
    s_requests = n;
    s_batches = t.batches;
    s_launches = t.launches;
    s_occupancy = float_of_int t.occupancy_sum /. float_of_int (max 1 t.batches);
    s_wall_s = wall;
    s_req_per_s = (if wall <= 0.0 then 0.0 else float_of_int n /. wall);
    s_p50_ms = percentile lats 0.50;
    s_p99_ms = percentile lats 0.99;
    s_max_queue = t.max_queue;
    s_warm_hits = t.warm_hits;
    s_cold_misses = t.cold_misses;
    s_warm_ratio =
      (if lookups = 0 then 0.0
       else float_of_int t.warm_hits /. float_of_int lookups);
    s_tuner_warm = t.tuner_warm;
    s_tuner_cold = t.tuner_cold;
    s_tuner_warm_ratio =
      (let a = t.tuner_warm + t.tuner_cold in
       if a = 0 then 0.0 else float_of_int t.tuner_warm /. float_of_int a);
  }

let stats_to_string (s : stats) : string =
  let tuner =
    if s.s_tuner_warm + s.s_tuner_cold = 0 then ""
    else
      Printf.sprintf ", tuner %d warm / %d cold (%.0f%% warm)" s.s_tuner_warm
        s.s_tuner_cold
        (100.0 *. s.s_tuner_warm_ratio)
  in
  Printf.sprintf
    "%d req in %d batches (occupancy %.2f), %.1f req/s, p50 %.2fms p99 \
     %.2fms, queue<=%d, artifacts %d warm / %d cold (%.0f%% warm)%s"
    s.s_requests s.s_batches s.s_occupancy s.s_req_per_s s.s_p50_ms s.s_p99_ms
    s.s_max_queue s.s_warm_hits s.s_cold_misses (100.0 *. s.s_warm_ratio)
    tuner

let reset_totals () =
  total_requests := 0;
  total_batches := 0;
  total_occupancy := 0;
  total_warm := 0;
  total_cold := 0
