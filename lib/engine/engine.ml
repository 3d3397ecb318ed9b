(* Compiled execution engine for Stage III programs.

   An ahead-of-time closure compiler: a verified flat func is translated once
   into nested native OCaml closures, then invoked per execution.  Where the
   tree-walking interpreter ([Tir.Eval]) pays a Hashtbl lookup and a boxed
   [value]-variant dispatch per expression node per iteration, the compiled
   form resolves every variable to a pre-allocated slot in an unboxed
   int/float/bool array at compile time and monomorphizes dtype dispatch into
   separate int and float code paths.  Int leaves (slots, immediates) are
   folded into their parent closures and buffer accesses are specialized on
   dtype and index arity, so the hot loop is plain array arithmetic with one
   indirect call per composite sub-expression.

   Semantics are exactly those of [Tir.Eval] (the differential harness in
   test/test_engine.ml and the schedule fuzzer enforce this):
   - out-of-range reads yield 0 / false (guards hoisted below data-dependent
     extents legally probe one element past a buffer); stores are strict;
   - a single index into multi-dimensional storage is an already-flattened
     offset;
   - int/int arithmetic stays integral, anything else is computed in floats;
   - F16 buffers round every store through half precision;
   - binary search and MMA call the same [Tir.Prims] the interpreter uses.

   Compiled artifacts are memoized per func (physical identity): the pipeline
   registers its output here as a terminal codegen stage, so re-executing a
   cached kernel compiles nothing. *)

open Tir
open Tir.Ir

(* Static (compile-time) failures: sparse constructs that should have been
   lowered away, unbound variables or buffers.  The interpreter reports the
   same conditions at runtime as [Eval.Eval_error]. *)
exception Compile_error of string

let cerr fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* Runtime failures raise [Eval.Eval_error] for parity with the interpreter. *)
let rerr fmt = Printf.ksprintf (fun s -> raise (Eval.Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Runtime state: pre-sized slot arrays, no lookup on the hot path      *)
(* ------------------------------------------------------------------ *)

type state = {
  ints : int array;
  floats : float array;
  bools : bool array;
  bufs : Tensor.t array; (* parameter slots first, then Alloc slots *)
}

(* Per-domain replica: private slot arrays, shared tensors.  Workers write
   only the buffer regions the disjointness analysis assigned to their
   iterations; Allocs inside the parallel body overwrite the replica's slot,
   so scratch buffers are domain-private too. *)
let clone_state (st : state) : state =
  {
    ints = Array.copy st.ints;
    floats = Array.copy st.floats;
    bools = Array.copy st.bools;
    bufs = Array.copy st.bufs;
  }

(* A placeholder for not-yet-bound buffer slots; never read on valid
   programs (every access compiles against a param or live Alloc slot). *)
let null_tensor = lazy (Tensor.create Dtype.I32 [ 0 ])

(* ------------------------------------------------------------------ *)
(* Domain pool                                                          *)
(* ------------------------------------------------------------------ *)

(* How many domains a thread-bound outer loop may spread across.  Read at
   execution time (not compile time) so memoized artifacts stay valid when
   the knob changes between runs; 1 disables parallel execution.  This is
   the single clamp for the whole stack: every entry point (CLI --domains,
   bench --domains=, ?num_domains) passes its value through unchanged, and
   any [n <= 0] uniformly means "auto" — use the runtime's recommended
   domain count. *)
let num_domains_ref = ref (Domain.recommended_domain_count ())
let num_domains () = !num_domains_ref

let set_num_domains n =
  num_domains_ref := (if n <= 0 then Domain.recommended_domain_count () else n)

(* A fixed pool of worker domains, grown lazily and kept for the process
   lifetime: Domain.spawn per kernel launch costs more than an entire small
   kernel, which would wreck tuner loops.  Workers idle on a condition
   variable between parallel regions.  Regions are only ever opened from the
   main domain (nested thread-bound loops compile serially), so one job slot
   per worker suffices. *)
module Pool = struct
  type worker = {
    w_mutex : Mutex.t;
    w_cond : Condition.t;
    mutable w_job : (unit -> unit) option;
  }

  let workers : worker array ref = ref [||]

  let worker_loop (w : worker) () =
    let rec loop () =
      Mutex.lock w.w_mutex;
      while w.w_job = None do
        Condition.wait w.w_cond w.w_mutex
      done;
      let job = Option.get w.w_job in
      w.w_job <- None;
      Mutex.unlock w.w_mutex;
      job ();
      loop ()
    in
    loop ()

  let ensure (extra : int) : unit =
    let have = Array.length !workers in
    if have < extra then begin
      let fresh =
        Array.init (extra - have) (fun _ ->
            let w =
              {
                w_mutex = Mutex.create ();
                w_cond = Condition.create ();
                w_job = None;
              }
            in
            ignore (Domain.spawn (worker_loop w) : unit Domain.t);
            w)
      in
      workers := Array.append !workers fresh
    end

  let size () = Array.length !workers

  (* Run [f 0] on the calling domain and [f 1] .. [f k] on the pool workers
     listed in [idxs] (k = length), waiting for all of them.  The first
     exception any participant raises is re-raised here after the join.
     Callers must already hold every listed worker: either the whole pool
     (the main domain's unleased parallel regions) or a leased disjoint
     subset — the one-job-slot-per-worker protocol relies on it.  Does not
     [ensure]: the listed workers must exist. *)
  let run_on (idxs : int array) (f : int -> unit) : unit =
    let k = Array.length idxs in
    if k = 0 then f 0
    else begin
      let m = Mutex.create () in
      let done_cv = Condition.create () in
      let pending = ref k in
      let first_exn = ref None in
      let record_exn e =
        Mutex.lock m;
        if !first_exn = None then first_exn := Some e;
        Mutex.unlock m
      in
      let job i () =
        (try f i with e -> record_exn e);
        Mutex.lock m;
        decr pending;
        if !pending = 0 then Condition.signal done_cv;
        Mutex.unlock m
      in
      let ws = !workers in
      Array.iteri
        (fun j wi ->
          let w = ws.(wi) in
          Mutex.lock w.w_mutex;
          w.w_job <- Some (job (j + 1));
          Condition.signal w.w_cond;
          Mutex.unlock w.w_mutex)
        idxs;
      (try f 0 with e -> record_exn e);
      Mutex.lock m;
      while !pending > 0 do
        Condition.wait done_cv m
      done;
      Mutex.unlock m;
      match !first_exn with Some e -> raise e | None -> ()
    end

  (* Run [f 0] .. [f (k-1)] concurrently — [f 0] on the calling domain, the
     rest on workers 0..k-2 — and wait for all of them.  The unleased
     whole-pool entry point: only the main domain opens regions this way. *)
  let run_group (k : int) (f : int -> unit) : unit =
    if k <= 1 then f 0
    else begin
      ensure (k - 1);
      run_on (Array.init (k - 1) (fun i -> i)) f
    end
end

let pool_size = Pool.size

(* ------------------------------------------------------------------ *)
(* Domain leases                                                        *)
(* ------------------------------------------------------------------ *)

(* The serving layer admits concurrent independent requests by handing each
   one a *lease*: an exclusive reservation of [width - 1] pool workers plus
   the leasing driver's own domain.  Leases partition the pool — worker sets
   are disjoint, so two leased parallel regions can be open at once without
   violating the one-job-slot-per-worker protocol.  The sum of outstanding
   lease widths never exceeds the [num_domains] budget.

   A leased driver makes its lease current with [run_leased] (a DLS slot
   read by the parallel dispatch), capping that domain's parallel loops at
   the lease width and steering them onto the leased workers only.  Unleased
   parallel regions still assume exclusive use of the whole pool, so drivers
   holding leases must not run concurrently with an unleased main-domain
   parallel region. *)

type lease = {
  l_workers : int array; (* reserved pool worker indices, width - 1 of them *)
  l_width : int;
  mutable l_active : bool;
}

let lease_lock = Mutex.create ()
let lease_free : int list ref = ref [] (* worker indices not leased out *)
let lease_created = ref 0 (* workers ever brought under lease management *)
let leased_units = ref 0 (* sum of outstanding lease widths *)
let leases_active = ref 0

let try_lease ~(width : int) : lease option =
  let width = max 1 width in
  Mutex.protect lease_lock (fun () ->
      let budget = max 1 !num_domains_ref in
      if !leased_units + width > budget then None
      else begin
        let need = width - 1 in
        let have = List.length !lease_free in
        if have < need then begin
          let add = need - have in
          lease_free :=
            !lease_free @ List.init add (fun i -> !lease_created + i);
          lease_created := !lease_created + add;
          (* spawning happens here, under the allocator lock, never from a
             driver mid-run: the pool array is only ever grown by the
             domain holding this lock or by the main domain's run_group *)
          Pool.ensure !lease_created
        end;
        let rec take n acc rest =
          if n = 0 then (List.rev acc, rest)
          else
            match rest with
            | [] -> assert false
            | x :: tl -> take (n - 1) (x :: acc) tl
        in
        let mine, rest = take need [] !lease_free in
        lease_free := rest;
        leased_units := !leased_units + width;
        incr leases_active;
        Some { l_workers = Array.of_list mine; l_width = width;
               l_active = true }
      end)

let release (l : lease) : unit =
  Mutex.protect lease_lock (fun () ->
      if l.l_active then begin
        l.l_active <- false;
        lease_free := Array.to_list l.l_workers @ !lease_free;
        leased_units := !leased_units - l.l_width;
        decr leases_active
      end)

let lease_width (l : lease) = l.l_width
let leases_in_use () = Mutex.protect lease_lock (fun () -> !leases_active)

(* The lease the executing domain currently runs under, if any; set by
   [run_leased], consulted by the parallel dispatch closures. *)
let current_lease : lease option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The domain budget of a thread-bound loop: a leased driver caps its
   parallel loops at the lease width and steers them onto the leased
   workers only; unleased domains (the main domain) use the whole budget
   and pool. *)
let loop_budget (lease : lease option) : int =
  match lease with Some l -> l.l_width | None -> !num_domains_ref

let run_leased (l : lease) (f : unit -> 'a) : 'a =
  if not l.l_active then invalid_arg "Engine.run_leased: released lease";
  let slot = Domain.DLS.get current_lease in
  let saved = !slot in
  slot := Some l;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* ------------------------------------------------------------------ *)
(* Chunk scheduler                                                      *)
(* ------------------------------------------------------------------ *)

(* Steal transfers across all parallel runs since [reset]; the parallel
   bench prints it and records it as an info row. *)
let total_stolen_chunks = Atomic.make 0
let stolen_chunks () = Atomic.get total_stolen_chunks

(* The engine's one chunk scheduler — the host copy of a GPU handing each
   thread block to whichever SM is free.  [units] work units are spread
   over [d] domains: the calling domain plus [d - 1] pool workers, which
   are the leased driver's reserved workers or, unleased, the whole pool.
   Each worker owns a contiguous range of units, both ends packed into one
   atomic int (lo lsl shift | hi).  Owners CAS [grain_u]-unit chunks off
   the low end and run them as [run_chunk w lo hi]; a worker whose range
   is empty scans the others and CAS-steals the upper half of the first
   victim holding more than one unit, installing it as its own range (a
   plain store is safe there: nobody CASes an empty deque).  Every handoff
   is CAS-linearized, so each unit executes exactly once, and [run_chunk]
   is told which worker ran it, so it can run on that worker's state
   replica.  The first exception re-raises after the join; the raising
   worker's remaining units may then not run.  [units] must not exceed
   [steal_max_units]. *)
let steal_shift = 30
let steal_mask = (1 lsl steal_shift) - 1
let steal_max_units = steal_mask

let run_stealing ~(lease : lease option) ~(d : int) ~(units : int)
    ~(grain_u : int) ~(run_chunk : int -> int -> int -> unit) : unit =
  let deques =
    Array.init d (fun w ->
        Atomic.make
          (((w * units / d) lsl steal_shift) lor ((w + 1) * units / d)))
  in
  let body w =
    let rec take () =
      let q = deques.(w) in
      let r = Atomic.get q in
      let lo = r lsr steal_shift and hi = r land steal_mask in
      if lo >= hi then steal 0
      else
        let lo' = min hi (lo + grain_u) in
        if Atomic.compare_and_set q r ((lo' lsl steal_shift) lor hi) then begin
          run_chunk w lo lo';
          take ()
        end
        else take ()
    and steal tries =
      if tries >= d - 1 then ()
      else
        let v = (w + 1 + tries) mod d in
        let q = deques.(v) in
        let r = Atomic.get q in
        let lo = r lsr steal_shift and hi = r land steal_mask in
        (* a single remaining unit is left to its owner: stealing it would
           only move the tail, not expose parallelism *)
        if hi - lo <= 1 then steal (tries + 1)
        else
          let mid = (lo + hi + 1) / 2 in
          if Atomic.compare_and_set q r ((lo lsl steal_shift) lor mid)
          then begin
            Atomic.incr total_stolen_chunks;
            Atomic.set deques.(w) ((mid lsl steal_shift) lor hi);
            take ()
          end
          else steal tries
    in
    take ()
  in
  match lease with
  | Some l -> Pool.run_on (Array.sub l.l_workers 0 (d - 1)) body
  | None -> Pool.run_group d body

(* ------------------------------------------------------------------ *)
(* Generic parallel tasks (format construction)                         *)
(* ------------------------------------------------------------------ *)

(* True while the executing domain is running a [parallel_tasks] task body:
   nested calls (a task body that itself builds a format) then run serially,
   because the workers of the outer call are already occupied and the
   one-job-slot-per-worker protocol admits no re-entry. *)
let in_parallel_tasks : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

(* The domain budget a [parallel_tasks] call on this domain would spread
   over: the lease width for leased drivers, the global knob otherwise, and
   1 inside a task body.  Construction code sizes its fan-out with this. *)
let parallel_width () : int =
  if !(Domain.DLS.get in_parallel_tasks) then 1
  else
    match !(Domain.DLS.get current_lease) with
    | Some l -> l.l_width
    | None -> max 1 !num_domains_ref

(* Run [f 0] .. [f (k-1)] as [k] one-task units on the chunk scheduler, so
   tasks compose with leases exactly like the kernel dispatch: a leased
   driver steers them onto its reserved workers only, keeping multi-tenant
   batches isolated; unleased callers assume exclusive use of the whole
   pool (the same contract as any unleased parallel region).  Tasks must
   be independent — the call gives no ordering between them — and the
   first exception re-raises after the join.  Used by the
   format constructors ([Descriptor.build], [Hyb.of_csr]) for
   partition-parallel construction. *)
let parallel_tasks (k : int) (f : int -> unit) : unit =
  let d = min (parallel_width ()) k in
  if d <= 1 then
    for i = 0 to k - 1 do
      f i
    done
  else
    run_stealing ~lease:!(Domain.DLS.get current_lease) ~d ~units:k ~grain_u:1
      ~run_chunk:(fun _ lo hi ->
        let flag = Domain.DLS.get in_parallel_tasks in
        flag := true;
        Fun.protect
          ~finally:(fun () -> flag := false)
          (fun () ->
            for i = lo to hi - 1 do
              f i
            done))

(* ------------------------------------------------------------------ *)
(* Chunking                                                             *)
(* ------------------------------------------------------------------ *)

(* Iterations per chunk a worker takes off its range (or per monotone-gather
   segment): ceil(n / 4d), so at most [4 * d] chunks and never a flood of
   1-iteration chunks when [n < 4 * d]. *)
let chunk_grain ~(n : int) ~(domains : int) : int =
  let d = max 1 domains in
  max 1 ((n + (4 * d) - 1) / (4 * d))

(* Chunk boundaries for gather witnesses whose maps are only non-decreasing
   (hyb's widest bucket maps repeat a row across the pseudo-rows a long row
   was split into): start from uniform [grain]-sized cuts and push each cut
   right until every map strictly increases across it, so every run of equal
   map values — one output row — stays inside a single chunk. *)
let aligned_bounds ~(n : int) ~(grain : int) (maps : (Tensor.t * int) list) :
    int array =
  let ok_cut b =
    b >= n
    || List.for_all
         (fun (mt, c) ->
           let p = c * b in
           p >= Tensor.numel mt || Tensor.get_i mt (p - 1) < Tensor.get_i mt p)
         maps
  in
  let bounds = ref [ 0 ] in
  let cur = ref 0 in
  while !cur < n do
    let b = ref (min n (!cur + grain)) in
    while not (ok_cut !b) do
      incr b
    done;
    let b = min n !b in
    bounds := b :: !bounds;
    cur := b
  done;
  Array.of_list (List.rev !bounds)

(* ------------------------------------------------------------------ *)
(* Fallback reasons                                                     *)
(* ------------------------------------------------------------------ *)

let reason_labels = [| "indirect"; "bsearch"; "non-linear"; "no-witness" |]

let reason_index = function
  | Analysis.Fr_indirect -> 0
  | Analysis.Fr_bsearch -> 1
  | Analysis.Fr_non_linear -> 2
  | Analysis.Fr_no_witness -> 3

(* Process-wide run counters (per-artifact twins live in [ctx]); surfaced by
   Pipeline.report and zeroed by [reset].  Atomic because leased serve
   drivers execute artifacts from their own domains concurrently.  The
   per-artifact twins stay plain refs: a lost increment there skews one
   artifact's local tally under contention, which the stats surface
   tolerates, whereas the process totals feed the serve metrics. *)
let total_par_runs = Atomic.make 0
let total_fallback_runs = Atomic.make 0
let total_reasons =
  Array.init (Array.length reason_labels) (fun _ -> Atomic.make 0)

(* ------------------------------------------------------------------ *)
(* Compile-time context                                                 *)
(* ------------------------------------------------------------------ *)

type slot = Si of int | Sf of int | Sb of int

module Imap = Map.Make (Int)

(* Lexical scope: variable id -> typed slot, buffer id -> buffer slot.
   Immutable maps threaded through compilation give shadowing and unbound-use
   detection for free. *)
type scope = { sc_vars : slot Imap.t; sc_bufs : int Imap.t }

let empty_scope = { sc_vars = Imap.empty; sc_bufs = Imap.empty }

(* Slot high-water marks; binding sites each get a fresh slot (the arrays
   stay tiny — one slot per loop/let/block-iter in the func). *)
type ctx = {
  mutable n_i : int;
  mutable n_f : int;
  mutable n_b : int;
  mutable n_bufs : int;
  (* true while compiling the body of a domains-parallel loop: nested
     thread-bound loops then compile serially (one level of parallelism) *)
  mutable in_parallel : bool;
  (* per-artifact run counters: executions that took the parallel path, and
     executions of thread-bound block loops forced serial because
     disjointness was unprovable *)
  par_runs : int ref;
  fallback_runs : int ref;
  (* fallback counts broken down by Analysis.fail_reason (indexed by
     [reason_index]; runtime fact failures land on "indirect") *)
  reasons : int array;
  (* per-artifact fusion-site counters (compile-time): stores fused into a
     single load-accumulate closure, and loop-invariant index expressions
     hoisted into prologue slots *)
  mutable n_fused : int;
  mutable n_hoisted : int;
}

let fresh_i ctx = let s = ctx.n_i in ctx.n_i <- s + 1; s
let fresh_f ctx = let s = ctx.n_f in ctx.n_f <- s + 1; s
let fresh_b ctx = let s = ctx.n_b in ctx.n_b <- s + 1; s
let fresh_buf ctx = let s = ctx.n_bufs in ctx.n_bufs <- s + 1; s

let bind_var scope (x : var) (s : slot) =
  { scope with sc_vars = Imap.add x.vid s scope.sc_vars }

let bind_buf scope (b : buffer) (s : int) =
  { scope with sc_bufs = Imap.add b.buf_id s scope.sc_bufs }

let buf_slot scope (b : buffer) : int =
  match Imap.find_opt b.buf_id scope.sc_bufs with
  | Some s -> s
  | None -> cerr "unbound buffer %s" b.buf_name

let guard_flat (b : buffer) =
  if is_sparse_buffer b then
    cerr "buffer %s is sparse: run sparse buffer lowering before codegen"
      b.buf_name

(* ------------------------------------------------------------------ *)
(* Typed compiled expressions                                           *)
(* ------------------------------------------------------------------ *)

(* An int-valued operand.  Leaf folding (DESIGN.md §3c): a variable bound
   to an int slot stays a [Slot] and an integer immediate a [Const], so the
   parent closure reads it inline ([iget]: an array load or a constant)
   instead of calling a closure for it; only composite expressions become
   [Fn] closures. *)
type iarg = Slot of int | Const of int | Fn of (state -> int)

type cexpr =
  | CI of iarg
  | CF of (state -> float)
  | CB of (state -> bool)

let[@inline] iget (a : iarg) (st : state) : int =
  match a with Slot s -> st.ints.(s) | Const n -> n | Fn f -> f st

(* Coercions mirror [Eval.to_i]/[to_f]/[to_b], monomorphized at compile
   time. *)
let as_i = function
  | CI a -> a
  | CF f -> Fn (fun st -> int_of_float (f st))
  | CB f -> Fn (fun st -> if f st then 1 else 0)

let as_f = function
  | CF f -> f
  | CI (Slot s) -> fun st -> float_of_int st.ints.(s)
  | CI (Const n) ->
      let x = float_of_int n in
      fun _ -> x
  | CI (Fn f) -> fun st -> float_of_int (f st)
  | CB f -> fun st -> if f st then 1.0 else 0.0

let as_b = function
  | CB f -> f
  | CI (Slot s) -> fun st -> st.ints.(s) <> 0
  | CI (Const n) ->
      let b = n <> 0 in
      fun _ -> b
  | CI (Fn f) -> fun st -> f st <> 0
  | CF f -> fun st -> f st <> 0.0

(* Int index arithmetic with the operator applied in the closure itself.
   Commutative operators move a [Const] operand right and a [Slot] right of
   an [Fn], so each needs one closure per remaining leaf shape; two
   constants fold.  (Ints wrap, so [x - c] is exactly [x + (-c)].) *)
let rec add_i (x : iarg) (y : iarg) : iarg =
  match (x, y) with
  | Const a, Const b -> Const (a + b)
  | Const _, _ | Slot _, Fn _ -> add_i y x
  | Slot a, Slot b -> Fn (fun st -> st.ints.(a) + st.ints.(b))
  | Slot a, Const c -> Fn (fun st -> st.ints.(a) + c)
  | Fn f, Slot b -> Fn (fun st -> f st + st.ints.(b))
  | Fn f, Const c -> Fn (fun st -> f st + c)
  | Fn f, Fn g -> Fn (fun st -> f st + g st)

let rec mul_i (x : iarg) (y : iarg) : iarg =
  match (x, y) with
  | Const a, Const b -> Const (a * b)
  | Const _, _ | Slot _, Fn _ -> mul_i y x
  | Slot a, Slot b -> Fn (fun st -> st.ints.(a) * st.ints.(b))
  | Slot a, Const c -> Fn (fun st -> st.ints.(a) * c)
  | Fn f, Slot b -> Fn (fun st -> f st * st.ints.(b))
  | Fn f, Const c -> Fn (fun st -> f st * c)
  | Fn f, Fn g -> Fn (fun st -> f st * g st)

let sub_i (x : iarg) (y : iarg) : iarg =
  match (x, y) with
  | Const a, Const b -> Const (a - b)
  | _, Const c -> add_i x (Const (-c))
  | Slot a, Slot b -> Fn (fun st -> st.ints.(a) - st.ints.(b))
  | Fn f, Slot b -> Fn (fun st -> f st - st.ints.(b))
  | _ -> Fn (fun st -> iget x st - iget y st)

(* ------------------------------------------------------------------ *)
(* Buffer access                                                        *)
(* ------------------------------------------------------------------ *)

(* Loads and stores specialize at compile time on the buffer's dtype and
   index arity (1-D, 2-D; every other shape takes the generic offset path)
   and match the bound tensor's storage once per access.  Bounds checks are
   O(1) because a tensor's storage array holds exactly [numel] elements
   (the [Tensor] invariant every constructor enforces): a flat offset below
   the storage length is below numel.  Semantics are [Tir.Eval]'s:
   - loads are relaxed: an out-of-range or rank-mismatched index reads 0;
   - a single index is an already-flattened offset, checked against numel;
   - stores are strict: out-of-range indices raise [Invalid_argument], and
     a single index into multi-dimensional storage is left to the storage
     access's own bound check;
   - writes bump the tensor's version and round F16 storage, exactly as
     [Tensor.set_f]/[set_i] do. *)

let[@inline] read_f (t : Tensor.t) (i : int) : float =
  match t.data with
  | F a -> a.(i)
  | I a -> float_of_int a.(i)
  | B a -> if a.(i) then 1.0 else 0.0

let[@inline] read_i (t : Tensor.t) (i : int) : int =
  match t.data with
  | I a -> a.(i)
  | F a -> int_of_float a.(i)
  | B a -> if a.(i) then 1 else 0

let[@inline] write_f (t : Tensor.t) (i : int) (x : float) : unit =
  t.version <- t.version + 1;
  match t.data with
  | F a -> a.(i) <- (if t.dtype = Dtype.F16 then Dtype.round_f16 x else x)
  | I a -> a.(i) <- int_of_float x
  | B a -> a.(i) <- x <> 0.0

let[@inline] write_i (t : Tensor.t) (i : int) (x : int) : unit =
  t.version <- t.version + 1;
  match t.data with
  | I a -> a.(i) <- x
  | F a -> a.(i) <- float_of_int x
  | B a -> a.(i) <- x <> 0

(* Relaxed single-index reads: one storage match, one O(1) check. *)
let[@inline] load1_f (t : Tensor.t) (i : int) : float =
  match t.data with
  | F a -> if i < 0 || i >= Array.length a then 0.0 else Array.unsafe_get a i
  | I a ->
      if i < 0 || i >= Array.length a then 0.0
      else float_of_int (Array.unsafe_get a i)
  | B a ->
      if i < 0 || i >= Array.length a then 0.0
      else if Array.unsafe_get a i then 1.0
      else 0.0

let[@inline] load1_i (t : Tensor.t) (i : int) : int =
  match t.data with
  | I a -> if i < 0 || i >= Array.length a then 0 else Array.unsafe_get a i
  | F a ->
      if i < 0 || i >= Array.length a then 0
      else int_of_float (Array.unsafe_get a i)
  | B a ->
      if i < 0 || i >= Array.length a then 0
      else if Array.unsafe_get a i then 1
      else 0

(* Relaxed 2-D offset: -1 unless [t] is 2-D and both indices are in
   range. *)
let[@inline] off2_opt (t : Tensor.t) (i : int) (j : int) : int =
  let sh = t.shape in
  if Array.length sh <> 2 then -1
  else
    let d1 = sh.(1) in
    if i < 0 || i >= sh.(0) || j < 0 || j >= d1 then -1 else (i * d1) + j

(* Relaxed offset for every other arity (and bool buffers): every index
   evaluates, then -1 on a rank mismatch or an out-of-range index. *)
let offset_opt (idx : iarg array) : state -> Tensor.t -> int =
  match idx with
  | [| a |] ->
      fun st t ->
        let i = iget a st in
        if i < 0 || i >= Tensor.numel t then -1 else i
  | _ ->
      let rank = Array.length idx in
      fun st t ->
        let sh = t.Tensor.shape in
        let ok = ref (Array.length sh = rank) and off = ref 0 in
        for d = 0 to rank - 1 do
          let i = iget idx.(d) st in
          if !ok then
            if i < 0 || i >= sh.(d) then ok := false
            else off := (!off * sh.(d)) + i
        done;
        if !ok then !off else -1

(* Strict offsets (stores, fused cells, MMA origins), mirroring
   [Eval.flat_offset]. *)
type cell = Cell1 of iarg | Cell2 of iarg * iarg | CellN of iarg array

let out_of_bounds name i bound =
  invalid_arg (Printf.sprintf "%s: index %d out of bounds [0,%d)" name i bound)

let out_of_bounds_dim name i bound d =
  invalid_arg
    (Printf.sprintf "%s: index %d out of bounds [0,%d) in dim %d" name i
       bound d)

let rank_mismatch name want have =
  invalid_arg (Printf.sprintf "%s: rank mismatch (%d vs %d)" name want have)

let strict2 (name : string) (t : Tensor.t) (i : int) (j : int) : int =
  let sh = t.shape in
  if Array.length sh <> 2 then rank_mismatch name 2 (Array.length sh);
  if i < 0 || i >= sh.(0) then out_of_bounds_dim name i sh.(0) 0;
  if j < 0 || j >= sh.(1) then out_of_bounds_dim name j sh.(1) 1;
  (i * sh.(1)) + j

let strict_n (name : string) (idx : iarg array) (st : state) (t : Tensor.t) :
    int =
  let rank = Array.length idx and sh = t.shape in
  if Array.length sh <> rank then rank_mismatch name rank (Array.length sh);
  let off = ref 0 in
  for d = 0 to rank - 1 do
    let i = iget idx.(d) st in
    if i < 0 || i >= sh.(d) then out_of_bounds_dim name i sh.(d) d;
    off := (!off * sh.(d)) + i
  done;
  !off

let[@inline] cell_offset (name : string) (c : cell) (st : state)
    (t : Tensor.t) : int =
  match c with
  | Cell1 a ->
      let i = iget a st in
      let sh = t.shape in
      if Array.length sh = 1 && (i < 0 || i >= sh.(0)) then
        out_of_bounds name i sh.(0);
      i
  | Cell2 (a, b) ->
      let i = iget a st in
      strict2 name t i (iget b st)
  | CellN idx -> strict_n name idx st t

(* ------------------------------------------------------------------ *)
(* Expression compilation                                               *)
(* ------------------------------------------------------------------ *)

let rec compile_expr (ctx : ctx) (scope : scope) (e : expr) : cexpr =
  match e with
  | Int_imm n -> CI (Const n)
  | Float_imm x -> CF (fun _ -> x)
  | Bool_imm b -> CB (fun _ -> b)
  | Evar x -> (
      match Imap.find_opt x.vid scope.sc_vars with
      | Some (Si s) -> CI (Slot s)
      | Some (Sf s) -> CF (fun st -> st.floats.(s))
      | Some (Sb s) -> CB (fun st -> st.bools.(s))
      | None -> cerr "unbound variable %s" x.vname)
  | Load (b, idx) -> compile_load ctx scope b idx
  | Binop (op, a, b) -> compile_binop ctx scope op a b
  | Unop (op, a) -> (
      let ca = compile_expr ctx scope a in
      match op with
      | Neg -> (
          match ca with
          | CI (Const n) -> CI (Const (-n))
          | CI x -> CI (Fn (fun st -> -iget x st))
          | c ->
              let f = as_f c in
              CF (fun st -> -.f st))
      | Not ->
          let f = as_b ca in
          CB (fun st -> not (f st))
      | Exp ->
          let f = as_f ca in
          CF (fun st -> Float.exp (f st))
      | Sqrt ->
          let f = as_f ca in
          CF (fun st -> Float.sqrt (f st))
      | Log ->
          let f = as_f ca in
          CF (fun st -> Float.log (f st))
      | Abs -> (
          match ca with
          | CI x -> CI (Fn (fun st -> abs (iget x st)))
          | c ->
              let f = as_f c in
              CF (fun st -> Float.abs (f st))))
  | Select (c, t, f) -> (
      let fc = as_b (compile_expr ctx scope c) in
      let ct = compile_expr ctx scope t and cf = compile_expr ctx scope f in
      match (ct, cf) with
      | CB ft, CB ff -> CB (fun st -> if fc st then ft st else ff st)
      | CI xt, CI xf ->
          CI (Fn (fun st -> if fc st then iget xt st else iget xf st))
      | _ ->
          let ft = as_f ct and ff = as_f cf in
          CF (fun st -> if fc st then ft st else ff st))
  | Cast (dt, a) ->
      let ca = compile_expr ctx scope a in
      if Dtype.is_float dt then
        let f = as_f ca in
        if dt = Dtype.F16 then CF (fun st -> Dtype.round_f16 (f st)) else CF f
      else if dt = Dtype.Bool then CB (as_b ca)
      else CI (as_i ca)
  | Bsearch bs ->
      let slot = buf_slot scope bs.bs_buf in
      let lo = as_i (compile_expr ctx scope bs.bs_lo)
      and hi = as_i (compile_expr ctx scope bs.bs_hi)
      and v = as_i (compile_expr ctx scope bs.bs_v) in
      if bs.bs_ub then
        CI
          (Fn
             (fun st ->
               Prims.upper_bound st.bufs.(slot) ~lo:(iget lo st)
                 ~hi:(iget hi st) (iget v st)))
      else
        CI
          (Fn
             (fun st ->
               Prims.binary_search st.bufs.(slot) ~lo:(iget lo st)
                 ~hi:(iget hi st) (iget v st)))

and compile_index ctx scope (idx : expr list) : iarg list =
  List.map (fun e -> as_i (compile_expr ctx scope e)) idx

and compile_load ctx scope (b : buffer) (idx : expr list) : cexpr =
  guard_flat b;
  let slot = buf_slot scope b in
  let dt = b.buf_dtype in
  match compile_index ctx scope idx with
  | [ i ] when Dtype.is_float dt ->
      CF (fun st -> load1_f st.bufs.(slot) (iget i st))
  | [ i ] when dt <> Dtype.Bool ->
      CI (Fn (fun st -> load1_i st.bufs.(slot) (iget i st)))
  | [ i; j ] when Dtype.is_float dt ->
      CF
        (fun st ->
          let t = st.bufs.(slot) in
          let o = off2_opt t (iget i st) (iget j st) in
          if o < 0 then 0.0 else read_f t o)
  | [ i; j ] when dt <> Dtype.Bool ->
      CI
        (Fn
           (fun st ->
             let t = st.bufs.(slot) in
             let o = off2_opt t (iget i st) (iget j st) in
             if o < 0 then 0 else read_i t o))
  | ix ->
      let off = offset_opt (Array.of_list ix) in
      if Dtype.is_float dt then
        CF
          (fun st ->
            let t = st.bufs.(slot) in
            let i = off st t in
            if i < 0 then 0.0 else read_f t i)
      else if dt = Dtype.Bool then
        CB
          (fun st ->
            let t = st.bufs.(slot) in
            let i = off st t in
            i >= 0 && read_i t i <> 0)
      else
        CI
          (Fn
             (fun st ->
               let t = st.bufs.(slot) in
               let i = off st t in
               if i < 0 then 0 else read_i t i))

and compile_cell ctx scope (idx : expr list) : cell =
  match compile_index ctx scope idx with
  | [ i ] -> Cell1 i
  | [ i; j ] -> Cell2 (i, j)
  | ix -> CellN (Array.of_list ix)

and compile_binop ctx scope op a b : cexpr =
  let ca = compile_expr ctx scope a and cb = compile_expr ctx scope b in
  match (op, ca, cb) with
  (* int/int stays integral; anything else computes in floats
     (Eval.arith).  [Stdlib.min]/[max] are [if a <= b then a else b] /
     [if a >= b then a else b], spelled out below at each operand type. *)
  | Add, CI x, CI y -> CI (add_i x y)
  | Sub, CI x, CI y -> CI (sub_i x y)
  | Mul, CI x, CI y -> CI (mul_i x y)
  | Div, CI x, CI (Const c) when c <> 0 -> CI (Fn (fun st -> iget x st / c))
  | Div, CI x, CI y ->
      CI
        (Fn
           (fun st ->
             let a = iget x st in
             let b = iget y st in
             if b = 0 then rerr "division by zero" else a / b))
  | Min, CI x, CI y ->
      CI
        (Fn
           (fun st ->
             let a = iget x st in
             let b = iget y st in
             if a <= b then a else b))
  | Max, CI x, CI y ->
      CI
        (Fn
           (fun st ->
             let a = iget x st in
             let b = iget y st in
             if a >= b then a else b))
  | (Add | Sub | Mul | Div | Min | Max), _, _ -> (
      let fa = as_f ca and fb = as_f cb in
      match op with
      | Add -> CF (fun st -> fa st +. fb st)
      | Sub -> CF (fun st -> fa st -. fb st)
      | Mul -> CF (fun st -> fa st *. fb st)
      | Div -> CF (fun st -> fa st /. fb st)
      | Min ->
          CF
            (fun st ->
              let a = fa st in
              let b = fb st in
              if a <= b then a else b)
      | _ ->
          CF
            (fun st ->
              let a = fa st in
              let b = fb st in
              if a >= b then a else b))
  | Floor_div, _, _ -> (
      match (as_i ca, as_i cb) with
      | x, Const c when c <> 0 ->
          CI
            (Fn
               (fun st ->
                 let a = iget x st in
                 if a >= 0 then a / c else -((-a + c - 1) / c)))
      | x, y ->
          CI
            (Fn
               (fun st ->
                 let a = iget x st in
                 let b = iget y st in
                 if b = 0 then rerr "floor_div by zero"
                 else if a >= 0 then a / b
                 else -((-a + b - 1) / b))))
  | Floor_mod, _, _ -> (
      match (as_i ca, as_i cb) with
      | x, Const c when c <> 0 ->
          CI
            (Fn
               (fun st ->
                 let r = iget x st mod c in
                 if r >= 0 then r else r + c))
      | x, y ->
          CI
            (Fn
               (fun st ->
                 let a = iget x st in
                 let b = iget y st in
                 if b = 0 then rerr "floor_mod by zero"
                 else
                   let r = a mod b in
                   if r >= 0 then r else r + b)))
  (* comparisons follow Eval.compare_values: int compare when both sides
     are integral, total float compare (NaN-ordered) otherwise *)
  | (Eq | Ne | Lt | Le | Gt | Ge), CI x, CI y -> (
      match op with
      | Eq -> CB (fun st -> iget x st = iget y st)
      | Ne -> CB (fun st -> iget x st <> iget y st)
      | Lt -> CB (fun st -> iget x st < iget y st)
      | Le -> CB (fun st -> iget x st <= iget y st)
      | Gt -> CB (fun st -> iget x st > iget y st)
      | _ -> CB (fun st -> iget x st >= iget y st))
  | (Eq | Ne | Lt | Le | Gt | Ge), _, _ -> (
      let fa = as_f ca and fb = as_f cb in
      match op with
      | Eq -> CB (fun st -> Float.compare (fa st) (fb st) = 0)
      | Ne -> CB (fun st -> Float.compare (fa st) (fb st) <> 0)
      | Lt -> CB (fun st -> Float.compare (fa st) (fb st) < 0)
      | Le -> CB (fun st -> Float.compare (fa st) (fb st) <= 0)
      | Gt -> CB (fun st -> Float.compare (fa st) (fb st) > 0)
      | _ -> CB (fun st -> Float.compare (fa st) (fb st) >= 0))
  | And, _, _ ->
      let fa = as_b ca and fb = as_b cb in
      (* both sides evaluate, as in the interpreter *)
      CB
        (fun st ->
          let x = fa st in
          let y = fb st in
          x && y)
  | Or, _, _ ->
      let fa = as_b ca and fb = as_b cb in
      CB
        (fun st ->
          let x = fa st in
          let y = fb st in
          x || y)

(* ------------------------------------------------------------------ *)
(* Statement compilation                                                *)
(* ------------------------------------------------------------------ *)

(* Fused accumulation stores (fusion peephole, DESIGN.md §3e): a float
   store of the shape [C[i] <- C[i] + rhs] re-reads the cell it is about to
   write.  Unfused, that costs two independent offset computations (one
   relaxed for the load, one strict for the store); fused, the strict offset
   is computed once and the cell updated in place.  Whenever the strict
   offset admits the store, the relaxed load offset would have resolved to
   the same flat position, so the fused form is bit-identical.  This is the
   one accumulate shape the kernels compile; every other store (int or bool
   buffers, the load on the right of the add) takes the plain path. *)
let compile_store_fused (ctx : ctx) (scope : scope) (b : buffer)
    (idx : expr list) (value : expr) (name : string) (cell : cell)
    (slot : int) : (state -> unit) option =
  match value with
  | Binop (Add, Load (b2, idx2), rhs)
    when Dtype.is_float b.buf_dtype && b2.buf_id = b.buf_id && idx2 = idx -> (
      ctx.n_fused <- ctx.n_fused + 1;
      let mul =
        match rhs with
        | Binop (Mul, x, y) -> (
            match (compile_expr ctx scope x, compile_expr ctx scope y) with
            | CI _, CI _ ->
                (* int*int product converts to float once, after the int
                   multiply: keep the generic compiled rhs *)
                None
            | cx, cy -> Some (as_f cx, as_f cy))
        | _ -> None
      in
      match mul with
      | Some (fx, fy) ->
          (* FMA shape: the multiply inlined into the store closure *)
          Some
            (fun st ->
              let t = st.bufs.(slot) in
              let i = cell_offset name cell st t in
              write_f t i (read_f t i +. (fx st *. fy st)))
      | None ->
          let fr = as_f (compile_expr ctx scope rhs) in
          Some
            (fun st ->
              let t = st.bufs.(slot) in
              let i = cell_offset name cell st t in
              write_f t i (read_f t i +. fr st)))
  | _ -> None

let rec compile_stmt (ctx : ctx) (scope : scope) (s : stmt) : state -> unit =
  match s with
  | Store (b, idx, value) -> (
      guard_flat b;
      let slot = buf_slot scope b in
      let name = Printf.sprintf "Engine: store %s" b.buf_name in
      let cell = compile_cell ctx scope idx in
      match compile_store_fused ctx scope b idx value name cell slot with
      | Some fused -> fused
      | None ->
          if Dtype.is_float b.buf_dtype then
            let fv = as_f (compile_expr ctx scope value) in
            fun st ->
              let t = st.bufs.(slot) in
              let i = cell_offset name cell st t in
              write_f t i (fv st)
          else
            let v = as_i (compile_expr ctx scope value) in
            fun st ->
              let t = st.bufs.(slot) in
              let i = cell_offset name cell st t in
              write_i t i (iget v st))
  | Seq ss -> (
      let fs = Array.of_list (List.map (compile_stmt ctx scope) ss) in
      match fs with
      | [||] -> fun _ -> ()
      | [| f |] -> f
      | [| f; g |] ->
          fun st ->
            f st;
            g st
      | _ ->
          let n = Array.length fs in
          fun st ->
            for i = 0 to n - 1 do
              fs.(i) st
            done)
  | For { for_var; extent; kind; body } -> (
      let ext = as_i (compile_expr ctx scope extent) in
      let slot = fresh_i ctx in
      (* Parallel eligibility is decided against the ORIGINAL body: hoisting
         below replaces index arithmetic the disjointness proof needs as
         witnesses. *)
      let disjoint =
        match kind with
        | Thread_bind (Block_x | Block_y | Block_z) when not ctx.in_parallel ->
            Some (Analysis.loop_disjointness for_var body)
        | _ -> None
      in
      (* Fusion peephole (DESIGN.md §3e): loop-invariant int index arithmetic
         is evaluated by a prologue once per loop entry and read from a slot
         in the body.  Candidates are all extracted from (and substituted
         into) the original body in one pass, and compiled in the enclosing
         scope.  Outside a parallel region the rewrite never descends into
         nested blockIdx-bound loops: their disjointness analysis (and their
         own peephole, at their level) must see original IR. *)
      let into_block_binds = ctx.in_parallel in
      let ok_in_scope (e : expr) =
        List.for_all
          (fun (v : var) ->
            v.vid = for_var.vid || Imap.mem v.vid scope.sc_vars)
          (Analysis.free_vars_expr e)
        && List.for_all
             (fun (b : buffer) ->
               (not (is_sparse_buffer b)) && Imap.mem b.buf_id scope.sc_bufs)
             (Analysis.buffers_of_expr e)
      in
      let invs =
        Analysis.invariant_of_loop ~into_block_binds for_var body
        |> List.filter ok_in_scope
        |> List.filter_map (fun e ->
               match compile_expr ctx scope e with
               | CI a ->
                   ctx.n_hoisted <- ctx.n_hoisted + 1;
                   Some (e, Builder.var "inv$off", fresh_i ctx, a)
               | CF _ | CB _ -> None)
      in
      let subs = List.map (fun (e, hv, _, _) -> (e, Evar hv)) invs in
      let body =
        if subs = [] then body
        else Analysis.replace_exprs ~into_block_binds subs body
      in
      let body_scope =
        List.fold_left
          (fun sc (_, hv, s, _) -> bind_var sc hv (Si s))
          (bind_var scope for_var (Si slot))
          invs
      in
      let hoisted = Array.of_list (List.map (fun (_, _, s, a) -> (s, a)) invs) in
      let run_prologue st =
        for k = 0 to Array.length hoisted - 1 do
          let s, a = hoisted.(k) in
          st.ints.(s) <- iget a st
        done
      in
      (* runs iterations [lo, hi): the whole loop when serial, one
         scheduler chunk when parallel *)
      let iterate fbody st lo hi =
        let a = st.ints in
        for i = lo to hi - 1 do
          a.(slot) <- i;
          fbody st
        done
      in
      match disjoint with
      | Some (Analysis.Par ws) ->
          (* iterations provably write disjoint buffer regions: spread them
             across domains, each running the same compiled body against
             its own state replica and writing the shared output tensors in
             place.  Work is handed out in contiguous chunks by the
             work-stealing scheduler ([run_stealing]) so uneven iteration
             costs (e.g. power-law row lengths) balance dynamically.  The
             decision to actually go parallel is made per run, from the
             current [num_domains].  The prologue runs on the root state
             BEFORE cloning, so hoisted slots propagate into every
             per-domain replica. *)
          (* Gather witnesses name the map buffers whose runtime facts
             (Tensor.Facts) decide per run whether the scatter is safe; they
             resolve their buffer slots now. *)
          let gathers =
            List.sort_uniq compare
              (List.filter_map
                 (fun (_, w) ->
                   match w with
                   | Analysis.W_gather { map; coeff; _ } ->
                       Some (buf_slot scope map, coeff)
                   | Analysis.W_direct _ -> None)
                 ws)
          in
          ctx.in_parallel <- true;
          let fbody = compile_stmt ctx body_scope body in
          ctx.in_parallel <- false;
          let par = ctx.par_runs in
          let fellback = ctx.fallback_runs in
          let reasons = ctx.reasons in
          fun st ->
            let n = iget ext st in
            run_prologue st;
            let lease = !(Domain.DLS.get current_lease) in
            let d = min (loop_budget lease) n in
            if d <= 1 then iterate fbody st 0 n
            else begin
              (* runtime facts for every gather map: injective maps scatter
                 to all-distinct rows (chunk anywhere); non-decreasing maps
                 need chunk cuts aligned to strict increases; anything else
                 forces the serial fallback for this run *)
              let monotone = ref [] and provable = ref true in
              List.iter
                (fun (slot, c) ->
                  let mt = st.bufs.(slot) in
                  if Tensor.Facts.holds mt Tensor.Facts.Injective then ()
                  else if Tensor.Facts.holds mt Tensor.Facts.Monotone_nd then
                    monotone := (mt, c) :: !monotone
                  else provable := false)
                gathers;
              if not !provable then begin
                incr fellback;
                Atomic.incr total_fallback_runs;
                reasons.(0) <- reasons.(0) + 1;
                Atomic.incr total_reasons.(0);
                iterate fbody st 0 n
              end
              else begin
                incr par;
                Atomic.incr total_par_runs;
                let states =
                  Array.init d (fun w -> if w = 0 then st else clone_state st)
                in
                let grain = chunk_grain ~n ~domains:d in
                (* scheduler units: monotone-gather segments, so every cut
                   keeps an output row on one domain; otherwise iterations
                   (spans of several when n would overflow a deque) *)
                let units, grain_u, cut =
                  match !monotone with
                  | [] ->
                      let span = (n + steal_max_units - 1) / steal_max_units in
                      ( (n + span - 1) / span,
                        max 1 (grain / span),
                        fun k -> min n (k * span) )
                  | maps ->
                      let b = aligned_bounds ~n ~grain maps in
                      (Array.length b - 1, 1, Array.get b)
                in
                run_stealing ~lease ~d ~units ~grain_u
                  ~run_chunk:(fun w k0 k1 ->
                    iterate fbody states.(w) (cut k0) (cut k1))
              end
            end
      | Some (Analysis.Serial reason) ->
          (* unprovable write-disjointness: serial fallback, counted (with
             the analysis' reason) so tests and the bench can see why — but
             only when the budget would have run it parallel: with one
             domain the Par path above runs serially uncounted too *)
          let fbody = compile_stmt ctx body_scope body in
          let fellback = ctx.fallback_runs in
          let reasons = ctx.reasons in
          let ri = reason_index reason in
          fun st ->
            let n = iget ext st in
            if min (loop_budget !(Domain.DLS.get current_lease)) n > 1 then begin
              incr fellback;
              Atomic.incr total_fallback_runs;
              reasons.(ri) <- reasons.(ri) + 1;
              Atomic.incr total_reasons.(ri)
            end;
            run_prologue st;
            iterate fbody st 0 n
      | None ->
          (* every other loop kind (and nested thread bindings) executes
             serially, as in the interpreter; the body is compiled once and
             invoked per iteration *)
          let fbody = compile_stmt ctx body_scope body in
          fun st ->
            let n = iget ext st in
            run_prologue st;
            iterate fbody st 0 n)
  | If (c, t, f) -> (
      let fc = as_b (compile_expr ctx scope c) in
      let ft = compile_stmt ctx scope t in
      match f with
      | None -> fun st -> if fc st then ft st
      | Some f ->
          let ff = compile_stmt ctx scope f in
          fun st -> if fc st then ft st else ff st)
  | Let_stmt (x, value, body) -> (
      match compile_expr ctx scope value with
      | CI a ->
          let slot = fresh_i ctx in
          let fbody = compile_stmt ctx (bind_var scope x (Si slot)) body in
          fun st ->
            st.ints.(slot) <- iget a st;
            fbody st
      | CF f ->
          let slot = fresh_f ctx in
          let fbody = compile_stmt ctx (bind_var scope x (Sf slot)) body in
          fun st ->
            st.floats.(slot) <- f st;
            fbody st
      | CB f ->
          let slot = fresh_b ctx in
          let fbody = compile_stmt ctx (bind_var scope x (Sb slot)) body in
          fun st ->
            st.bools.(slot) <- f st;
            fbody st)
  | Block_stmt blk ->
      (* every bind evaluates in the enclosing scope (as in the interpreter,
         which computes all values before installing any: the binds cannot
         see the fresh slots); init runs when all reduction iters sit at the
         start of their domain.  Int binds — the common case — copy their
         leaves inline and their reduction checks read the slots directly;
         float and bool binds keep a closure each. *)
      let scope', ibinds, obinds, ichks, ochks =
        List.fold_left
          (fun (sc, ib, ob, ic, oc) (bi : block_iter) ->
            let reduce = bi.bi_kind = Reduce in
            match compile_expr ctx scope bi.bi_bind with
            | CI a ->
                let s = fresh_i ctx in
                ( bind_var sc bi.bi_var (Si s),
                  (s, a) :: ib,
                  ob,
                  (if reduce then s :: ic else ic),
                  oc )
            | CF f ->
                let s = fresh_f ctx in
                (* the start of every iter domain is 0: compare the float
                   value against it exactly (truncating through
                   int_of_float would treat any bind in (-1, 1), e.g. 0.5,
                   as the domain start and re-fire init mid-reduction) *)
                ( bind_var sc bi.bi_var (Sf s),
                  ib,
                  (fun st -> st.floats.(s) <- f st) :: ob,
                  ic,
                  if reduce then (fun (st : state) -> st.floats.(s) = 0.0) :: oc
                  else oc )
            | CB f ->
                let s = fresh_b ctx in
                ( bind_var sc bi.bi_var (Sb s),
                  ib,
                  (fun st -> st.bools.(s) <- f st) :: ob,
                  ic,
                  if reduce then (fun (st : state) -> not st.bools.(s)) :: oc
                  else oc ))
          (scope, [], [], [], []) blk.blk_iters
      in
      let idst = Array.of_list (List.rev_map fst ibinds) in
      let isrc = Array.of_list (List.rev_map snd ibinds) in
      let oset = Array.of_list (List.rev obinds) in
      let ichk = Array.of_list (List.rev ichks) in
      let ochk = Array.of_list (List.rev ochks) in
      let ni = Array.length idst and no = Array.length oset in
      let nic = Array.length ichk and noc = Array.length ochk in
      let bind st =
        let ints = st.ints in
        for k = 0 to ni - 1 do
          ints.(idst.(k)) <- iget isrc.(k) st
        done;
        for k = 0 to no - 1 do
          oset.(k) st
        done
      in
      let at_init st =
        let ints = st.ints in
        let ok = ref true in
        for k = 0 to nic - 1 do
          if ints.(ichk.(k)) <> 0 then ok := false
        done;
        for k = 0 to noc - 1 do
          if not (ochk.(k) st) then ok := false
        done;
        !ok
      in
      let fbody = compile_stmt ctx scope' blk.blk_body in
      (match Option.map (compile_stmt ctx scope') blk.blk_init with
      | None ->
          fun st ->
            bind st;
            fbody st
      | Some finit ->
          fun st ->
            bind st;
            if at_init st then finit st;
            fbody st)
  | Alloc (b, body) ->
      let dims =
        List.map
          (fun e ->
            match Analysis.const_int_opt e with
            | Some n -> Const n
            | None -> as_i (compile_expr ctx scope e))
          b.buf_shape
      in
      let slot = fresh_buf ctx in
      let fbody = compile_stmt ctx (bind_buf scope b slot) body in
      let dt = b.buf_dtype in
      let consts = List.filter_map (function Const n -> Some n | _ -> None) dims in
      if List.length consts = List.length dims then fun st ->
        st.bufs.(slot) <- Tensor.create dt consts;
        fbody st
      else
        let dims = Array.of_list dims in
        fun st ->
          let shape = Array.to_list (Array.map (fun a -> iget a st) dims) in
          st.bufs.(slot) <- Tensor.create dt shape;
          fbody st
  | Eval e -> (
      match compile_expr ctx scope e with
      | CI a -> fun st -> ignore (iget a st)
      | CF f -> fun st -> ignore (f st)
      | CB f -> fun st -> ignore (f st))
  | Mma_sync m ->
      let operand (o : mma_operand) =
        ( buf_slot scope o.op_buf,
          Printf.sprintf "Engine: mma %s" o.op_buf.buf_name,
          compile_cell ctx scope o.op_origin,
          as_i (compile_expr ctx scope o.op_ld) )
      in
      let sa, na, ca, lda = operand m.mma_a in
      let sb, nb, cb, ldb = operand m.mma_b in
      let sc, nc, cc, ldc = operand m.mma_c in
      let mm = m.mma_m and nn = m.mma_n and kk = m.mma_k in
      fun st ->
        let ta = st.bufs.(sa) and tb = st.bufs.(sb) and tc = st.bufs.(sc) in
        Prims.mma ~m:mm ~n:nn ~k:kk
          (ta, cell_offset na ca st ta, iget lda st)
          (tb, cell_offset nb cb st tb, iget ldb st)
          (tc, cell_offset nc cc st tc, iget ldc st)
  | Sp_iter_stmt sp ->
      cerr "sparse iteration %s reached codegen: lower it first" sp.sp_name

(* ------------------------------------------------------------------ *)
(* Compiled artifacts                                                   *)
(* ------------------------------------------------------------------ *)

type compiled = {
  c_run : Tensor.t list -> unit;
  c_par_runs : int ref; (* executions that took the domains-parallel path *)
  c_fallback_runs : int ref; (* serial fallbacks on unprovable disjointness *)
  c_reasons : int array; (* fallbacks by reason, indexed by [reason_index] *)
  (* fusion peephole sites, fixed at compile time *)
  c_fused_sites : int; (* stores fused into load-accumulate closures *)
  c_hoisted_sites : int; (* loop-invariant index exprs moved to prologues *)
}

let par_runs (c : compiled) = !(c.c_par_runs)
let fallback_runs (c : compiled) = !(c.c_fallback_runs)

let fallback_reasons (c : compiled) : (string * int) list =
  Array.to_list (Array.mapi (fun i n -> (reason_labels.(i), n)) c.c_reasons)

let parallel_totals () =
  (Atomic.get total_par_runs, Atomic.get total_fallback_runs, 0)

(* Every parallel run clones its worker replicas, so the replica count is
   the parallel-run count. *)
let replica_builds () = Atomic.get total_par_runs

let reason_totals () : (string * int) list =
  Array.to_list
    (Array.mapi
       (fun i n -> (reason_labels.(i), Atomic.get n))
       total_reasons)

(* One-line "label=n" rendering of the nonzero reason counters ("-" when all
   are zero); shared by the CLI, the bench tables and Pipeline.report. *)
let reasons_to_string (rs : (string * int) list) : string =
  match List.filter (fun (_, n) -> n > 0) rs with
  | [] -> "-"
  | nz ->
      String.concat ","
        (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) nz)
let fused_sites (c : compiled) = c.c_fused_sites
let hoisted_sites (c : compiled) = c.c_hoisted_sites

let compile_count = ref 0

(* Every compile registers its per-artifact run counters here so [reset]
   can zero them even when the artifact outlives the memo — the pipeline
   compile cache re-[register]s cached artifacts after a reset, and stale
   par/fallback tallies from a prior tenant must not leak into the next
   one's serve stats.  The registry grows by a few words per codegen run
   for the process lifetime, which is noise next to the artifacts
   themselves. *)
let counter_registry : (int ref * int ref * int array) list ref = ref []

(* Process-wide fusion-site totals across every [compile] since [reset]
   (Pipeline.report surfaces them next to the pass table).  The third slot
   of [fusion_totals] is always 0; it stays only for perfbench's
   linear-sites row. *)
let total_fused = ref 0
let total_hoisted = ref 0
let fusion_totals () = (!total_fused, !total_hoisted, 0)

let compile (fn : func) : compiled =
  incr compile_count;
  let ctx =
    {
      n_i = 0;
      n_f = 0;
      n_b = 0;
      n_bufs = 0;
      in_parallel = false;
      par_runs = ref 0;
      fallback_runs = ref 0;
      reasons = Array.make (Array.length reason_labels) 0;
      n_fused = 0;
      n_hoisted = 0;
    }
  in
  let scope =
    List.fold_left
      (fun sc b -> bind_buf sc b (fresh_buf ctx))
      empty_scope fn.fn_params
  in
  let body = compile_stmt ctx scope fn.fn_body in
  let n_params = List.length fn.fn_params in
  let ni = ctx.n_i and nf = ctx.n_f and nb = ctx.n_b and nbufs = ctx.n_bufs in
  let fname = fn.fn_name in
  (* Each execution allocates its own root state, so concurrent drivers of
     one artifact share nothing but the tensors they pass. *)
  let run (args : Tensor.t list) : unit =
    if List.length args <> n_params then
      rerr "run %s: expected %d arguments, got %d" fname n_params
        (List.length args);
    let st =
      {
        ints = Array.make (max ni 1) 0;
        floats = Array.make (max nf 1) 0.0;
        bools = Array.make (max nb 1) false;
        bufs = Array.make (max nbufs 1) (Lazy.force null_tensor);
      }
    in
    List.iteri (fun i t -> st.bufs.(i) <- t) args;
    body st
  in
  total_fused := !total_fused + ctx.n_fused;
  total_hoisted := !total_hoisted + ctx.n_hoisted;
  counter_registry :=
    (ctx.par_runs, ctx.fallback_runs, ctx.reasons) :: !counter_registry;
  {
    c_run = run;
    c_par_runs = ctx.par_runs;
    c_fallback_runs = ctx.fallback_runs;
    c_reasons = ctx.reasons;
    c_fused_sites = ctx.n_fused;
    c_hoisted_sites = ctx.n_hoisted;
  }

let run (c : compiled) (args : Tensor.t list) : unit = c.c_run args

(* ------------------------------------------------------------------ *)
(* Artifact memo + engine selection                                     *)
(* ------------------------------------------------------------------ *)

type kind = Interp | Compiled

let kind_to_string = function Interp -> "interp" | Compiled -> "compiled"

let kind_of_string = function
  | "interp" | "eval" -> Interp
  | "compiled" | "engine" -> Compiled
  | s -> invalid_arg (Printf.sprintf "Engine.kind_of_string: %S" s)

let default_kind : kind ref = ref Compiled

(* Keyed on physical identity: the pipeline's compile cache returns the same
   func value for identical (stage-I func, schedule trace) keys, so a warm
   build or tuner search lands here without re-running codegen.  Structural
   [Hashtbl.hash] is depth-limited, hence cheap even on large IR. *)
module Memo = Hashtbl.Make (struct
  type t = Ir.func

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo : compiled Memo.t = Memo.create 64

let artifact (fn : func) : compiled =
  match Memo.find_opt memo fn with
  | Some c -> c
  | None ->
      let c = compile fn in
      Memo.add memo fn c;
      c

(* Seed the memo with an artifact compiled earlier (the pipeline compile
   cache stores artifacts alongside lowered IR and re-installs them on a
   hit, so even an [Engine.reset] does not force recompilation of cached
   kernels). *)
let register (fn : func) (c : compiled) : unit =
  if not (Memo.mem memo fn) then Memo.add memo fn c

(* Drop a memoized artifact (compile-cache eviction calls this so the memo
   cannot outgrow the cache that feeds it). *)
let unregister (fn : func) : unit = Memo.remove memo fn

let compiles () = !compile_count
let memo_size () = Memo.length memo

let reset () =
  Memo.reset memo;
  compile_count := 0;
  total_fused := 0;
  total_hoisted := 0;
  Atomic.set total_par_runs 0;
  Atomic.set total_fallback_runs 0;
  Atomic.set total_stolen_chunks 0;
  Array.iter (fun a -> Atomic.set a 0) total_reasons;
  (* per-artifact counters survive the memo (the pipeline cache re-registers
     its artifacts after a reset), so zero them through the registry *)
  List.iter
    (fun (p, f, rs) ->
      p := 0;
      f := 0;
      Array.fill rs 0 (Array.length rs) 0)
    !counter_registry

let with_num_domains (d : int option) (f : unit -> 'a) : 'a =
  match d with
  | None -> f ()
  | Some d ->
      let saved = !num_domains_ref in
      set_num_domains d;
      Fun.protect ~finally:(fun () -> num_domains_ref := saved) f

let execute ?kind ?num_domains (fn : func) (args : Tensor.t list) : unit =
  with_num_domains num_domains (fun () ->
      match (match kind with Some k -> k | None -> !default_kind) with
      | Interp -> Eval.run_func fn args
      | Compiled -> (artifact fn).c_run args)
