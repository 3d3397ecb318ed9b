(** Compiled execution engine for Stage III programs.

    An ahead-of-time closure compiler: a verified flat func is translated
    once into nested native OCaml closures with variables resolved to
    pre-allocated slot arrays, dtype dispatch monomorphized into unboxed
    int/float paths, int leaves folded into their parent closures, and
    buffer accesses specialized on dtype and index arity, then invoked per
    execution.  Semantics are exactly those
    of the tree-walking interpreter {!Tir.Eval} (enforced by the differential
    harness in test/test_engine.ml); the win is throughput.  See DESIGN.md
    §3c. *)

exception Compile_error of string
(** Static failure: a sparse construct that should have been lowered away, or
    an unbound variable/buffer.  Runtime failures (division by zero, argument
    arity, out-of-bounds stores) raise the same exceptions as the
    interpreter. *)

(** {1 Compiled artifacts} *)

type compiled
(** A Stage III func compiled to closures, ready to run any number of times
    against different argument tensors. *)

val compile : Tir.Ir.func -> compiled
(** Translate a flat func to closures.  Raises {!Compile_error} on sparse
    constructs or unbound names; performs no tensor work. *)

val run : compiled -> Tir.Tensor.t list -> unit
(** Execute against tensors for each parameter buffer, in order.  Raises
    [Tir.Eval.Eval_error] on arity mismatch, like [Tir.Eval.run_func]. *)

val par_runs : compiled -> int
(** Executions of this artifact's thread-bound outer loops that took the
    domains-parallel path (disjointness proven, [num_domains () > 1]). *)

val fallback_runs : compiled -> int
(** Executions of thread-bound outer loops forced serial because
    write-disjointness could not be proven. *)

val fallback_reasons : compiled -> (string * int) list
(** {!fallback_runs} broken down by {!Tir.Analysis.fail_reason} label
    (["indirect"], ["bsearch"], ["non-linear"], ["no-witness"]), in that
    fixed order.  Runtime tensor-fact failures on a gather witness count
    under ["indirect"]. *)

val reasons_to_string : (string * int) list -> string
(** Compact ["label=n,..."] rendering of the nonzero counters; ["-"] when
    every counter is zero. *)

(** {1 Fusion peephole}

    Codegen always applies two rewrites, both bit-identical to the plain
    closures (see DESIGN.md §3e): a float accumulating store
    [C[i] <- C[i] + rhs] fuses into a single closure computing one strict
    offset, inlining [rhs] FMA-style when it is a multiply with a float
    factor; and loop-invariant int index arithmetic
    ({!Tir.Analysis.invariant_of_loop}) is pre-evaluated into slots once per
    loop entry.  Every other store and invariant stays on the plain path. *)

val fused_sites : compiled -> int
(** Stores fused into single load-accumulate closures, per artifact. *)

val hoisted_sites : compiled -> int
(** Loop-invariant index expressions hoisted into loop prologues. *)

val fusion_totals : unit -> int * int * int
(** Process-wide [(fused, hoisted, 0)] site totals across every compile
    since the last {!reset}.  The third slot is always [0]: it stays only
    for perfbench's linear-sites row, which reads it. *)

val parallel_totals : unit -> int * int * int
(** Process-wide [(par_runs, fallback_runs, 0)] across every artifact since
    the last {!reset}.  The third slot is always [0]: it stays only for
    perfbench's tiled-runs row, which reads it. *)

val reason_totals : unit -> (string * int) list
(** Process-wide fallback counts by reason label, same order as
    {!fallback_reasons}. *)

(** {1 Domains-parallel execution}

    Outer [For] loops bound to [Block_x]/[Block_y]/[Block_z] whose bodies
    earn a [Par] verdict from {!Tir.Analysis.loop_disjointness} run their
    iterations across a fixed pool of OCaml domains: each domain gets a
    private copy of the slot arrays (tensors stay shared — the witnesses
    guarantee write regions are disjoint, so every worker writes the
    shared outputs in place) and runs contiguous iteration chunks handed
    out by one work-stealing scheduler: each worker owns a contiguous
    range of units, takes {!chunk_grain}-sized chunks off its low end, and
    steals the upper half of another worker's range when its own runs dry,
    so uneven per-iteration costs (variable-nnz rows, hyb buckets) balance
    at run time.  Units are iterations, or monotone-map segments for
    non-decreasing gathers, so no output row straddles two workers and
    outputs stay bit-identical to serial execution.

    The engine keeps no state between runs: each execution allocates its
    own root slot arrays and each parallel run clones them for its worker
    domains, so leased drivers may execute the same artifact concurrently.

    Gather witnesses ([store C[.. map[i] ..]]) are resolved per run against
    the bound map tensor's facts ({!Tir.Tensor.Facts}): injective maps chunk
    anywhere; merely non-decreasing maps (hyb's widest bucket repeats a row
    across its split pseudo-rows) get chunk cuts aligned to strict increases
    of the map so no output row straddles two domains; unprovable maps fall
    back to serial for that run, counted under the ["indirect"] reason.

    Unprovable loops fall back to serial execution.  The domain count is read
    per run, so memoized artifacts remain valid when the knob changes. *)

val chunk_grain : n:int -> domains:int -> int
(** Iterations per chunk a worker takes for an [n]-iteration loop across
    [domains] domains (also the length monotone-gather segments are cut
    at): ceil(n / (4 * domains)) — at most [4 * domains] chunks, never a
    degenerate 1-iteration flood at small [n].  Always at least [1]. *)

val num_domains : unit -> int
(** Current domain budget for parallel loops; [1] disables parallelism.
    Initially [Domain.recommended_domain_count ()]. *)

val set_num_domains : int -> unit
(** Set the domain budget.  This is the single clamp in the stack: any
    value [<= 0] uniformly means "auto" ([Domain.recommended_domain_count]),
    and the CLI [--domains], bench [--domains=] and [?num_domains] all pass
    their value through here unchanged.  Worker domains are spawned lazily
    on first parallel run and kept for the process lifetime. *)

val pool_size : unit -> int
(** Worker domains spawned so far (excludes the calling domain). *)

val replica_builds : unit -> int
(** Process-wide parallel runs since the last {!reset}: every parallel run
    builds its worker replicas.  Stays only for perfbench's
    [engine.replica_builds] row. *)

val stolen_chunks : unit -> int
(** Steal transfers performed by the chunk scheduler since the last
    {!reset}, across parallel loops and {!parallel_tasks} (0 when no
    worker ran dry before the others or no parallelism ran). *)

(** {1 Parallel construction tasks}

    Format constructors ({!Formats.Descriptor.build}, [Hyb.of_csr]) spread
    independent construction tasks over the same domain pool the kernel
    dispatch uses.  The entry points compose with leases exactly like
    parallel loops: a leased driver's tasks run on its reserved workers
    only, an unleased caller assumes the whole pool, and a task body that
    itself calls [parallel_tasks] runs its tasks serially (the pool is
    already occupied one level up). *)

val parallel_tasks : int -> (int -> unit) -> unit
(** [parallel_tasks k f] runs [f 0 .. f (k-1)] to completion, spread over
    the current domain budget as [k] one-task units of the same
    work-stealing scheduler the parallel loops use.  Tasks must be
    independent; no ordering is guaranteed between them.  The first
    exception any task raises is re-raised once every domain has left the
    call; tasks not yet started by then may be skipped.  Runs serially,
    inline, when the budget or [k] is at most 1 or when called from inside
    a task. *)

val parallel_width : unit -> int
(** The domain budget a {!parallel_tasks} call on this domain would spread
    over: the lease width for leased drivers, {!num_domains} otherwise, and
    [1] inside the tasks of a call that spread (tasks run inline keep the
    caller's width).  Lets construction code size its fan-out (and
    skip slicing work that would not parallelize). *)

(** {1 Domain leases}

    The serving layer ({!module:Serve}) admits concurrent independent
    requests by giving each one an exclusive reservation of a disjoint
    subset of the worker pool: a lease of width [w] covers [w - 1] pool
    workers plus the leasing driver's own domain.  The sum of outstanding
    widths never exceeds {!num_domains}.  A driver wraps its request
    execution in {!run_leased}; parallel loops run on that domain are then
    capped at the lease width and dispatched onto the leased workers only,
    so two leased regions can be open at once.  Unleased parallel regions
    (the main domain's ordinary executes) still assume exclusive use of the
    whole pool and must not overlap with active leases. *)

type lease
(** An exclusive reservation of part of the domain budget. *)

val try_lease : width:int -> lease option
(** Reserve [width] domains' worth of parallel capacity ([width - 1] pool
    workers; clamped below at 1).  [None] when the outstanding leases plus
    [width] would exceed the {!num_domains} budget.  Never blocks. *)

val release : lease -> unit
(** Return the lease's workers to the free set.  Idempotent.  The lease must
    no longer be current on any domain. *)

val lease_width : lease -> int

val run_leased : lease -> (unit -> 'a) -> 'a
(** Run [f] with the lease current for the calling domain: parallel loops
    inside use at most [lease_width] domains, steered onto the leased
    workers.  Raises [Invalid_argument] on a released lease. *)

val leases_in_use : unit -> int
(** Outstanding (unreleased) leases. *)

(** {1 Engine selection and memoized dispatch} *)

type kind = Interp | Compiled

val kind_to_string : kind -> string

val kind_of_string : string -> kind
(** Accepts ["interp"]/["eval"] and ["compiled"]/["engine"]; raises
    [Invalid_argument] otherwise. *)

val default_kind : kind ref
(** Engine used when callers do not pass [?kind]/[?engine] explicitly.
    Defaults to [Compiled]; the [--engine] CLI flags set it. *)

val artifact : Tir.Ir.func -> compiled
(** Memoized {!compile}: keyed on the func's physical identity, so the
    pipeline compile cache returning the same func value means a warm build
    or tuner search compiles nothing. *)

val register : Tir.Ir.func -> compiled -> unit
(** Seed the memo with an artifact compiled earlier (no-op if the func is
    already present).  Used by the pipeline compile cache on a hit. *)

val unregister : Tir.Ir.func -> unit
(** Drop the memoized artifact for a func, if any.  The pipeline compile
    cache calls this when it evicts an entry, keeping the memo bounded. *)

val execute :
  ?kind:kind -> ?num_domains:int -> Tir.Ir.func -> Tir.Tensor.t list -> unit
(** Run a func through the selected engine ([!default_kind] when [?kind] is
    omitted): [Interp] dispatches to [Tir.Eval.run_func], [Compiled] to the
    memoized artifact.  [?num_domains] overrides the domain budget for this
    run only. *)

val compiles : unit -> int
(** Number of codegen runs since the last {!reset} (memo hits excluded). *)

val memo_size : unit -> int

val reset : unit -> unit
(** Drop memoized artifacts and zero every counter: the compile counter,
    the process-wide run/fusion totals, and the per-artifact run counters of
    every artifact ever compiled — including artifacts the pipeline cache
    later re-{!register}s, so a fresh serving window starts from zero. *)
