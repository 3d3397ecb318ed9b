(* Schedule fuzzing: random sequences of schedule primitives applied to a
   compiled kernel must either be rejected with a Schedule_error or preserve
   the numerical result exactly.  This is the semantic contract of
   "composable transformations": schedules never change what is computed.

   Every case is also a differential test of the two execution engines: the
   randomly scheduled func runs under both the tree-walking interpreter and
   the compiled closure engine, and the outputs must agree element-wise (the
   engines execute the identical flat IR, so they must produce bit-identical
   floats) as well as match the dense host reference. *)

open Tir
open Formats

let random_csr (g : Workloads.Rng.t) : Csr.t =
  let rows = 3 + Workloads.Rng.int g 20 in
  let cols = 3 + Workloads.Rng.int g 20 in
  let nnz = 1 + Workloads.Rng.int g (rows * cols / 2) in
  let entries =
    List.init nnz (fun _ ->
        ( Workloads.Rng.int g rows,
          Workloads.Rng.int g cols,
          float_of_int (1 + Workloads.Rng.int g 9) /. 2.0 ))
  in
  Csr.of_coo (Coo.of_entries ~rows ~cols entries)

(* One random schedule action; may raise Schedule_error (fine).  [block] is
   the kernel's block name (cache_write needs it). *)
let random_action ~(block : string) (g : Workloads.Rng.t) (s : Schedule.t) :
    unit =
  let loops = Schedule.loop_names s in
  let pick l = List.nth l (Workloads.Rng.int g (List.length l)) in
  if loops = [] then ()
  else
    match Workloads.Rng.int g 6 with
    | 0 ->
        let factor = pick [ 2; 3; 4 ] in
        ignore (Schedule.split s ~loop:(pick loops) ~factor)
    | 1 -> Schedule.unroll s ~loop:(pick loops)
    | 2 -> (
        (* try to reorder a random pair of adjacent-ish loops *)
        match loops with
        | a :: b :: _ -> Schedule.reorder s ~loops:[ b; a ]
        | _ -> ())
    | 3 ->
        (* Block_x binds make the loop a candidate for the domains-parallel
           executor; Thread_y binds stay serial.  Both must be semantically
           invisible. *)
        Schedule.bind s ~loop:(pick loops) (pick [ Ir.Thread_y; Ir.Block_x ])
    | 4 -> Schedule.vectorize s ~loop:(pick loops)
    | _ -> ignore (Schedule.cache_write s ~block ())

(* Apply 1-5 random actions to a freshly lowered func and return it. *)
let random_schedule ~block (g : Workloads.Rng.t) (fn : Ir.func) : Ir.func =
  let s = Schedule.create fn in
  let actions = 1 + Workloads.Rng.int g 5 in
  for _ = 1 to actions do
    try random_action ~block g s with
    | Schedule.Schedule_error _ -> ()
    | Invalid_argument _ -> ()
  done;
  Schedule.get s

let max_err (reference : float array) (got : float array) : float =
  let worst = ref 0.0 in
  Array.iteri
    (fun i r -> worst := Float.max !worst (Float.abs (r -. got.(i))))
    reference;
  !worst

(* Run [fn] under both engines against fresh bindings and check (a) the two
   engines agree bit-for-bit and (b) both match the host reference.  The
   compiled engine runs twice: serially and with a 4-domain budget (so any
   blockIdx-bound loop the analysis proves disjoint actually takes the
   parallel path). *)
let differential (fn : Ir.func) ~(bind : unit -> Gpusim.bindings * Tensor.t)
    ~(reference : float array) : bool =
  let run ?num_domains engine =
    let bindings, out = bind () in
    Gpusim.execute ~engine ?num_domains fn bindings;
    Tensor.to_float_array out
  in
  let interp = run Engine.Interp in
  let compiled = run ~num_domains:1 Engine.Compiled in
  let parallel = run ~num_domains:4 Engine.Compiled in
  interp = compiled
  && compiled = parallel
  && max_err reference interp < 1e-5
  && max_err reference compiled < 1e-5

let spmm_case (seed : int) : bool =
  let g = Workloads.Rng.create seed in
  let a = random_csr g in
  let feat = 4 in
  let x = Dense.random ~seed:(seed + 1) a.Csr.cols feat in
  let fn =
    random_schedule ~block:"spmm" g
      (Sparse_ir.compile (Kernels.Spmm.stage1 a ~feat))
  in
  differential fn
    ~bind:(fun () -> Kernels.Spmm.base_bindings a x ~feat)
    ~reference:(Csr.spmm a x).Dense.data

let sddmm_case (seed : int) : bool =
  let g = Workloads.Rng.create seed in
  let a = random_csr g in
  let feat = 4 in
  let x = Dense.random ~seed:(seed + 1) a.Csr.rows feat in
  let y = Dense.random ~seed:(seed + 2) feat a.Csr.cols in
  let fn =
    random_schedule ~block:"sddmm" g
      (Sparse_ir.compile (Kernels.Sddmm.stage1 a ~feat))
  in
  differential fn
    ~bind:(fun () -> Kernels.Sddmm.base_bindings a x y)
    ~reference:(Csr.sddmm a x y)

let fuzz_spmm =
  QCheck.Test.make ~count:150
    ~name:"random SpMM schedules: engines agree and preserve semantics"
    QCheck.small_int
    (fun seed -> spmm_case (succ (abs seed)))

let fuzz_sddmm =
  QCheck.Test.make ~count:150
    ~name:"random SDDMM schedules: engines agree and preserve semantics"
    QCheck.small_int
    (fun seed -> sddmm_case (succ (abs seed)))

(* hyb SpMM on a random matrix: the bucket loops store through their row
   maps, so this keeps an indirect (gather-witness) loop shape in the fuzz
   pool.  All three compiled legs must agree bit-for-bit with the
   interpreter and match the dense reference, and — because the format
   constructor declares the bucket maps' ordering facts — the 4-domain leg
   must never take the serial fallback. *)
let hyb_case (seed : int) : bool =
  let g = Workloads.Rng.create seed in
  let a = random_csr g in
  let feat = 4 in
  let x = Dense.random ~seed:(seed + 1) a.Csr.cols feat in
  let parts = 1 + Workloads.Rng.int g 2 in
  let c, _ = Kernels.Spmm.sparsetir_hyb ~c:parts a x ~feat in
  let run ?num_domains engine =
    Gpusim.execute ~engine ?num_domains c.Kernels.Spmm.fn
      c.Kernels.Spmm.bindings;
    Tensor.to_float_array c.Kernels.Spmm.out
  in
  let interp = run Engine.Interp in
  let serial = run ~num_domains:1 Engine.Compiled in
  let parallel = run ~num_domains:4 Engine.Compiled in
  let art = Engine.artifact c.Kernels.Spmm.fn in
  interp = serial
  && serial = parallel
  && Engine.fallback_runs art = 0
  && max_err (Csr.spmm a x).Dense.data interp < 1e-5

let fuzz_hyb =
  QCheck.Test.make ~count:60
    ~name:"random hyb SpMM: bucket row-map gathers dispatch without fallback"
    QCheck.small_int
    (fun seed -> hyb_case (succ (abs seed)))

(* Sliced-ELL is built and stage-I-emitted entirely from its descriptor
   (Descriptor.emit_axes), so this keeps a descriptor-emitted axis chain in
   the fuzz pool: random matrix, random slice height, all three legs
   bit-identical, dense-reference match, and no serial fallback (the
   scatter is the direct C[i, k]). *)
let sell_case (seed : int) : bool =
  let g = Workloads.Rng.create seed in
  let a = random_csr g in
  let feat = 4 in
  let x = Dense.random ~seed:(seed + 2) a.Csr.cols feat in
  let slice = 1 + Workloads.Rng.int g 8 in
  let c, _ = Kernels.Spmm.sell ~slice a x ~feat in
  let run ?num_domains engine =
    Gpusim.execute ~engine ?num_domains c.Kernels.Spmm.fn
      c.Kernels.Spmm.bindings;
    Tensor.to_float_array c.Kernels.Spmm.out
  in
  let interp = run Engine.Interp in
  let serial = run ~num_domains:1 Engine.Compiled in
  let parallel = run ~num_domains:4 Engine.Compiled in
  let art = Engine.artifact c.Kernels.Spmm.fn in
  interp = serial
  && serial = parallel
  && Engine.fallback_runs art = 0
  && max_err (Csr.spmm a x).Dense.data interp < 1e-5

let fuzz_sell =
  QCheck.Test.make ~count:60
    ~name:"random sliced-ELL SpMM: descriptor-emitted axes, no fallback"
    QCheck.small_int
    (fun seed -> sell_case (succ (abs seed)))

(* ---------------- disjointness-driven dispatch ---------------- *)

(* A blockIdx-bound loop writing C[i] — injective in the loop var — must be
   proven disjoint and take the domains-parallel path when the budget allows
   it, with the same result as any serial run. *)
let test_parallel_provable () =
  let open Builder in
  let n = 64 in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int n ] in
  let c_buf = buffer ~dtype:Dtype.F32 "C" [ int n ] in
  let fn =
    func "fuzz_par_provable" [ a_buf; c_buf ]
      (for_ ~kind:(Ir.Thread_bind Ir.Block_x) "i" (int n) (fun i ->
           store c_buf [ i ] (load a_buf [ i ] +: float 1.0)))
  in
  let a = Tensor.of_float_array [ n ] (Array.init n float_of_int) in
  let c = Tensor.create Dtype.F32 [ n ] in
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check bool) "parallel path taken" true (Engine.par_runs art >= 1);
  Alcotest.(check int) "no serial fallback" 0 (Engine.fallback_runs art);
  Alcotest.(check bool) "parallel result correct" true
    (Tensor.to_float_array c = Array.init n (fun i -> float_of_int i +. 1.0))

(* Every iteration of this blockIdx-bound loop accumulates into C[0]: no
   witness dimension exists, disjointness is unprovable, and the engine must
   fall back to serial execution (keeping the reduction exact) instead of
   racing domains over a shared cell. *)
let test_parallel_fallback () =
  let open Builder in
  let n = 32 in
  let a_buf = buffer ~dtype:Dtype.F32 "A" [ int n ] in
  let c_buf = buffer ~dtype:Dtype.F32 "C" [ int 1 ] in
  let fn =
    func "fuzz_par_fallback" [ a_buf; c_buf ]
      (for_ ~kind:(Ir.Thread_bind Ir.Block_x) "i" (int n) (fun i ->
           store c_buf [ int 0 ] (load c_buf [ int 0 ] +: load a_buf [ i ])))
  in
  let a = Tensor.of_float_array [ n ] (Array.make n 1.0) in
  let c = Tensor.create Dtype.F32 [ 1 ] in
  Engine.execute ~kind:Engine.Compiled ~num_domains:4 fn [ a; c ];
  let art = Engine.artifact fn in
  Alcotest.(check int) "parallel path never taken" 0 (Engine.par_runs art);
  Alcotest.(check bool) "serial fallback fired" true
    (Engine.fallback_runs art >= 1);
  Alcotest.(check (float 0.0))
    "reduction still exact" (float_of_int n)
    (Tensor.to_float_array c).(0)

let () =
  Alcotest.run "schedule_fuzz"
    [ ( "fuzz",
        [ QCheck_alcotest.to_alcotest ~long:false fuzz_spmm;
          QCheck_alcotest.to_alcotest ~long:false fuzz_sddmm;
          QCheck_alcotest.to_alcotest ~long:false fuzz_hyb;
          QCheck_alcotest.to_alcotest ~long:false fuzz_sell ] );
      ( "parallel_dispatch",
        [ Alcotest.test_case "provable loop runs parallel" `Quick
            test_parallel_provable;
          Alcotest.test_case "unprovable loop falls back" `Quick
            test_parallel_fallback ] ) ]
