(* Host speed probe.

   On a shared host the speed of the cores drifts by tens of percent within
   seconds, and a plain wall-clock figure drifts with it.  So the benchmark
   reports times at a reference speed: before each op (and each set-up) it
   times a fixed probe, and scales the op's wall time by [ref_ms] over the
   median of the last few probe times.  A probe that takes [ref_ms] means
   the host runs at the reference speed and times are left as measured.

   The probe is plain OCaml over arrays allocated here — a gather-and-sum
   over a random index array, the access pattern of the sparse kernels — so
   no change to the library makes it faster or slower. *)

let ref_ms = 1.0
let window = 5
let n = 1 lsl 14

let data =
  lazy
    (let rng = Random.State.make [| 12345 |] in
     ( Array.init (n * 8) (fun _ -> Random.State.int rng n),
       Array.init n (fun _ -> Random.State.float rng 1.0),
       Array.make n 0.0 ))

let probe_ms () : float =
  let idx, x, y = Lazy.force data in
  let t0 = Util.now () in
  for _ = 1 to 3 do
    for i = 0 to n - 1 do
      let s = ref 0.0 in
      for k = i * 8 to (i * 8) + 7 do
        s := !s +. x.(idx.(k))
      done;
      y.(i) <- !s
    done
  done;
  (Util.now () -. t0) *. 1000.0

let recent : float list ref = ref []
let all : float list ref = ref []

let reset () =
  recent := [];
  all := []

(* Time the probe once more. *)
let tick () =
  let p = probe_ms () in
  recent := List.filteri (fun i _ -> i < window) (p :: !recent);
  all := p :: !all

(* [ms] of wall time at the reference speed. *)
let scale (ms : float) : float =
  match !recent with
  | [] -> ms
  | l -> ms *. ref_ms /. Util.median (Array.of_list l)

(* A span of wall time covering the whole phase, at the reference speed. *)
let scale_phase (t : float) : float =
  match !all with
  | [] -> t
  | l -> t *. ref_ms /. Util.median (Array.of_list l)
