(* What one measured phase of a workload hands back to [Main]. *)

type t = {
  latencies_ms : float array;  (** per completed op *)
  busy_s : float;  (** time the ops were being served *)
  attempted : int;
  failed : int;
  sim_us : float list;  (** simulated-V100 time of each kernel run *)
  slo_ms : float;  (** latency limit of [slo_met_ratio] *)
  layer : (string * float) list;  (** per-layer metrics of the phase *)
}

(* Counts an op as failed: it raised, or its output did not match the
   reference.  [note] goes to stderr for the first few failures only. *)
type tally = { mutable att : int; mutable fail : int }

let tally () = { att = 0; fail = 0 }

let fail (t : tally) (note : string) =
  if t.fail < 5 then prerr_endline ("perfbench: failed op: " ^ note);
  t.fail <- t.fail + 1

(* The self-test corrupts the output of the [corrupt_at]-th check of a run
   (counting from 0) and expects to see it counted as failed. *)
let corrupt_at = ref (-1)
let checks = ref 0

(* An output as the check sees it. *)
let observed (a : float array) : float array =
  let i = !checks in
  incr checks;
  if i = !corrupt_at && Array.length a > 0 then begin
    let b = Array.copy a in
    b.(0) <- b.(0) +. 1.0;
    b
  end
  else a
