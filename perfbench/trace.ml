(* In-memory spans recorded around the benchmark's calls into each layer.

   A span is named "<layer>.<what>"; it records its start, end, parent span
   and the op it belongs to.  Spans are kept in memory and written out when
   the run ends.  A span's self time is its duration minus the time its
   child spans cover (children run on the same domain, one after another,
   so that is the sum of their durations).

   The compilation pipeline already records one [Pipeline.stats] per run
   with per-pass wall times.  Those records become derived child spans of
   whichever benchmark span was open when the pipeline ran: a
   "pipeline.compile" span whose children are "pipeline.pass.<name>".

   When tracing is off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  op : int;
  t0 : float;
  t1 : float;
  self_ms : float;
  derived : bool;  (** rebuilt from a pipeline record, not timed here *)
}

type frame = { f_id : int; f_name : string; f_t0 : float; mutable f_child_ms : float }

let enabled = ref false
let spans : span list ref = ref []
let stack : frame list ref = ref []
let next_id = ref 0
let op = ref 0

(* History head up to which pipeline records have been attributed. *)
let consumed : Pipeline.stats list ref = ref []

let fresh () =
  let i = !next_id in
  incr next_id;
  i

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  op := 0;
  consumed := !Pipeline.history

(* Pipeline records produced since the last attribution, oldest first. *)
let new_runs () : Pipeline.stats list =
  let runs = Counters.runs_since !consumed in
  consumed := !Pipeline.history;
  runs

(* Attribute fresh pipeline records to the innermost open span, laid out
   back to back so that the derived spans end where the flush happens. *)
let flush () =
  let runs = new_runs () in
  match !stack with
  | [] -> ()
  | top :: _ ->
      let total = List.fold_left (fun a s -> a +. s.Pipeline.st_ms) 0.0 runs in
      top.f_child_ms <- top.f_child_ms +. total;
      let t = ref (Util.now () -. (total /. 1000.0)) in
      List.iter
        (fun (s : Pipeline.stats) ->
          let cid = fresh () in
          let c0 = !t in
          let passes = s.Pipeline.st_passes in
          let pass_total =
            List.fold_left (fun a p -> a +. p.Pipeline.ps_ms) 0.0 passes
          in
          List.iter
            (fun (p : Pipeline.pass_stat) ->
              spans :=
                { id = fresh (); name = "pipeline.pass." ^ p.Pipeline.ps_name;
                  parent = cid; op = !op; t0 = !t;
                  t1 = !t +. (p.Pipeline.ps_ms /. 1000.0);
                  self_ms = p.Pipeline.ps_ms; derived = true }
                :: !spans;
              t := !t +. (p.Pipeline.ps_ms /. 1000.0))
            passes;
          let c1 = c0 +. (s.Pipeline.st_ms /. 1000.0) in
          spans :=
            { id = cid; name = "pipeline.compile"; parent = top.f_id; op = !op;
              t0 = c0; t1 = c1;
              self_ms = Float.max 0.0 (s.Pipeline.st_ms -. pass_total);
              derived = true }
            :: !spans;
          t := c1)
        runs

let close (fr : frame) =
  flush ();
  let t1 = Util.now () in
  stack := List.tl !stack;
  let dur = (t1 -. fr.f_t0) *. 1000.0 in
  (match !stack with p :: _ -> p.f_child_ms <- p.f_child_ms +. dur | [] -> ());
  spans :=
    { id = fr.f_id; name = fr.f_name; parent = (match !stack with p :: _ -> p.f_id | [] -> -1);
      op = !op; t0 = fr.f_t0; t1; self_ms = Float.max 0.0 (dur -. fr.f_child_ms);
      derived = false }
    :: !spans

let span (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    flush ();
    let fr = { f_id = fresh (); f_name = name; f_t0 = Util.now (); f_child_ms = 0.0 } in
    stack := fr :: !stack;
    match f () with
    | r ->
        close fr;
        r
    | exception e ->
        close fr;
        raise e
  end

let layer_of (name : string) =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Durations of every span with this name. *)
let durations (name : string) : float array =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1000.0) else None)
       !spans)

let write (path : string) =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start\":%.6f,\"end\":%.6f,\"self_ms\":%.4f,\"derived\":%b}\n"
        s.id s.name s.parent s.op s.t0 s.t1 s.self_ms s.derived)
    (List.rev !spans);
  close_out oc
