(* Shared reporting helpers for the benchmark harness: paper-style tables of
   normalized speedups. *)

let header (title : string) : unit =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader (s : string) : unit = Printf.printf "\n-- %s --\n" s

(* Print a table of rows x systems where each cell is a speedup against the
   baseline column. *)
let speedup_table ~(row_label : string) ~(rows : string list)
    ~(systems : string list) ~(baseline : string)
    (time_ms : row:string -> system:string -> float) : unit =
  Printf.printf "%-16s" row_label;
  List.iter (fun s -> Printf.printf "%16s" s) systems;
  print_newline ();
  List.iter
    (fun row ->
      Printf.printf "%-16s" row;
      let base = time_ms ~row ~system:baseline in
      List.iter
        (fun system ->
          let t = time_ms ~row ~system in
          if Float.is_nan t then Printf.printf "%16s" "-"
          else Printf.printf "%15.2fx" (base /. t))
        systems;
      print_newline ())
    rows;
  Printf.printf "(speedup vs %s; higher is better)\n" baseline

let geomean = Tuner.geomean

let time_of_profile (p : Gpusim.profile) = p.Gpusim.p_time_ms

(* memoized timing store *)
type store = (string, float) Hashtbl.t

let store () : store = Hashtbl.create 64
let record (s : store) ~row ~system (t : float) =
  Hashtbl.replace s (row ^ "|" ^ system) t

let lookup (s : store) ~row ~system : float =
  match Hashtbl.find_opt s (row ^ "|" ^ system) with
  | Some t -> t
  | None -> Float.nan

(* One row of a BENCH_<bench>.json file, the shape every legacy bench
   target writes and tools/bench_trend reads.  A [Ratio] row is a ratio of
   two legs timed in the same process, so it is comparable across hosts;
   the trend tool fails it below 70% of the committed baseline.  An [Info]
   row (absolute walls, counts, geomeans) is printed and never gated. *)
type gate = Ratio | Info

type row = {
  kernel : string;
  metric : string;
  unit : string;
  value : float;
  gate : gate;
}

let row ?(gate = Info) kernel metric unit value =
  { kernel; metric; unit; value; gate }

(* Writes BENCH_<bench>.json into the current directory: a JSON array with
   one row per line, which is all the trend tool parses (this repo has no
   JSON dependency). *)
let write_json ~(bench : string) (rows : row list) : unit =
  let path = Printf.sprintf "BENCH_%s.json" bench in
  let oc = open_out path in
  let n = List.length rows in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"bench\": %S, \"kernel\": %S, \"metric\": %S, \"unit\": %S, \
         \"value\": %.4f, \"gate\": %S}%s\n"
        bench r.kernel r.metric r.unit r.value
        (match r.gate with Ratio -> "ratio" | Info -> "info")
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path
