(* Bench trend check: compare a fresh BENCH_<bench>.json against the
   committed baseline.

   Usage: bench_trend BASELINE.json FRESH.json

   Both files hold the rows [Report.write_json] writes, one per line:
     {"bench": B, "kernel": K, "metric": M, "unit": U, "value": V, "gate": G}
   Rows match on (kernel, metric) and the fresh row's gate decides: a
   "ratio" row fails below 70% of its baseline value, an "info" row is only
   printed.  A baseline row missing from the fresh file fails, and so does
   a row that does not parse or whose value is not a finite number.  Exit 1
   on any failure; exit 2 unless both files hold rows of one and the same
   bench. *)

(* A ratio row fails below this share of its baseline: same-process ratios
   still spread by about 20% between runs on a shared host. *)
let min_ratio = 0.70

type row = {
  bench : string;
  key : string * string; (* kernel, metric *)
  unit : string;
  value : float;
  ratio : bool;
}

(* The value of ["key": ...] in [line]: a quoted string's contents, or the
   bare token up to the next [,] or [}]. *)
let field (line : string) (key : string) : string option =
  let pat = Printf.sprintf "\"%s\": " key in
  let n = String.length line and p = String.length pat in
  let rec find i =
    if i + p > n then None
    else if String.sub line i p = pat then Some (i + p)
    else find (i + 1)
  in
  Option.map
    (fun s ->
      let quoted = s < n && line.[s] = '"' in
      let s = if quoted then s + 1 else s in
      let stop c = if quoted then c = '"' else c = ',' || c = '}' in
      let e = ref s in
      while !e < n && not (stop line.[!e]) do
        incr e
      done;
      String.trim (String.sub line s (!e - s)))
    (find 0)

let parse (line : string) : row option =
  match
    ( field line "bench", field line "kernel", field line "metric",
      field line "unit", field line "value", field line "gate" )
  with
  | Some bench, Some kernel, Some metric, Some unit, Some v,
    Some (("ratio" | "info") as gate) -> (
      match float_of_string_opt v with
      | Some value when Float.is_finite value ->
          Some { bench; key = (kernel, metric); unit; value;
                 ratio = gate = "ratio" }
      | _ -> None)
  | _ -> None

(* The rows of [path] and the number of lines that failed to parse; the
   array brackets and blank lines are the only other lines allowed. *)
let load (path : string) : row list * int =
  let ic = open_in path in
  let rows = ref [] and bad = ref 0 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if not (List.mem line [ ""; "["; "]" ]) then
         match parse line with
         | Some r -> rows := r :: !rows
         | None ->
             incr bad;
             Printf.printf "UNPARSABLE row in %s: %s\n" path line
     done
   with End_of_file -> close_in ic);
  (List.rev !rows, !bad)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ base_path; fresh_path ] ->
      let base, base_bad = load base_path in
      let fresh, fresh_bad = load fresh_path in
      let benches rows =
        List.sort_uniq compare (List.map (fun r -> r.bench) rows)
      in
      (match (benches base, benches fresh) with
      | [ b ], [ f ] when b = f -> ()
      | bs, fs ->
          Printf.eprintf
            "bench_trend: want rows of one bench in both files, got [%s] vs \
             [%s]\n"
            (String.concat " " bs) (String.concat " " fs);
          exit 2);
      let failures = ref (base_bad + fresh_bad) in
      let line (kernel, metric) unit b f verdict =
        Printf.printf "%-18s %-16s %-8s %12s %12s  %s\n" kernel metric unit b f
          verdict
      in
      line ("kernel", "metric") "unit" "baseline" "fresh" "";
      let num = Printf.sprintf "%.6g" in
      List.iter
        (fun b ->
          match List.find_opt (fun f -> f.key = b.key) fresh with
          | None ->
              incr failures;
              line b.key b.unit (num b.value) "-" "MISSING from fresh run"
          | Some f ->
              let ratio = f.value /. b.value in
              let bad = f.ratio && not (b.value > 0.0 && ratio >= min_ratio) in
              if bad then incr failures;
              line b.key f.unit (num b.value) (num f.value)
                (Printf.sprintf "%.2fx %s" ratio
                   (if bad then "REGRESSION"
                    else if f.ratio then "ok"
                    else "info")))
        base;
      (* a fresh row with no baseline is not gated; list it so a renamed
         kernel is visible *)
      List.iter
        (fun f ->
          if not (List.exists (fun b -> b.key = f.key) base) then
            line f.key f.unit "-" (num f.value) "NEW (no baseline)")
        fresh;
      Printf.printf "(a ratio row fails below %.0f%% of its baseline)\n"
        (100.0 *. min_ratio);
      if !failures > 0 then (
        Printf.printf "bench_trend: %d failure(s)\n" !failures;
        exit 1)
      else print_endline "bench_trend: ok"
  | _ ->
      prerr_endline "usage: bench_trend BASELINE.json FRESH.json";
      exit 2
