(* The paper's composable format hyb(c, k) (S4.2.1, Figure 11).

   Columns are partitioned into c ranges.  Within each partition, every row
   with l stored elements (2^{i-1} < l <= 2^i) goes to bucket i and is padded
   to width 2^i; rows longer than 2^k are split into multiple pseudo-rows of
   width 2^k, which is what gives compile-time load balancing.  Each bucket
   is a row-mapped ELL sub-matrix (Ell.t). *)

type bucket = {
  bk_part : int;   (* column partition id *)
  bk_width : int;  (* 2^i *)
  bk_ell : Ell.t;  (* row-mapped ELL sub-matrix *)
}

type t = {
  rows : int;
  cols : int;
  parts : int;          (* c *)
  max_width : int;      (* 2^k *)
  part_cols : int;      (* ceil(cols / c) *)
  buckets : bucket list;
  nnz : int;
  padded : int;
}

(* Bucketing rule used in the paper: k = ceil(log2(nnz / rows)). *)
let default_k (c : Csr.t) : int =
  let avg = float_of_int (Csr.nnz c) /. float_of_int (max 1 c.Csr.rows) in
  max 0 (int_of_float (Float.ceil (Float.log (Float.max 1.0 avg) /. Float.log 2.0)))

(* One hyb bucket as a descriptor: an explicit pseudo-row stream (split
   rows repeat their row id, so the root singleton is only non-decreasing)
   over a constant-width slice level whose padding coordinate is one past
   the last column — an absent coordinate, so compiled copies and
   computations see padded slots as structural zeros. *)
let bucket_descriptor ~width ~rows ~cols : Descriptor.t =
  Descriptor.make ~name:"hyb-bucket" ~dims:[| rows; cols |]
    [ Levels.singleton ();
      Levels.fixed_slice ~pad_coord:cols (Levels.Const width) ]

(* One pass over the CSR: count entries per column partition, prefix into
   per-partition arrays, then fill the (row, col, value) streams in CSR
   order — each partition's stream comes out row-ascending with columns
   ascending within a row, exactly the order a per-partition rescan would
   have produced.  (The old builders re-walked the entire indices/data
   arrays once per partition, O(c * nnz) on the construction path.) *)
let partition_streams ~(c : int) ~(part_cols : int) (m : Csr.t) :
    (int array * int array * float array) array =
  let nnz = Csr.nnz m in
  let counts = Array.make c 0 in
  for p = 0 to nnz - 1 do
    let part = m.Csr.indices.(p) / part_cols in
    counts.(part) <- counts.(part) + 1
  done;
  let streams =
    Array.init c (fun part ->
        ( Array.make counts.(part) 0,
          Array.make counts.(part) 0,
          Array.make counts.(part) 0.0 ))
  in
  let cursors = Array.make c 0 in
  for i = 0 to m.Csr.rows - 1 do
    for p = m.Csr.indptr.(i) to m.Csr.indptr.(i + 1) - 1 do
      let j = m.Csr.indices.(p) in
      let part = j / part_cols in
      let rows_a, cols_a, vals_a = streams.(part) in
      let q = cursors.(part) in
      rows_a.(q) <- i;
      cols_a.(q) <- j;
      vals_a.(q) <- m.Csr.data.(p);
      cursors.(part) <- q + 1
    done
  done;
  streams

(* Group one partition stream into (row, entries) runs, split long rows
   into pseudo-rows of at most [max_width] entries, and assign pseudo-rows
   to buckets by ceil(log2 length).  The split walks the stream by index,
   linear in the row length — the old splitter re-measured the remaining
   list at every step, O(len^2 / width) on long rows.  Bucket row lists
   come out row-ascending, chunk-ascending. *)
let bucketize ~(k : int) ~(max_width : int)
    ((rows_a, cols_a, vals_a) : int array * int array * float array) :
    (int * (int * float) list) list array =
  let n = Array.length rows_a in
  let by_bucket = Array.make (k + 1) [] in
  let push i es len =
    let b =
      let rec go w idx = if len <= w then idx else go (w * 2) (idx + 1) in
      go 1 0
    in
    by_bucket.(b) <- (i, es) :: by_bucket.(b)
  in
  let q = ref 0 in
  while !q < n do
    let i = rows_a.(!q) in
    let row_end = ref !q in
    while !row_end < n && rows_a.(!row_end) = i do
      incr row_end
    done;
    let s = ref !q in
    while !s < !row_end do
      let e = min !row_end (!s + max_width) in
      let es = ref [] in
      for t = e - 1 downto !s do
        es := (cols_a.(t), vals_a.(t)) :: !es
      done;
      push i !es (e - !s);
      s := e
    done;
    q := !row_end
  done;
  Array.map List.rev by_bucket

let of_csr ~(c : int) ~(k : int) (m : Csr.t) : t =
  let part_cols = (m.Csr.cols + c - 1) / c in
  let max_width = 1 lsl k in
  let streams = partition_streams ~c ~part_cols m in
  (* every non-empty (partition, bucket) pair is an independent ELL build:
     collect them all, then spread the builds over the engine pool (the
     descent inside each build runs serially — nested fan-out collapses) *)
  let jobs = ref [] in
  for part = c - 1 downto 0 do
    let by_bucket = bucketize ~k ~max_width streams.(part) in
    for b = k downto 0 do
      if by_bucket.(b) <> [] then jobs := (part, b, by_bucket.(b)) :: !jobs
    done
  done;
  let jobs = Array.of_list !jobs in
  let results = Array.make (Array.length jobs) None in
  Engine.parallel_tasks (Array.length jobs) (fun ji ->
      let _, b, rows_list = jobs.(ji) in
      let width = 1 lsl b in
      results.(ji) <-
        Some
          (Descriptor.build_rows
             (bucket_descriptor ~width ~rows:m.Csr.rows ~cols:m.Csr.cols)
             ~rows:rows_list));
  let padded = ref 0 in
  let buckets =
    List.filter_map
      (fun ji ->
        match results.(ji) with
        | None -> None
        | Some st ->
            let part, b, _ = jobs.(ji) in
            let width = 1 lsl b in
            let root = st.Descriptor.st_levels.(0) in
            let lv = st.Descriptor.st_levels.(1) in
            padded := !padded + st.Descriptor.st_padded;
            Some
              { bk_part = part;
                bk_width = width;
                bk_ell =
                  { Ell.rows = root.Descriptor.ld_count;
                    cols = m.Csr.cols;
                    width;
                    indices =
                      (match lv.Descriptor.ld_crd with
                      | Some a -> a
                      | None -> [||]);
                    data = st.Descriptor.st_vals;
                    row_map =
                      (match root.Descriptor.ld_crd with
                      | Some a -> Some a
                      | None -> None);
                    padded = 0 } })
      (List.init (Array.length jobs) Fun.id)
  in
  { rows = m.Csr.rows; cols = m.Csr.cols; parts = c; max_width; part_cols;
    buckets; nnz = Csr.nnz m; padded = !padded }

(* Pre-descriptor reference construction (differential tests, formats
   benchmark): same single-pass partitioning and linear splitting, with
   hand-rolled serial array filling. *)
let of_csr_ref ~(c : int) ~(k : int) (m : Csr.t) : t =
  let part_cols = (m.Csr.cols + c - 1) / c in
  let max_width = 1 lsl k in
  let streams = partition_streams ~c ~part_cols m in
  let buckets = ref [] in
  let padded = ref 0 in
  for part = 0 to c - 1 do
    let by_bucket = bucketize ~k ~max_width streams.(part) in
    Array.iteri
      (fun b rows_list ->
        let nrows = List.length rows_list in
        if nrows > 0 then begin
          let width = 1 lsl b in
          let row_map = Array.make nrows 0 in
          let indices = Array.make (nrows * width) m.Csr.cols in
          let data = Array.make (nrows * width) 0.0 in
          List.iteri
            (fun r (i, es) ->
              row_map.(r) <- i;
              List.iteri
                (fun q (j, v) ->
                  indices.((r * width) + q) <- j;
                  data.((r * width) + q) <- v)
                es;
              padded := !padded + (width - List.length es))
            rows_list;
          buckets :=
            { bk_part = part;
              bk_width = width;
              bk_ell =
                { Ell.rows = nrows; cols = m.Csr.cols; width; indices; data;
                  row_map = Some row_map; padded = 0 } }
            :: !buckets
        end)
      by_bucket
  done;
  { rows = m.Csr.rows; cols = m.Csr.cols; parts = c; max_width; part_cols;
    buckets = List.rev !buckets; nnz = Csr.nnz m; padded = !padded }

(* %padding of Table 1 / Table 2: padded slots over stored slots. *)
let padding_pct (h : t) : float =
  100.0 *. float_of_int h.padded /. float_of_int (h.nnz + h.padded)

(* ------------------------------------------------------------------ *)
(* Incremental deltas (DESIGN.md §3i)                                  *)
(* ------------------------------------------------------------------ *)

(* ceil(log2 len) — the bucket exponent: length l goes to bucket b with
   2^{b-1} < l <= 2^b.  Matches [bucketize]'s push rule exactly. *)
let bucket_exp (len : int) : int =
  let rec go w b = if len <= w then b else go (w * 2) (b + 1) in
  go 1 0

(* First index in the sorted run [a].(lo..hi-1) whose value is >= v. *)
let lower_bound (a : int array) ~(lo : int) ~(hi : int) (v : int) : int =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if a.(mid) < v then l := mid + 1 else h := mid
  done;
  !l

type live_bucket = {
  lb_part : int;
  lb_b : int; (* width = 2^lb_b *)
  lb_rows : int;
  lb_row_map : int array;
  lb_indices : int array; (* rows * width, pad col = cols sentinel *)
  lb_data : float array;
  mutable lb_padded : int;
  lb_rowmap_t : Tir.Tensor.t;
  lb_idx_t : Tir.Tensor.t;
  lb_val_t : Tir.Tensor.t;
  lb_pos : (int, int) Hashtbl.t; (* unsplit assigned row -> stored slot *)
}

(* A live hyb: the underlying CSR is a [Csr.live] (the source of truth the
   bucket rebuilds read from), and each bucket owns tensors sharing its
   arrays.  [apply_delta] patches rows whose bucket assignment is
   unchanged in place (one segment rewrite, no tensor replacement — the
   row-map tensors keep their declared facts, so parallel dispatch never
   falls back) and rebuilds only the buckets a migration actually
   touched. *)
type live = {
  hl_rows : int;
  hl_cols : int;
  hl_c : int;
  hl_k : int;
  hl_max_width : int;
  hl_part_cols : int;
  mutable hl_slack : int;
  hl_csr : Csr.live;
  mutable hl_buckets : live_bucket list; (* sorted (part, b) *)
  mutable hl_assign : int array array;
      (* [part].(row): bucket exponent, -1 absent, -2 split *)
  mutable hl_plen : int array array; (* [part].(row): partition length *)
  mutable hl_generation : int; (* bumped when any bucket is rebuilt *)
}

type delta_info = {
  di_inplace : int; (* (row, partition) segments rewritten in place *)
  di_migrated : int; (* (row, partition) assignments that moved *)
  di_deferred : int; (* shrinks retained by hysteresis *)
  di_rebuilt : int; (* buckets rebuilt *)
  di_shape_changed : bool; (* bucket row counts changed: kernel re-trace *)
}

let no_delta =
  { di_inplace = 0;
    di_migrated = 0;
    di_deferred = 0;
    di_rebuilt = 0;
    di_shape_changed = false }

(* Build one live bucket from a [bucketize] rows list (rows ascending,
   chunks ascending — the cold order).  The row-map ordering fact is
   declared at construction ([declare_order] does not count as a dispatch
   scan), so a rebuilt bucket dispatches parallel immediately. *)
let mk_live_bucket ~(cols : int) ~(assign : int array) ~(part : int)
    ~(b : int) (rows_list : (int * (int * float) list) list) : live_bucket =
  let width = 1 lsl b in
  let nrows = List.length rows_list in
  let row_map = Array.make nrows 0 in
  let indices = Array.make (nrows * width) cols in
  let data = Array.make (nrows * width) 0.0 in
  let padded = ref 0 in
  let pos = Hashtbl.create (max 16 nrows) in
  List.iteri
    (fun s (i, es) ->
      row_map.(s) <- i;
      if assign.(i) = b then Hashtbl.replace pos i s;
      List.iteri
        (fun q (j, v) ->
          indices.((s * width) + q) <- j;
          data.((s * width) + q) <- v)
        es;
      padded := !padded + (width - List.length es))
    rows_list;
  let rm_t = Tir.Tensor.of_int_array [ nrows ] row_map in
  Tir.Tensor.Facts.declare_order rm_t;
  { lb_part = part;
    lb_b = b;
    lb_rows = nrows;
    lb_row_map = row_map;
    lb_indices = indices;
    lb_data = data;
    lb_padded = !padded;
    lb_rowmap_t = rm_t;
    lb_idx_t = Tir.Tensor.of_int_array [ nrows * width ] indices;
    lb_val_t = Tir.Tensor.of_float_array [ nrows * width ] data;
    lb_pos = pos }

(* Cold state from the current CSR contents: the same partitioning and
   bucketize machinery as [of_csr_ref], plus the assignment/length maps
   the delta path maintains incrementally afterwards. *)
let cold_fill (lv : live) : unit =
  let m = Csr.live_csr lv.hl_csr in
  let c = lv.hl_c
  and k = lv.hl_k
  and max_width = lv.hl_max_width
  and part_cols = lv.hl_part_cols in
  let assign = Array.init c (fun _ -> Array.make lv.hl_rows (-1)) in
  let plen = Array.init c (fun _ -> Array.make lv.hl_rows 0) in
  for i = 0 to lv.hl_rows - 1 do
    for p = m.Csr.indptr.(i) to m.Csr.indptr.(i + 1) - 1 do
      let part = m.Csr.indices.(p) / part_cols in
      plen.(part).(i) <- plen.(part).(i) + 1
    done
  done;
  for part = 0 to c - 1 do
    for i = 0 to lv.hl_rows - 1 do
      let l = plen.(part).(i) in
      assign.(part).(i) <-
        (if l = 0 then -1 else if l > max_width then -2 else bucket_exp l)
    done
  done;
  let streams = partition_streams ~c ~part_cols m in
  let buckets = ref [] in
  for part = c - 1 downto 0 do
    let by_bucket = bucketize ~k ~max_width streams.(part) in
    for b = k downto 0 do
      if by_bucket.(b) <> [] then
        buckets :=
          mk_live_bucket ~cols:lv.hl_cols ~assign:assign.(part) ~part ~b
            by_bucket.(b)
          :: !buckets
    done
  done;
  lv.hl_buckets <- !buckets;
  lv.hl_assign <- assign;
  lv.hl_plen <- plen

let live ?(slack = 0) ?(cap_slack = 0) ~(c : int) ~(k : int) (m : Csr.t) :
    live =
  let lv =
    { hl_rows = m.Csr.rows;
      hl_cols = m.Csr.cols;
      hl_c = c;
      hl_k = k;
      hl_max_width = 1 lsl k;
      hl_part_cols = (m.Csr.cols + c - 1) / c;
      hl_slack = max 0 slack;
      hl_csr = Csr.live ~slack:cap_slack m;
      hl_buckets = [];
      hl_assign = [||];
      hl_plen = [||];
      hl_generation = 0 }
  in
  cold_fill lv;
  lv

let live_generation (lv : live) : int = lv.hl_generation
let live_source (lv : live) : Csr.live = lv.hl_csr

(* Immutable view sharing the live arrays — structurally equal to a cold
   [of_csr] when no hysteresis retention is in effect (slack = 0). *)
let live_hyb (lv : live) : t =
  let padded = List.fold_left (fun a lb -> a + lb.lb_padded) 0 lv.hl_buckets in
  { rows = lv.hl_rows;
    cols = lv.hl_cols;
    parts = lv.hl_c;
    max_width = lv.hl_max_width;
    part_cols = lv.hl_part_cols;
    buckets =
      List.map
        (fun lb ->
          { bk_part = lb.lb_part;
            bk_width = 1 lsl lb.lb_b;
            bk_ell =
              { Ell.rows = lb.lb_rows;
                cols = lv.hl_cols;
                width = 1 lsl lb.lb_b;
                indices = lb.lb_indices;
                data = lb.lb_data;
                row_map = Some lb.lb_row_map;
                padded = 0 } })
        lv.hl_buckets;
    nnz = Csr.live_nnz lv.hl_csr;
    padded }

let live_buckets (lv : live) :
    (bucket * Tir.Tensor.t * Tir.Tensor.t * Tir.Tensor.t) list =
  List.map
    (fun lb ->
      ( { bk_part = lb.lb_part;
          bk_width = 1 lsl lb.lb_b;
          bk_ell =
            { Ell.rows = lb.lb_rows;
              cols = lv.hl_cols;
              width = 1 lsl lb.lb_b;
              indices = lb.lb_indices;
              data = lb.lb_data;
              row_map = Some lb.lb_row_map;
              padded = 0 } },
        lb.lb_rowmap_t,
        lb.lb_idx_t,
        lb.lb_val_t ))
    lv.hl_buckets

let insert_sorted (x : live_bucket) (l : live_bucket list) :
    live_bucket list =
  let key lb = (lb.lb_part, lb.lb_b) in
  let rec go = function
    | [] -> [ x ]
    | y :: rest -> if key x < key y then x :: y :: rest else y :: go rest
  in
  go l

let apply_delta (lv : live) (batch : Delta.edit list) : delta_info =
  let patches = Csr.apply_delta_live lv.hl_csr batch in
  if patches = [] then no_delta
  else begin
    let indptr, csr_idx, csr_val = Csr.live_arrays lv.hl_csr in
    let dirty : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let mark p b = Hashtbl.replace dirty (p, b) () in
    (* buckets occupied by a split row of partition length [len] *)
    let mark_chunks p len =
      if len > lv.hl_max_width then begin
        mark p lv.hl_k;
        let rem = len mod lv.hl_max_width in
        if rem > 0 then mark p (bucket_exp rem)
      end
      else if len > 0 then mark p (bucket_exp len)
    in
    (* Phase 1: classify every touched (row, partition).  Rows that keep
       their bucket queue an in-place segment rewrite; everything else
       updates the assignment map and marks the affected buckets dirty. *)
    let inplace_q = ref [] in
    let migrated = ref 0 and deferred = ref 0 in
    List.iter
      (fun (rp : Csr.row_patch) ->
        let r = rp.Csr.rp_row in
        (* partitions touched by this row's edits (edits come columns
           ascending, so partitions arrive ascending: dedup adjacent) *)
        let parts =
          List.rev
            (List.fold_left
               (fun acc (j, _) ->
                 let p = j / lv.hl_part_cols in
                 match acc with p' :: _ when p' = p -> acc | _ -> p :: acc)
               [] rp.Csr.rp_edits)
        in
        let n = Array.length rp.Csr.rp_cols in
        List.iter
          (fun p ->
            let plo_col = p * lv.hl_part_cols in
            let s0 = lower_bound rp.Csr.rp_cols ~lo:0 ~hi:n plo_col in
            let s1 =
              lower_bound rp.Csr.rp_cols ~lo:s0 ~hi:n
                (plo_col + lv.hl_part_cols)
            in
            let l1 = s1 - s0 in
            let l0 = lv.hl_plen.(p).(r) in
            let a0 = lv.hl_assign.(p).(r) in
            let stay =
              a0 >= 0 && l1 >= 1
              &&
              let w0 = 1 lsl a0 in
              l1 <= w0
              && not (bucket_exp l1 < a0 && l1 <= (w0 / 2) - lv.hl_slack)
            in
            if stay then begin
              if bucket_exp l1 < a0 then incr deferred;
              inplace_q := (p, a0, r, l0, l1) :: !inplace_q;
              lv.hl_plen.(p).(r) <- l1
            end
            else begin
              (match a0 with
              | -1 -> ()
              | -2 -> mark_chunks p l0
              | b0 -> mark p b0);
              (if l1 = 0 then lv.hl_assign.(p).(r) <- -1
               else if l1 > lv.hl_max_width then begin
                 lv.hl_assign.(p).(r) <- -2;
                 mark_chunks p l1
               end
               else begin
                 let b1 = bucket_exp l1 in
                 lv.hl_assign.(p).(r) <- b1;
                 mark p b1
               end);
              lv.hl_plen.(p).(r) <- l1;
              if not (a0 = -1 && l1 = 0) then incr migrated
            end)
          parts)
      patches;
    (* Phase 2: in-place segment rewrites, skipping buckets a migration is
       about to rebuild anyway.  Touched indices/data tensors get exactly
       one version bump; the row-map tensors are untouched, so their
       declared ordering facts persist and parallel dispatch stays on the
       fast path. *)
    let touched : live_bucket list ref = ref [] in
    let note lb =
      if not (List.memq lb !touched) then touched := lb :: !touched
    in
    let inplace = ref 0 in
    List.iter
      (fun (p, b, r, l0, l1) ->
        if not (Hashtbl.mem dirty (p, b)) then begin
          let lb =
            List.find
              (fun lb -> lb.lb_part = p && lb.lb_b = b)
              lv.hl_buckets
          in
          let s = Hashtbl.find lb.lb_pos r in
          let w = 1 lsl b in
          let lo = indptr.(r) and hi = indptr.(r + 1) in
          let s0 = lower_bound csr_idx ~lo ~hi (p * lv.hl_part_cols) in
          for q = 0 to l1 - 1 do
            lb.lb_indices.((s * w) + q) <- csr_idx.(s0 + q);
            lb.lb_data.((s * w) + q) <- csr_val.(s0 + q)
          done;
          for q = l1 to w - 1 do
            lb.lb_indices.((s * w) + q) <- lv.hl_cols;
            lb.lb_data.((s * w) + q) <- 0.0
          done;
          lb.lb_padded <- lb.lb_padded + (l0 - l1);
          note lb;
          incr inplace
        end)
      !inplace_q;
    List.iter
      (fun lb ->
        Tir.Tensor.touch lb.lb_idx_t;
        Tir.Tensor.touch lb.lb_val_t)
      !touched;
    (* Phase 3: rebuild dirty buckets from the patched CSR, walking the
       assignment map — O(rows + bucket entries) per dirty bucket, and the
       slot order (rows ascending, chunks ascending) matches the cold
       build.  Fresh buckets get fresh tensors; the generation bump tells
       binding holders to re-derive. *)
    let rebuilt = ref 0 and shape_changed = ref false in
    let dirty_list =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) dirty [])
    in
    List.iter
      (fun (p, b) ->
        let assign = lv.hl_assign.(p) in
        let plo_col = p * lv.hl_part_cols in
        let phi_col = plo_col + lv.hl_part_cols in
        let rows_list = ref [] in
        let seg_entries s0 s1 =
          let es = ref [] in
          for t = s1 - 1 downto s0 do
            es := (csr_idx.(t), csr_val.(t)) :: !es
          done;
          !es
        in
        for r = 0 to lv.hl_rows - 1 do
          let a = assign.(r) in
          if a = b then begin
            let lo = indptr.(r) and hi = indptr.(r + 1) in
            let s0 = lower_bound csr_idx ~lo ~hi plo_col in
            let s1 = lower_bound csr_idx ~lo:s0 ~hi phi_col in
            rows_list := (r, seg_entries s0 s1) :: !rows_list
          end
          else if a = -2 then begin
            let lo = indptr.(r) and hi = indptr.(r + 1) in
            let s0 = lower_bound csr_idx ~lo ~hi plo_col in
            let s1 = lower_bound csr_idx ~lo:s0 ~hi phi_col in
            let s = ref s0 in
            while !s < s1 do
              let e = min s1 (!s + lv.hl_max_width) in
              if bucket_exp (e - !s) = b then
                rows_list := (r, seg_entries !s e) :: !rows_list;
              s := e
            done
          end
        done;
        let rows_list = List.rev !rows_list in
        let old =
          List.find_opt
            (fun lb -> lb.lb_part = p && lb.lb_b = b)
            lv.hl_buckets
        in
        match (rows_list, old) with
        | [], None -> ()
        | [], Some _ ->
            shape_changed := true;
            incr rebuilt;
            lv.hl_buckets <-
              List.filter
                (fun lb -> not (lb.lb_part = p && lb.lb_b = b))
                lv.hl_buckets
        | rl, _ ->
            (match old with
            | Some o when o.lb_rows = List.length rl -> ()
            | _ -> shape_changed := true);
            incr rebuilt;
            let fresh = mk_live_bucket ~cols:lv.hl_cols ~assign ~part:p ~b rl in
            lv.hl_buckets <-
              (match old with
              | Some _ ->
                  List.map
                    (fun lb ->
                      if lb.lb_part = p && lb.lb_b = b then fresh else lb)
                    lv.hl_buckets
              | None -> insert_sorted fresh lv.hl_buckets))
      dirty_list;
    if !rebuilt > 0 then lv.hl_generation <- lv.hl_generation + 1;
    { di_inplace = !inplace;
      di_migrated = !migrated;
      di_deferred = !deferred;
      di_rebuilt = !rebuilt;
      di_shape_changed = !shape_changed }
  end

(* Escape hatch: shed all hysteresis retention by re-bucketing cold from
   the patched CSR (assignments reset to the slack-free rule). *)
let force_rebucket (lv : live) : unit =
  cold_fill lv;
  lv.hl_generation <- lv.hl_generation + 1

let to_dense (h : t) : Dense.t =
  let d = Dense.create h.rows h.cols in
  List.iter
    (fun b ->
      let e = Ell.to_dense b.bk_ell ~orig_rows:h.rows in
      for i = 0 to h.rows - 1 do
        for j = 0 to h.cols - 1 do
          Dense.set d i j (Dense.get d i j +. Dense.get e i j)
        done
      done)
    h.buckets;
  d
