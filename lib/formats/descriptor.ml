(* Declarative format descriptors: generic construction, derived tensors
   with facts, and stage-I axis emission (DESIGN.md §3g).  See
   descriptor.mli for the model. *)

type transform =
  | Identity
  | Blocked of int
  | Row_tiled of int
  | Diagonal

type t = {
  name : string;
  dims : int array;
  transform : transform;
  levels : Levels.t list;
}

let arity (d : t) : int =
  match d.transform with
  | Identity -> Array.length d.dims
  | Blocked _ -> 4
  | Row_tiled _ -> 3
  | Diagonal -> 2

let make ?(name = "fmt") ?(transform = Identity) ~dims levels =
  (match transform with
  | Blocked b when b < 1 -> invalid_arg "Descriptor.make: block < 1"
  | Row_tiled t when t < 1 -> invalid_arg "Descriptor.make: tile < 1"
  | (Blocked _ | Row_tiled _ | Diagonal) when Array.length dims <> 2 ->
      invalid_arg "Descriptor.make: 2-d transform over non-matrix dims"
  | _ -> ());
  Array.iter
    (fun n -> if n < 0 then invalid_arg "Descriptor.make: negative dim")
    dims;
  let d = { name; dims; transform; levels } in
  if List.length levels <> arity d then
    invalid_arg "Descriptor.make: level count does not match transform arity";
  d

let cdiv a b = (a + b - 1) / b

(* Level-space extent per level (e.g. [Blocked b] over r x c gives
   [ceil(r/b); ceil(c/b); b; b]). *)
let level_extents (d : t) : int array =
  match (d.transform, d.dims) with
  | Identity, dims -> Array.copy dims
  | Blocked b, [| r; c |] -> [| cdiv r b; cdiv c b; b; b |]
  | Row_tiled t, [| r; c |] -> [| cdiv r t; c; t |]
  | Diagonal, [| r; c |] -> [| max 0 (r + c - 1); r |]
  | _ -> invalid_arg "Descriptor.level_extents: transform arity"

let apply_transform (tr : transform) (co : int array) : int array =
  match (tr, co) with
  | Identity, _ -> co
  | Blocked b, [| i; j |] -> [| i / b; j / b; i mod b; j mod b |]
  | Row_tiled t, [| i; j |] -> [| i / t; j; i mod t |]
  | Diagonal, [| i; j |] -> [| j - i; i |]
  | _ -> invalid_arg "Descriptor.apply_transform: arity"

let to_trace (d : t) : string =
  Printf.sprintf "%s[%s;%s](%s)" d.name
    (match d.transform with
    | Identity -> "id"
    | Blocked b -> Printf.sprintf "blk%d" b
    | Row_tiled t -> Printf.sprintf "tile%d" t
    | Diagonal -> "diag")
    (String.concat ";" (List.map Levels.describe d.levels))
    (String.concat "x" (Array.to_list (Array.map string_of_int d.dims)))

(* ------------------------------------------------------------------ *)
(* Canonical intermediate                                              *)
(* ------------------------------------------------------------------ *)

type canon = {
  cn_dims : int array;
  cn_entries : (int array * float) array;
}

(* Monomorphic lexicographic coordinate compare: the construction hot loop
   sorts every entry array through this, and the generic polymorphic
   [compare] on int arrays costs several times as much per call. *)
let cmp_coords (a : int array) (b : int array) : int =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let rec go i =
    if i = n then Int.compare la lb
    else
      let d = Int.compare a.(i) b.(i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Pool-backed construction helpers                                    *)
(* ------------------------------------------------------------------ *)

(* Construction fans out over the engine's domain pool through
   [Engine.parallel_tasks]; the fan-out is lease-aware (a leased driver's
   construction stays on its reserved workers) and collapses to serial
   inside another task, so Hyb's per-bucket builds calling back into
   [build_rows] never oversubscribe the pool. *)

let par_sort_min = 1 lsl 13
let par_chunk_min = 1 lsl 11

(* Split [0, np) into per-domain ranges and run [f lo hi] on each; [f] must
   only write state owned by indices in its range.  Serial below the
   amortization threshold or when no parallel width is available. *)
let par_chunks (np : int) (f : int -> int -> unit) : unit =
  let d =
    min (min (Engine.parallel_width ()) 16) (max 1 (np / par_chunk_min))
  in
  if d <= 1 then f 0 np
  else Engine.parallel_tasks d (fun i -> f (i * np / d) ((i + 1) * np / d))

(* Parallel merge sort, stable and therefore output-identical to
   [Array.stable_sort]: segments sorted per task, then pairwise merged
   (ties take the left segment, which precedes in original order). *)
let parallel_stable_sort (cmp : 'a -> 'a -> int) (a : 'a array) : unit =
  let n = Array.length a in
  let d =
    min (min (Engine.parallel_width ()) 16) (max 1 (n / par_sort_min))
  in
  if d <= 1 then Array.stable_sort cmp a
  else begin
    let bounds = Array.init (d + 1) (fun i -> i * n / d) in
    let segs =
      Array.init d (fun i -> Array.sub a bounds.(i) (bounds.(i + 1) - bounds.(i)))
    in
    Engine.parallel_tasks d (fun i -> Array.stable_sort cmp segs.(i));
    let merge l r =
      let nl = Array.length l and nr = Array.length r in
      if nl = 0 then r
      else if nr = 0 then l
      else begin
        let out = Array.make (nl + nr) l.(0) in
        let i = ref 0 and j = ref 0 in
        for k = 0 to nl + nr - 1 do
          if !j >= nr || (!i < nl && cmp l.(!i) r.(!j) <= 0) then begin
            out.(k) <- l.(!i);
            incr i
          end
          else begin
            out.(k) <- r.(!j);
            incr j
          end
        done;
        out
      end
    in
    let cur = ref segs in
    while Array.length !cur > 1 do
      let m = Array.length !cur in
      let half = (m + 1) / 2 in
      let prev = !cur in
      let next = Array.make half [||] in
      Engine.parallel_tasks half (fun i ->
          next.(i) <-
            (if (2 * i) + 1 >= m then prev.(2 * i)
             else merge prev.(2 * i) prev.((2 * i) + 1)));
      cur := next
    done;
    Array.blit !cur.(0) 0 a 0 n
  end

(* Stable lexicographic sort + left-to-right duplicate merge, in place on a
   copy (no list intermediate).  Zero-valued sums are kept (compressed
   formats store them, like the legacy constructors); use [filter_zeros] for
   formats that drop them.  Already-sorted inputs (CSR conversions emit
   canonical order) skip the sort entirely. *)
let canon ~(dims : int array) (entries : (int array * float) array) : canon =
  let sorted = Array.copy entries in
  let presorted =
    let ok = ref true in
    let i = ref 1 in
    let n = Array.length sorted in
    while !ok && !i < n do
      if cmp_coords (fst sorted.(!i - 1)) (fst sorted.(!i)) > 0 then
        ok := false;
      incr i
    done;
    !ok
  in
  if not presorted then
    parallel_stable_sort (fun (a, _) (b, _) -> cmp_coords a b) sorted;
  let n = Array.length sorted in
  if n = 0 then { cn_dims = dims; cn_entries = sorted }
  else begin
    let m = ref 0 in
    for i = 1 to n - 1 do
      let co, v = sorted.(i) in
      let co', v' = sorted.(!m) in
      if cmp_coords co co' = 0 then sorted.(!m) <- (co', v' +. v)
      else begin
        incr m;
        sorted.(!m) <- sorted.(i)
      end
    done;
    { cn_dims = dims;
      cn_entries =
        (if !m + 1 = n then sorted else Array.sub sorted 0 (!m + 1)) }
  end

let canon2 ~rows ~cols (entries : (int * int * float) array) : canon =
  Array.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Descriptor.canon2: entry (%d,%d) out of %dx%d" i j
             rows cols))
    entries;
  canon ~dims:[| rows; cols |]
    (Array.map (fun (i, j, v) -> ([| i; j |], v)) entries)

let canon3 ~dims:(di, dj, dk) (entries : (int * int * int * float) array) :
    canon =
  Array.iter
    (fun (i, j, k, _) ->
      if i < 0 || i >= di || j < 0 || j >= dj || k < 0 || k >= dk then
        invalid_arg "Descriptor.canon3: coordinate out of range")
    entries;
  canon ~dims:[| di; dj; dk |]
    (Array.map (fun (i, j, k, v) -> ([| i; j; k |], v)) entries)

let filter_zeros (cn : canon) : canon =
  let src = cn.cn_entries in
  let n = Array.length src in
  let m = ref 0 in
  Array.iter (fun (_, v) -> if v <> 0.0 then incr m) src;
  if !m = n then cn
  else begin
    let out = Array.make !m ([||], 0.0) in
    let k = ref 0 in
    Array.iter
      (fun e ->
        if snd e <> 0.0 then begin
          out.(!k) <- e;
          incr k
        end)
      src;
    { cn with cn_entries = out }
  end

(* ------------------------------------------------------------------ *)
(* Generic construction                                                *)
(* ------------------------------------------------------------------ *)

type level_data = {
  ld_level : Levels.t;
  ld_pos : int array option;
  ld_crd : int array option;
  ld_width : int;
  ld_count : int;
  ld_fact : Tir.Tensor.Facts.fact option;
}

type storage = {
  st_desc : t;
  st_extents : int array;
  st_levels : level_data array;
  st_vals : float array;
  st_nnz : int;
  st_padded : int;
}

(* A group is a contiguous slice of the sorted entry array: the entries
   under one stored position of the current level.  The group array index
   IS the absolute stored position (padding positions are empty slices). *)
type group = { lo : int; hi : int }

let empty_group = { lo = 0; hi = 0 }

(* Effective properties of an explicit coordinate stream, verified with one
   construction-time pass, then mapped through the property->fact table. *)
let order_fact (a : int array) : Tir.Tensor.Facts.fact option =
  let strict = ref true and nondec = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then strict := false;
    if a.(i) < a.(i - 1) then nondec := false
  done;
  Levels.fact_of_props
    { Levels.ordered = !nondec; unique = !strict; full = false }

(* Value layout swap for [panel] compressed levels (SR-BCRS): within each
   group of [g] stored positions, the trailing-dense index becomes the major
   dimension — values form (dense x g) row-major panels (MMA tiles) instead
   of position-major order. *)
let apply_panel (lds : level_data array) (vals : float array) : float array =
  let panel_at = ref None in
  Array.iteri
    (fun l ld ->
      match ld.ld_level with
      | Levels.Compressed { group; panel = true; _ } ->
          panel_at := Some (l, group)
      | _ -> ())
    lds;
  match !panel_at with
  | None -> vals
  | Some (l, g) ->
      let r = ref 1 in
      for q = l + 1 to Array.length lds - 1 do
        if lds.(q).ld_width <= 0 then
          invalid_arg
            "Descriptor.build: panel layout requires fixed-width inner levels";
        r := !r * lds.(q).ld_width
      done;
      let r = !r in
      let t_total = lds.(l).ld_count in
      let out = Array.make (Array.length vals) 0.0 in
      for tpos = 0 to t_total - 1 do
        let gidx = tpos / g and gk = tpos mod g in
        for q = 0 to r - 1 do
          out.((gidx * g * r) + (q * g) + gk) <- vals.((tpos * r) + q)
        done
      done;
      out

(* Descend the level list from [start_depth], partitioning the sorted entry
   slices level by level.  [coord_ofs] maps level depth to entry coordinate
   index (build_rows pre-consumes the root coordinate).  [distinct] asserts
   the entries' full coordinates are pairwise distinct (true for [build]:
   canon merged duplicates and every transform is injective); it gates the
   dense-suffix fast path, which scatters values directly instead of
   partitioning groups and so cannot detect colliding entries itself. *)
let descend (d : t) (extents : int array)
    (entries : (int array * float) array) ~(coord_ofs : int)
    ~(start_depth : int) ~(distinct : bool) ~(parents : group array)
    ~(pre : level_data list) : storage =
  let levels_arr = Array.of_list d.levels in
  let n_levels = Array.length levels_arr in
  (* the longest all-Dense level suffix: with [distinct] entries those
     levels need no group partitioning — each entry's slot is a closed-form
     function of its remaining coordinates (per-level scans over np * extent
     group records are the dominant cost of dense-heavy descriptors like
     DIA's row level and BSR's two block levels) *)
  let suffix_start =
    if not distinct then n_levels
    else begin
      let s = ref n_levels in
      while
        !s > start_depth
        &&
        match levels_arr.(!s - 1) with
        | Levels.Dense _ -> true
        | _ -> false
      do
        decr s
      done;
      !s
    end
  in
  let parents = ref parents in
  let out = ref pre in
  for l = start_depth to suffix_start - 1 do
    let cdl e = (fst entries.(e)).(l - coord_ofs) in
    let ld, children =
      match levels_arr.(l) with
      | Levels.Dense { extent } ->
          let parents_a = !parents in
          let np = Array.length parents_a in
          let children = Array.make (np * extent) empty_group in
          par_chunks np (fun p0 p1 ->
              for p = p0 to p1 - 1 do
                let g = parents_a.(p) in
                let e = ref g.lo in
                for c = 0 to extent - 1 do
                  let start = !e in
                  while !e < g.hi && cdl !e = c do
                    incr e
                  done;
                  children.((p * extent) + c) <- { lo = start; hi = !e }
                done;
                if !e <> g.hi then
                  invalid_arg
                    (Printf.sprintf
                       "Descriptor.build(%s): dense coordinate out of range \
                        at level %d"
                       d.name l)
              done);
          ( { ld_level = levels_arr.(l); ld_pos = None; ld_crd = None;
              ld_width = extent; ld_count = np * extent; ld_fact = None },
            children )
      | Levels.Compressed { props; group; panel = _ } ->
          let parents_a = !parents in
          let np = Array.length parents_a in
          let unique = props.Levels.unique in
          let runs_in g =
            if not unique then g.hi - g.lo
            else begin
              let n = ref 0 and e = ref g.lo in
              while !e < g.hi do
                let c = cdl !e in
                incr n;
                while !e < g.hi && cdl !e = c do
                  incr e
                done
              done;
              !n
            end
          in
          (* two-phase so both the run counting and the fill go wide: counts
             per parent first, serial prefix sum, then each parent fills its
             own [pos.(p), pos.(p+1)) slice *)
          let counts = Array.make (max 1 np) 0 in
          par_chunks np (fun p0 p1 ->
              for p = p0 to p1 - 1 do
                let n = runs_in parents_a.(p) in
                counts.(p) <- (if group > 1 then cdiv n group * group else n)
              done);
          let pos = Array.make (np + 1) 0 in
          for p = 0 to np - 1 do
            pos.(p + 1) <- pos.(p) + counts.(p)
          done;
          let total = pos.(np) in
          let crd = Array.make total 0 in
          let children = Array.make total empty_group in
          par_chunks np (fun p0 p1 ->
              for p = p0 to p1 - 1 do
                let g = parents_a.(p) in
                let slot = ref pos.(p) in
                let e = ref g.lo in
                while !e < g.hi do
                  let c = cdl !e in
                  let start = !e in
                  if unique then
                    while !e < g.hi && cdl !e = c do
                      incr e
                    done
                  else incr e;
                  crd.(!slot) <- c;
                  children.(!slot) <- { lo = start; hi = !e };
                  incr slot
                done
              done);
          (* the shared pipeline sorts, so a root compressed level's
             coordinates are ascending by construction: the fact comes
             straight off the property table *)
          let fact =
            if l = 0 then
              Levels.fact_of_props { props with Levels.ordered = true }
            else None
          in
          ( { ld_level = levels_arr.(l); ld_pos = Some pos;
              ld_crd = Some crd; ld_width = 0; ld_count = total;
              ld_fact = fact },
            children )
      | Levels.Singleton _ ->
          let np = Array.length !parents in
          let crd = Array.make np 0 in
          Array.iteri
            (fun p g ->
              if g.hi > g.lo then begin
                let c = cdl g.lo in
                for e = g.lo + 1 to g.hi - 1 do
                  if cdl e <> c then
                    invalid_arg
                      "Descriptor.build: singleton level with branching \
                       coordinates"
                done;
                crd.(p) <- c
              end)
            !parents;
          ( { ld_level = levels_arr.(l); ld_pos = None; ld_crd = Some crd;
              ld_width = 1; ld_count = np;
              ld_fact = (if l = 0 then order_fact crd else None) },
            !parents )
      | Levels.Fixed_slice { width; pad_coord } ->
          let np = Array.length !parents in
          let pad = Option.value pad_coord ~default:0 in
          let variable =
            match width with
            | Levels.Fit s -> s <> max_int
            | Levels.Const _ -> false
          in
          let widths = Array.make np 1 in
          (match width with
          | Levels.Const w ->
              Array.iteri
                (fun p g ->
                  if g.hi - g.lo > w then
                    invalid_arg "Descriptor.build: fixed slice overfull";
                  widths.(p) <- w)
                !parents
          | Levels.Fit s ->
              let step = if s = max_int then max 1 np else s in
              let nslices = (np + step - 1) / step in
              let parents_a = !parents in
              let slice_widths sl0 sl1 =
                for sl = sl0 to sl1 - 1 do
                  let p0 = sl * step in
                  let hi = min np (p0 + step) in
                  let w = ref 1 in
                  for q = p0 to hi - 1 do
                    w := max !w (parents_a.(q).hi - parents_a.(q).lo)
                  done;
                  for q = p0 to hi - 1 do
                    widths.(q) <- !w
                  done
                done
              in
              (* slices are independent: fan the per-slice max/fill out over
                 the pool (SELL has many short slices; ELL is one slice
                 spanning every parent, where the serial max scan is already
                 O(np) and not worth forking for) *)
              if nslices > 1 then par_chunks nslices slice_widths
              else slice_widths 0 nslices);
          let pos = Array.make (np + 1) 0 in
          for p = 0 to np - 1 do
            pos.(p + 1) <- pos.(p) + widths.(p)
          done;
          let total = pos.(np) in
          let crd = Array.make total pad in
          let children = Array.make total empty_group in
          let parents_a = !parents in
          (* parents own disjoint slot ranges [pos p, pos p + len): the fill
             parallelizes with no overlap — the single-threaded version of
             this leg was the worst construction ratio in BENCH_formats *)
          par_chunks np (fun p0 p1 ->
              for p = p0 to p1 - 1 do
                let g = parents_a.(p) in
                let base = pos.(p) in
                for q = 0 to g.hi - g.lo - 1 do
                  crd.(base + q) <- cdl (g.lo + q);
                  children.(base + q) <- { lo = g.lo + q; hi = g.lo + q + 1 }
                done
              done);
          let gwidth =
            if variable then 0
            else if np > 0 then widths.(0)
            else match width with Levels.Const w -> w | Levels.Fit _ -> 1
          in
          ( { ld_level = levels_arr.(l);
              ld_pos = (if variable then Some pos else None);
              ld_crd = Some crd; ld_width = gwidth; ld_count = total;
              ld_fact = None },
            children )
      | Levels.Offset { band } ->
          if l <> 0 then
            invalid_arg "Descriptor.build: offset level must be root";
          let g0 = (!parents).(0) in
          let runs = ref [] in
          let e = ref g0.lo in
          while !e < g0.hi do
            let c = cdl !e in
            let start = !e in
            while !e < g0.hi && cdl !e = c do
              incr e
            done;
            runs := (c, { lo = start; hi = !e }) :: !runs
          done;
          let runs = List.rev !runs in
          let offsets, children =
            match band with
            | None ->
                ( Array.of_list (List.map fst runs),
                  Array.of_list (List.map snd runs) )
            | Some b ->
                List.iter
                  (fun (o, _) ->
                    if o < -b || o > b then
                      invalid_arg
                        "Descriptor.build: diagonal outside the band")
                  runs;
                let offsets = Array.init ((2 * b) + 1) (fun s -> s - b) in
                let children = Array.make ((2 * b) + 1) empty_group in
                List.iter (fun (o, g) -> children.(o + b) <- g) runs;
                (offsets, children)
          in
          ( { ld_level = levels_arr.(l); ld_pos = None;
              ld_crd = Some offsets; ld_width = 0;
              ld_count = Array.length offsets;
              ld_fact = Some Tir.Tensor.Facts.Monotone_inc },
            children )
    in
    out := ld :: !out;
    parents := children
  done;
  let vals =
    if suffix_start < n_levels then begin
      (* dense-suffix scatter: one pass over the entries, no group records *)
      let exts =
        Array.init (n_levels - suffix_start) (fun i ->
            match levels_arr.(suffix_start + i) with
            | Levels.Dense { extent } -> extent
            | _ -> assert false)
      in
      let np = Array.length !parents in
      let cnt = ref np in
      Array.iteri
        (fun i ext ->
          cnt := !cnt * ext;
          out :=
            { ld_level = levels_arr.(suffix_start + i); ld_pos = None;
              ld_crd = None; ld_width = ext; ld_count = !cnt;
              ld_fact = None }
            :: !out)
        exts;
      let vals = Array.make !cnt 0.0 in
      let parents_a = !parents in
      par_chunks (Array.length parents_a) (fun p0 p1 ->
          for p = p0 to p1 - 1 do
            let g = parents_a.(p) in
            for e = g.lo to g.hi - 1 do
              let co = fst entries.(e) in
              let slot = ref p in
              for i = 0 to Array.length exts - 1 do
                let c = co.(suffix_start + i - coord_ofs) in
                if c < 0 || c >= exts.(i) then
                  invalid_arg
                    (Printf.sprintf
                       "Descriptor.build(%s): dense coordinate out of range \
                        at level %d"
                       d.name (suffix_start + i));
                slot := (!slot * exts.(i)) + c
              done;
              vals.(!slot) <- snd entries.(e)
            done
          done);
      vals
    end
    else begin
      let leaves = !parents in
      let nl = Array.length leaves in
      let vals = Array.make nl 0.0 in
      (* one slot per leaf; padded formats (ELL) have far more leaves than
         entries, so this leg scales with slots and is worth fanning out *)
      let overfull = Atomic.make false in
      par_chunks nl (fun i0 i1 ->
          for i = i0 to i1 - 1 do
            let g = leaves.(i) in
            if g.hi - g.lo > 1 then Atomic.set overfull true
            else if g.hi > g.lo then vals.(i) <- snd entries.(g.lo)
          done);
      if Atomic.get overfull then
        invalid_arg "Descriptor.build: levels do not discriminate entries";
      vals
    end
  in
  let lds = Array.of_list (List.rev !out) in
  let vals = apply_panel lds vals in
  { st_desc = d; st_extents = extents; st_levels = lds; st_vals = vals;
    st_nnz = Array.length entries;
    st_padded = Array.length vals - Array.length entries }

(* Direct DIA construction: the generic path pays the full transform +
   re-sort + level descent for a format whose layout is a closed form of
   (i, j) — diagonal slot for j - i, row i within the slot.  One presence
   scan plus one scatter reproduces descend's output exactly: the presence
   array enumerates offsets ascending (the order the (j-i, i) re-sort would
   have grouped them in), values land at [slot * extent + i] like the
   dense-suffix scatter.  Returns [None] — fall back to the generic
   descent — when an offset falls outside the [-(rows-1), cols-1] span the
   presence scan covers (possible only for coordinates outside [dims]). *)
let build_diagonal (d : t) (extents : int array) (cn : canon)
    ~(band : int option) ~(extent : int) : storage option =
  let rows = d.dims.(0) and cols = d.dims.(1) in
  let entries = cn.cn_entries in
  let n = Array.length entries in
  let span = max 0 (rows + cols - 1) in
  let base = rows - 1 in
  let in_span = ref true in
  Array.iter
    (fun (co, _) ->
      let o = co.(1) - co.(0) in
      if o + base < 0 || o + base >= span then in_span := false)
    entries;
  if not !in_span then None
  else begin
    let offsets =
      match band with
      | Some b ->
          Array.iter
            (fun (co, _) ->
              let o = co.(1) - co.(0) in
              if o < -b || o > b then
                invalid_arg "Descriptor.build: diagonal outside the band")
            entries;
          Array.init ((2 * b) + 1) (fun s -> s - b)
      | None ->
          let present = Array.make (max 1 span) false in
          Array.iter
            (fun (co, _) -> present.(co.(1) - co.(0) + base) <- true)
            entries;
          let nd = ref 0 in
          Array.iter (fun p -> if p then incr nd) present;
          let offsets = Array.make !nd 0 in
          let s = ref 0 in
          Array.iteri
            (fun idx p ->
              if p then begin
                offsets.(!s) <- idx - base;
                incr s
              end)
            present;
          offsets
    in
    let nd = Array.length offsets in
    let slot =
      match band with
      | Some b -> fun o -> o + b
      | None ->
          let lut = Array.make (max 1 span) 0 in
          Array.iteri (fun s o -> lut.(o + base) <- s) offsets;
          fun o -> lut.(o + base)
    in
    let vals = Array.make (nd * extent) 0.0 in
    par_chunks n (fun e0 e1 ->
        for e = e0 to e1 - 1 do
          let co, v = entries.(e) in
          let i = co.(0) in
          if i < 0 || i >= extent then
            invalid_arg
              (Printf.sprintf
                 "Descriptor.build(%s): dense coordinate out of range at \
                  level 1"
                 d.name);
          vals.((slot (co.(1) - i) * extent) + i) <- v
        done);
    let lds =
      [| { ld_level = List.hd d.levels; ld_pos = None;
           ld_crd = Some offsets; ld_width = 0; ld_count = nd;
           ld_fact = Some Tir.Tensor.Facts.Monotone_inc };
         { ld_level = List.nth d.levels 1; ld_pos = None; ld_crd = None;
           ld_width = extent; ld_count = nd * extent; ld_fact = None } |]
    in
    Some
      { st_desc = d; st_extents = extents; st_levels = lds; st_vals = vals;
        st_nnz = n; st_padded = (nd * extent) - n }
  end

(* Sort transform-mapped entries into level order.  Blocked/Row_tiled
   coordinates are nonnegative and extent-bounded, so lexicographic order
   equals the integer order of a Horner fold over the level extents — one
   int compare per element pair instead of an array walk.  Diagonal
   coordinates can be negative (j - i), and out-of-range coordinates would
   scramble the fold, so both take the direct comparison sort. *)
let sort_mapped (tr : transform) (extents : int array)
    (mapped : (int array * float) array) : unit =
  let key_fits =
    match tr with
    | Blocked _ | Row_tiled _ ->
        Array.for_all (fun e -> e > 0) extents
        && Array.fold_left
             (fun acc e ->
               match acc with
               | Some p when p <= max_int / e -> Some (p * e)
               | _ -> None)
             (Some 1) extents
           <> None
    | _ -> false
  in
  let keyed =
    if not key_fits then None
    else
      let nl = Array.length extents in
      try
        Some
          (Array.map
             (fun ((co, _) as e) ->
               let k = ref 0 in
               for l = 0 to nl - 1 do
                 let c = co.(l) in
                 if c < 0 || c >= extents.(l) then raise Exit;
                 k := (!k * extents.(l)) + c
               done;
               (!k, e))
             mapped)
      with Exit -> None
  in
  match keyed with
  | Some ks ->
      parallel_stable_sort (fun (a, _) (b, _) -> Int.compare a b) ks;
      Array.iteri (fun i (_, e) -> mapped.(i) <- e) ks
  | None -> parallel_stable_sort (fun (a, _) (b, _) -> cmp_coords a b) mapped

let build (d : t) (cn : canon) : storage =
  if cn.cn_dims <> d.dims then
    invalid_arg "Descriptor.build: canon dims do not match descriptor";
  let extents = level_extents d in
  let direct =
    match (d.transform, d.levels) with
    | Diagonal, [ Levels.Offset { band }; Levels.Dense { extent } ] ->
        build_diagonal d extents cn ~band ~extent
    | _ -> None
  in
  match direct with
  | Some st -> st
  | None ->
      let entries =
        match d.transform with
        | Identity -> cn.cn_entries
        | tr ->
            (* injective transforms keep entries distinct: a plain re-sort in
               level space, no second merge *)
            let mapped =
              Array.map
                (fun (co, v) -> (apply_transform tr co, v))
                cn.cn_entries
            in
            sort_mapped tr extents mapped;
            mapped
      in
      descend d extents entries ~coord_ofs:0 ~start_depth:0 ~distinct:true
        ~parents:[| { lo = 0; hi = Array.length entries } |]
        ~pre:[]

let build_rows (d : t) ~(rows : (int * (int * float) list) list) : storage =
  (match d.transform with
  | Identity -> ()
  | _ -> invalid_arg "Descriptor.build_rows: transform must be identity");
  if arity d <> 2 then
    invalid_arg "Descriptor.build_rows: matrix descriptors only";
  (match d.levels with
  | Levels.Singleton _ :: _ -> ()
  | _ -> invalid_arg "Descriptor.build_rows: root level must be singleton");
  let extents = level_extents d in
  let nrows = List.length rows in
  let crd = Array.make nrows 0 in
  let groups = Array.make nrows empty_group in
  let total =
    List.fold_left (fun acc (_, es) -> acc + List.length es) 0 rows
  in
  let entries = Array.make total ([||], 0.0) in
  let n = ref 0 in
  List.iteri
    (fun r (rid, es) ->
      crd.(r) <- rid;
      let lo = !n in
      List.iter
        (fun (c, v) ->
          entries.(!n) <- ([| c |], v);
          incr n)
        es;
      groups.(r) <- { lo; hi = !n })
    rows;
  let root_ld =
    { ld_level = List.hd d.levels; ld_pos = None; ld_crd = Some crd;
      ld_width = 1; ld_count = nrows; ld_fact = order_fact crd }
  in
  descend d extents entries ~coord_ofs:1 ~start_depth:1 ~distinct:false
    ~parents:groups ~pre:[ root_ld ]

(* ------------------------------------------------------------------ *)
(* Derived tensors                                                     *)
(* ------------------------------------------------------------------ *)

let pos_tensor (st : storage) ~(level : int) : Tir.Tensor.t =
  match st.st_levels.(level).ld_pos with
  | None -> invalid_arg "Descriptor.pos_tensor: level stores no positions"
  | Some pos ->
      let t = Tir.Tensor.of_int_array [ Array.length pos ] (Array.copy pos) in
      Tir.Tensor.Facts.declare t Tir.Tensor.Facts.Monotone_nd;
      t

let crd_tensor (st : storage) ~(level : int) : Tir.Tensor.t =
  match st.st_levels.(level).ld_crd with
  | None -> invalid_arg "Descriptor.crd_tensor: level stores no coordinates"
  | Some crd ->
      let n = Array.length crd in
      let t =
        Tir.Tensor.of_int_array [ max 1 n ]
          (if n = 0 then [| 0 |] else Array.copy crd)
      in
      (match st.st_levels.(level).ld_fact with
      | Some f -> Tir.Tensor.Facts.declare t f
      | None -> ());
      t

let vals_tensor ?(dtype = Tir.Dtype.F32) ?shape (st : storage) :
    Tir.Tensor.t =
  let n = Array.length st.st_vals in
  match shape with
  | Some dims ->
      if List.fold_left ( * ) 1 dims <> n then
        invalid_arg "Descriptor.vals_tensor: shape does not cover the values";
      Tir.Tensor.of_float_array ~dtype dims (Array.copy st.st_vals)
  | None ->
      Tir.Tensor.of_float_array ~dtype [ max 1 n ]
        (if n = 0 then [| 0.0 |] else Array.copy st.st_vals)

(* ------------------------------------------------------------------ *)
(* Stage-I axis emission                                               *)
(* ------------------------------------------------------------------ *)

let emit_axes (st : storage) ~(names : string list) ~(buf_prefix : string) :
    Tir.Ir.axis list * (string * Tir.Tensor.t) list =
  let open Tir.Builder in
  let n = Array.length st.st_levels in
  if List.length names <> n then
    invalid_arg "Descriptor.emit_axes: one name per level required";
  let names = Array.of_list names in
  let binds = ref [] and axes = ref [] in
  let parent = ref None in
  for l = 0 to n - 1 do
    let ld = st.st_levels.(l) in
    let pos_buf () =
      let len = Array.length (Option.get ld.ld_pos) in
      let b =
        buffer ~dtype:Tir.Dtype.I32
          (Printf.sprintf "%s_pos%d" buf_prefix l)
          [ int len ]
      in
      binds := (b.Tir.Ir.buf_name, pos_tensor st ~level:l) :: !binds;
      b
    in
    let crd_buf () =
      let b =
        buffer ~dtype:Tir.Dtype.I32
          (Printf.sprintf "%s_crd%d" buf_prefix l)
          [ int (max 1 ld.ld_count) ]
      in
      binds := (b.Tir.Ir.buf_name, crd_tensor st ~level:l) :: !binds;
      b
    in
    let ax =
      match (ld.ld_level, !parent) with
      | Levels.Dense { extent }, _ ->
          dense_fixed names.(l) ~length:(int extent)
      | Levels.Compressed _, Some p ->
          sparse_variable names.(l) ~parent:p
            ~length:(int st.st_extents.(l))
            ~nnz:(int (max 1 ld.ld_count))
            ~indptr:(pos_buf ()) ~indices:(crd_buf ())
      | Levels.Fixed_slice _, Some p when ld.ld_pos <> None ->
          sparse_variable names.(l) ~parent:p
            ~length:(int st.st_extents.(l))
            ~nnz:(int (max 1 ld.ld_count))
            ~indptr:(pos_buf ()) ~indices:(crd_buf ())
      | Levels.Fixed_slice _, Some p ->
          sparse_fixed names.(l) ~parent:p
            ~length:(int st.st_extents.(l))
            ~nnz_cols:(int ld.ld_width) ~indices:(crd_buf ())
      | (Levels.Compressed _ | Levels.Singleton _ | Levels.Offset _), _ ->
          invalid_arg
            (Printf.sprintf
               "Descriptor.emit_axes(%s): level %d (%s) has no stage-I axis \
                form — root coordinate streams use explicit gather plumbing"
               st.st_desc.name l
               (Levels.describe ld.ld_level))
      | Levels.Fixed_slice _, None ->
          invalid_arg "Descriptor.emit_axes: fixed slice cannot be root"
    in
    axes := ax :: !axes;
    parent := Some ax
  done;
  (List.rev !axes, List.rev !binds)
