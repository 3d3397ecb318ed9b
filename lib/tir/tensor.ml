(* Runtime storage bound to IR buffers.  Row-major, flat.  Float16 buffers
   round every stored value through half precision. *)

type data =
  | F of float array
  | I of int array
  | B of bool array

type t = {
  dtype : Dtype.t;
  shape : int array;
  data : data;
  id : int; (* process-unique identity; copies get fresh ids *)
  mutable version : int; (* bumped by every mutating operation *)
}

(* Atomic: tensors are also created by Alloc statements running inside
   domains-parallel loop bodies. *)
let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

(* Invariant: the storage array holds exactly [numel] elements, the product
   of the shape.  [create] sizes the storage from the shape,
   [of_float_array]/[of_int_array] reject a mismatch and [copy] keeps both,
   and no other code builds a [t]; so the element count is the storage
   length, read in O(1).  The compiled engine's O(1) bounds checks rely on
   this too. *)
let numel (t : t) =
  match t.data with
  | F a -> Array.length a
  | I a -> Array.length a
  | B a -> Array.length a

let shape_numel (shape : int array) = Array.fold_left ( * ) 1 shape

let create (dtype : Dtype.t) (shape : int list) : t =
  let shape = Array.of_list shape in
  let n = shape_numel shape in
  let data =
    if Dtype.is_float dtype then F (Array.make n 0.0)
    else if dtype = Dtype.Bool then B (Array.make n false)
    else I (Array.make n 0)
  in
  { dtype; shape; data; id = fresh_id (); version = 0 }

let of_float_array ?(dtype = Dtype.F32) (shape : int list) (a : float array) : t
    =
  let t =
    { dtype; shape = Array.of_list shape; data = F a; id = fresh_id ();
      version = 0 }
  in
  if shape_numel t.shape <> Array.length a then
    invalid_arg "Tensor.of_float_array: shape";
  t

let of_int_array ?(dtype = Dtype.I32) (shape : int list) (a : int array) : t =
  let t =
    { dtype; shape = Array.of_list shape; data = I a; id = fresh_id ();
      version = 0 }
  in
  if shape_numel t.shape <> Array.length a then
    invalid_arg "Tensor.of_int_array: shape";
  t

let flat_index (t : t) (idx : int array) : int =
  let n = Array.length t.shape in
  if Array.length idx <> n then
    invalid_arg
      (Printf.sprintf "Tensor.flat_index: rank mismatch (%d vs %d)"
         (Array.length idx) n);
  let off = ref 0 in
  for d = 0 to n - 1 do
    let i = idx.(d) in
    if i < 0 || i >= t.shape.(d) then
      invalid_arg
        (Printf.sprintf "Tensor.flat_index: index %d out of bounds [0,%d) in dim %d"
           i t.shape.(d) d);
    off := (!off * t.shape.(d)) + i
  done;
  !off

let get_f (t : t) (flat : int) : float =
  match t.data with
  | F a -> a.(flat)
  | I a -> float_of_int a.(flat)
  | B a -> if a.(flat) then 1.0 else 0.0

let get_i (t : t) (flat : int) : int =
  match t.data with
  | I a -> a.(flat)
  | F a -> int_of_float a.(flat)
  | B a -> if a.(flat) then 1 else 0

let set_f (t : t) (flat : int) (x : float) : unit =
  t.version <- t.version + 1;
  match t.data with
  | F a -> a.(flat) <- (if t.dtype = Dtype.F16 then Dtype.round_f16 x else x)
  | I a -> a.(flat) <- int_of_float x
  | B a -> a.(flat) <- (x <> 0.0)

let set_i (t : t) (flat : int) (x : int) : unit =
  t.version <- t.version + 1;
  match t.data with
  | I a -> a.(flat) <- x
  | F a -> a.(flat) <- float_of_int x
  | B a -> a.(flat) <- (x <> 0)

let fill_f (t : t) (x : float) : unit =
  t.version <- t.version + 1;
  match t.data with
  | F a -> Array.fill a 0 (Array.length a) x
  | I a -> Array.fill a 0 (Array.length a) (int_of_float x)
  | B a -> Array.fill a 0 (Array.length a) (x <> 0.0)

let to_float_array (t : t) : float array =
  Array.init (numel t) (fun i -> get_f t i)

let to_int_array (t : t) : int array = Array.init (numel t) (fun i -> get_i t i)

(* One version bump covering a whole in-place patch batch: the delta path
   writes the underlying arrays directly (not through [set_f]/[set_i], which
   would bump once per element) and stamps the tensor exactly once, so the
   facts machinery observes one invalidation per batch. *)
let touch (t : t) : unit = t.version <- t.version + 1

let bytes (t : t) : int = numel t * Dtype.size_bytes t.dtype

(* ------------------------------------------------------------------ *)
(* Structural facts about index tensors                                *)
(* ------------------------------------------------------------------ *)

(* The write-disjointness analysis (Tir.Analysis / the compiled engine's
   parallel dispatch) needs structural facts about index buffers: a row map
   that is injective scatters to all-distinct rows; an indptr-style buffer
   that is monotone cuts safely at any strict increase.  Facts are either
   [declare]d by format constructors (trusted — e.g. a CSR indptr is
   non-decreasing by construction) or established by an O(n) scan, memoized
   per tensor identity and invalidated by the mutation [version] stamp that
   every write bumps. *)
module Facts = struct
  type fact =
    | Injective (* all elements pairwise distinct *)
    | Monotone_nd (* non-decreasing *)
    | Monotone_inc (* strictly increasing: implies both facts above *)

  type entry = {
    mutable e_ver : int; (* tensor version the entry is valid for *)
    mutable e_declared : fact list;
    mutable e_scanned : (fact * bool) list;
    mutable e_tick : int; (* recency stamp, for oldest-first eviction *)
  }

  (* Keyed on tensor id.  Bounded: crossing [max_entries] evicts the
     least-recently-touched entries, preferring scanned-only entries over
     ones holding declared (trusted) facts — a fact a format constructor
     asserted for a live tensor survives churn from short-lived scratch
     tensors.  (Resetting the whole table here would silently turn
     provably-parallel loops into serial fallbacks whenever an unrelated
     allocation crossed the bound.)  The serving layer consults facts from
     concurrent driver domains (each request resolves its gather witnesses
     at dispatch time), so the table is guarded by a mutex; every public
     entry point takes it once and the internal helpers assume it is
     held. *)
  let table : (int, entry) Hashtbl.t = Hashtbl.create 64
  let lock = Mutex.create ()
  let locked f = Mutex.protect lock f
  let max_entries = 4096
  let scans = ref 0
  let span_checks = ref 0
  let clock = ref 0
  let evicted = ref 0

  let scan_count () = locked (fun () -> !scans)
  let span_check_count () = locked (fun () -> !span_checks)
  let eviction_count () = locked (fun () -> !evicted)
  let capacity () = max_entries
  let size () = locked (fun () -> Hashtbl.length table)
  let clear () = locked (fun () -> Hashtbl.reset table)

  (* Shed the oldest quarter of the table.  Entries without declared facts
     (pure scan memos — re-establishable by a rescan) go first, oldest
     first; declared entries are evicted only if the target is still not
     met.  Linear scan + sort: eviction is rare (once per [max_entries/4]
     distinct new tensors) and already amortized against thousands of table
     insertions. *)
  let evict_oldest () =
    let target = max_entries - (max_entries / 4) in
    let entries = Hashtbl.fold (fun id e acc -> (id, e) :: acc) table [] in
    let score (_, e) = ((if e.e_declared = [] then 0 else 1), e.e_tick) in
    let sorted =
      List.sort (fun a b -> compare (score a) (score b)) entries
    in
    let excess = List.length entries - target in
    List.iteri
      (fun i (id, _) ->
        if i < excess then begin
          Hashtbl.remove table id;
          incr evicted
        end)
      sorted

  let entry_for (t : t) : entry =
    incr clock;
    match Hashtbl.find_opt table t.id with
    | Some e ->
        if e.e_ver <> t.version then begin
          (* the tensor mutated since this entry was built: every recorded
             fact is stale *)
          e.e_ver <- t.version;
          e.e_declared <- [];
          e.e_scanned <- []
        end;
        e.e_tick <- !clock;
        e
    | None ->
        if Hashtbl.length table >= max_entries then evict_oldest ();
        let e =
          { e_ver = t.version; e_declared = []; e_scanned = [];
            e_tick = !clock }
        in
        Hashtbl.add table t.id e;
        e

  let declare (t : t) (f : fact) : unit =
    locked (fun () ->
        let e = entry_for t in
        if not (List.mem f e.e_declared) then e.e_declared <- f :: e.e_declared)

  (* Facts declared (not scanned) for the tensor's current version.  The
     pipeline cache snapshots these per compile so a warm hit can re-declare
     them after a table reset/clear instead of re-scanning. *)
  let declared (t : t) : fact list =
    locked (fun () ->
        match Hashtbl.find_opt table t.id with
        | Some e when e.e_ver = t.version -> e.e_declared
        | _ -> [])

  (* [have] certifies [want]: strict monotonicity implies both weaker
     facts. *)
  let implies (have : fact) (want : fact) : bool =
    have = want || (have = Monotone_inc && want <> Monotone_inc)

  let scan (t : t) (f : fact) : bool =
    incr scans;
    let n = numel t in
    match f with
    | Monotone_inc ->
        let ok = ref true in
        for i = 1 to n - 1 do
          if get_i t i <= get_i t (i - 1) then ok := false
        done;
        !ok
    | Monotone_nd ->
        let ok = ref true in
        for i = 1 to n - 1 do
          if get_i t i < get_i t (i - 1) then ok := false
        done;
        !ok
    | Injective -> (
        let seen = Hashtbl.create (2 * max n 1) in
        try
          for i = 0 to n - 1 do
            let v = get_i t i in
            if Hashtbl.mem seen v then raise Exit;
            Hashtbl.add seen v ()
          done;
          true
        with Exit -> false)

  let holds (t : t) (f : fact) : bool =
    (match t.data with I _ -> true | _ -> false)
    && locked (fun () ->
           let e = entry_for t in
           List.exists (fun d -> implies d f) e.e_declared
           || List.exists (fun (s, ok) -> ok && implies s f) e.e_scanned
           ||
           match List.assoc_opt f e.e_scanned with
           | Some ok -> ok
           | None ->
               let ok = scan t f in
               e.e_scanned <- (f, ok) :: e.e_scanned;
               ok)

  (* One construction-time pass declaring the strongest ordering fact the
     data supports.  Format constructors that materialize an index array
     they just built (a row map, a block-row id list) call this instead of
     hand-rolling the check; the pass is a declaration, not a memoized scan,
     so it does not count against [scan_count] — dispatch-time scans stay
     observable in tests.  Non-integer tensors are left untouched. *)
  let declare_order (t : t) : unit =
    match t.data with
    | I a ->
        let n = Array.length a in
        let strict = ref true and nondec = ref true in
        for i = 1 to n - 1 do
          if a.(i) <= a.(i - 1) then strict := false;
          if a.(i) < a.(i - 1) then nondec := false
        done;
        if !strict then declare t Monotone_inc
        else if !nondec then declare t Monotone_nd
    | F _ | B _ -> ()

  let redeclare (t : t) (fs : fact list) : unit = List.iter (declare t) fs

  (* Re-establish [fs] for [t]'s current version after an in-place patch
     confined to flat positions [lo, hi): each ordering fact is verified on
     the touched span plus one boundary pair on each side — O(hi - lo), not
     O(n) — and re-declared on success.  Sound only under the caller's
     contract that the fact held for the pre-patch contents and that no
     position outside [lo, hi) changed.  [Injective] has no local witness
     (a patched value can collide with any untouched one), so it is
     re-established only when implied by a re-verified [Monotone_inc].
     Span verifications are counted separately from [scan_count]
     ([span_check_count]), so tests can assert O(n) dispatch-time rescans
     stayed flat while still observing the O(delta) re-verification
     work. *)
  let redeclare_span (t : t) (fs : fact list) ~(lo : int) ~(hi : int) :
      fact list =
    match t.data with
    | I a ->
        let n = Array.length a in
        (* adjacent pairs (i-1, i) with either index inside [lo, hi) *)
        let first = max 1 lo and last = min (n - 1) hi in
        let pair_ok strict =
          locked (fun () -> incr span_checks);
          let ok = ref true in
          for i = first to last do
            if (if strict then a.(i) <= a.(i - 1) else a.(i) < a.(i - 1))
            then ok := false
          done;
          !ok
        in
        let established =
          List.filter
            (fun f ->
              match f with
              | Monotone_inc -> pair_ok true
              | Monotone_nd -> pair_ok false
              | Injective -> List.mem Monotone_inc fs && pair_ok true)
            fs
        in
        List.iter (declare t) established;
        established
    | F _ | B _ -> []
end

let copy ?(keep_facts = false) (t : t) : t =
  let data =
    match t.data with
    | F a -> F (Array.copy a)
    | I a -> I (Array.copy a)
    | B a -> B (Array.copy a)
  in
  (* fresh identity: the copy's storage diverges from the original's, so it
     must not share the original's fact-memo key *)
  let c =
    { t with shape = Array.copy t.shape; data; id = fresh_id (); version = 0 }
  in
  (* [keep_facts] carries the original's *declared* facts to the fresh id:
     the copy holds bit-identical contents, so every construction-time
     assertion still holds and the copy skips the O(n) dispatch-time rescan
     a bare copy of a declared-monotone indptr would pay.  Scanned facts
     are not carried — they were never asserted by a constructor. *)
  (if keep_facts then
     match Facts.declared t with
     | [] -> ()
     | fs -> List.iter (Facts.declare c) fs);
  c
