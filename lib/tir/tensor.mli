(** Runtime storage bound to IR buffers: flat row-major arrays of floats,
    ints or booleans.  Float16 buffers round every stored value through half
    precision ({!Dtype.round_f16}). *)

type data =
  | F of float array
  | I of int array
  | B of bool array

type t = {
  dtype : Dtype.t;
  shape : int array;
  data : data;
  id : int;  (** process-unique identity; {!copy} allocates a fresh one *)
  mutable version : int;
      (** mutation stamp, bumped by every write ({!set_f}, {!set_i},
          {!fill_f}, {!touch}); {!Facts} memoizes scans against it *)
}

val numel : t -> int
(** Element count, the product of [shape].  Invariant: the storage array in
    [data] holds exactly [numel] elements.  Every constructor in this module
    enforces it ({!create} sizes the storage from the shape,
    {!of_float_array}/{!of_int_array} reject a mismatch, {!copy} keeps
    both), and code outside this module must not build a [t] directly.  So
    [numel] is the storage length, read in O(1), and the compiled engine
    bounds-checks flat offsets against that length. *)

val create : Dtype.t -> int list -> t
(** Zero-initialized tensor. *)

val of_float_array : ?dtype:Dtype.t -> int list -> float array -> t
val of_int_array : ?dtype:Dtype.t -> int list -> int array -> t

val flat_index : t -> int array -> int
(** Row-major flat offset; raises [Invalid_argument] when out of bounds. *)

val get_f : t -> int -> float
(** Read element at a flat offset as a float. *)

val get_i : t -> int -> int
val set_f : t -> int -> float -> unit
val set_i : t -> int -> int -> unit
val fill_f : t -> float -> unit
val to_float_array : t -> float array
val to_int_array : t -> int array

val copy : ?keep_facts:bool -> t -> t
(** Deep copy with a fresh identity (version 0).  [keep_facts] (default
    off) re-declares the original's declared facts on the copy — sound
    because the copy's contents are bit-identical at creation; scanned
    facts are not carried.  The delta path uses it when freezing a live
    matrix into an immutable snapshot. *)

val touch : t -> unit
(** Bump the mutation version once.  The delta path patches the underlying
    arrays directly and calls [touch] exactly once per edit batch, so the
    facts machinery observes a single invalidation instead of one
    per element. *)

val bytes : t -> int
(** Storage size in bytes (used for memory-footprint accounting). *)

(** Structural facts about index tensors, consumed by the write-disjointness
    analysis: a fact is either [declare]d by a format constructor (trusted —
    e.g. a CSR indptr is non-decreasing by construction) or established by a
    cheap O(n) scan, memoized per tensor identity and invalidated when the
    mutation {!field-version} stamp moves. *)
module Facts : sig
  type fact =
    | Injective  (** all elements pairwise distinct *)
    | Monotone_nd  (** non-decreasing *)
    | Monotone_inc  (** strictly increasing; implies the other two *)

  val declare : t -> fact -> unit
  (** Record [fact] as true by construction for the tensor's current
      version.  Declarations are trusted — callers assert only what the
      construction actually guarantees. *)

  val declared : t -> fact list
  (** The facts declared (not scanned) for the tensor's current version;
      empty when the tensor mutated since they were declared.  The pipeline
      cache snapshots these so a warm hit can restore them with {!redeclare}
      after the fact table was cleared, instead of paying a dispatch-time
      rescan. *)

  val redeclare : t -> fact list -> unit
  (** Re-assert a snapshot taken by {!declared}.  Only sound when the
      tensor's version is unchanged since the snapshot — the pipeline cache
      records the version alongside and checks it before restoring. *)

  val redeclare_span : t -> fact list -> lo:int -> hi:int -> fact list
  (** Re-establish facts for the tensor's *current* version after an
      in-place patch confined to flat positions [[lo, hi)]: each ordering
      fact in the list is verified over the touched span plus one boundary
      pair on each side — O(hi - lo), not O(n) — and re-declared on
      success.  Returns the facts actually re-established.  Sound only
      under the caller's contract that the facts held before the patch and
      nothing outside the span changed.  [Injective] has no local witness
      and is re-established only when implied by a re-verified
      [Monotone_inc].  Counts against {!span_check_count}, never
      {!scan_count}. *)

  val holds : t -> fact -> bool
  (** Is [fact] known (declared, or implied by a declared/scanned stronger
      fact), or establishable by a scan?  Scans memoize their verdict —
      positive or negative — until the tensor's next mutation.  Always false
      for non-integer storage. *)

  val declare_order : t -> unit
  (** One construction-time pass declaring the strongest ordering fact the
      integer data supports ([Monotone_inc] if strictly increasing, else
      [Monotone_nd] if non-decreasing, else nothing).  Does not count as a
      {!scan_count} scan; no-op on non-integer tensors.  Format constructors
      use this for index arrays whose order is data-dependent (explicit row
      maps). *)

  val scan_count : unit -> int
  (** O(n) scans run so far (memo misses); tests use this to observe
      invalidation. *)

  val span_check_count : unit -> int
  (** O(span) re-verifications run by {!redeclare_span}; kept separate from
      {!scan_count} so the delta path's bounded work stays observable. *)

  val eviction_count : unit -> int
  (** Entries evicted at the table's size bound.  Eviction is
      oldest-first and prefers scanned-only entries, so declared facts on
      live tensors survive churn from short-lived scratch tensors. *)

  val capacity : unit -> int
  (** The table's entry bound ([max_entries]). *)

  val size : unit -> int
  (** Entries currently in the table. *)

  val clear : unit -> unit
  (** Drop every recorded fact (declared and scanned). *)
end
