(** Set-associative LRU cache simulator over a flat simulated address space:
    one instance per SM models the L1s, one shared instance the L2.
    Produces the hit rates of Figure 12 and the DRAM-traffic term of the
    kernel cost model.  A set's ways are placed when it is first touched,
    so storage grows with the sets a run uses. *)

type t = {
  sets : int;
  assoc : int;
  line : int;
  mutable index : int array;
  mutable chunks : int array array;
  mutable placed : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

val create : bytes:int -> line:int -> assoc:int -> t

val access_line : t -> int -> bool
(** Access one line by byte address; true on hit. *)

val run : t -> base:int -> stride:int -> count:int -> bytes:int -> unit
(** Strided run of accesses; dense sub-line strides collapse to a sweep.
    The touched lines' hits and misses accumulate in [hits] and [misses]. *)

val access_run : t -> base:int -> stride:int -> count:int -> bytes:int -> int * int
(** {!run}, returning the (hits, misses) it added. *)
