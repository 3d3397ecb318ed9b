(** The per-dimension level language of the declarative format descriptors
    (Chou et al.'s format abstraction / the MLIR sparse-tensor dialect,
    applied to the paper's format zoo): a storage format is an ordered list
    of levels, each describing how one (transformed) coordinate dimension is
    stored.  {!Descriptor} derives construction, tensor emission with
    {!Tir.Tensor.Facts} declarations, and stage-I axis emission from a level
    list; the level kinds here only carry the storage shape and the
    [ordered]/[unique]/[full] property flags. *)

(** Level properties in the sense of the format-abstraction literature:
    [ordered] — stored coordinates appear in ascending order; [unique] — no
    coordinate is stored twice under the same parent position; [full] —
    every coordinate in the dimension's range is stored.  Construction
    through {!Descriptor.build} always yields ordered+unique storage (the
    shared pipeline sorts and merges); the flags matter when a level is fed
    an explicit stored stream ({!Descriptor.build_rows}) and for deriving
    facts on root coordinate arrays. *)
type props = {
  ordered : bool;
  unique : bool;
  full : bool;
}

val compressed_props : props
(** ordered+unique but not full: only nonempty coordinates stored. *)

(** Width specification of a {!Fixed_slice} level. *)
type width =
  | Const of int  (** fixed stored slots per parent (hyb buckets) *)
  | Fit of int
      (** per-slice fit: the width of each group of [n] consecutive parents
          is that group's maximum run length (min 1).  [Fit max_int] is
          plain ELL (one global width); [Fit 32] is sliced-ELL. *)

type t =
  | Dense of { extent : int }
      (** every coordinate in [0, extent) materialized (no aux arrays) *)
  | Compressed of { props : props; group : int; panel : bool }
      (** pos+crd compression of the nonempty coordinates.  [group] > 1
          pads each parent's stored coordinates to a multiple of [group]
          with zero slots (SR-BCRS tile groups); [panel] lays the values of
          each group out as a (trailing-dense x group) row-major panel
          instead of group-major order (the MMA tile layout). *)
  | Singleton of { props : props }
      (** one coordinate per stored parent position (a coordinate stream):
          COO's column level, or — as root — an explicit row map. *)
  | Fixed_slice of { width : width; pad_coord : int option }
      (** exactly [width] stored slots per parent, short runs padded with
          coordinate [pad_coord] (default 0) and value 0.0 (ELL/SELL). *)
  | Offset of { band : int option }
      (** DIA-style diagonal-offset level over a signed coordinate range:
          stored offsets are the nonempty ones, or the full band
          [[-band, band]] when given (the banded one-liner). *)

val dense : int -> t
val compressed : ?group:int -> ?panel:bool -> ?props:props -> unit -> t
val singleton : ?props:props -> unit -> t
val fixed_slice : ?pad_coord:int -> width -> t
val offset : ?band:int -> unit -> t

val fact_of_props : props -> Tir.Tensor.Facts.fact option
(** The strongest {!Tir.Tensor.Facts.fact} a root coordinate array with
    these effective properties supports: ordered+unique ⇒ [Monotone_inc]
    (which implies [Injective] and [Monotone_nd]); ordered ⇒ [Monotone_nd];
    otherwise none.  This is the property→fact derivation table of
    DESIGN.md §3g. *)

val describe : t -> string
(** Short human-readable form, used in descriptor names and error
    messages. *)
