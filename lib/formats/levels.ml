(* The per-dimension level language behind the declarative format
   descriptors (see levels.mli and DESIGN.md §3g). *)

type props = {
  ordered : bool;
  unique : bool;
  full : bool;
}

let compressed_props = { ordered = true; unique = true; full = false }

type width =
  | Const of int
  | Fit of int

type t =
  | Dense of { extent : int }
  | Compressed of { props : props; group : int; panel : bool }
  | Singleton of { props : props }
  | Fixed_slice of { width : width; pad_coord : int option }
  | Offset of { band : int option }

let dense extent =
  if extent < 0 then invalid_arg "Levels.dense: negative extent";
  Dense { extent }

let compressed ?(group = 1) ?(panel = false) ?(props = compressed_props) () =
  if group < 1 then invalid_arg "Levels.compressed: group < 1";
  Compressed { props; group; panel }

let singleton ?(props = compressed_props) () = Singleton { props }

let fixed_slice ?pad_coord width =
  (match width with
  | Const w when w < 1 -> invalid_arg "Levels.fixed_slice: width < 1"
  | Fit n when n < 1 -> invalid_arg "Levels.fixed_slice: slice < 1"
  | _ -> ());
  Fixed_slice { width; pad_coord }

let offset ?band () =
  (match band with
  | Some b when b < 0 -> invalid_arg "Levels.offset: negative band"
  | _ -> ());
  Offset { band }

(* Property -> fact derivation (DESIGN.md §3g): ordered+unique coordinates
   are strictly increasing, which implies injectivity and monotonicity;
   ordered-only coordinates (pseudo-row maps with split rows) are still
   non-decreasing. *)
let fact_of_props (p : props) : Tir.Tensor.Facts.fact option =
  if p.ordered && p.unique then Some Tir.Tensor.Facts.Monotone_inc
  else if p.ordered then Some Tir.Tensor.Facts.Monotone_nd
  else None

let describe = function
  | Dense { extent } -> Printf.sprintf "dense(%d)" extent
  | Compressed { group = 1; panel = false; _ } -> "compressed"
  | Compressed { group; panel; _ } ->
      Printf.sprintf "compressed(group=%d%s)" group
        (if panel then ",panel" else "")
  | Singleton _ -> "singleton"
  | Fixed_slice { width = Const w; _ } -> Printf.sprintf "slots(%d)" w
  | Fixed_slice { width = Fit n; _ } ->
      if n = max_int then "slots(fit)" else Printf.sprintf "slots(fit/%d)" n
  | Offset { band = None } -> "offsets"
  | Offset { band = Some b } -> Printf.sprintf "offsets(band=%d)" b
