(* Scalar element types carried by buffers and expressions.

   [F16] values are stored as OCaml floats but are rounded through half
   precision on every store so that numerical behaviour (and the memory
   footprint accounted by the simulator) matches a half-precision buffer. *)

type t =
  | I32
  | I64
  | F16
  | F32
  | F64
  | Bool

let size_bytes = function
  | I32 -> 4
  | I64 -> 8
  | F16 -> 2
  | F32 -> 4
  | F64 -> 8
  | Bool -> 1

let is_float = function
  | F16 | F32 | F64 -> true
  | I32 | I64 | Bool -> false

let is_int = function
  | I32 | I64 -> true
  | F16 | F32 | F64 | Bool -> false

let to_string = function
  | I32 -> "int32"
  | I64 -> "int64"
  | F16 -> "float16"
  | F32 -> "float32"
  | F64 -> "float64"
  | Bool -> "bool"

(* Round a float through IEEE half precision.  Used when storing into an F16
   buffer so that repeated accumulation exhibits half-precision behaviour. *)
let round_f16 (x : float) : float =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity || x = 0.0
  then x
  else begin
    let bits32 = Int32.bits_of_float x in
    let sign = Int32.to_int (Int32.shift_right_logical bits32 16) land 0x8000 in
    let em = Int32.to_int (Int32.logand bits32 0x7fffffffl) in
    (* exponent and mantissa of the float32 representation *)
    let exp = em lsr 23 in
    let mant = em land 0x7fffff in
    let half =
      if exp >= 0x8f then sign lor 0x7c00 (* overflow -> inf *)
      else if exp <= 0x70 then sign (* underflow -> signed zero (flush) *)
      else
        let h_exp = exp - 112 in
        let h_mant = mant lsr 13 in
        (* round to nearest even on the dropped 13 bits *)
        let round_bit = (mant lsr 12) land 1 in
        let sticky = mant land 0xfff in
        let h_mant =
          if round_bit = 1 && (sticky <> 0 || h_mant land 1 = 1) then h_mant + 1
          else h_mant
        in
        if h_mant = 0x400 then sign lor ((h_exp + 1) lsl 10)
        else sign lor (h_exp lsl 10) lor h_mant
    in
    (* decode back to float *)
    let s = if half land 0x8000 <> 0 then -1.0 else 1.0 in
    let e = (half lsr 10) land 0x1f in
    let m = half land 0x3ff in
    if e = 0x1f then if m = 0 then s *. infinity else Float.nan
    else if e = 0 then s *. ldexp (float_of_int m) (-24)
    else s *. ldexp (float_of_int (m lor 0x400)) (e - 25)
  end
