(** Fixed-width bitvector values.

    A bitvector is a pair of a width [1..64] and a value stored in an
    [int64] whose bits above the width are always zero.  All operations
    follow SMT-LIB QF_BV semantics: arithmetic wraps modulo [2^width],
    shifts whose amount is [>= width] yield the SMT-LIB result, and
    division by zero follows the SMT-LIB convention ([udiv x 0] is the
    all-ones vector, [urem x 0] is [x]). *)

type t

val width : t -> int
(** Width in bits, between 1 and 64. *)

val to_int64 : t -> int64
(** Unsigned value; bits above [width] are zero. *)

val to_signed_int64 : t -> int64
(** Value sign-extended from bit [width - 1]. *)

val to_int : t -> int
(** Unsigned value as an OCaml [int].  Raises [Invalid_argument] when the
    value does not fit (only possible for widths [>= 63]). *)

val make : width:int -> int64 -> t
(** [make ~width v] truncates [v] to [width] bits.
    Raises [Invalid_argument] if [width] is outside [1..64]. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] is [make ~width (Int64.of_int v)]. *)

val of_bool : bool -> t
(** 1-bit vector: [true] is 1, [false] is 0. *)

val zero : int -> t
(** [zero w] is the all-zero vector of width [w]. *)

val one : int -> t
(** [one w] is the vector of width [w] with value 1. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val is_zero : t -> bool
val is_ones : t -> bool

val equal : t -> t -> bool
(** Structural equality (same width and same value). *)

val compare : t -> t -> int
(** Total order: by width, then by unsigned value. *)

(* Arithmetic (wrapping, both operands must share a width, otherwise
   [Invalid_argument] is raised). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val sdiv : t -> t -> t
val srem : t -> t -> t

(* Bitwise. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(* Shifts; the shift amount is the unsigned value of the second operand. *)

val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

(* Comparisons. *)

val ult : t -> t -> bool
val ule : t -> t -> bool
val slt : t -> t -> bool
val sle : t -> t -> bool

(* Structure. *)

val extract : hi:int -> lo:int -> t -> t
(** [extract ~hi ~lo v] is bits [lo..hi] inclusive, width [hi - lo + 1].
    Raises [Invalid_argument] unless [0 <= lo <= hi < width v]. *)

val concat : t -> t -> t
(** [concat hi lo] places [hi] in the upper bits.  The combined width must
    not exceed 64. *)

val zext : int -> t -> t
(** [zext extra v] widens [v] by [extra] zero bits. *)

val sext : int -> t -> t
(** [sext extra v] widens [v] by [extra] copies of the sign bit. *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (LSB is bit 0). *)

val pp : Format.formatter -> t -> unit
(** Prints as [0xHH:w]. *)

val to_string : t -> string
