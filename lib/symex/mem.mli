(** Bounds-checked symbolic byte memory.

    Register backing stores are byte arrays whose cells are 8-bit
    symbolic terms.  Every access through the symbolic-offset API is
    bounds-checked by the engine, which is how the paper's F5 (a memcpy
    whose source exceeds the register boundary) and IF1 (a pending-array
    overflow) are detected: the {e detector} lives here, while the
    {e missing check} is the device's bug. *)

type t

val create : name:string -> size:int -> t
(** Zero-initialized memory of [size] bytes. *)

val name : t -> string
val size : t -> int

(** {1 Snapshots (copy-on-write)} *)

type state

val save : t -> state
(** O(1): marks the backing array shared and returns it; the first
    subsequent write copies. *)

val load : t -> state -> unit
(** Restore a previously saved state (also O(1), copy-on-write).
    Raises [Invalid_argument] on size mismatch. *)

(* Concrete-offset accessors (no checks beyond array bounds, which are
   programming errors, not modeled bugs). *)

val read_byte : t -> int -> Smt.Expr.t
val write_byte : t -> int -> Smt.Expr.t -> unit

val read32 : t -> int -> Value.t
(** Little-endian 32-bit read at a concrete byte offset.  An aligned
    read returns the word it built last time when the four bytes are
    still physically the same terms, and counts the same instructions
    as {!assemble32}. *)

val assemble32 : Smt.Expr.t array -> int -> Value.t
(** [assemble32 bytes off] is the little-endian word of
    [bytes.(off)] to [bytes.(off + 3)], built without a cache: ten
    counted operations. *)

val write32 : t -> int -> Value.t -> unit
(** Raises [Invalid_argument] unless the value is 32 bits wide, like
    {!write64} does for 64. *)

val read64 : t -> int -> Smt.Expr.t
(** Little-endian 64-bit read (e.g. CLINT's [mtime]). *)

val write64 : t -> int -> Smt.Expr.t -> unit

(* Symbolic-offset accessors: the engine checks bounds and reports
   {!Error.Out_of_bounds} when violable; the access then proceeds on
   the in-bounds side with the offset/length concretized (forking). *)

val read_bytes :
  ?site:string -> t -> offset:Value.t -> len:Value.t -> Smt.Expr.t array
(** [read_bytes m ~offset ~len] returns [len] bytes starting at
    [offset] (both may be symbolic).  [site] overrides the error-report
    site (several memories can share one detector site, so an error
    class is counted once). *)

val write_bytes :
  ?site:string -> t -> offset:Value.t -> len:Value.t -> Smt.Expr.t array -> unit
(** [write_bytes m ~offset ~len data] copies the first [len] bytes of
    [data] to [offset].  Reading past the end of [data] is itself
    reported as out-of-bounds (the initiator's buffer is too short). *)

val fill_zero : t -> unit
