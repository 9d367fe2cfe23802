(** Coverage maps: per-peripheral register read/write/byte coverage and
    branch-arm coverage over the decision tree.

    Recording goes to a global registry (one per process).  Snapshots
    ([get]) are canonical — entries sorted, arrays copied — so that
    [sub]/[add] form exact pointwise group operations on counters.  A
    run's coverage is the delta [sub (get ()) baseline]; per-worker
    deltas [add] into a merged map that is bit-for-bit identical across
    worker counts whenever the explored path set is.

    Bit coverage is byte-resolution (the TLM data path is byte-lane):
    a register byte touched by any access marks all 8 of its bits. *)

type reg_cov = {
  rc_size : int;            (** register size in bytes *)
  rc_declares : int;        (** [declare] calls (≥ 1 once mapped) *)
  rc_reads : int;
  rc_writes : int;
  rc_read_bytes : int array;   (** per-byte read counts, length ≤ size *)
  rc_write_bytes : int array;  (** per-byte write counts *)
}

type arm_cov = { ac_true : int; ac_false : int }

type t = {
  regs : ((string * string) * reg_cov) list;
      (** keyed by (peripheral, register), sorted *)
  arms : (string * arm_cov) list;  (** keyed by decision site, sorted *)
}

val zero : t

val mask_cap : int
(** Registers larger than this many bytes are tracked whole-register
    only (no byte mask); read/write counts stay exact. *)

(** {1 Recording (global registry)} *)

val reset : unit -> unit

val declare : peripheral:string -> register:string -> size:int -> unit
(** Register [register] of [size] bytes exists on [peripheral]. *)

val record_read :
  peripheral:string -> register:string ->
  ?size:int -> ?off:int -> ?len:int -> unit -> unit
(** A read touching bytes [off, off+len).  Omitting [off] or [len]
    (symbolic access) marks the whole register; [size] grows the
    register (without counting a [declare]) for registers mapped before
    exploration began. *)

val record_write :
  peripheral:string -> register:string ->
  ?size:int -> ?off:int -> ?len:int -> unit -> unit

val record_arm : site:string -> bool -> unit
(** One arm of the decision site was taken. *)

(** {1 Snapshots and delta arithmetic} *)

val get : unit -> t
val restore : t -> unit
(** Replace the global registry with the snapshot's contents. *)

val sub : t -> t -> t
(** Pointwise counter difference; zero entries are dropped. *)

val add : t -> t -> t
(** Pointwise counter sum. *)

(** {1 Serialization (canonical: sorted, fixed field order)} *)

val to_json : t -> Json.t
val of_json : Json.t -> t

(** {1 Derived summaries} *)

type peripheral_summary = {
  ps_peripheral : string;
  ps_registers : int;
  ps_read : int;          (** registers with ≥ 1 read *)
  ps_written : int;
  ps_touched : int;       (** read or written *)
  ps_bits : int;          (** 8 × total register bytes *)
  ps_bits_read : int;
  ps_bits_written : int;
  ps_bits_touched : int;
}

val peripherals : t -> peripheral_summary list

type branch_summary = {
  bs_group : string;   (** site prefix before the first ':' *)
  bs_sites : int;
  bs_arms : int;       (** 2 × sites *)
  bs_covered : int;    (** arms taken at least once *)
}

val branches : t -> branch_summary list

val pct : int -> int -> float
(** [pct n d] is [100 * n / d], or [0.0] when [d <= 0]. *)

val summary_to_json : t -> Json.t
(** Percentage summary object with "peripherals" and "branches" lists. *)

val pp : Format.formatter -> t -> unit
(** One line per peripheral and per branch group (used by reports). *)
