(** Memory-mapped register files with TLM transport dispatch.

    This is the OCaml analogue of riscv-vp's [vp::RegisterRange]
    machinery that TLM peripherals use to describe their device memory
    map.  The blocking-transport entry point performs, in order:
    alignment check, range lookup, access-type check and the data copy,
    with optional pre-read / post-write callbacks per range.

    The {!policy} selects between the {e original} behaviour — the one
    the paper found the bugs F2..F5 in — and the {e fixed} behaviour
    that reports TLM error responses instead:

    - F2: the original asserts 4-byte address alignment on the read
      path (an abort under symbolic addresses); fixed answers
      [Address_error].
    - F3: the original asserts that some register mapping handles the
      address; fixed answers [Address_error].
    - F4: the original asserts the target register is registered for
      the access type; fixed answers [Command_error].
    - F5: the original matches a range by address only, so an aligned
      transaction length may cross the register boundary and the data
      copy runs out of bounds (detected by the engine's checked
      memory); fixed matches on [addr, addr+len) and answers
      [Burst_error] on crossings. *)

type policy = Original | Fixed

type access = Read_only | Write_only | Read_write

type range = {
  rg_name : string;
  base : int;              (** first byte offset inside the device map *)
  rg_size : int;           (** bytes; equals the backing memory size *)
  access : access;
  backing : Symex.Mem.t;
  pre_read : (unit -> unit) option;
      (** runs before the data copy of a read (e.g. interrupt claim) *)
  post_write : (unit -> unit) option;
      (** runs after the data copy of a write (e.g. interrupt
          completion); inspects the backing memory for the new value *)
  match_site : string;     (** ["reg:match:<name>"], the dispatch branch *)
  burst_site : string;     (** ["reg:burst:<name>"], the fixed burst check *)
  read_denied : string;    (** F4 message for a read of this range *)
  write_denied : string;   (** F4 message for a write of this range *)
}

type t

val create : ?policy:policy -> name:string -> unit -> t
(** Default policy: [Original]. *)

val policy : t -> policy
val name : t -> string

val add_range :
  t ->
  name:string ->
  base:int ->
  access:access ->
  ?pre_read:(unit -> unit) ->
  ?post_write:(unit -> unit) ->
  Symex.Mem.t ->
  range
(** Register a range backed by the given memory (its size defines the
    range size).  Ranges must not overlap and names must be distinct
    (a name keys the range's coverage row and its branch sites);
    both are checked at registration.  The range's sites and F4
    messages are formatted here, once, so dispatch formats no string
    per access. *)

val find_range : t -> string -> range
(** Lookup by name; raises [Not_found]. *)

val ranges : t -> range list
(** In registration order. *)

val transport : t -> Payload.t -> Pk.Sc_time.t -> Pk.Sc_time.t
(** Blocking transport ([b_transport]): dispatch the payload, set its
    response status, and return the updated delay (one access latency
    is added). *)

val access_latency : Pk.Sc_time.t
(** Latency added per register access (10 ns). *)
