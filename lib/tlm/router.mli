(** A simple TLM interconnect (bus) routing transactions by address.

    Models the memory-mapped communication network of a virtual
    prototype: initiators address peripherals through global addresses;
    the router forwards the transaction to the matching target with a
    rebased local address and adds its own forwarding latency, which
    accumulates on the transaction delay as described in Section 3.1. *)

type transport_fn = Payload.t -> Pk.Sc_time.t -> Pk.Sc_time.t

type t

val create : ?latency:Pk.Sc_time.t -> name:string -> unit -> t
(** Default forwarding latency: 5 ns. *)

val add_target :
  t -> name:string -> base:int -> size:int -> transport_fn -> unit
(** Map [base, base+size) to a target.  Overlaps and duplicate names
    (a name is the target's [router:] branch site) are rejected. *)

val transport : t -> transport_fn
(** Route a transaction: the matching target receives a payload whose
    address is rebased to its local map.  Transactions that hit no
    target get an [Address_error] response. *)

val targets : t -> (string * int * int) list
(** [(name, base, size)] in registration order. *)
