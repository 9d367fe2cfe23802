(** SystemC-style events ([sc_event]).

    An event carries the set of processes dynamically waiting on it and
    at most one pending notification (as in the SystemC LRM: a new
    notification only overrides a pending one when it is earlier).
    Events are plain data; scheduling is performed by {!Scheduler}. *)

type pending =
  | Not_notified
  | Delta          (** fires in the next delta cycle *)
  | At of Sc_time.t  (** fires at an absolute simulation time *)

type t = {
  ev_name : string;
  ev_id : int;
  mutable waiters : (int * int) list;
  (** waiting processes as [(process id, wait epoch)]; the epoch lets the
      scheduler lazily discard entries that were satisfied by another
      event of the same multi-event wait *)
  mutable pending : pending;
}

val make : string -> t
(** Allocate a fresh event with the next id (see {!reset_ids}).  The
    kernel keeps no table of events: one that nothing references is
    garbage. *)

val reset_ids : unit -> unit
(** Reset the id counter.  The symbolic engine calls this at every
    path start so that events created by a re-executed testbench get
    identical, deterministic ids. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
