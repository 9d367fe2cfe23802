(** Lease bookkeeping for dispatched work units.

    A lease is the master's claim ticket for one dispatched unit:
    unit id + deadline + attempt count.  The id is unique for the
    lifetime of a campaign (never reused, even when aborted units
    shrink the path count), which is what makes first-result-wins
    merging sound: a unit can be granted many times — after a worker
    death, a lease expiry, or a duplicated frame — but it {e settles}
    exactly once, and every later result for the same id is counted
    and dropped.

    Expiry is deliberately decoupled from killing: a lease that passes
    its deadline is requeued for regrant while the original holder
    keeps running.  Whichever copy finishes first settles the unit;
    the loser becomes a counted duplicate.  This turns "stalled socket
    or wedged worker" from a hang into a bounded wait without ever
    discarding work already in flight.  The deadline is fixed at grant:
    the holder's result is the only frame it sends for the unit. *)

type entry = {
  l_id : int;                 (** unique per dispatched unit, never reused *)
  l_site : string;            (** provenance label for frontier requeues *)
  l_prefix : Decision.t array;
  mutable l_attempts : int;   (** grants so far, including the first *)
  mutable l_deadline : float; (** Unix time; [infinity] when leases are off *)
}

type t

val create : lease_ms:int option -> t
(** [lease_ms = None] disables deadlines (entries never expire), and
    with them the pool's only rule for a wedged holder. *)

val make_entry :
  t -> id:int -> site:string -> prefix:Decision.t array -> now:float -> entry
(** First grant: [l_attempts = 1], deadline [now + lease]. *)

val regrant : t -> entry -> now:float -> entry
(** Re-grant after expiry or holder death: bumps [l_attempts] and
    restarts the deadline. *)

val expired : entry -> now:float -> bool

val requeue : t -> entry -> unit
(** Queue an orphaned grant for regrant (FIFO). *)

val take_pending : t -> entry option
val pending : t -> int
val pending_entries : t -> entry list
(** Pending entries in queue order, for checkpointing. *)

val settle : t -> int -> [ `Fresh | `Duplicate ]
(** First-result-wins: [`Fresh] exactly once per id; any pending copy
    of the id is dropped so it cannot be regranted. *)

val force_settle : t -> int -> unit
(** Settle without caring which: used when quarantining a poison unit
    so a late in-flight result cannot resurrect the dropped path. *)

val is_settled : t -> int -> bool
