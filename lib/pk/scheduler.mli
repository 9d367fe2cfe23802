(** The Peripheral Kernel scheduler (Fig. 5 of the paper).

    The scheduler keeps track of waiting processes, scheduled events and
    the simulation time.  Waiting processes and pending notifications
    are managed in a sorted wakelist (a binary min-heap keyed by time
    and insertion order).  Every simulation step advances the global
    time by the maximum amount possible without skipping a waiting
    event, then calls all threads that are scheduled for that time —
    this is the [pkernel_step()] the testbenches of the paper call.

    Within one timestamp, processes run in deterministic
    registration/notification order.  The SystemC LRM leaves the order
    of same-time processes unspecified, so any fixed order is a valid
    refinement (the paper makes the same argument for its PK). *)

type t

val create : unit -> t

val now : t -> Sc_time.t

val spawn : t -> Process.t -> unit
(** Register a process.  Its body runs for the first time during the
    initialization delta cycle of the next [step]/[run_ready] call, as
    SystemC threads do at simulation start. *)

val notify : t -> Event.t -> unit
(** Immediate notification: waiters become runnable in the current
    evaluation phase. *)

val notify_delta : t -> Event.t -> unit
(** Notification for the next delta cycle. *)

val notify_at : t -> Event.t -> Sc_time.t -> unit
(** Timed notification [delay] after the current time.  Per the SystemC
    LRM, a pending notification is only overridden by an earlier one. *)

val cancel : t -> Event.t -> unit
(** Remove any pending notification of the event. *)

val run_ready : t -> unit
(** Run evaluation and delta cycles until no process is runnable at the
    current time.  Does not advance time. *)

val step : t -> bool
(** [pkernel_step]: finish the current time (as [run_ready]), then
    advance to the next scheduled wakeup, fire it, and again run to
    quiescence.  Returns [false] when nothing is scheduled (simulation
    starved). *)

val run_until : t -> Sc_time.t -> unit
(** Repeatedly [step] while the next wakeup is no later than the given
    absolute time. *)

val next_wake_time : t -> Sc_time.t option
(** Earliest pending wakeup, if any. *)

val pending_count : t -> int
(** Number of live entries in the wakelist (stale entries excluded). *)

(** Cumulative counters for benchmarks. *)
type stats = {
  activations : int;   (** process body calls *)
  delta_cycles : int;
  events_fired : int;
  time_advances : int;
}

val stats : t -> stats

exception Activation_limit_exceeded
(** Raised when a single [run_ready] performs more than a million
    activations — a runaway zero-delay loop in the model. *)

val set_batch_hook : t -> (int list -> int list) option -> unit
(** Install a reordering hook over each evaluation batch (the process
    ids runnable at one instant).  The SystemC LRM leaves this order
    unspecified; the symbolic engine can install a forking permutation
    here to explore every legal schedule (see
    [Symsysc.Order.explore_schedules]).  The hook must return a
    permutation of its input. *)
