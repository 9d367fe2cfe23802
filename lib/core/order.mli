(** Exploration of scheduler nondeterminism.

    The SystemC LRM leaves the execution order of processes runnable at
    the same instant unspecified, and the paper's PK argues any fixed
    order is a valid refinement.  This module provides the stronger
    option: let the symbolic engine {e fork over every legal order}, so
    a testbench can verify that a property holds under all schedules —
    the concern the related work (SDSS, SISSI) addresses with partial
    order reduction.

    Usage, inside a testbench executed by {!Symex.Engine.Session.run}:

    {[
      let sched = Pk.Scheduler.create () in
      Order.explore_schedules sched;
      ...
    ]}

    Every evaluation batch with more than one runnable process then
    forks into one path per permutation (n! paths for a batch of n —
    use on small models). *)

val explore_schedules : Pk.Scheduler.t -> unit
(** Install the forking permutation hook (engine context required when
    a multi-process batch is actually reached). *)

val forking_permutation : int list -> int list
(** The hook itself: chooses a permutation of the given process ids,
    forking across all alternatives.  Exposed for tests. *)
