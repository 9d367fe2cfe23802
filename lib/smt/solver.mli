(** Satisfiability checking for conjunctions of boolean terms.

    The solving pipeline mirrors KLEE + STP:
    + constant folding (terms are already simplified at construction);
    + independence slicing ({!Slice.partition}) — the constraint set is
      split into slices over disjoint variables and each slice is
      solved separately (KLEE's IndependentSolver); per-slice models
      are merged into the answer;
    + per-slice query cache — identical slices answer instantly, so an
      unchanged path-condition prefix stays cached when exploration
      appends constraints over other variables;
    + per-slice counterexample cache — recently found models, indexed
      by the variables they bind, are re-evaluated on the new slice,
      often yielding a model with no solving;
    + unsigned-interval propagation — proves simple range conflicts
      unsatisfiable and proposes candidate assignments;
    + eager bit-blasting to CNF + CDCL SAT solving (the STP approach).

    Wall-clock time spent in [check] is accumulated in {!Stats} — both
    the total and a per-stage breakdown (interval prescreen,
    bit-blasting, SAT search) — so the engine can report the
    solver-time fraction of Table 1 and where inside the solver it
    goes.  When the {!Obs.Sink} is enabled, every query emits a
    [solver/query] span, every slice a [solver/slice] span, plus
    per-stage spans. *)

type outcome =
  | Sat of Model.t
  | Unsat
  | Unknown of string  (** resource limit reached *)

(** {1 Verdict scopes} *)

module Scope : sig
  type t
  (** Retained CDCL instances that answer the queries whose models
      nobody reads — one instance per variable family (keyed on the
      smallest [var_id] of each independence slice) — whose learned
      clauses, VSIDS activities, watch lists and variable numbering
      survive from one query to the next.

      Constraints are never asserted directly: each one is encoded once
      behind a fresh {e guard} variable ([(-g \/ c)]) and a query
      enables its constraint set by solving under the assumption set of
      the guards, looked up by {!Expr.t} id.  Leaving a constraint out
      just stops assuming its guard, so learned clauses stay sound
      forever.  Encoding happens at query time, so replaying a decision
      prefix (pool workers do this constantly) and cache-hit queries
      never touch the SAT solver.  Instances encode with
      {!Bitblast.create_verdict} (folded, structurally hashed gates),
      since none of their Sat models is consumed. *)

  val create : unit -> t
  (** A fresh scope with no retained instances.  Each exploration
      context (the sequential engine, every forked pool worker) owns
      exactly one. *)

  val release : t -> unit
  (** End the scope's exploration context: hand its retained instances
      to the scopes created after it, which reset them with
      {!Sat.reset} and {!Bitblast.reset} instead of allocating new
      ones.  A reset instance solves exactly as a fresh one.  Call it
      once the context's run has ended; a query through a released
      scope starts with no retained instance, as on a fresh scope. *)
end

val check :
  ?scope:Scope.t -> ?conflict_limit:int -> ?timeout_ms:int ->
  Expr.t list -> outcome
(** Satisfiability of the conjunction of the given boolean terms.
    On [Sat], the returned model satisfies every constraint (this is
    verified internally by evaluation).  [Unknown] is returned when any
    slice hits [conflict_limit], exceeds the per-query [timeout_ms]
    deadline (shared by all slices of the conjunction, polled during
    bit-blasting as well as at CDCL propagation boundaries), or is cut
    short by the {!set_interrupt_check} hook; an [Unsat] slice still
    settles the query as [Unsat] even if another slice was cut short.

    A SAT attempt that would answer Unknown is first retried up to
    {!set_retries} times with {!Sat.perturb}ed search order.  Every
    retry draws from the query's single [timeout_ms] deadline — the
    budget is a true per-query ceiling, not per-attempt — and a retry
    requested after the deadline passed is counted in
    {!Stats.sat_retries} but returns the Unknown immediately.
    Interrupts never retry.  With a {!Chaos} spec armed, the
    [solver-unknown] / [solver-stall] points inject Unknowns/timeouts
    at the same place, healed by the same retry loop.

    Pass [scope] if and only if nobody reads the model.  With [scope],
    slices that reach the SAT stage are solved on the scope's retained
    instances under guard assumptions, and their [Sat] answers (whose
    models depend on the instance's history) stay out of the query and
    counterexample caches.  Without it, they run scratch: the solver
    resets its one shared instance and encodes the slice afresh, so
    the model is a function of the slice alone.  Verdicts are the same
    either way; the caches and the prescreen run the same in both. *)

val check_pair :
  ?scope:Scope.t -> ?conflict_limit:int -> ?timeout_ms:int ->
  cond:Expr.t -> Expr.t list -> outcome * outcome
(** [check_pair ~cond pc] decides both children of a branch —
    [(pc /\ cond, pc /\ not cond)] — as one variational query: prefix
    slices disjoint from [cond]'s variables are solved once and their
    verdict shared, and only the variational remainder is solved per
    child (through the same per-slice caches as standalone checks, so
    either form hits the other's entries).  Each child is its own query
    unit: counted separately in {!Stats.queries}, and the false child
    gets a fresh [timeout_ms] budget rather than the true child's
    leftovers. *)

val set_retries : int -> unit
(** Bound the retry-with-restart loop (default 0: a first Unknown is
    final, the pre-retry behaviour).  Retries are counted in
    {!Stats.sat_retries}. *)

val is_sat : ?conflict_limit:int -> Expr.t list -> bool
(** [true] on [Sat]; [false] on [Unsat].  Raises [Failure] on
    [Unknown]. *)

val get_model : Expr.t list -> Model.t option
(** [Some model] on [Sat], [None] on [Unsat].  Raises on [Unknown]. *)

val clear_caches : unit -> unit
(** Drop the query and counterexample caches (useful for tests and
    benchmarks).  Does not count as eviction. *)

val set_cache_capacity : ?query:int -> ?cex:int -> unit -> unit
(** Bound the query cache (entries) and the counterexample index
    (variables tracked); [<= 0] unbounds.  Shrinking evicts
    immediately.  Defaults: 65536 query entries, 4096 cex variables.
    Caveat: with decision-prefix replay, a query-cache eviction inside
    one run can in principle change which model a re-issued [Sat] query
    returns; the default capacity is far above the working set of the
    bundled testbenches, and checkpoints record concretization values
    explicitly, so replay stays deterministic. *)

val cache_sizes : unit -> int * int
(** Current (query cache, cex index) entry counts. *)

val set_interrupt_check : (unit -> bool) -> unit
(** Install the hook polled by the CDCL loop at propagation boundaries;
    when it returns [true] the in-flight query unwinds and [check]
    returns [Unknown "interrupted"].  Used to make SIGINT responsive
    even during a long SAT call. *)

val set_independence : bool -> unit
(** Enable or disable independence slicing (enabled by default).  When
    disabled the whole constraint set is solved as a single slice, as
    before.  Verdicts and bug sites are identical either way; models
    are not: one CNF for the whole set can lead the search to another
    model, so counterexamples and concretized values can differ (on
    Table 1, T4's [reg:align] counterexample).  Used by
    [--no-independence]. *)

val outcome_to_string : outcome -> string
(** ["sat"], ["unsat"] or ["unknown"]. *)

module Stats : sig
  type t = {
    queries : int;            (** calls to [check] *)
    slices : int;             (** independent slices examined *)
    slice_hits : int;         (** slices answered by either cache *)
    cache_hits : int;         (** slices answered by the query cache *)
    cex_hits : int;           (** slices answered by the cex cache *)
    query_evictions : int;    (** LRU evictions from the query cache *)
    cex_evictions : int;      (** LRU evictions from the cex index *)
    interval_unsat : int;     (** proved unsat by interval propagation *)
    interval_sat : int;       (** model found from interval candidates *)
    sat_calls : int;          (** slices that reached the SAT solver *)
    sat_conflicts : int;      (** CDCL conflicts, summed over queries *)
    sat_decisions : int;      (** CDCL decisions, summed over queries *)
    sat_propagations : int;   (** unit propagations, summed over queries *)
    sat_timeouts : int;       (** SAT calls cut short by [timeout_ms] *)
    sat_retries : int;        (** Unknown answers retried with a
                                  perturbed search order (including
                                  retries denied for an exhausted
                                  deadline) *)
    scope_reused : int;       (** constraints whose encoding was reused
                                  from a retained instance *)
    scope_rebuilds : int;     (** retained instances reset for
                                  outgrowing the guard cap *)
    time : float;             (** total seconds spent inside [check] *)
    interval_time : float;    (** seconds in the interval prescreen *)
    bitblast_time : float;    (** seconds bit-blasting to CNF *)
    sat_time : float;         (** seconds in the CDCL search *)
  }

  val zero : t
  val get : unit -> t
  val reset : unit -> unit

  val sub : t -> t -> t
  (** Component-wise difference — [sub after before] is the activity of
      one exploration run. *)

  val add : t -> t -> t
  (** Component-wise sum — folds a checkpointed segment's activity into
      the resumed run's. *)

  val cache_hit_rate : t -> float
  (** Fraction of slices answered by either cache, in [0, 1]. *)

  val pp : Format.formatter -> t -> unit

  val to_json : t -> Obs.Json.t
  val of_json : Obs.Json.t -> t
  (** Missing fields read as zero, so checkpoints stay loadable across
      counter additions. *)
end
