(** The symbolic-execution engine (the KLEE stand-in).

    {1 Exploration model}

    The engine explores a testbench (an OCaml thunk) by {e re-execution
    with decision prefixes}: every pending path is a vector of branch
    decisions; executing the testbench under a prefix deterministically
    replays those decisions, and the first unprescribed symbolic branch
    consults the solver — if both directions are feasible the path
    forks, one direction continues and the other is pushed onto the
    frontier.  This requires the testbench to be deterministic (build
    the whole device under verification inside the thunk) and yields the
    same observable exploration as KLEE's state forking.

    Symbolic inputs are pooled positionally across re-executions: the
    k-th [fresh] call of every execution returns the same term, so path
    conditions of shared prefixes are physically equal and the solver
    caches hit across paths.

    {1 Error semantics}

    As in KLEE, a violable [check] records an error with a concrete
    counterexample and terminates only the failing side; exploration
    continues until the frontier is exhausted or a limit is reached.
    Errors are de-duplicated by [(site, kind)].

    {1 Entry points}

    {!Session} is the one way to configure and start an exploration:
    build a session with {!Session.make} (strategy, budgets, workers,
    checkpointing, resume) and run any number of testbenches through
    it with {!Session.run}.  With [workers > 1] the session runs the
    worker-pool engine ({!Pool}); with the default single worker it
    runs the in-process sequential loop — same verdicts either way.

    {1 One fork representation}

    A fork is its decision prefix and nothing else: the sequential
    frontier, the pool's work units, checkpoints, requeues and chaos
    recovery all hold bare prefixes, and every path re-executes its
    prefix from the root.  The solver takes almost all of the time, so
    that re-execution costs little (DESIGN.md, "Forking by
    decision-prefix replay"). *)

type limits = Budget.t = {
  max_paths : int option;
  max_instructions : int option;
  max_seconds : float option;
  max_solver_conflicts : int option;
      (** per-query CDCL conflict budget; a query that exceeds it
          terminates only the current path (counted in
          [paths_unknown]) and marks the run non-exhaustive *)
  solver_timeout_ms : int option;
      (** per-query wall-clock budget, same path-local semantics; the
          CDCL loop polls the deadline at propagation boundaries *)
  max_memory_mb : int option;
      (** OCaml heap watermark (from [Gc] statistics), polled between
          branches; exceeding it stops the run gracefully *)
}

val no_limits : limits

type checkpoint_policy = Checkpoint.policy = {
  write : Checkpoint.t -> unit;
      (** called with a frontier snapshot; typically
          [Checkpoint.save path] *)
  every_s : float;
      (** minimum seconds between periodic snapshots; a final snapshot
          is always written when the run stops or exhausts *)
}
(** Alias of {!Checkpoint.policy}, kept for source compatibility. *)

type resilience = {
  res_requeued : int;        (** work units re-queued after a fault *)
  res_worker_deaths : int;   (** worker processes and remote peers lost *)
  res_quarantined : int;     (** poison units dropped after repeated crashes *)
  res_lease_expired : int;   (** leases past deadline, re-granted elsewhere *)
  res_duplicates : int;      (** duplicate/late results dropped
                                 (first-result-wins) *)
  res_reconnects : int;      (** remote peer re-registrations after a lost
                                 connection *)
  res_checkpoint_fallbacks : int;
      (** checkpoint loads answered by the [.bak] rotation (process
          total, see {!Checkpoint.fallbacks}) *)
  res_unvalidated : int;     (** errors whose counterexample replay failed *)
  res_chaos : (string * int) list;
      (** {!Chaos} injections fired during the run, per point (master
          plus workers) — all zeros when chaos is disarmed *)
}
(** Self-healing ledger of a run: every retried query, requeued unit,
    killed worker, quarantined unit, checkpoint fallback and
    unconfirmed counterexample, so a fault — injected by {!Chaos} or
    genuine — is accounted in the report rather than silently
    absorbed. *)

val no_resilience : resilience

type report = {
  errors : Error.t list;        (** distinct errors, in discovery order *)
  paths : int;                  (** total executions *)
  paths_completed : int;        (** ran to the end of the testbench *)
  paths_errored : int;          (** terminated by an error *)
  paths_infeasible : int;       (** killed by an unsatisfiable [assume] *)
  paths_unknown : int;          (** killed by a solver resource limit *)
  instructions : int;           (** symbolic operations executed *)
  wall_time : float;            (** seconds *)
  solver_time : float;          (** seconds spent in the solver *)
  solver_queries : int;
  solver_stats : Smt.Solver.Stats.t;
      (** full solver activity of this run (per-stage times, cache
          hits, SAT counters) — the difference of {!Smt.Solver.Stats}
          snapshots taken around the run; after a resume it includes
          the checkpointed segment's activity *)
  exhausted : bool;             (** the whole state space was explored *)
  stop_reason : Budget.reason option;
      (** which budget stopped the run, [None] on exhaustion *)
  strategy : Search.strategy;   (** the strategy the run used *)
  branch_coverage : (string * int) list;
      (** executed branch sites with execution counts (KLEE-style
          coverage reporting) *)
  workers : int;                (** worker processes the run used (1 =
                                    in-process sequential exploration) *)
  resilience : resilience;      (** faults absorbed during the run *)
  coverage : Obs.Coverage.t;
      (** register/branch-arm coverage recorded during the run, merged
          across workers; deterministic for a fixed path set *)
  profile : Obs.Profile.t;
      (** solver wall time bucketed by (query origin, pipeline stage) *)
  events_dropped : int;
      (** trace events lost to recorder/forwarding limits (local +
          worker-reported) *)
  snapshot_restores : int;
  replay_fallbacks : int;
  instructions_saved : int;
      (** Retired: these three always read 0.  They counted the
          snapshot-forking fast-forward, which is gone; they stay only
          because the benchmark harness still reads them. *)
}

(** The unified exploration entry point: one value carrying the
    strategy, budgets, error threshold, checkpoint policy, resume state,
    seed and worker count. *)
module Session : sig
  type t = {
    strategy : Search.strategy;
    limits : limits;
    stop_after_errors : int option;
        (** stop exploration once this many distinct errors are known *)
    checkpoint : Checkpoint.policy option;
    resume : Checkpoint.t option;
    seed : int option;     (** recorded seed (drives the default
                               [Random_path] strategy when set) *)
    workers : int;
    listen : Transport.listener option;
        (** accept remote TCP workers on this bound listener (the
            caller owns and closes it); forces the pool engine even
            with [workers <= 1], and allows [workers = 0] *)
    lease_ms : int option;
        (** work-unit lease deadline, the pool's only liveness rule: a
            granted unit whose holder sends no result this long is
            re-queued for another peer, and the holder gets no new unit
            until it is heard from again; a forked one is replaced and,
            if still silent at the end of the run, killed (see
            {!Pool}).  The holder is not killed at expiry; its late
            result is dropped first-result-wins.  [None] disables lease
            expiry, and a wedged worker then blocks the run.  Ignored
            for sequential runs. *)
    cookie : string option;
        (** parameter fingerprint checked against remote workers'
            hello frames; a mismatch rejects the worker before it can
            corrupt the campaign *)
    validate : bool;
        (** replay every error's counterexample concretely after the
            run and demote unconfirmed errors to
            [Error.validated = false] (default [true]) *)
  }

  val make :
    ?strategy:Search.strategy ->
    ?limits:limits ->
    ?stop_after_errors:int ->
    ?checkpoint:Checkpoint.policy ->
    ?resume:Checkpoint.t ->
    ?seed:int ->
    ?workers:int ->
    ?listen:Transport.listener ->
    ?lease_ms:int ->
    ?cookie:string ->
    ?validate:bool ->
    unit ->
    t
  (** Build a session.  Defaults: no budgets, no checkpointing, one
      worker, no listener, no leases, validation on.
      The strategy defaults to [Random_path seed] when [seed] is given
      and [strategy] is not, and to [Dfs] otherwise.  Raises
      [Invalid_argument] when [workers < 1] without [listen] (with a
      listener [workers = 0] is allowed — remote peers do all the
      work), or when [lease_ms < 1]. *)

  val run : ?label:string -> t -> (unit -> unit) -> report
  (** Explore a testbench under this session.  Nested runs are not
      allowed.

      [label] names the run inside checkpoints (defaults to ["run"]);
      resuming checks it, so a checkpoint cannot be replayed against
      the wrong testbench.  [t.resume] restores a checkpointed
      frontier, search state, counters and errors, and continues as if
      never interrupted: an interrupted-then-resumed exploration
      reaches the same verdicts, path totals and error sites as an
      uninterrupted one (pop {e order} may differ for non-DFS
      strategies, totals do not).  [t.checkpoint] writes periodic
      snapshots plus a final one at stop/exhaustion.

      With [t.workers > 1] exploration runs on the {!Pool}
      master/worker engine: same verdicts, error sites and exhausted
      flag as a single-worker run of the same session, and identical
      path totals when the run is exhaustive.  Checkpoints taken by a
      parallel run resume fine under any worker count, and vice versa.

      The engine polls {!Budget.interrupted} between branches and
      inside SAT solving, so SIGINT/SIGTERM (via
      {!Budget.install_signal_handlers}) stop the run gracefully: the
      final checkpoint is written and a partial report returned.

      With [t.validate] (the default), every reported error's
      counterexample is replayed concretely — solver-free — after the
      run; an error that does not reproduce the same [(site, kind)] is
      returned with [Error.validated = false], counted in
      [resilience.res_unvalidated] and in the
      [symsysc_unvalidated_errors_total] metric.  A clean engine and
      solver produce zero unvalidated errors; a nonzero count means
      the verifier itself (not the DUV) is suspect.

      With [t.listen] set the master also accepts remote TCP workers
      (see {!serve}); units are leased ([t.lease_ms]) and results
      merged first-result-wins, so the final report is byte-equivalent
      to a run of the same session on forked workers alone, regardless
      of worker placement, reconnects or duplicated results. *)

  val serve :
    host:string -> port:int -> workers:int -> ?backoff_seed:int ->
    label:string -> t -> (unit -> unit) -> int
  (** Remote worker side of a distributed run: fork [workers] processes
      that dial a listening master at [host:port] and execute its work
      units over the session's testbench.  The session's [strategy],
      [cookie] and label must match the master's or registration is
      rejected.  Lost connections re-dial with
      {!Transport.backoff_delay} seeded by [backoff_seed].  Blocks
      until the master sends [stop] (or SIGTERM drains the pool);
      returns the worst worker exit code (0 = clean).  Raises
      [Invalid_argument] when [workers < 1]. *)
end

val add_path_start_hook : (unit -> unit) -> unit
(** Run [f] at the start of every path execution (process-global, for
    resetting ambient registries).  The engine resets the {!Pk} id
    counters itself; hooks run after that. *)

(** {1 Testbench / DUV intrinsics}

    These mirror the KLEE interface functions.  They are callable from
    anywhere inside the thunk passed to {!Session.run} (or [replay]);
    the engine context is ambient, as KLEE's is. *)

val fresh : string -> int -> Smt.Expr.t
(** [fresh name width] — a new symbolic input ([klee_int] et al.). *)

val fresh32 : string -> Smt.Expr.t
(** [fresh name 32] — the shape used by all PLIC testbenches. *)

val assume : Smt.Expr.t -> unit
(** [klee_assume]: constrain the current path; silently terminates the
    path when the constraint is infeasible. *)

val branch : ?site:string -> Smt.Expr.t -> bool
(** Branch on a boolean term; forks when both directions are feasible.
    This is what every [if] in DUV code goes through. *)

val check : site:string -> ?message:string -> Smt.Expr.t -> unit
(** Assert a property.  If it is violable, record an
    {!Error.Assertion_failure} with a counterexample; the failing side
    terminates, the passing side continues. *)

val fatal_check : site:string -> ?message:string -> Smt.Expr.t -> unit
(** Like [check] but records {!Error.Abort} — models a C [assert] whose
    failure would abort the whole program (bug F1 of the paper). *)

val check_kind :
  Error.kind -> site:string -> ?message:string -> Smt.Expr.t -> unit
(** Generalized [check] used by the memory subsystem (out-of-bounds,
    division by zero). *)

val report_error : Error.kind -> site:string -> message:string -> unit
(** Record an unconditional error on the current path and terminate
    the path. *)

val concretize : ?site:string -> Smt.Expr.t -> Smt.Bv.t
(** Concretize a term to a feasible value, constraining the path to that
    value; alternative values are explored on forked paths (KLEE's
    behaviour at [switch] statements and float operations). *)

val path_condition : unit -> Smt.Expr.t list

val terminate_path : unit -> 'a
(** Silently kill the current path (infeasible). *)

val in_symbolic_context : unit -> bool
(** Whether a [run] or [replay] is active. *)

val exploring : unit -> bool
(** Whether symbolic exploration specifically is active — true under
    [run]/[Session.run], false under replay or random trials.  Coverage
    instrumentation gates on this so re-validation of counterexamples
    does not inflate the counts. *)

exception Check_failed of string
(** Raised by [check] in plain concrete execution (outside [run] /
    [replay]) — the OCaml analogue of an assert aborting a native run. *)

(** {1 Counterexample replay}

    The paper compiles the bytecode to a native executable to replay
    counterexamples under a debugger; here, [replay] re-runs the
    testbench concretely, feeding the recorded input values
    positionally. *)

val replay :
  (string * Smt.Bv.t) list -> (unit -> unit) -> (Error.t, string) result option
(** [replay counterexample testbench] returns [Some (Ok error)] when a
    check fails during concrete re-execution (the expected outcome for
    a true counterexample), [Some (Error msg)] when replay diverges
    (e.g. an [assume] fails), and [None] when the run completes without
    failure. *)

(** {1 Random-testing baseline}

    Concrete random testing over the same testbench API — the classic
    baseline symbolic execution is compared against.  [fresh] draws
    uniform random values, [assume] rejects the trial when violated,
    and a failing [check] ends the campaign with the trial's inputs as
    the counterexample. *)

type random_report = {
  trials : int;           (** trials executed (including the failing one) *)
  rejected : int;         (** trials rejected by an [assume] *)
  failure : (Error.t * int) option;
      (** first failure and the 1-based trial index it occurred on *)
  random_wall_time : float;
  seed : int;             (** the seed the campaign ran with, so a
                              failing campaign can be reproduced *)
  workers : int;          (** processes the campaign ran on *)
}

val random_test :
  ?seed:int ->
  ?max_trials:int ->
  ?max_seconds:float ->
  ?workers:int ->
  (unit -> unit) ->
  random_report
(** Run up to [max_trials] (default 10_000) random trials or until
    [max_seconds] elapse or a check fails.

    With [workers > 1] the trial budget is split over forked worker
    processes, each drawing from its own RNG stream derived from
    [seed] via splitmix64 — so a campaign is reproducible for a given
    [(seed, workers)] pair.  Workers run their full quota (no
    cross-worker cancellation); the merged verdict is the
    lowest-indexed worker's failure, with a worker-local trial
    index. *)
