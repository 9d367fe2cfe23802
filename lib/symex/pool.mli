(** Master/worker parallel path exploration — local and distributed.

    Pending paths of the re-execution engine share nothing but the
    testbench, so exploration parallelizes at the path level: the
    {e master} owns the frontier and hands out {e work units} — one
    decision prefix each — to worker processes over length-prefixed
    {!Obs.Json} frames (see {!Transport}).  Every worker runs the same
    session over the same kind of connection, a stream socket:
    [config.workers] forked local processes, each on one end of a
    socketpair, and — with [config.listen] set — any number of remote
    TCP peers that dial in, register with a [hello]/[welcome]
    handshake, and are dispatched to exactly like local workers (see
    {!serve}).  A forked worker needs no handshake: it inherits what a
    [welcome] would tell it.  Each worker re-executes the
    testbench under its prefix with a private solver (caches and all)
    and streams back the forks it discovered, the errors it found, and
    its counter / {!Smt.Solver.Stats} deltas.  The master re-balances
    by work-sharing: a unit is dispatched to whichever peer is idle,
    so no peer idles while the frontier is non-empty.

    This module is deliberately independent of {!Engine}: the actual
    unit execution is injected as the [exec] callback (which runs in
    the worker processes).  {!Engine.Session} wires the two together
    and is the API testbenches use.

    {1 Leases}

    Every dispatched unit is tracked by a {!Lease}: a never-reused unit
    id, a deadline, and an attempt count.  Leases are the pool's only
    liveness rule.  A holder that sends no result before the deadline
    loses the grant — the unit is requeued for another peer and never
    charged — and is marked {e expired} until it sends any frame.  An
    expired peer gets no new unit, does not count as busy, and does
    not count toward the local pool's strength, so a replacement is
    forked; at shutdown an expired forked worker is SIGKILLed before
    it is reaped and an expired remote peer is closed without [stop].
    The holder is {e not} killed at expiry: a slow worker is as silent
    as a wedged one, so it keeps computing, and whichever copy finishes
    first {e settles} the unit; every later result for the same id is
    counted in [r_duplicates] and dropped (first-result-wins).  This
    makes the master idempotent under duplicate, late and replayed
    results, and bounds every wedged-worker, lost-connection or
    stalled-socket shape by the lease deadline instead of hanging.
    Every expiry forks a replacement while the expired worker runs on,
    so a lease shorter than a typical unit oversubscribes the machine.
    Without [lease_ms] nothing expires, and a wedged worker holds its
    unit, and the run, forever.

    {1 Merge semantics}

    Reports merge deterministically: errors are de-duplicated by
    [(site, kind)] and returned in canonical (site, kind) order,
    counters are summed, per-stage solver times aggregated across
    workers (so the reported solver time is {e CPU} seconds, which can
    exceed wall time under parallelism).  Budgets are enforced by the
    master between dispatches; a budget stop lets in-flight units
    finish and merges them.  A checkpoint is the master frontier plus
    the granted-but-unsettled leases (prefix + attempt count), so
    parallel and distributed runs compose with [--checkpoint-out] /
    [--resume-from] in any direction: sequential, parallel and
    distributed runs can resume each other's checkpoints.

    {1 Fault tolerance}

    A peer that dies mid-unit (killed, crashed, connection reset) is
    detected by EOF or a transport error on its connection — or by a
    torn, unparsable or stalled frame, which marks the peer
    compromised (every master-side socket has a receive timeout, so a
    peer that stops halfway through a frame cannot block the master).
    Its in-flight lease is re-queued; dead {e local} workers are
    replaced by respawning while work remains (a spawn cap bounds
    pathological crash loops), dead {e remote} workers replace
    themselves by reconnecting with seeded exponential backoff
    ({!Transport.backoff_delay}).  A worker receiving SIGTERM drains
    gracefully: it finishes the unit in hand, flushes the result, sends
    a [bye] frame and deregisters without counting as a death.

    A {e poison unit} whose prefix kills [max_unit_crashes] workers is
    quarantined rather than requeued: the path is dropped (and
    pre-settled, so a late result cannot resurrect it), the run is
    marked degraded (no exhaustiveness claim) and the quarantine is
    surfaced in [r_quarantined].  A unit is charged only on evidence of
    a crash: a forked worker's exit status other than 0.  Lease
    expiries are never charged, so a slow unit regranted many times is
    not poison.  A worker whose link fails exits with status 0 and is
    not charged either, and a remote peer leaves no exit status, so
    its EOF, reset or failed write is a lost link: requeued, never
    charged.  A remote-only campaign ([workers = 0]) therefore never
    quarantines; a remote poison unit costs the remote workers it
    kills, and the run's budget bounds that.

    With a {!Chaos} spec armed, workers reseed their injection streams
    with their peer id and fire the [worker-crash], [worker-hang],
    [frame-truncate], [frame-corrupt], [conn-drop], [conn-stall],
    [frame-shear] and [dup-result] points; the per-worker injection
    counts travel back in result frames and are merged into
    [r_chaos]. *)

(** How a single work-unit execution ended in the worker. *)
type unit_outcome =
  | Unit_completed   (** ran to the end of the testbench *)
  | Unit_errored     (** terminated by an error *)
  | Unit_infeasible  (** killed by an unsatisfiable assumption *)
  | Unit_unknown     (** killed by a solver resource limit *)
  | Unit_aborted
      (** interrupted mid-path (e.g. SIGINT in the worker): rolled
          back; the master re-queues the prefix in [requeue] *)

type unit_result = {
  outcome : unit_outcome;
  forks : (string * Decision.t array) list;
      (** frontier entries discovered by this unit, in discovery order *)
  errors : Error.t list;
  visits : (string * int) list;
      (** branch-site visit deltas of this unit (empty when aborted) *)
  instructions : int;  (** instruction delta (0 when aborted) *)
  degraded : bool;     (** a solver resource limit fired *)
  solver : Smt.Solver.Stats.t;  (** solver activity delta of this unit *)
  requeue : Decision.t array option;
      (** for [Unit_aborted]: the decisions taken before the abort,
          re-queued by the master so nothing is lost *)
  chaos : (string * int) list;
      (** cumulative {!Chaos.counts} of this worker process; the
          master folds per-result deltas into [r_chaos] *)
  coverage : Obs.Coverage.t;
      (** register/branch-arm coverage delta of this unit (zero when
          aborted — mirrors [visits]) *)
  profile : Obs.Profile.t;
      (** solver-time attribution delta of this unit (ships even when
          aborted — mirrors [solver]) *)
  events : Obs.Event.t list;
      (** forwarded trace events (bounded); empty unless the master
          requested forwarding *)
  events_dropped : int;
      (** events lost to the worker's forwarding buffer limit *)
}

type config = {
  workers : int;
      (** local worker processes to fork: >= 1, or >= 0 with [listen]
          set (a listening master may rely on remote peers alone) *)
  strategy : Search.strategy;     (** master frontier pop order *)
  limits : Budget.t;              (** global budgets (master-enforced) *)
  stop_after_errors : int option;
  label : string;                 (** run name, checked on resume and
                                      in the remote hello handshake *)
  max_unit_crashes : int;
      (** forked-worker crashes attributable to one prefix before that
          unit is quarantined instead of requeued; >= 1 *)
  listen : Transport.listener option;
      (** accept remote TCP workers on this (already-bound) listener;
          the caller owns and closes it.  [None] for a purely local
          pool *)
  lease_ms : int option;
      (** lease deadline per grant; a holder silent this long loses
          the grant (requeue, no kill) and is expired (see Leases).
          [None] disables expiry, and a wedged worker then blocks the
          run *)
  cookie : string option;
      (** opaque parameter fingerprint; a dialing worker must present
          the same cookie or its hello is rejected, catching
          master/worker flag mismatches before they corrupt a
          campaign.  [None] skips the check *)
}

type result = {
  r_errors : Error.t list;
      (** de-duplicated by [(site, kind)], canonical (site, kind) order *)
  r_paths : int;
  r_completed : int;
  r_errored : int;
  r_infeasible : int;
  r_unknown : int;
  r_instructions : int;
  r_wall_time : float;
  r_solver : Smt.Solver.Stats.t;
  r_exhausted : bool;
  r_stop_reason : Budget.reason option;
  r_visits : (string * int) list;  (** merged branch coverage *)
  r_dispatched : int;   (** units handed to workers (incl. re-grants) *)
  r_requeued : int;
      (** units re-queued (aborts + worker deaths + lease expiries) *)
  r_worker_deaths : int;  (** peers lost (crashes, resets, lost links) *)
  r_quarantined : int;  (** poison units dropped after repeated crashes *)
  r_lease_expired : int;
      (** leases that passed their deadline and were re-granted *)
  r_duplicates : int;
      (** duplicate/late results dropped by first-result-wins *)
  r_reconnects : int;
      (** remote peer re-registrations after a lost connection *)
  r_chaos : (string * int) list;
      (** merged {!Chaos} injection counts: the master's own plus the
          per-result deltas reported by workers (injections in a
          worker's final, torn frame are unaccountable and lost) *)
  r_coverage : Obs.Coverage.t;
      (** merged coverage: the sum of non-aborted unit deltas — exactly
          one contribution per executed path, so bit-for-bit equal to a
          sequential run over the same path set *)
  r_profile : Obs.Profile.t;
      (** merged solver-time attribution (CPU seconds, like [r_solver]) *)
}

val run :
  config ->
  ?resume:Checkpoint.t ->
  ?checkpoint:Checkpoint.policy ->
  exec:(prefix:Decision.t array -> unit_result) ->
  unit ->
  result
(** Explore with [config.workers] forked workers plus any remote peers
    accepted on [config.listen].  [exec] is called in the worker
    processes only — one call per received unit; worker state (solver
    caches, pooled inputs) persists across calls within one worker.
    Raises [Failure] if every local worker dies while work remains and
    the respawn cap is spent (with no listener to wait on), if the
    master's dispatch stalls without progress, or if a worker reports
    a fatal testbench error (the analogue of an exception escaping
    {!Engine.Session.run}).  A listening master with work remaining and no
    live peers waits for (re)connections instead — bound it with a
    budget. *)

val serve :
  host:string ->
  port:int ->
  workers:int ->
  label:string ->
  strategy:Search.strategy ->
  ?cookie:string ->
  ?backoff_seed:int ->
  ?max_dials:int ->
  exec:(prefix:Decision.t array -> unit_result) ->
  unit ->
  int
(** Run a remote worker pool: fork [workers] processes ([workers = 1]
    serves in the calling process), each dialing [host:port],
    registering with [hello] (label, strategy, [cookie]) and serving
    units until the master sends [stop].  A lost connection reconnects
    with {!Transport.backoff_delay} under a per-slot seed derived from
    [backoff_seed]; [max_dials] bounds consecutive failed dials (the
    default retries forever).  A [fatal] answer to the hello
    (label/strategy/cookie mismatch) is terminal, not retried.
    SIGTERM drains the pool gracefully, and so does one worker's clean
    exit: the master stops only the workers it registered, so a worker
    that first dials after the campaign ended is drained instead of
    redialing forever.  A pool none of whose workers registered cannot
    tell a finished master from one not yet listening, and keeps
    dialing up to [max_dials].  Returns the worst worker exit code
    (0 = clean stop or drain). *)

val fork_map :
  workers:int -> (int -> Obs.Json.t) -> (Obs.Json.t, string) Stdlib.result list
(** Generic fork helper: run [f i] in [workers] forked child processes
    and collect one JSON result frame from each, in index order
    ([Error] for a child that died before reporting).  Used for the
    parallel random-testing baseline. *)
