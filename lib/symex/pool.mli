(** Master/worker parallel path exploration — local and distributed.

    Pending paths of the re-execution engine share nothing but the
    testbench, so exploration parallelizes at the path level: the
    {e master} owns the frontier and hands out {e work units} — one
    decision prefix each — to worker processes over length-prefixed
    {!Obs.Json} frames (see {!Transport}).  Workers come in two
    transports, speaking the same protocol: [config.workers] forked
    local processes over pipes, and — with [config.listen] set — any
    number of remote TCP peers that dial in, register with a
    [hello]/[welcome] handshake, and are dispatched to exactly like
    local workers (see {!serve}).  Each worker re-executes the
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
    id, a deadline, and an attempt count.  Any frame from the holder
    (heartbeat or result) renews the deadline; a holder silent past it
    loses the grant — the unit is requeued for another peer — but is
    {e not} killed, so a merely slow worker keeps computing.  Whichever
    copy finishes first {e settles} the unit; every later result for
    the same id is counted in [r_duplicates] and dropped
    (first-result-wins).  This makes the master idempotent under
    duplicate, late and replayed results, and bounds every
    lost-connection or stalled-socket shape by the lease deadline
    instead of hanging.

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
    torn/unparsable frame, which marks the peer compromised.  Its
    in-flight lease is re-queued; dead {e local} workers are replaced
    by respawning while work remains (a spawn cap bounds pathological
    crash loops), dead {e remote} workers replace themselves by
    reconnecting with seeded exponential backoff
    ({!Transport.backoff_delay}).  A remote worker receiving SIGTERM
    drains gracefully: it finishes the unit in hand, flushes the
    result, sends a [bye] frame and deregisters without counting as a
    death.

    With [heartbeat_ms] set, workers emit periodic heartbeat frames
    from a SIGALRM timer and the master runs a {e watchdog}: a peer
    holding a unit that produces no frame for [max (8*hb, 1s)] is
    presumed wedged (e.g. SIGSTOPped), killed (local) or disconnected
    (remote), and treated as a death — without heartbeats such a
    worker would block the run forever (unless a lease deadline is
    set, which requeues the unit without the kill).

    A {e poison unit} whose prefix kills [max_unit_crashes] workers is
    quarantined rather than requeued: the path is dropped (and
    pre-settled, so a late result cannot resurrect it), the run is
    marked degraded (no exhaustiveness claim) and the quarantine is
    surfaced in [r_quarantined].  Quarantine is keyed on worker
    {e crashes}, never on lease expiries: a slow unit regranted many
    times is not poison.  Nor is a forked worker that exits with
    status 0 — it lost its link — charged; a remote peer leaves no
    exit status, so its lost connection still counts as a crash.

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
  heartbeat_ms : int option;
      (** worker heartbeat period, pushed to remote peers in the
          welcome frame; [None] disables heartbeats and the watchdog
          (a wedged worker then blocks the run unless [lease_ms]
          bounds it) *)
  max_unit_crashes : int;
      (** worker deaths attributable to one prefix before that unit is
          quarantined instead of requeued; >= 1 *)
  listen : Transport.listener option;
      (** accept remote TCP workers on this (already-bound) listener;
          the caller owns and closes it.  [None] for a purely local
          pool *)
  lease_ms : int option;
      (** lease deadline per grant; a holder silent this long loses
          the grant (requeue, no kill).  [None] disables expiry —
          liveness then rests on the watchdog alone *)
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
  r_worker_deaths : int;  (** peers lost (crashes, resets, watchdog) *)
  r_hung : int;         (** peers killed by the heartbeat watchdog *)
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
