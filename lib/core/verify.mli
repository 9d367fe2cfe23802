(** Experiment orchestration: run the symbolic tests against the PLIC
    and regenerate the paper's Table 1 and Table 2 data. *)

(** A bug identity — the six original PLIC bugs plus the six injected
    faults of Section 5.3. *)
type bug =
  | F1  (** missing graceful handling of invalid trigger ids *)
  | F2  (** alignment assert instead of a TLM error response *)
  | F3  (** register-mapping assert instead of a TLM error response *)
  | F4  (** access-type assert instead of a TLM error response *)
  | F5  (** transaction length may cross the register boundary *)
  | F6  (** claim/response completion race assert *)
  | Injected of Plic.Fault.t

val all_bugs : bug list
val bug_to_string : bug -> string
val bug_of_string : string -> bug option

val bug_matches : bug -> Symex.Error.t -> bool
(** Whether an engine error corresponds to this bug (by site/kind for
    the original bugs; any error counts for an injected fault, since the
    baseline fixed PLIC is clean). *)

type scenario = {
  params : Tests.params;
  session : Symex.Engine.Session.t;
      (** how every run of this scenario explores: strategy, budgets,
          worker count, checkpointing, resume *)
}

val params_signature : Tests.params -> string
(** Canonical one-line fingerprint of a parameter set (scale, variant,
    faults, length bounds, latency budget).  Used as the distributed
    handshake cookie: a remote worker whose scenario fingerprint
    differs from the master's is rejected at registration instead of
    silently merging incomparable paths. *)

val scenario :
  ?num_sources:int ->
  ?t5_max_len:int ->
  ?session:Symex.Engine.Session.t ->
  ?max_paths:int ->
  ?max_seconds:float ->
  ?max_solver_conflicts:int ->
  ?solver_timeout_ms:int ->
  ?max_memory_mb:int ->
  ?stop_after_errors:int ->
  ?seed:int ->
  ?workers:int ->
  ?heartbeat_ms:int ->
  ?listen:Symex.Transport.listener ->
  ?lease_ms:int ->
  ?validate:bool ->
  ?strategy:Symex.Search.strategy ->
  unit ->
  scenario
(** Build a scenario; defaults: FE310 scale reduced to [num_sources]
    (default 8) and [t5_max_len] (default 16).  Pass a pre-built
    [session] (as the CLI does — one session shared by every layer) or
    let the remaining arguments build one via
    {!Symex.Engine.Session.make} with no budgets except those given;
    a scenario-built session carries {!params_signature} as its
    handshake cookie.  [listen] accepts remote TCP workers; [lease_ms]
    bounds how long a granted work unit may sit on a silent peer. *)

val run_test : scenario -> string -> Report.t
(** Run one test (by name, "T1".."T5") on the scenario's variant and
    faults under the scenario's session.  Raises [Invalid_argument] on
    unknown names.  Checkpointing and resume come from the session: a
    resume checkpoint's label must be the test name. *)

val serve :
  host:string -> port:int -> workers:int -> ?backoff_seed:int ->
  scenario -> string -> int
(** Remote worker pool for a distributed run of one test: dial the
    listening master at [host:port] and serve its work units with
    [workers] processes until it stops us (returns the worst worker
    exit code; 0 = clean).  The scenario must be built with the same
    parameters and strategy as the master's — {!params_signature}
    mismatches are rejected in the handshake.  Raises
    [Invalid_argument] on unknown test names. *)

val table1 : scenario -> Report.t list
(** All five tests against the {e original} PLIC — the paper's
    Table 1.  Campaign entrypoints (this, {!table2},
    {!detection_matrix}) run many labelled tests, so the session's
    [resume]/[checkpoint] (which name a single run) are ignored. *)

type detection = {
  bug : bug;
  per_test : (string * float option) list;
      (** seconds until first detection per test; [None] = not found *)
}

val table2 : ?tests:string list -> scenario -> detection list
(** Time-to-detection matrix — the paper's Table 2.  The original bugs
    are measured on the original PLIC (one run per test, several bugs
    may surface in one run, as in the paper); each injected fault is
    measured on the fixed PLIC with exactly that fault planted. *)

type matrix_cell = {
  detected : bool;
  first_path : int option;
      (** paths explored before the first detection (the detecting
          error's [path_id]); a deterministic latency measure, unlike
          wall-clock seconds *)
}

val detection_matrix :
  ?tests:string list -> scenario -> (Plic.Fault.t * (string * matrix_cell) list) list
(** The Section 5.3 fault-injection campaign as data: every injected
    fault on the fixed PLIC against every test (default T1..T5), with
    path-count detection latency.  Deterministic for a fixed scenario,
    so tests can pin the full matrix. *)
