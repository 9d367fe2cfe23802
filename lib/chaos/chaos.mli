(** Deterministic fault injection for the verifier itself.

    The paper validates the symbolic tests by injecting faults into the
    device under verification (Section 5.3); this module applies the
    same methodology to the verifier: named injection points in the
    solver, worker pool and checkpoint layers consult [fire], which
    draws from a seeded per-point PRNG stream and decides whether to
    inject the corresponding failure.  A given [(spec, seed)] pair
    yields the same injection decisions on every run of the same
    binary, so chaos campaigns are reproducible and CI can assert that
    a faulted run converges to the clean run's verdicts.

    The module only {e decides}; the failure behaviour itself (return
    Unknown, crash the worker, corrupt the frame, ...) lives at the
    injection site.  Each injection increments a per-point counter,
    bumps a [symsysc_chaos_*] {!Obs.Metrics} counter and emits a
    [chaos] {!Obs.Sink} instant, so every injected fault is
    accountable in the run report.

    State is process-global (the verifier's solver and engine are too).
    Worker processes inherit the master's streams over [fork]; the pool
    calls {!reseed} with the worker index so sibling workers draw
    distinct decisions. *)

type point =
  | Solver_unknown      (** solver query answers Unknown *)
  | Solver_stall        (** solver query stalls past its deadline *)
  | Worker_hang         (** worker hangs mid-unit: no result, no exit *)
  | Worker_crash        (** worker process dies abruptly *)
  | Frame_truncate      (** result frame cut short mid-write *)
  | Frame_corrupt       (** result frame payload corrupted *)
  | Checkpoint_corrupt  (** checkpoint file corrupted on write *)
  | Conn_drop           (** worker connection dropped before a send *)
  | Conn_stall          (** worker socket stalls (delayed write) *)
  | Frame_shear         (** connection cut mid-write, half a frame sent *)
  | Dup_result          (** result frame delivered twice *)
  | Journal_truncate    (** campaign journal append torn mid-record (the
                            writing process dies with half a frame on
                            disk) *)
  | Job_crash           (** campaign job process dies abruptly mid-run *)
  | Service_kill        (** campaign daemon killed abruptly (SIGKILL
                            semantics — no drain, no final flush) *)

val all_points : point list

val point_to_string : point -> string
(** The spec name: ["solver-unknown"], ["worker-crash"], ... *)

val point_of_string : string -> point option

type spec = (point * float) list
(** Injection rates in [0, 1] per point; absent points never fire. *)

val parse_spec : string -> (spec, string) result
(** Parse ["point:rate,point:rate,..."] (rate defaults to [1] when
    omitted).  [""] parses to the empty spec.  Errors on unknown point
    names and rates outside [0, 1]. *)

val spec_to_string : spec -> string

val configure : ?seed:int -> spec -> unit
(** Arm the injector: set rates, reset counters, seed one independent
    splitmix64 stream per point (so e.g. solver draws do not disturb
    pool draws).  Default seed 0. *)

val disable : unit -> unit
(** Disarm; [fire] returns false everywhere.  Counters survive until
    the next [configure]. *)

val active : unit -> bool

val reseed : int -> unit
(** Mix [salt] into every stream and zero the injection counters —
    called by pool workers with their worker index so each forked
    worker draws its own decisions and accounts only its own
    injections (the counters inherited over [fork] belong to the
    master). *)

val fire : point -> bool
(** Draw the point's stream against its rate; [true] means the caller
    must inject the failure now.  Points with rate 0 do not advance
    their stream. *)

val counts : unit -> (string * int) list
(** Injections so far per point (all points, zeros included), in
    [all_points] order. *)

val total : unit -> int
(** Sum of {!counts}. *)

val sub_counts : (string * int) list -> (string * int) list -> (string * int) list
(** Pointwise difference [after - before] of two {!counts} snapshots. *)

val add_counts : (string * int) list -> (string * int) list -> (string * int) list
(** Pointwise sum — merges per-worker injection counts. *)
