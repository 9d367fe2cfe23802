(** Serializable exploration state.

    A checkpoint captures everything the engine needs to continue an
    interrupted run as if it had never stopped: the pending frontier
    (decision prefixes with their fork sites), the search state (visit
    counts and PRNG state), the accumulated counters, coverage and
    wall time, the solver activity so far, and the errors already
    found.  Because prefixes record concretization {e values} (see
    {!Decision}), a resumed run replays them without consulting the
    solver and reaches byte-identical verdicts, path totals, coverage
    and bug sites.

    Checkpoints are single-line JSON written atomically
    (tmp-and-rename), so a run killed mid-write never leaves a torn
    file behind.  The on-disk form is an integrity envelope —
    [{"format":2,"crc":"0x...","payload":{...}}] — whose CRC-32 covers
    the serialized payload; {!save} rotates the previous file to
    [<path>.bak] before installing the new one, and {!load} falls back
    to the backup when the primary file is missing, torn or fails the
    CRC, so one corrupted write never strands a resumable campaign. *)

type t = {
  label : string;            (** testbench name, checked on resume *)
  strategy : string;         (** {!Search.strategy_to_string} form *)
  frontier : (string * Decision.t array) list;  (** oldest first *)
  leases : (string * Decision.t array * int) list;
      (** [(site, prefix, attempts)] for units granted but not yet
          settled when the snapshot was taken — in-flight on a worker
          or awaiting regrant.  A resume folds them back into the
          frontier with their attempt counts intact, so poison-unit
          quarantine accounting survives a restart.  Empty for
          sequential runs and absent in pre-lease checkpoints (decoded
          as [[]]). *)
  visits : (string * int) list;
  coverage : Obs.Coverage.t;
      (** coverage of the paths settled so far, so a resumed report
          equals a straight one on coverage too; absent in older
          checkpoints (decoded as {!Obs.Coverage.zero}) *)
  rng : int64;
  paths : int;
  completed : int;
  errored : int;
  infeasible : int;
  unknown : int;
  instructions : int;
  wall_time : float;         (** seconds of exploration so far *)
  solver : Smt.Solver.Stats.t;
  errors : Error.t list;     (** discovery order *)
  degraded : bool;
      (** some path was lost to a solver resource limit — the eventual
          run can no longer be exhaustive *)
  stop_reason : string option;
      (** why the snapshotted segment stopped; [None] for periodic
          snapshots of a still-running exploration *)
}

type policy = {
  write : t -> unit;
      (** called with a frontier snapshot; typically {!save}[ path] *)
  every_s : float;
      (** minimum seconds between periodic snapshots; a final snapshot
          is always written when the run stops or exhausts *)
}
(** How an exploration persists snapshots.  Shared by the sequential
    engine and the worker-pool master (whose snapshots record granted
    but unsettled units in [leases]). *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

val save : string -> t -> unit
(** Atomic write of the integrity envelope; an existing file at [path]
    is rotated to [path ^ ".bak"] first.  With a {!Chaos} spec armed,
    the [checkpoint-corrupt] point truncates the new file (simulating
    a torn write) — the rotation keeps the previous good snapshot. *)

val load : string -> (t, string) result
(** Load and CRC-check a checkpoint; on any failure (unreadable,
    unparsable, bad CRC, bad version) the [.bak] rotation is tried
    before giving up, bumping {!fallbacks} and the
    [symsysc_checkpoint_fallbacks_total] counter.  The returned error
    is the {e primary} file's.  Bare version-1 files (pre-envelope)
    still load. *)

val fallbacks : unit -> int
(** Process-total count of loads that were answered by the backup. *)

val backup_path : string -> string
(** [path ^ ".bak"] — where {!save} rotates the previous snapshot. *)

val crc32 : string -> int32
(** The CRC-32 (IEEE 802.3, the zlib polynomial) used by the integrity
    envelope — exposed so other append-only formats (the campaign
    service's write-ahead journal) frame their records with the same
    discipline. *)
