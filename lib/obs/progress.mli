(** Live exploration statistics.

    Two modes share one call-site contract: the engine (or pool master)
    calls {!due} after progress is made and, when it returns true,
    assembles a {!snapshot} and calls {!tick}.

    - {!configure} — the [klee-stats] analogue: one appended stats line
      every [interval] finished paths.
    - {!configure_top} — a [top]-style TTY dashboard redrawn in place
      every [refresh_s] seconds: paths/s, frontier depth, solver
      fraction, cache hit rate, and per-worker busy/idle state with the
      age of each worker's last frame.

    Rates (paths/s, instructions/s) are computed over the window since
    the previous tick; solver fraction and cache hit rate are
    cumulative. *)

type worker_row = {
  wr_id : int;
  wr_addr : string;     (** peer address, e.g. [w0] for a forked
                            worker or [127.0.0.1:51234] *)
  wr_busy : bool;       (** a work unit is currently dispatched to it *)
  wr_age : float;       (** seconds since its last frame *)
}

type snapshot = {
  paths : int;
  instructions : int;
  frontier : int;          (** pending path prefixes *)
  errors : int;            (** distinct errors so far *)
  solver_time : float;     (** cumulative seconds in the solver *)
  solver_queries : int;    (** cumulative solver queries *)
  cache_hits : int;        (** query-cache + counterexample-cache hits *)
  wall : float;            (** seconds since the run started *)
  workers : worker_row list;  (** empty for sequential runs *)
}

val configure : ?out:Format.formatter -> interval:int -> unit -> unit
(** Print a stats line every [interval] finished paths (default
    destination: stderr).  Raises [Invalid_argument] when
    [interval < 1]. *)

val configure_top : ?out:Format.formatter -> ?refresh_s:float -> unit -> unit
(** Redraw the dashboard at most every [refresh_s] seconds (default
    0.5).  Raises [Invalid_argument] when [refresh_s <= 0]. *)

val disable : unit -> unit

val interval : unit -> int option
(** The line-mode interval; [None] when disabled or in dashboard mode. *)

val top_enabled : unit -> bool

val due : paths:int -> bool
(** Whether a tick should be drawn now.  Line mode: true at most once
    per multiple of the interval (repeat polls at the same path count
    do not re-fire).  Dashboard mode: true when the refresh period has
    elapsed. *)

val tick : snapshot -> unit
(** Print one stats line / redraw the dashboard (no-op when not
    configured). *)
