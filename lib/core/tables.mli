(** Text rendering of the paper's tables. *)

val print_table1 : Format.formatter -> Report.t list -> unit
(** Table 1: Test | Result | #Exec. Instr. | Time [s] | Paths | Solver
    | Coverage ("full", a stop reason, or "degraded"). *)

val coverage_note : Report.t -> string
(** The Coverage cell of Table 1 for one report. *)

val print_solver_breakdown : Format.formatter -> Report.t list -> unit
(** Companion to Table 1: per-test solver-stage breakdown (queries,
    cache hit rate, interval/bit-blast/SAT seconds, CDCL conflicts). *)

val print_coverage : Format.formatter -> Report.t list -> unit
(** Coverage companion to Table 1: per-test register, byte-resolution
    bit and branch-arm coverage percentages, aggregated over every
    peripheral / decision site the test touched. *)

val print_table2 :
  Format.formatter -> tests:string list -> Verify.detection list -> unit
(** Table 2: rows are tests, columns are bugs; cells are the rounded
    time until first detection ("–" when not found). *)

val format_duration : float -> string
(** Rounded like the paper: "1m" for anything under a minute boundary,
    "24h"-style above two hours. *)
