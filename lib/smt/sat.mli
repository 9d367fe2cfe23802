(** A CDCL SAT solver (conflict-driven clause learning).

    Features: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, VSIDS-style variable activities,
    phase saving, and Luby restarts.  The solver is self-contained and
    is the backend of {!Solver} after bit-blasting.

    Variables are positive integers allocated with {!new_var}.  Literals
    use the DIMACS convention: [v] for the positive literal of variable
    [v] and [-v] for its negation. *)

type t

val create : unit -> t

val reset : t -> unit
(** Empty the instance: afterwards it cannot be told apart from
    [create ()] — no variables, clauses, trail, learned state or
    counters, and [new_var] numbers from 1 again.  Its storage is kept,
    so an instance reset between queries stops allocating once it has
    held the largest of them. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its index (starting at 1). *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause given as DIMACS literals.  Tautologies are dropped and
    duplicate literals removed.  Adding the empty clause (or a clause
    that is immediately falsified at level 0) makes the instance
    unsatisfiable.  Safe to call between incremental {!solve} calls:
    any standing decisions from a previous [Sat] answer are undone
    first. *)

val add_clause2 : t -> int -> int -> unit
(** [add_clause2 t a b] is [add_clause t [ a; b ]]: the same
    normalization, the same stored clause, trail and unsat flag, without
    building the list. *)

val add_clause3 : t -> int -> int -> int -> unit
(** [add_clause3 t a b c] is [add_clause t [ a; b; c ]], as
    {!add_clause2}. *)

type result = Sat | Unsat

val solve :
  ?assumptions:int list ->
  ?conflict_limit:int -> ?deadline:float -> ?stop:(unit -> bool) -> t -> result
(** Solve the current clause set, optionally under [assumptions] —
    DIMACS literals asserted as the first decisions (MiniSat-style).
    [Unsat] under a non-empty assumption set does {e not} poison the
    instance: a later call with different assumptions may answer [Sat].
    Only a conflict at decision level 0 (independent of any assumption)
    makes the instance permanently unsatisfiable.

    [conflict_limit] bounds the number of conflicts {e of this call}
    (default: unlimited); reaching it raises {!Resource_exhausted}.
    [deadline] is an absolute [Unix.gettimeofday] instant; the CDCL
    loop polls it at propagation boundaries and raises {!Timeout} once
    passed.  [stop] is polled at the same points and raises
    {!Interrupted} when it returns [true] (used for SIGINT-responsive
    solving).

    Learned clauses, VSIDS activities and saved phases persist across
    calls, so repeated queries over a shared clause set get cheaper —
    this is the substrate of {!Solver.Scope}. *)

exception Resource_exhausted
exception Timeout
exception Interrupted

val perturb : t -> int64 -> unit
(** Seed-derived jitter of the initial VSIDS activities and saved
    phases, so a retried query explores the search tree in a different
    order.  Used by {!Solver}'s retry-with-restart: a query that came
    back Unknown under one ordering may well resolve under another
    within the same budget.  Deterministic in the seed. *)

val value : t -> int -> bool
(** Model value of a variable after [solve] returned [Sat].  Unassigned
    variables (possible when they occur in no clause) read as [false]. *)

val stats_conflicts : t -> int
val stats_decisions : t -> int
val stats_propagations : t -> int

(** {2 Introspection}

    Read-only views of the clause database, in DIMACS literals, for
    tests that pin the solver's internal order: the order of stored
    clauses and watch lists decides which clause propagation visits
    first, and so every later conflict and model. *)

val clauses : t -> int array list
(** Every stored clause — problem and learned, by clause id — with its
    literals in their current storage order.  Units, tautologies and
    clauses satisfied at level 0 are not stored (see {!add_clause}). *)

val trail : t -> int list
(** Assigned literals, in assignment order. *)

val watch_list : t -> int -> int list
(** Ids of the clauses watching a literal, in watch-list order.  Watch
    lists hold arena offsets; each id is recovered by walking the arena,
    so this costs time linear in the clause count per entry. *)

val is_unsat : t -> bool
(** The instance is permanently unsatisfiable: a level-0 conflict or an
    empty clause, independent of any assumption. *)
