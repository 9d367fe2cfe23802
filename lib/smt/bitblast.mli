(** Eager bit-blasting of bitvector terms to CNF (Tseitin encoding).

    Every bitvector term is translated to a vector of SAT literals
    (LSB first); boolean terms translate to a single literal.
    Translation is memoized per context, so shared subterms are encoded
    once — the natural consequence of hash-consed input terms.  Gates
    add their clauses with {!Sat.add_clause2} and {!Sat.add_clause3}. *)

type ctx

val create : Sat.t -> ctx
(** A context encoding into the given instance, with no deadline and no
    stop predicate.  Its CNF is the one every consumed model is a
    function of, so it does not change: gates fold only equal or
    complementary inputs, and each gate gets its own variable. *)

val create_verdict : Sat.t -> ctx
(** A context for an instance whose Sat models nobody reads
    ({!Solver.Scope}'s retained instances).  Before it allocates a
    variable, every [and], [xor] and [ite] gate folds inputs that are
    constant, equal or complementary, and then looks the gate up by its
    kind and canonical inputs, so structurally equal circuits share one
    literal.  Same verdicts as {!create}, fewer variables, another
    CNF. *)

val reset : ctx -> unit
(** Forget every translation, gate, variable and the true literal, as a
    fresh context would, keeping the tables' storage.  Only meant
    together with a {!Sat.reset} of the context's instance: a reset
    context on a reset instance encodes every term exactly as a fresh
    pair [create (Sat.create ())] (or [create_verdict]) does — the same
    clauses, variable numbering and model.  The deadline and stop
    predicate are kept; set them per query. *)

val set_deadline : ctx -> float option -> unit
(** Replace the deadline (an absolute [Unix.gettimeofday] instant)
    polled during translation, subsampled at term-node boundaries;
    once it has passed, translation raises {!Sat.Timeout}, so encoding
    a huge term respects the same per-query budget as the CDCL search
    that follows it.  A context kept alive across queries gets a fresh
    per-query budget each time. *)

val set_stop : ctx -> (unit -> bool) option -> unit
(** Replace the external-stop predicate polled at the same points;
    when it returns [true], translation raises {!Sat.Interrupted}. *)

val assert_true : ctx -> Expr.t -> unit
(** Assert a boolean term as a top-level constraint. *)

val literal : ctx -> Expr.t -> int
(** The (memoized) Tseitin literal of a boolean term {e without}
    asserting it.  {!Solver.Scope} guards each path constraint with a
    clause [(-guard \/ literal)] and enables it per-query by assuming
    [guard], so a popped constraint constrains nothing and learned
    clauses stay sound forever. *)

val var_bits : ctx -> Expr.var -> int array option
(** SAT literals allocated for a symbolic variable, if it was
    encountered during translation.  Used for model extraction. *)

val extract_model : ctx -> Expr.var list -> Model.t
(** Read back a model after the SAT solver answered Sat.  Variables
    never translated are unconstrained and read as zero. *)
