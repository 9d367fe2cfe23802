(** Hash-consed symbolic expressions over booleans and bitvectors.

    Terms are maximally shared: structurally equal terms are physically
    equal, so [equal] is O(1) and terms can be used as hash-table keys via
    their [id].  All constructors are {e simplifying smart constructors}:
    they fold constants and apply a set of sound local rewrites, so the
    term returned may be structurally smaller than requested.

    A term's [id] is assigned when the term is first constructed, so
    ids follow first-construction order and a term's id exceeds its
    children's.  Commutative operations order their operands by id, so
    the bit-blasted CNF of a query depends on that order.

    A global instruction counter, which the symbolic-execution engine
    reads to report the "#Exec. Instr." statistic of the paper, counts
    one instruction per call of a connective, comparison or bitvector
    operation below, whether or not the call folds or finds an existing
    term; derived operations count each operation they call (as [ne]
    counts [eq] and [not_]).  The leaves [bool], [const], [int] and
    [fresh_var] never count, and nothing counts inside
    {!without_counting}. *)

type sort = Bool | Bv of int

type binop =
  | Add | Sub | Mul | Udiv | Urem | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Eq | Ult | Ule | Slt | Sle

type t = private { id : int; sort : sort; node : node }

and node =
  | Bool_const of bool
  | Bv_const of Bv.t
  | Var of var
  | Not of t
  | Andb of t * t
  | Orb of t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t
  | Bnot of t
  | Bin of binop * t * t
  | Extract of int * int * t   (** [Extract (hi, lo, e)] *)
  | Concat of t * t            (** first operand is the high part *)
  | Zext of int * t            (** target width *)
  | Sext of int * t            (** target width *)

and var = { var_name : string; var_id : int; var_width : int }

val equal : t -> t -> bool
(** Physical equality (valid because terms are hash-consed). *)

val compare : t -> t -> int
(** Compares by [id]. *)

val hash : t -> int

val sort_of : t -> sort

val width : t -> int
(** Width of a bitvector term.  Raises [Invalid_argument] on Bool. *)

val is_bool : t -> bool

(* Instruction accounting. *)

val instruction_count : unit -> int
(** Instructions counted since [reset_instruction_count]: constructor
    calls as described above, plus {!add_instructions}. *)

val reset_instruction_count : unit -> unit
val add_instructions : int -> unit
(** Lets other layers (scheduler, TLM dispatch) account work as
    executed instructions.  Follows the constructors' rule: inside
    {!without_counting} it adds nothing.  So a layer that skips
    constructor calls whose results it already holds (as
    [Symex.Mem.read32]'s word cache does) can add the count those
    calls would have made, in every mode. *)

val without_counting : (unit -> 'a) -> 'a
(** Run [f] with instruction accounting suspended.  Term construction
    performed by the solving machinery (feasibility probes, variational
    branch queries, scope assumptions) is exploration overhead, not DUV
    work.  Whether it happens depends on whether a decision is taken
    live or prescribed by a replayed prefix, and on solver caches and
    scope history; counting it would make the instruction total depend
    on the strategy, the worker count and where a run was resumed. *)

(* Derived terms. *)

type derivation
(** Names one site that builds a term from two terms and an integer
    parameter by a pure function. *)

val derivation : string -> derivation
(** [derivation name] registers a site.  Call it once per site, at
    module initialisation, never per device: entries are keyed by
    derivation, not by instance, so every device shares them.  Raises
    [Invalid_argument] on a name already registered. *)

val derive : derivation -> int -> t -> t -> (int -> t -> t -> t) -> t
(** [derive d param a b f] is [f param a b], built once per process.

    A process-wide table, keyed like the hash-cons table by
    [(d, param, a.id, b.id)], holds the result of [f] and the
    instructions its first counted run made (nested derivations
    included).  A hit returns that same term and adds that count, the
    rule [Symex.Mem.read32]'s word cache follows, so instruction totals
    and the ids handed out do not depend on what the table holds.  A
    miss runs [f], which builds its terms in the order a direct call
    does, and inserts after [f] returns (as [f] may grow the table).  A
    miss inside {!without_counting} runs [f] and records nothing, so a
    later counted call still counts the full cost.  The table never
    shrinks; every result it keeps is a term the derivation's inputs
    already determine.

    The contract on [f]:
    - it is a pure function of [(param, a, b)]: it calls no engine
      function and reads no mutable state;
    - every other input it needs (a range's base and size, a memory's
      size, a bit index) goes into [param];
    - it is a toplevel function, so that a hit allocates nothing. *)

(* Leaves. *)

val tru : t
val fls : t
val bool : bool -> t
val const : Bv.t -> t
val int : width:int -> int -> t
val fresh_var : string -> int -> t
(** [fresh_var name width] allocates a new symbolic variable.  Names need
    not be unique; the variable identity is the fresh [var_id]. *)

val vars : t -> var list
(** All distinct variables occurring in a term, in increasing [var_id]. *)

(* Boolean connectives. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t
val conj : t list -> t
val disj : t list -> t

(* Comparisons (operands must be bitvectors of equal width, except [eq]
   which also accepts two booleans). *)

val eq : t -> t -> t
val ne : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val sgt : t -> t -> t
val sge : t -> t -> t

(* Bitvector operations. *)

val ite : t -> t -> t -> t
(** [ite c a b]: [c] must be Bool, [a] and [b] must share a sort. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val sdiv : t -> t -> t
val srem : t -> t -> t
val neg : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t
val extract : hi:int -> lo:int -> t -> t
val concat : t -> t -> t
val zext : int -> t -> t
(** [zext target_width e] zero-extends to [target_width] (which must be
    [>= width e]; equal width is the identity). *)

val sext : int -> t -> t

(* Inspection. *)

val to_bool : t -> bool option
(** [Some b] when the term is the boolean constant [b]. *)

val to_bv : t -> Bv.t option
(** [Some v] when the term is a bitvector constant. *)

val is_const : t -> bool

val eval : (var -> Bv.t) -> t -> Bv.t
(** Evaluate a bitvector term under an assignment.  Boolean terms
    evaluate to a 1-bit vector.  Raises [Not_found] (from the lookup
    function) on unassigned variables. *)

val eval_bool : (var -> Bv.t) -> t -> bool
(** Evaluate a boolean term under an assignment. *)

val size : t -> int
(** Number of distinct subterms (DAG size). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
