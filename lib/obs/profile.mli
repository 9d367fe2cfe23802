(** Solver-time attribution.

    The SMT layer reports each timed stage via [record]; the symbolic
    engine tags the current query origin (decision site, check site,
    assume, ...) via [set_origin].  Wall time lands in buckets keyed by
    (origin, stage), where stage is one of the solver's pipeline stages
    ("interval", "bitblast", "sat"), a slice shortcut ("slice:cache",
    "slice:cex"), or "other" (top-level query time not covered by any
    inner stage).

    Like {!Coverage}, recording goes to a global registry and a run's
    profile is the delta [sub (get ()) baseline]; the invariant
    [total_time delta = solver wall-time delta] holds up to float
    rounding.  Bucket {e times} are wall-clock and therefore vary run to
    run; the bucket {e keys} for a fixed seed and path set do not. *)

type bucket = { b_count : int; b_time : float }

type t = ((string * string) * bucket) list
(** Sorted by (origin, stage). *)

val zero : t

(** {1 Recording (global registry)} *)

val reset : unit -> unit
val set_origin : string -> unit
val origin : unit -> string

val record : stage:string -> float -> unit
(** Add [dt] seconds to the (current origin, [stage]) bucket and to the
    stage clock. *)

val record_as : origin:string -> stage:string -> float -> unit

val stage_clock : unit -> float
(** Cumulative time recorded so far; the solver uses the delta across a
    query to compute the "other" remainder without double-counting. *)

(** {1 Snapshots and delta arithmetic} *)

val get : unit -> t
val sub : t -> t -> t
val add : t -> t -> t

val total_time : t -> float
val total_count : t -> int

val top : ?k:int -> t -> ((string * string) * bucket) list
(** Buckets sorted by self time descending (key as tiebreak), first [k]. *)

(** {1 Serialization} *)

val to_json : t -> Json.t
val of_json : Json.t -> t

val pp_top : ?k:int -> queries:int -> Format.formatter -> t -> unit
(** The top-[k] buckets, one row each with its record count (a query
    leaves one record per stage it reaches), then a footer with
    [queries] — the caller's query count, which the records cannot
    give — and the total solver time. *)
