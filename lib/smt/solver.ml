type outcome =
  | Sat of Model.t
  | Unsat
  | Unknown of string

module Stats = struct
  type t = {
    queries : int;
    slices : int;
    slice_hits : int;
    cache_hits : int;
    cex_hits : int;
    query_evictions : int;
    cex_evictions : int;
    interval_unsat : int;
    interval_sat : int;
    sat_calls : int;
    sat_conflicts : int;
    sat_decisions : int;
    sat_propagations : int;
    sat_timeouts : int;
    sat_retries : int;
    scope_reused : int;
    scope_rebuilds : int;
    time : float;
    interval_time : float;
    bitblast_time : float;
    sat_time : float;
  }

  let zero =
    { queries = 0; slices = 0; slice_hits = 0; cache_hits = 0; cex_hits = 0;
      query_evictions = 0; cex_evictions = 0;
      interval_unsat = 0; interval_sat = 0; sat_calls = 0; sat_conflicts = 0;
      sat_decisions = 0; sat_propagations = 0; sat_timeouts = 0;
      sat_retries = 0;
      scope_reused = 0; scope_rebuilds = 0;
      time = 0.0;
      interval_time = 0.0; bitblast_time = 0.0; sat_time = 0.0 }

  let current = ref zero
  let get () = !current
  let reset () = current := zero

  let sub a b =
    {
      queries = a.queries - b.queries;
      slices = a.slices - b.slices;
      slice_hits = a.slice_hits - b.slice_hits;
      cache_hits = a.cache_hits - b.cache_hits;
      cex_hits = a.cex_hits - b.cex_hits;
      query_evictions = a.query_evictions - b.query_evictions;
      cex_evictions = a.cex_evictions - b.cex_evictions;
      interval_unsat = a.interval_unsat - b.interval_unsat;
      interval_sat = a.interval_sat - b.interval_sat;
      sat_calls = a.sat_calls - b.sat_calls;
      sat_conflicts = a.sat_conflicts - b.sat_conflicts;
      sat_decisions = a.sat_decisions - b.sat_decisions;
      sat_propagations = a.sat_propagations - b.sat_propagations;
      sat_timeouts = a.sat_timeouts - b.sat_timeouts;
      sat_retries = a.sat_retries - b.sat_retries;
      scope_reused = a.scope_reused - b.scope_reused;
      scope_rebuilds = a.scope_rebuilds - b.scope_rebuilds;
      time = a.time -. b.time;
      interval_time = a.interval_time -. b.interval_time;
      bitblast_time = a.bitblast_time -. b.bitblast_time;
      sat_time = a.sat_time -. b.sat_time;
    }

  let add a b =
    {
      queries = a.queries + b.queries;
      slices = a.slices + b.slices;
      slice_hits = a.slice_hits + b.slice_hits;
      cache_hits = a.cache_hits + b.cache_hits;
      cex_hits = a.cex_hits + b.cex_hits;
      query_evictions = a.query_evictions + b.query_evictions;
      cex_evictions = a.cex_evictions + b.cex_evictions;
      interval_unsat = a.interval_unsat + b.interval_unsat;
      interval_sat = a.interval_sat + b.interval_sat;
      sat_calls = a.sat_calls + b.sat_calls;
      sat_conflicts = a.sat_conflicts + b.sat_conflicts;
      sat_decisions = a.sat_decisions + b.sat_decisions;
      sat_propagations = a.sat_propagations + b.sat_propagations;
      sat_timeouts = a.sat_timeouts + b.sat_timeouts;
      sat_retries = a.sat_retries + b.sat_retries;
      scope_reused = a.scope_reused + b.scope_reused;
      scope_rebuilds = a.scope_rebuilds + b.scope_rebuilds;
      time = a.time +. b.time;
      interval_time = a.interval_time +. b.interval_time;
      bitblast_time = a.bitblast_time +. b.bitblast_time;
      sat_time = a.sat_time +. b.sat_time;
    }

  let cache_hit_rate t =
    if t.slices > 0 then float_of_int t.slice_hits /. float_of_int t.slices
    else if t.queries > 0 then
      float_of_int (t.cache_hits + t.cex_hits) /. float_of_int t.queries
    else 0.0

  let pp ppf t =
    Format.fprintf ppf
      "queries=%d slices=%d slice-hits=%d cache=%d cex=%d evict=%d/%d \
       itv-unsat=%d itv-sat=%d sat-calls=%d conflicts=%d decisions=%d \
       propagations=%d timeouts=%d retries=%d reuse=%d rebuilds=%d \
       time=%.3fs (itv=%.3fs blast=%.3fs sat=%.3fs)"
      t.queries t.slices t.slice_hits t.cache_hits t.cex_hits
      t.query_evictions t.cex_evictions t.interval_unsat
      t.interval_sat t.sat_calls t.sat_conflicts t.sat_decisions
      t.sat_propagations t.sat_timeouts t.sat_retries
      t.scope_reused t.scope_rebuilds t.time
      t.interval_time t.bitblast_time t.sat_time

  let to_json t =
    Obs.Json.Obj
      [ ("queries", Obs.Json.Int t.queries);
        ("slices", Obs.Json.Int t.slices);
        ("slice_hits", Obs.Json.Int t.slice_hits);
        ("cache_hits", Obs.Json.Int t.cache_hits);
        ("cex_hits", Obs.Json.Int t.cex_hits);
        ("query_evictions", Obs.Json.Int t.query_evictions);
        ("cex_evictions", Obs.Json.Int t.cex_evictions);
        ("interval_unsat", Obs.Json.Int t.interval_unsat);
        ("interval_sat", Obs.Json.Int t.interval_sat);
        ("sat_calls", Obs.Json.Int t.sat_calls);
        ("sat_conflicts", Obs.Json.Int t.sat_conflicts);
        ("sat_decisions", Obs.Json.Int t.sat_decisions);
        ("sat_propagations", Obs.Json.Int t.sat_propagations);
        ("sat_timeouts", Obs.Json.Int t.sat_timeouts);
        ("sat_retries", Obs.Json.Int t.sat_retries);
        ("scope_reused", Obs.Json.Int t.scope_reused);
        ("scope_rebuilds", Obs.Json.Int t.scope_rebuilds);
        ("time", Obs.Json.Float t.time);
        ("interval_time", Obs.Json.Float t.interval_time);
        ("bitblast_time", Obs.Json.Float t.bitblast_time);
        ("sat_time", Obs.Json.Float t.sat_time) ]

  let of_json j =
    let int k =
      Option.value ~default:0 Obs.Json.(Option.bind (member k j) to_int_opt)
    in
    let flt k =
      Option.value ~default:0.0
        Obs.Json.(Option.bind (member k j) to_float_opt)
    in
    { queries = int "queries";
      slices = int "slices";
      slice_hits = int "slice_hits";
      cache_hits = int "cache_hits";
      cex_hits = int "cex_hits";
      query_evictions = int "query_evictions";
      cex_evictions = int "cex_evictions";
      interval_unsat = int "interval_unsat";
      interval_sat = int "interval_sat";
      sat_calls = int "sat_calls";
      sat_conflicts = int "sat_conflicts";
      sat_decisions = int "sat_decisions";
      sat_propagations = int "sat_propagations";
      sat_timeouts = int "sat_timeouts";
      sat_retries = int "sat_retries";
      scope_reused = int "scope_reused";
      scope_rebuilds = int "scope_rebuilds";
      time = flt "time";
      interval_time = flt "interval_time";
      bitblast_time = flt "bitblast_time";
      sat_time = flt "sat_time" }
end

let independence = ref true
let set_independence b = independence := b

(* A verdict scope: retained CDCL instances (learned clauses, VSIDS
   activities, watch lists, variable numbering) that answer the
   queries whose models nobody reads.

   Each constraint is encoded once per retained instance and tied to a
   fresh {e guard} variable [g] by the clause [(-g \/ tseitin c)]; a
   query enables exactly its constraints by solving under the
   assumption set of their guards, so a constraint the query leaves out
   costs no clause, and every learned clause remains sound forever (it
   was derived from guarded clauses only).  Guards' saved phase starts
   [false], so the CDCL search decides un-assumed guards negative; the
   circuits of disabled constraints still sit in the instance, and a
   Sat answer assigns every one of their variables.  Instances encode
   with [Bitblast.create_verdict], which folds and shares gates: no Sat
   model of theirs is consumed, so their CNF is free to differ from the
   scratch one.

   Instances are kept {e per variable family}, keyed on the smallest
   [var_id] of the slice being solved (0 for ground slices): one global
   instance would make every solve assign the whole accumulated
   universe.  An instance whose guard table outgrows
   [scope_rebuild_cap] is reset on next use and starts over empty. *)
module Scope = struct
  type instance = {
    i_sat : Sat.t;
    i_ctx : Bitblast.ctx;
    i_guards : (int, int) Hashtbl.t; (* Expr.id -> guard variable *)
  }

  type t = (int, instance) Hashtbl.t (* family key -> instance *)

  let create () : t = Hashtbl.create 8

  (* Instances of released scopes, handed out again before any new one
     is created.  A released context never queries again: each
     exploration context releases its scope when its run ends, and runs
     do not nest. *)
  let spare : instance list ref = ref []

  let release (t : t) =
    Hashtbl.iter (fun _ inst -> spare := inst :: !spare) t;
    Hashtbl.reset t
end

let scope_rebuild_cap = 1024

(* A reset instance keeps its arrays and solves exactly as a fresh one
   (the scratch pair's contract, DESIGN "Solver pipeline"), so reusing
   storage never moves a verdict or a search counter. *)
let recycle (inst : Scope.instance) =
  Sat.reset inst.Scope.i_sat;
  Bitblast.reset inst.Scope.i_ctx;
  Hashtbl.clear inst.Scope.i_guards;
  inst

let scope_instance (scope : Scope.t) vars =
  let key =
    match vars with [] -> 0 | (v : Expr.var) :: _ -> v.Expr.var_id
  in
  match Hashtbl.find_opt scope key with
  | Some inst when Hashtbl.length inst.Scope.i_guards < scope_rebuild_cap ->
    inst
  | Some inst ->
    Stats.(
      current :=
        { !current with scope_rebuilds = !current.scope_rebuilds + 1 });
    recycle inst
  | None ->
    let inst =
      match !Scope.spare with
      | inst :: rest ->
        Scope.spare := rest;
        recycle inst
      | [] ->
        let sat = Sat.create () in
        { Scope.i_sat = sat;
          i_ctx = Bitblast.create_verdict sat;
          i_guards = Hashtbl.create 64 }
    in
    Hashtbl.replace scope key inst;
    inst

(* [c]'s guard variable in [inst]: encoded behind a fresh guard on first
   use, reused ever after. *)
let guard (inst : Scope.instance) (c : Expr.t) =
  match Hashtbl.find_opt inst.Scope.i_guards c.Expr.id with
  | Some g ->
    Stats.(current := { !current with scope_reused = !current.scope_reused + 1 });
    g
  | None ->
    let l = Bitblast.literal inst.Scope.i_ctx c in
    let g = Sat.new_var inst.Scope.i_sat in
    Sat.add_clause2 inst.Scope.i_sat (-g) l;
    Hashtbl.add inst.Scope.i_guards c.Expr.id g;
    g

(* Per-slice query cache: the canonical key is the sorted list of term
   ids of one independent slice (terms are hash-consed, so equal
   constraint sets share a key).  With independence disabled the whole
   constraint set is one slice, recovering the old whole-query cache.
   Bounded by LRU eviction so unbounded campaigns cannot exhaust
   memory; the default capacity is large enough that decision-prefix
   replay within a run stays deterministic in practice (see
   [set_cache_capacity]).

   The key leads with a hash of every id.  The stdlib hash reads only a
   list's first few cells, and the smallest ids are the path's oldest
   constraints, which most slices of a long path share, so the list
   alone would put thousands of keys on a few hundred hashes and make
   every miss walk a long chain.  Key equality stays structural. *)
let default_query_cache_cap = 65536
let default_cex_index_cap = 4096

let query_cache : (int * int list, outcome) Lru.t =
  Lru.create ~cap:default_query_cache_cap ()

let slice_key constraints =
  let ids =
    List.sort_uniq Int.compare
      (List.map (fun (c : Expr.t) -> c.Expr.id) constraints)
  in
  (List.fold_left (fun h id -> (h lxor id) * 0x100000001b3) 0x811c9dc5 ids, ids)

(* Variable-indexed counterexample cache.  A model satisfying a
   superset query also satisfies this query, so re-evaluating recent
   models is cheap and hits often — but only models that actually bind
   a slice's variables can satisfy it non-trivially, so models are
   indexed by the variables they bind and lookups evaluate only models
   that cover the slice. *)
let cex_per_var = 8
let cex_index : (int, Model.t list) Lru.t =
  Lru.create ~cap:default_cex_index_cap ()

(* Eviction totals live in the LRU maps; fold the deltas into the
   [Stats] counters so [Stats.reset]/[Stats.sub] keep working. *)
let last_query_evictions = ref 0
let last_cex_evictions = ref 0

let note_evictions () =
  let qe = Lru.evictions query_cache in
  let ce = Lru.evictions cex_index in
  if qe <> !last_query_evictions || ce <> !last_cex_evictions then begin
    Stats.(
      current :=
        { !current with
          query_evictions =
            !current.query_evictions + (qe - !last_query_evictions);
          cex_evictions = !current.cex_evictions + (ce - !last_cex_evictions) });
    last_query_evictions := qe;
    last_cex_evictions := ce
  end

let set_cache_capacity ?query ?cex () =
  Option.iter (Lru.set_capacity query_cache) query;
  Option.iter (Lru.set_capacity cex_index) cex;
  note_evictions ()

let cache_sizes () = (Lru.length query_cache, Lru.length cex_index)

let remember_model m =
  List.iter
    (fun ((v : Expr.var), _) ->
       let prev =
         match Lru.find cex_index v.Expr.var_id with
         | Some models -> models
         | None -> []
       in
       Lru.put cex_index v.Expr.var_id
         (m :: List.filteri (fun i _ -> i < cex_per_var - 1) prev))
    (Model.bindings m);
  note_evictions ()

(* Candidate models are those indexed under the slice's first variable
   and binding every other slice variable; only those are evaluated.
   A hit is projected onto the slice's own variables: the cached model
   may come from a larger query and bind variables of other slices,
   and those extra bindings must not leak into the merged answer. *)
let cex_lookup vars constraints =
  match vars with
  | [] -> None
  | (v0 : Expr.var) :: rest ->
    (match Lru.find cex_index v0.Expr.var_id with
     | None -> None
     | Some models ->
       Option.map
         (fun m -> Model.of_fun vars (Model.find m))
         (List.find_opt
            (fun m ->
               List.for_all
                 (fun (v : Expr.var) -> Model.find_opt m v <> None)
                 rest
               && Model.satisfies m constraints)
            models))

let clear_caches () =
  Lru.clear query_cache;
  Lru.clear cex_index

(* Hook polled by the CDCL loop so a SIGINT can unwind even a long SAT
   call.  Installed by the engine; defaults to never stopping. *)
let interrupt_check = ref (fun () -> false)
let set_interrupt_check f = interrupt_check := f

let outcome_to_string = function
  | Sat _ -> "sat"
  | Unsat -> "unsat"
  | Unknown _ -> "unknown"

(* Per-stage wall time is accumulated unconditionally (two clock reads
   per stage, dwarfed by the stage itself) so the solver breakdown is
   available in every report, not only under tracing. *)
let stage name timef record f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Stats.(current := timef !current dt);
  Obs.Profile.record ~stage:name dt;
  if !Obs.Sink.enabled then
    Obs.Sink.complete ~cat:"solver" ~dur_us:(dt *. 1e6)
      ~args:(record r) name;
  r

(* Bounded retry-with-restart around the SAT backend: a query that
   comes back Unknown (conflict limit, timeout, injected fault) is
   retried up to [retries] times, each attempt re-encoded from scratch
   with {!Sat.perturb}ed VSIDS activities and phases — a different
   search order often resolves within the same budget — and, for
   timeouts, a fresh per-attempt deadline.  Interrupts never retry. *)
let retries = ref 0
let set_retries n = retries := max 0 n

(* Every scratch query runs on this one instance and encoder, both
   reset first: queries share their storage but no state, so a scratch
   answer is still a pure function of the query while encoding stops
   allocating. *)
let scratch_sat = Sat.create ()
let scratch_ctx = Bitblast.create scratch_sat

let sat_timeout () =
  Stats.(current := { !current with sat_timeouts = !current.sat_timeouts + 1 });
  Error "solver timeout"

(* The one SAT runner, for scratch and scoped queries alike: [encode]
   bit-blasts the query into [ctx] and returns the literals to solve
   under, then the CDCL search runs and, on Sat, the model is read
   back.  Stage accounting is the same for both, so the "bitblast"
   profile bucket directly shows the encoding a retained instance
   skips.  A retained instance's counters are cumulative across
   queries; only this call's delta is folded into the global stats. *)
let run_sat sat ctx ~encode ?conflict_limit ?deadline ~attempt constraints
    vars =
  let stop () = !interrupt_check () in
  Bitblast.set_deadline ctx deadline;
  Bitblast.set_stop ctx (Some stop);
  let blast =
    stage "bitblast"
      (fun s dt -> { s with Stats.bitblast_time = s.Stats.bitblast_time +. dt })
      (fun _ -> [ ("vars", Obs.Event.Int (Sat.num_vars sat)) ])
      (fun () ->
         match encode () with
         | assumptions -> Ok assumptions
         | exception Sat.Timeout -> sat_timeout ()
         | exception Sat.Interrupted -> Error "interrupted")
  in
  match blast with
  | Error msg -> Unknown msg
  | Ok assumptions ->
    if attempt > 0 then Sat.perturb sat (Int64.of_int attempt);
    let c0 = Sat.stats_conflicts sat
    and d0 = Sat.stats_decisions sat
    and p0 = Sat.stats_propagations sat in
    let result =
      stage "sat"
        (fun s dt -> { s with Stats.sat_time = s.Stats.sat_time +. dt })
        (fun r ->
           [ ("result",
              Obs.Event.Str
                (match r with
                 | Ok Sat.Sat -> "sat"
                 | Ok Sat.Unsat -> "unsat"
                 | Error msg -> msg));
             ("conflicts", Obs.Event.Int (Sat.stats_conflicts sat - c0)) ])
        (fun () ->
           match Sat.solve ~assumptions ?conflict_limit ?deadline ~stop sat with
           | r -> Ok r
           | exception Sat.Resource_exhausted -> Error "conflict limit reached"
           | exception Sat.Timeout -> sat_timeout ()
           | exception Sat.Interrupted -> Error "interrupted")
    in
    Stats.(
      current :=
        { !current with
          sat_conflicts = !current.sat_conflicts + Sat.stats_conflicts sat - c0;
          sat_decisions = !current.sat_decisions + Sat.stats_decisions sat - d0;
          sat_propagations =
            !current.sat_propagations + Sat.stats_propagations sat - p0 });
    (match result with
     | Error msg -> Unknown msg
     | Ok Sat.Unsat -> Unsat
     | Ok Sat.Sat ->
       let model = Bitblast.extract_model ctx vars in
       (* Safety net: a model must satisfy the query by evaluation. *)
       if not (Model.satisfies model constraints) then
         failwith "Solver: internal error, SAT model fails evaluation";
       Sat model)

(* One SAT attempt, chaos points included: [Solver_unknown] replaces
   the backend's answer, [Solver_stall] burns (a bounded slice of) the
   query budget and reports a timeout — both are then healed or
   surfaced by the retry loop exactly like organic Unknowns. *)
let sat_attempt ?scope ?conflict_limit ?deadline ~attempt constraints vars =
  if Chaos.fire Chaos.Solver_unknown then Unknown "chaos: injected unknown"
  else if Chaos.fire Chaos.Solver_stall then begin
    let now = Unix.gettimeofday () in
    let dt =
      match deadline with
      | Some d -> Float.min (Float.max (d -. now) 0.0) 0.05
      | None -> 0.05
    in
    if dt > 0.0 then Unix.sleepf dt;
    Stats.(
      current := { !current with sat_timeouts = !current.sat_timeouts + 1 });
    Unknown "solver timeout (chaos stall)"
  end
  else
    match scope with
    | None ->
      Sat.reset scratch_sat;
      Bitblast.reset scratch_ctx;
      run_sat scratch_sat scratch_ctx ?conflict_limit ?deadline ~attempt
        ~encode:(fun () ->
            List.iter (Bitblast.assert_true scratch_ctx) constraints;
            [])
        constraints vars
    | Some scope ->
      let inst = scope_instance scope vars in
      run_sat inst.Scope.i_sat inst.Scope.i_ctx ?conflict_limit ?deadline
        ~attempt
        ~encode:(fun () -> List.map (guard inst) constraints)
        constraints vars

let sat_with_retries ?scope ?conflict_limit ?deadline constraints vars =
  let rec go attempt =
    let r =
      sat_attempt ?scope ?conflict_limit ?deadline ~attempt constraints vars
    in
    match r with
    | Unknown msg
      when attempt < !retries && msg <> "interrupted"
           && not (!interrupt_check ()) ->
      Stats.(
        current := { !current with sat_retries = !current.sat_retries + 1 });
      if !Obs.Sink.enabled then
        Obs.Sink.instant ~cat:"solver"
          ~args:[ ("reason", Obs.Event.Str msg) ]
          "retry";
      (* Every retry draws from the query's one shared deadline, so
         [--solver-timeout-ms] is a true per-query ceiling.  A retry
         whose budget is already exhausted is still counted above (it
         was requested and denied) but returns the Unknown at once. *)
      (match deadline with
       | Some d when Unix.gettimeofday () >= d -> r
       | Some _ | None -> go (attempt + 1))
    | r -> r
  in
  go 0

(* Whether [d] is the structural negation of [c]: [Not x] and [x],
   [Ult (a, b)] and [Ule (b, a)], [Slt (a, b)] and [Sle (b, a)], the
   pairs [Expr.not_] builds.  No term is built. *)
let complementary (c : Expr.t) (d : Expr.t) =
  match c.Expr.node, d.Expr.node with
  | Expr.Not x, _ -> x == d
  | _, Expr.Not y -> y == c
  | Expr.Cmp (Expr.Ult, a, b), Expr.Cmp (Expr.Ule, b', a')
  | Expr.Cmp (Expr.Ule, a, b), Expr.Cmp (Expr.Ult, b', a')
  | Expr.Cmp (Expr.Slt, a, b), Expr.Cmp (Expr.Sle, b', a')
  | Expr.Cmp (Expr.Sle, a, b), Expr.Cmp (Expr.Slt, b', a') ->
    a == a' && b == b'
  | _ -> false

(* Every caller puts the newest constraint first ([check (c :: pc)],
   [check_pair]'s children), so comparing the first with the rest
   catches a branch or assumption that contradicts the path. *)
let complementary_first = function
  | [] -> false
  | c :: rest -> List.exists (complementary c) rest

(* The uncached tail of the per-slice pipeline: the prescreen
   (complementary constraints, then range propagation plus candidate
   probing), then bit-blast + SAT.
   Returns the outcome plus a cacheability flag: a [Sat] answer from a
   scope's retained instance is history-dependent (learned clauses and
   saved phases steer the model search), so it must stay out of the
   query and counterexample caches — otherwise a model-consuming query
   (concretization, error witnesses) could observe a model that a
   worker replaying the same decision prefix would never compute, and
   sequential/parallel equivalence would break.  Verdicts and interval
   models are pure functions of the slice and cache fine. *)
let solve_slice ?scope ?conflict_limit ?deadline constraints vars =
  let prescreen =
    stage "interval"
      (fun s dt ->
         { s with Stats.interval_time = s.Stats.interval_time +. dt })
      (fun r ->
         [ ("result",
            Obs.Event.Str
              (match r with
               | `Unsat -> "unsat"
               | `Model _ -> "model"
               | `Inconclusive -> "inconclusive")) ])
      (fun () ->
         if complementary_first constraints then `Unsat
         else begin
           let env = Interval.make_env () in
           match Interval.propagate env constraints with
           | Interval.Definitely_unsat -> `Unsat
           | Interval.Unknown ->
             (match
                List.find_map
                  (fun f ->
                     let m = Model.of_fun vars f in
                     if Model.satisfies m constraints then Some m else None)
                  (Interval.candidates env vars)
              with
              | Some m -> `Model m
              | None -> `Inconclusive)
         end)
  in
  match prescreen with
  | `Unsat ->
    Stats.(current := { !current with interval_unsat = !current.interval_unsat + 1 });
    (Unsat, true)
  | `Model m ->
    Stats.(current := { !current with interval_sat = !current.interval_sat + 1 });
    remember_model m;
    (Sat m, true)
  | `Inconclusive ->
    Stats.(current := { !current with sat_calls = !current.sat_calls + 1 });
    let r =
      sat_with_retries ?scope ?conflict_limit ?deadline constraints vars
    in
    let scoped = Option.is_some scope in
    (match r with
     | Sat m when not scoped -> remember_model m
     | Sat _ | Unsat | Unknown _ -> ());
    (r, (match r with Sat _ -> not scoped | Unsat | Unknown _ -> true))

(* One independent slice: per-slice query cache, then the variable-
   indexed counterexample cache, then the solving pipeline.  Emits a
   [solver/slice] span per slice when the sink is enabled. *)
let check_slice ?scope ?conflict_limit ?deadline constraints =
  let t0 = Unix.gettimeofday () in
  Stats.(current := { !current with slices = !current.slices + 1 });
  let finish ~via r =
    let dt = Unix.gettimeofday () -. t0 in
    (* Cache shortcuts bypass the timed pipeline stages; attribute their
       (small) wall time explicitly so the profile still sums to the
       solver total.  Pipeline slices are covered by the inner stage
       records plus the query-level "other" remainder. *)
    (match via with
     | "cache" -> Obs.Profile.record ~stage:"slice:cache" dt
     | "cex" -> Obs.Profile.record ~stage:"slice:cex" dt
     | _ -> ());
    if !Obs.Sink.enabled then
      Obs.Sink.complete ~cat:"solver" ~dur_us:(dt *. 1e6)
        ~args:
          [ ("outcome", Obs.Event.Str (outcome_to_string r));
            ("via", Obs.Event.Str via);
            ("constraints", Obs.Event.Int (List.length constraints)) ]
        "slice";
    r
  in
  let key = slice_key constraints in
  match Lru.find query_cache key with
  | Some r ->
    Stats.(
      current :=
        { !current with
          cache_hits = !current.cache_hits + 1;
          slice_hits = !current.slice_hits + 1 });
    finish ~via:"cache" r
  | None ->
    let vars = Slice.vars constraints in
    (match cex_lookup vars constraints with
     | Some m ->
       Stats.(
         current :=
           { !current with
             cex_hits = !current.cex_hits + 1;
             slice_hits = !current.slice_hits + 1 });
       (* Promote the hit into the query cache: the engine replays paths
          by decision prefix and re-issues the same queries, and the
          branch conditions it rebuilds embed model values — so a slice,
          once answered, must keep answering with the same model even as
          the counterexample index churns. *)
       Lru.put query_cache key (Sat m);
       note_evictions ();
       finish ~via:"cex" (Sat m)
     | None ->
       let r, cacheable =
         solve_slice ?scope ?conflict_limit ?deadline constraints vars
       in
       (match r with
        | Unknown _ -> ()
        | Sat _ | Unsat ->
          if cacheable then begin
            Lru.put query_cache key r;
            note_evictions ()
          end);
       finish ~via:"pipeline" r)

(* Slicing plus the per-slice pipeline over an already constant-filtered
   constraint set.  An unsat slice settles the conjunction immediately;
   a slice at its resource limit is remembered but the remaining slices
   are still examined, since any of them may still prove Unsat. *)
let solve_sliced ?scope ?conflict_limit ?deadline constraints =
  let slices =
    if !independence then Slice.partition constraints else [ constraints ]
  in
  let rec solve_all model unknown = function
    | [] ->
      (match unknown with
       | Some msg -> Unknown msg
       | None ->
         (* Safety net: the merged model must satisfy the whole set
            by evaluation (slices bind disjoint variables, so this
            can only fail if the partition itself is wrong). *)
         if not (Model.satisfies model constraints) then
           failwith "Solver: internal error, merged model fails evaluation";
         Sat model)
    | s :: rest ->
      (match check_slice ?scope ?conflict_limit ?deadline s with
       | Unsat -> Unsat
       | Unknown msg ->
         solve_all model (Some (match unknown with Some m -> m | None -> msg)) rest
       | Sat m -> solve_all (Model.union model m) unknown rest)
  in
  let via = match slices with [ _ ] -> "pipeline" | _ -> "slices" in
  (solve_all Model.empty None slices, via)

let check ?scope ?conflict_limit ?timeout_ms constraints =
  let t0 = Unix.gettimeofday () in
  (* The per-query timeout becomes an absolute deadline shared by every
     slice of the conjunction — and by every retry attempt: a query is
     one budget unit, full stop. *)
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) timeout_ms
  in
  Stats.(current := { !current with queries = !current.queries + 1 });
  let clock0 = Obs.Profile.stage_clock () in
  let finish ~via r =
    let dt = Unix.gettimeofday () -. t0 in
    Stats.(current := { !current with time = !current.time +. dt });
    (* Attribute query wall time not covered by any inner stage record
       (encoding overhead, slicing, constant short-circuits) to "other",
       so per-origin bucket totals sum to the Stats.time delta. *)
    Obs.Profile.record ~stage:"other"
      (dt -. (Obs.Profile.stage_clock () -. clock0));
    if !Obs.Sink.enabled then
      Obs.Sink.complete ~cat:"solver" ~dur_us:(dt *. 1e6)
        ~args:
          [ ("outcome", Obs.Event.Str (outcome_to_string r));
            ("via", Obs.Event.Str via) ]
        "query";
    r
  in
  (* Constant short-circuit. *)
  let constraints = List.filter (fun c -> Expr.to_bool c <> Some true) constraints in
  if List.exists (fun c -> Expr.to_bool c = Some false) constraints then
    finish ~via:"const" Unsat
  else if constraints = [] then finish ~via:"const" (Sat Model.empty)
  else begin
    let r, via = solve_sliced ?scope ?conflict_limit ?deadline constraints in
    finish ~via r
  end

(* Both children of a branch — [pc /\ cond] and [pc /\ not cond] — as
   one variational query.  The prefix [pc] is partitioned once; slices
   sharing no variable with [cond] are {e common} and are solved a
   single time, with the verdict applied to both children.  Only the
   variational remainder — [cond] (resp. its negation) plus the prefix
   slices touching its variables, which is exactly one slice of the
   child's own partition — is solved per child, and it is routed
   through {!check_slice} so its cache entry is shared with standalone
   checks of the same child.  Counted as two queries. *)
let check_pair ?scope ?conflict_limit ?timeout_ms ~cond pc =
  let t0 = Unix.gettimeofday () in
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) timeout_ms
  in
  Stats.(current := { !current with queries = !current.queries + 2 });
  let clock0 = Obs.Profile.stage_clock () in
  (* Each child is its own query unit, so the sink sees two [query]
     spans (tagged via=pair) — the same contract as two standalone
     [check] calls, which keeps trace consumers and the metrics bridge
     oblivious to the batching. *)
  let t_split = ref None in
  let finish (rt, rf) =
    let t1 = Unix.gettimeofday () in
    let dt = t1 -. t0 in
    Stats.(current := { !current with time = !current.time +. dt });
    Obs.Profile.record ~stage:"other"
      (dt -. (Obs.Profile.stage_clock () -. clock0));
    if !Obs.Sink.enabled then begin
      let tm = match !t_split with Some t -> t | None -> t1 in
      let emit dur r which =
        Obs.Sink.complete ~cat:"solver" ~dur_us:(dur *. 1e6)
          ~args:
            [ ("outcome", Obs.Event.Str (outcome_to_string r));
              ("via", Obs.Event.Str "pair");
              ("child", Obs.Event.Str which) ]
          "query"
      in
      emit (tm -. t0) rt "true";
      emit (t1 -. tm) rf "false"
    end;
    (rt, rf)
  in
  let pc = List.filter (fun c -> Expr.to_bool c <> Some true) pc in
  if List.exists (fun c -> Expr.to_bool c = Some false) pc then
    finish (Unsat, Unsat)
  else
    match Expr.to_bool cond with
    | Some true ->
      let r =
        if pc = [] then Sat Model.empty
        else fst (solve_sliced ?scope ?conflict_limit ?deadline pc)
      in
      finish (r, Unsat)
    | Some false ->
      let r =
        if pc = [] then Sat Model.empty
        else fst (solve_sliced ?scope ?conflict_limit ?deadline pc)
      in
      finish (Unsat, r)
    | None ->
      let cond_vars = Expr.vars cond in
      let touches s =
        List.exists
          (fun c -> not (Expr.disjoint_vars cond_vars (Expr.vars c)))
          s
      in
      let slices =
        if !independence then Slice.partition pc else [ pc ]
      in
      let touching, common = List.partition touches slices in
      (* Common prefix slices: solved once, verdict shared. *)
      let rec go model unknown = function
        | [] -> `Common (model, unknown)
        | s :: rest ->
          (match check_slice ?scope ?conflict_limit ?deadline s with
           | Unsat -> `Unsat
           | Unknown msg ->
             go model (Some (match unknown with Some m -> m | None -> msg)) rest
           | Sat m -> go (Model.union model m) unknown rest)
      in
      (match go Model.empty None common with
       | `Unsat -> finish (Unsat, Unsat)
       | `Common (model, unknown) ->
         let child lit deadline =
           let cs = lit :: List.concat touching in
           match check_slice ?scope ?conflict_limit ?deadline cs with
           | Unsat -> Unsat (* Unsat dominates a common Unknown *)
           | Unknown msg ->
             Unknown (match unknown with Some m -> m | None -> msg)
           | Sat m ->
             (match unknown with
              | Some msg -> Unknown msg
              | None ->
                let full = Model.union model m in
                if not (Model.satisfies full (lit :: pc)) then
                  failwith
                    "Solver: internal error, merged model fails evaluation";
                Sat full)
         in
         let rt = child cond deadline in
         (* The false child is its own query unit: a fresh deadline, not
            the true child's leftovers. *)
         let t_mid = Unix.gettimeofday () in
         t_split := Some t_mid;
         let deadline' =
           Option.map (fun ms -> t_mid +. (float_of_int ms /. 1000.0))
             timeout_ms
         in
         let rf = child (Expr.not_ cond) deadline' in
         finish (rt, rf))

let is_sat ?conflict_limit constraints =
  match check ?conflict_limit constraints with
  | Sat _ -> true
  | Unsat -> false
  | Unknown msg -> failwith ("Solver.is_sat: unknown: " ^ msg)

let get_model constraints =
  match check constraints with
  | Sat m -> Some m
  | Unsat -> None
  | Unknown msg -> failwith ("Solver.get_model: unknown: " ^ msg)
