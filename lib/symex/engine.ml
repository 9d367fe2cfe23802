module Expr = Smt.Expr
module Bv = Smt.Bv
module Solver = Smt.Solver
module Model = Smt.Model

type limits = Budget.t = {
  max_paths : int option;
  max_instructions : int option;
  max_seconds : float option;
  max_solver_conflicts : int option;
  solver_timeout_ms : int option;
  max_memory_mb : int option;
}

let no_limits = Budget.unlimited

type config = {
  strategy : Search.strategy;
  limits : limits;
  stop_after_errors : int option;
}

type checkpoint_policy = Checkpoint.policy = {
  write : Checkpoint.t -> unit;
  every_s : float;
}

(* How much self-healing the run needed: every retried query, requeued
   unit, killed worker, quarantined unit, checkpoint fallback and
   unconfirmed counterexample is surfaced here so a fault — injected or
   genuine — is visible in the report rather than silently absorbed. *)
type resilience = {
  res_requeued : int;
  res_worker_deaths : int;
  res_quarantined : int;
  res_lease_expired : int;
  res_duplicates : int;
  res_reconnects : int;
  res_checkpoint_fallbacks : int;
  res_unvalidated : int;
  res_chaos : (string * int) list;
}

let no_resilience =
  { res_requeued = 0;
    res_worker_deaths = 0;
    res_quarantined = 0;
    res_lease_expired = 0;
    res_duplicates = 0;
    res_reconnects = 0;
    res_checkpoint_fallbacks = 0;
    res_unvalidated = 0;
    res_chaos = [] }

type report = {
  errors : Error.t list;
  paths : int;
  paths_completed : int;
  paths_errored : int;
  paths_infeasible : int;
  paths_unknown : int;
  instructions : int;
  wall_time : float;
  solver_time : float;
  solver_queries : int;
  solver_stats : Solver.Stats.t;
  exhausted : bool;
  stop_reason : Budget.reason option;
  strategy : Search.strategy;
  branch_coverage : (string * int) list;
  workers : int;
  resilience : resilience;
  coverage : Obs.Coverage.t;
  profile : Obs.Profile.t;
  events_dropped : int;
  snapshot_restores : int;
  replay_fallbacks : int;
  instructions_saved : int;
}

exception Check_failed of string

(* Path-local termination reasons. *)
type path_end = End_error | End_infeasible | End_unknown

exception Terminate_path of path_end
exception Stop_exploration
exception Replay_stop
exception Replay_diverged of string

type path_state = {
  prefix : Decision.t array;      (* prescribed decisions *)
  mutable pos : int;              (* prescribed decisions consumed *)
  mutable taken : Decision.t list;  (* all decisions, newest first *)
  mutable pc : Expr.t list;       (* path condition, newest first *)
  mutable inputs : (string * Expr.t) list;  (* newest first *)
  mutable fresh_idx : int;
  mutable visited : string list;  (* sites visited on this path, for
                                     rollback when it is abandoned *)
  instr_start : int;              (* instructions_so_far at path start *)
  path_id : int;
}

type explore_state = {
  cfg : config;
  scope : Solver.Scope.t;
      (* retained SAT instances answering this context's verdict-only
         queries; owned per exploration context (one per pool worker) *)
  mutable frontier : Decision.t array Search.t;
      (* the run's frontier in a sequential exploration; a per-unit
         fork collector in a pool worker (replaced for every unit) *)
  mutable pool : (string * int * Expr.t) array;
  mutable pool_len : int;
  mutable cur : path_state option;
  error_table : (string * Error.kind, unit) Hashtbl.t;
  mutable errors_rev : Error.t list;
  mutable n_paths : int;
  mutable n_completed : int;
  mutable n_errored : int;
  mutable n_infeasible : int;
  mutable n_unknown : int;
  mutable degraded : bool;
      (* a path was lost to a solver resource limit: the run can no
         longer be exhaustive, even after a resume *)
  mutable stop_reason : Budget.reason option;
  started : float;
  mutable instr_base : int;
}

type replay_state = {
  values : (string * Bv.t) array;
  mutable idx : int;
  mutable failure : Error.t option;
}

type rand_state = {
  rng : Random.State.t;
  mutable r_inputs : (string * Bv.t) list; (* newest first *)
  mutable r_failure : Error.t option;
}

exception Trial_rejected

type mode =
  | Off
  | Explore of explore_state
  | Replay of replay_state
  | Rand of rand_state

let mode = ref Off

let in_symbolic_context () =
  match !mode with Off -> false | Explore _ | Replay _ | Rand _ -> true

(* Coverage is recorded only while exploring: replay/random re-runs of
   already-explored paths must not inflate the counts. *)
let exploring () =
  match !mode with Explore _ -> true | Off | Replay _ | Rand _ -> false

let current_path st =
  match st.cur with
  | Some ps -> ps
  | None -> failwith "Engine: no active path (intrinsic called outside run)"

let elapsed st = Unix.gettimeofday () -. st.started
let instructions_so_far st = Expr.instruction_count () - st.instr_base

(* Record why exploration stops (the first reason wins) and unwind.
   Unlike [degraded], a recorded stop reason is recoverable: the
   checkpointed frontier still covers the unexplored states. *)
let stop st reason =
  if st.stop_reason = None then st.stop_reason <- Some reason;
  raise Stop_exploration

let check_limits st =
  if Budget.interrupted () then stop st Budget.Interrupt;
  let l = st.cfg.limits in
  (match l.max_instructions with
   | Some n when instructions_so_far st > n -> stop st Budget.Instructions
   | Some _ | None -> ());
  (match l.max_seconds with
   | Some s when elapsed st > s -> stop st Budget.Deadline
   | Some _ | None -> ());
  match l.max_memory_mb with
  | Some m when Budget.heap_mb () > float_of_int m -> stop st Budget.Memory
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Symbolic inputs                                                     *)

let pool_fresh st ps name width =
  let k = ps.fresh_idx in
  ps.fresh_idx <- k + 1;
  let e =
    if k < st.pool_len then begin
      let pname, pwidth, pe = st.pool.(k) in
      if pname = name && pwidth = width then pe
      else Expr.fresh_var name width (* divergent suffix: do not pool *)
    end
    else begin
      let e = Expr.fresh_var name width in
      if k = st.pool_len then begin
        if st.pool_len = Array.length st.pool then begin
          let bigger =
            Array.make (max 16 (2 * st.pool_len)) ("", 0, Expr.tru)
          in
          Array.blit st.pool 0 bigger 0 st.pool_len;
          st.pool <- bigger
        end;
        st.pool.(st.pool_len) <- (name, width, e);
        st.pool_len <- st.pool_len + 1
      end;
      e
    end
  in
  ps.inputs <- (name, e) :: ps.inputs;
  e

let fresh name width =
  match !mode with
  | Explore st ->
    let ps = current_path st in
    pool_fresh st ps name width
  | Replay rs ->
    if rs.idx >= Array.length rs.values then
      raise (Replay_diverged
               (Printf.sprintf "input %s requested beyond recorded inputs" name))
    else begin
      let _, v = rs.values.(rs.idx) in
      rs.idx <- rs.idx + 1;
      if Bv.width v <> width then
        raise (Replay_diverged
                 (Printf.sprintf "input %s width mismatch" name));
      Expr.const v
    end
  | Rand rs ->
    let raw = Random.State.int64 rs.rng Int64.max_int in
    let v = Bv.make ~width raw in
    rs.r_inputs <- (name, v) :: rs.r_inputs;
    Expr.const v
  | Off -> failwith "Engine.fresh: no symbolic context"

let fresh32 name = fresh name 32

(* ------------------------------------------------------------------ *)
(* Branching                                                           *)

let terminate_path () = raise (Terminate_path End_infeasible)

let path_condition () =
  match !mode with
  | Explore st -> List.rev (current_path st).pc
  | Replay _ | Rand _ | Off -> []

(* A solver [Unknown] (conflict or timeout budget hit) in the middle of
   a path terminates only that path, KLEE-style, instead of aborting
   the whole exploration: the remaining frontier is still explored and
   the run is reported as non-exhaustive, so [--max-solver-conflicts]
   and [--solver-timeout-ms] compose with the other [--max-*] limits.
   An [Unknown] caused by the interrupt flag is different — nothing was
   exhausted, the query was merely cut short — so it stops the whole
   run instead of killing (and losing) the current path. *)
let solver_unknown st msg =
  if Budget.interrupted () then stop st Budget.Interrupt;
  st.degraded <- true;
  if !Obs.Sink.enabled then
    Obs.Sink.instant ~cat:"engine" "solver-unknown"
      ~args:[ ("reason", Obs.Event.Str msg) ];
  raise (Terminate_path End_unknown)

let path_check st constraints =
  Expr.without_counting (fun () ->
      Solver.check ~scope:st.scope
        ?conflict_limit:st.cfg.limits.max_solver_conflicts
        ?timeout_ms:st.cfg.limits.solver_timeout_ms constraints)

(* Queries whose [Sat] model is consumed — error witnesses and
   concretization values, by this path or by the fork it pushes — run
   without the scope: a scratch solve's model is a pure function of the
   constraint slice, so witnesses and value enumeration are identical
   across sequential, parallel and resumed runs.  The scope's retained
   instances answer with history-dependent models (learned clauses and
   saved phases steer the search), which is fine for feasibility
   verdicts but would make a worker replaying a decision prefix pick
   different concrete values than the run that forked it. *)
let path_model st constraints =
  Expr.without_counting (fun () ->
      Solver.check
        ?conflict_limit:st.cfg.limits.max_solver_conflicts
        ?timeout_ms:st.cfg.limits.solver_timeout_ms constraints)

let feasible st constraints =
  match path_check st constraints with
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Unknown msg -> solver_unknown st msg

let extend_pc ps c = ps.pc <- c :: ps.pc

let take ~site ps cond d =
  ps.taken <- Decision.Dir d :: ps.taken;
  extend_pc ps (if d then cond else Expr.not_ cond);
  Obs.Coverage.record_arm ~site d;
  d

let record_visit st ps site =
  Search.record_visit st.frontier site;
  ps.visited <- site :: ps.visited

let branch ?(site = "branch") cond =
  Expr.add_instructions 1;
  match !mode with
  | Off ->
    (match Expr.to_bool cond with
     | Some b -> b
     | None -> failwith "Engine.branch: symbolic branch outside run")
  | Replay _ ->
    (match Expr.to_bool cond with
     | Some b -> b
     | None -> raise (Replay_diverged "symbolic branch during replay"))
  | Rand _ ->
    (match Expr.to_bool cond with
     | Some b -> b
     | None -> raise (Replay_diverged "symbolic branch during random trial"))
  | Explore st ->
    check_limits st;
    let ps = current_path st in
    record_visit st ps site;
    Obs.Profile.set_origin site;
    (match Expr.to_bool cond with
     | Some b -> b
     | None ->
       if ps.pos < Array.length ps.prefix then begin
         match ps.prefix.(ps.pos) with
         | Decision.Dir d ->
           ps.pos <- ps.pos + 1;
           take ~site ps cond d
         | Decision.Pick _ ->
           failwith
             "Engine.branch: decision trace diverged (prescribed \
              concretization at a branch)"
       end
       else begin
         (* Both children decided as one variational query: the prefix
            slices untouched by [cond] are solved once and shared.  The
            true child's outcome is inspected first, preserving the
            pre-batching order of solver-unknown path kills. *)
         let rt, rf =
           Expr.without_counting (fun () ->
               Solver.check_pair ~scope:st.scope
                 ?conflict_limit:st.cfg.limits.max_solver_conflicts
                 ?timeout_ms:st.cfg.limits.solver_timeout_ms ~cond ps.pc)
         in
         let verdict = function
           | Solver.Sat _ -> true
           | Solver.Unsat -> false
           | Solver.Unknown msg -> solver_unknown st msg
         in
         let sat_true = verdict rt in
         let sat_false = verdict rf in
         match sat_true, sat_false with
         | true, true ->
           let alt =
             Array.of_list (List.rev (Decision.Dir false :: ps.taken))
           in
           Search.push st.frontier ~site alt;
           if !Obs.Sink.enabled then
             Obs.Sink.instant ~cat:"engine" "fork"
               ~args:
                 [ ("site", Obs.Event.Str site);
                   ("path", Obs.Event.Int ps.path_id);
                   ("frontier", Obs.Event.Int (Search.length st.frontier)) ];
           take ~site ps cond true
         | true, false -> take ~site ps cond true
         | false, true -> take ~site ps cond false
         | false, false ->
           (* The path condition itself became unsatisfiable — can only
              happen via solver resource limits; kill the path. *)
           raise (Terminate_path End_infeasible)
       end)

let assume cond =
  Expr.add_instructions 1;
  match !mode with
  | Off ->
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false -> failwith "Engine.assume: false assumption"
     | None -> failwith "Engine.assume: symbolic assumption outside run")
  | Replay _ ->
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false | None -> raise (Replay_diverged "assumption failed"))
  | Rand _ ->
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false | None -> raise Trial_rejected)
  | Explore st ->
    check_limits st;
    let ps = current_path st in
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false -> raise (Terminate_path End_infeasible)
     | None ->
       Obs.Profile.set_origin "assume";
       if feasible st (cond :: ps.pc) then extend_pc ps cond
       else raise (Terminate_path End_infeasible))

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)

let counterexample_of_model ps model =
  List.rev_map
    (fun (name, e) ->
       let value =
         match e.Expr.node with
         | Expr.Var v -> Model.find model v
         | Expr.Bv_const v -> v
         | _ -> Model.eval model e
       in
       (name, value))
    ps.inputs

let record_error st ps kind site message model =
  let key = (site, kind) in
  if not (Hashtbl.mem st.error_table key) then begin
    Hashtbl.add st.error_table key ();
    let err : Error.t =
      {
        Error.kind;
        site;
        message;
        counterexample = counterexample_of_model ps model;
        path_id = ps.path_id;
        instructions = instructions_so_far st;
        found_after = elapsed st;
        validated = true;
      }
    in
    st.errors_rev <- err :: st.errors_rev;
    if !Obs.Sink.enabled then
      Obs.Sink.instant ~cat:"engine" "error"
        ~args:
          [ ("site", Obs.Event.Str site);
            ("kind", Obs.Event.Str (Error.kind_to_string kind));
            ("path", Obs.Event.Int ps.path_id) ];
    match st.cfg.stop_after_errors with
    | Some n when List.length st.errors_rev >= n -> stop st Budget.Errors
    | Some _ | None -> ()
  end

let replay_failure rs kind site message =
  let err : Error.t =
    {
      Error.kind;
      site;
      message;
      counterexample = Array.to_list rs.values;
      path_id = 0;
      instructions = 0;
      found_after = 0.0;
      validated = true;
    }
  in
  rs.failure <- Some err;
  raise Replay_stop

let random_failure rs kind site message =
  let err : Error.t =
    {
      Error.kind;
      site;
      message;
      counterexample = List.rev rs.r_inputs;
      path_id = 0;
      instructions = 0;
      found_after = 0.0;
      validated = true;
    }
  in
  rs.r_failure <- Some err;
  raise Replay_stop

let check_kind kind ~site ?(message = "property violated") cond =
  Expr.add_instructions 1;
  match !mode with
  | Off ->
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false -> raise (Check_failed site)
     | None -> failwith "Engine.check: symbolic check outside run")
  | Replay rs ->
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false | None -> replay_failure rs kind site message)
  | Rand rs ->
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false | None -> random_failure rs kind site message)
  | Explore st ->
    check_limits st;
    let ps = current_path st in
    Obs.Profile.set_origin site;
    (match Expr.to_bool cond with
     | Some true -> ()
     | Some false ->
       (match path_model st ps.pc with
        | Solver.Sat m ->
          record_error st ps kind site message m;
          raise (Terminate_path End_error)
        | Solver.Unsat -> raise (Terminate_path End_infeasible)
        | Solver.Unknown msg -> solver_unknown st msg)
     | None ->
       (* Verdict before witness: the path's retained scope settles a
          holding assertion, and only a violable one pays for the
          scratch solve whose model becomes the witness.  Scoped Sat
          answers never reach the caches, so every consumed model is
          still a scratch model. *)
       let violated = Expr.not_ cond in
       if not (feasible st (violated :: ps.pc)) then extend_pc ps cond
       else
         match path_model st (violated :: ps.pc) with
         | Solver.Sat m ->
           record_error st ps kind site message m;
           (* The failing side terminates; continue on the passing side
              when it is feasible. *)
           if feasible st (cond :: ps.pc) then extend_pc ps cond
           else raise (Terminate_path End_error)
         | Solver.Unsat -> extend_pc ps cond
         | Solver.Unknown msg -> solver_unknown st msg)

let check ~site ?message cond = check_kind Error.Assertion_failure ~site ?message cond
let fatal_check ~site ?message cond = check_kind Error.Abort ~site ?message cond

let report_error kind ~site ~message =
  match !mode with
  | Off -> raise (Check_failed site)
  | Replay rs -> replay_failure rs kind site message
  | Rand rs -> random_failure rs kind site message
  | Explore st ->
    let ps = current_path st in
    Obs.Profile.set_origin site;
    (match path_model st ps.pc with
     | Solver.Sat m ->
       record_error st ps kind site message m;
       raise (Terminate_path End_error)
     | Solver.Unsat -> raise (Terminate_path End_infeasible)
     | Solver.Unknown msg -> solver_unknown st msg)

(* ------------------------------------------------------------------ *)
(* Concretization (KLEE-style enumerating fork)                        *)

(* Concretization decisions are recorded as [Decision.Pick] — value
   included — because the value comes from a solver model, and model
   choice depends on cache history.  Replaying by value keeps a
   resumed run (cold caches) on exactly the value enumeration the
   original run would have explored; prescribed picks consult no
   solver at all. *)
let rec concretize ?(site = "concretize") e =
  match Expr.to_bv e with
  | Some v -> v
  | None ->
    (match !mode with
     | Off -> failwith "Engine.concretize: symbolic value outside run"
     | Replay _ -> raise (Replay_diverged "symbolic value during replay")
     | Rand _ -> raise (Replay_diverged "symbolic value during random trial")
     | Explore st ->
       Expr.add_instructions 1;
       check_limits st;
       let ps = current_path st in
       record_visit st ps site;
       Obs.Profile.set_origin site;
       if ps.pos < Array.length ps.prefix then begin
         match ps.prefix.(ps.pos) with
         | Decision.Pick { value; dir } ->
           ps.pos <- ps.pos + 1;
           let cond = Expr.eq e (Expr.const value) in
           ps.taken <- Decision.Pick { value; dir } :: ps.taken;
           extend_pc ps (if dir then cond else Expr.not_ cond);
           Obs.Coverage.record_arm ~site dir;
           if dir then value else concretize ~site e
         | Decision.Dir _ ->
           failwith
             "Engine.concretize: decision trace diverged (prescribed \
              branch at a concretization)"
       end
       else
         (match path_model st ps.pc with
          | Solver.Sat m ->
            let v = Model.eval m e in
            let cond = Expr.eq e (Expr.const v) in
            (* [m] already witnesses [e = v]; only the excluded side
               needs a query before forking.  It runs scratch: the fork's
               first live step asks [path_model] for this very
               constraint list and finds its model in the query cache. *)
            let fork =
              match
                Expr.without_counting (fun () ->
                    path_model st (Expr.not_ cond :: ps.pc))
              with
              | Solver.Sat _ -> true
              | Solver.Unsat -> false
              | Solver.Unknown msg -> solver_unknown st msg
            in
            if fork then begin
              let alt =
                Array.of_list
                  (List.rev
                     (Decision.Pick { value = v; dir = false } :: ps.taken))
              in
              Search.push st.frontier ~site alt;
              if !Obs.Sink.enabled then
                Obs.Sink.instant ~cat:"engine" "fork"
                  ~args:
                    [ ("site", Obs.Event.Str site);
                      ("path", Obs.Event.Int ps.path_id);
                      ("frontier", Obs.Event.Int (Search.length st.frontier)) ]
            end;
            ps.taken <- Decision.Pick { value = v; dir = true } :: ps.taken;
            extend_pc ps cond;
            Obs.Coverage.record_arm ~site true;
            v
          | Solver.Unsat -> raise (Terminate_path End_infeasible)
          | Solver.Unknown msg -> solver_unknown st msg))

(* ------------------------------------------------------------------ *)
(* Exploration loop                                                    *)

(* Hooks run at the start of every explored path, before the testbench
   body — the place to reset any global counters the re-executed
   construction glue depends on for determinism. *)
let path_start_hooks : (unit -> unit) list ref = ref []
let add_path_start_hook f = path_start_hooks := !path_start_hooks @ [ f ]

(* Run [body] once under [prefix], updating the counters, error table
   and telemetry of [st].  On a budget stop the partial path is rolled
   back — visit counts, instructions and the path count leave no trace
   — and the decisions taken so far are returned so the caller can
   re-queue them: the sequential loop pushes them back onto its own
   frontier, the worker-pool unit runner ships them to the master. *)
let exec_path st body ~prefix =
  (* Id counters are reset per path so re-executed construction glue
     allocates deterministic process/event ids: a schedule-permuting
     batch hook ([Order]) sees process ids. *)
  Pk.Process.reset_ids ();
  Pk.Event.reset_ids ();
  List.iter (fun f -> f ()) !path_start_hooks;
  let ps =
    {
      prefix;
      pos = 0;
      taken = [];
      pc = [];
      inputs = [];
      fresh_idx = 0;
      visited = [];
      instr_start = instructions_so_far st;
      path_id = st.n_paths;
    }
  in
  st.cur <- Some ps;
  st.n_paths <- st.n_paths + 1;
  (* Snapshot so an abandoned path's coverage rolls back with its visit
     counts — keeping sequential budget stops and pool unit aborts on
     identical accounting. *)
  let cov0 = Obs.Coverage.get () in
  if !Obs.Sink.enabled then
    Obs.Sink.span_begin ~cat:"engine" "path"
      ~args:
        [ ("path", Obs.Event.Int ps.path_id);
          ("prefix", Obs.Event.Int (Array.length prefix)) ];
  let ended = ref false in
  let end_path outcome =
    if (not !ended) && !Obs.Sink.enabled then begin
      ended := true;
      Obs.Sink.span_end ~cat:"engine" "path"
        ~args:
          [ ("path", Obs.Event.Int ps.path_id);
            ("outcome", Obs.Event.Str outcome);
            ("frontier", Obs.Event.Int (Search.length st.frontier)) ]
    end
  in
  let result =
    try
      (try
         body ();
         st.n_completed <- st.n_completed + 1;
         end_path "completed"
       with
       | Terminate_path End_error ->
         st.n_errored <- st.n_errored + 1;
         end_path "error"
       | Terminate_path End_infeasible ->
         st.n_infeasible <- st.n_infeasible + 1;
         end_path "infeasible"
       | Terminate_path End_unknown ->
         st.n_unknown <- st.n_unknown + 1;
         end_path "unknown"
       | Stop_exploration as e -> raise e
       | Check_failed _ as e -> raise e
       | exn ->
         (* An OCaml exception escaped the testbench: report it like
            KLEE reports an unhandled C++ exception. *)
         let site = "exception:" ^ Printexc.to_string exn in
         Obs.Profile.set_origin "exception";
         (match Solver.check ps.pc with
          | Solver.Sat m ->
            (* A [Stop_exploration] from the error threshold propagates
               to the abandonment handler below, which re-queues the
               path; the recorded error survives and resume
               de-duplicates it. *)
            record_error st ps Error.Unhandled_exception site
              (Printexc.to_string exn) m;
            st.n_errored <- st.n_errored + 1;
            end_path "error"
          | Solver.Unsat ->
            st.n_infeasible <- st.n_infeasible + 1;
            end_path "infeasible"
          | Solver.Unknown _ ->
            st.degraded <- true;
            st.n_unknown <- st.n_unknown + 1;
            end_path "unknown"));
      `Done
    with Stop_exploration ->
      (* A budget stop caught the path mid-execution.  Abandon it
         without losing it: roll back its visit counts and
         instructions; re-queuing the returned decisions lets a
         resumed run re-execute the path in full, so total counters
         match an uninterrupted run exactly.  A stop that came while
         [prefix] was still replaying has taken only part of it, and
         the path still stands for all of it: a shorter prefix would
         re-explore the subtrees its forks already cover. *)
      List.iter (Search.unrecord_visit st.frontier) ps.visited;
      Obs.Coverage.restore cov0;
      let partial = instructions_so_far st - ps.instr_start in
      st.instr_base <- st.instr_base + partial;
      st.n_paths <- st.n_paths - 1;
      end_path "stopped";
      let taken = Array.of_list (List.rev ps.taken) in
      `Stopped (if Array.length taken < Array.length prefix then prefix
                else taken)
  in
  st.cur <- None;
  result

(* A checkpoint is a pure function of the exploration state; [final]
   distinguishes the last snapshot of a stopped run (which records the
   stop reason) from a periodic one. *)
let snapshot ~label st solver_base ~coverage ~final =
  {
    Checkpoint.label;
    strategy = Search.strategy_to_string st.cfg.strategy;
    frontier = Search.entries st.frontier;
    leases = [];
    visits = Search.visit_counts st.frontier;
    coverage;
    rng = Search.rng_state st.frontier;
    paths = st.n_paths;
    completed = st.n_completed;
    errored = st.n_errored;
    infeasible = st.n_infeasible;
    unknown = st.n_unknown;
    instructions = instructions_so_far st;
    wall_time = elapsed st;
    solver = Solver.Stats.sub (Solver.Stats.get ()) solver_base;
    errors = List.rev st.errors_rev;
    degraded = st.degraded;
    stop_reason =
      (if final then Option.map Budget.reason_to_string st.stop_reason
       else None);
  }

let seq_run ~(config : config) ~label ?resume ?checkpoint body =
  (match !mode with
   | Off -> ()
   | Explore _ | Replay _ | Rand _ ->
     failwith "Engine.run: nested runs are not allowed");
  (match resume with
   | Some ck ->
     let want = Search.strategy_to_string config.strategy in
     if ck.Checkpoint.strategy <> want then
       failwith
         (Printf.sprintf
            "Engine.run: checkpoint was taken under strategy %s, not %s"
            ck.Checkpoint.strategy want);
     if ck.Checkpoint.label <> label then
       failwith
         (Printf.sprintf "Engine.run: checkpoint is for %S, not %S"
            ck.Checkpoint.label label)
   | None -> ());
  (* Baselines are shifted by the checkpointed totals so elapsed time,
     instruction counts and the final solver-stats difference all
     include the pre-interruption segment. *)
  let solver_stats0 =
    match resume with
    | None -> Solver.Stats.get ()
    | Some ck -> Solver.Stats.sub (Solver.Stats.get ()) ck.Checkpoint.solver
  in
  let now = Unix.gettimeofday () in
  let chaos0 = Chaos.counts () in
  (* Coverage/profile baselines are process-global deltas like the
     solver stats.  A checkpoint carries the coverage recorded before
     it, so a resumed run's coverage is that plus this process's
     delta. *)
  let coverage0 = Obs.Coverage.get () in
  let carried =
    match resume with
    | None -> Obs.Coverage.zero
    | Some ck -> ck.Checkpoint.coverage
  in
  let coverage () =
    Obs.Coverage.add carried (Obs.Coverage.sub (Obs.Coverage.get ()) coverage0)
  in
  let profile0 = Obs.Profile.get () in
  let st =
    {
      cfg = config;
      scope = Solver.Scope.create ();
      frontier = Search.create config.strategy;
      pool = Array.make 16 ("", 0, Expr.tru);
      pool_len = 0;
      cur = None;
      error_table = Hashtbl.create 16;
      errors_rev = [];
      n_paths = 0;
      n_completed = 0;
      n_errored = 0;
      n_infeasible = 0;
      n_unknown = 0;
      degraded = false;
      stop_reason = None;
      started =
        (match resume with
         | None -> now
         | Some ck -> now -. ck.Checkpoint.wall_time);
      instr_base = Expr.instruction_count ();
    }
  in
  (match resume with
   | None -> Search.push st.frontier ~site:"root" [||]
   | Some ck ->
     List.iter
       (fun (site, prefix) -> Search.push st.frontier ~site prefix)
       ck.Checkpoint.frontier;
     (* A pool/distributed checkpoint may carry granted-but-unsettled
        leases; a sequential resume just re-executes those prefixes as
        ordinary frontier entries. *)
     List.iter
       (fun (site, prefix, _attempts) -> Search.push st.frontier ~site prefix)
       ck.Checkpoint.leases;
     Search.set_visit_counts st.frontier ck.Checkpoint.visits;
     Search.set_rng_state st.frontier ck.Checkpoint.rng;
     st.errors_rev <- List.rev ck.Checkpoint.errors;
     List.iter
       (fun (e : Error.t) ->
          Hashtbl.replace st.error_table (e.Error.site, e.Error.kind) ())
       ck.Checkpoint.errors;
     st.n_paths <- ck.Checkpoint.paths;
     st.n_completed <- ck.Checkpoint.completed;
     st.n_errored <- ck.Checkpoint.errored;
     st.n_infeasible <- ck.Checkpoint.infeasible;
     st.n_unknown <- ck.Checkpoint.unknown;
     st.degraded <- ck.Checkpoint.degraded;
     st.instr_base <- Expr.instruction_count () - ck.Checkpoint.instructions);
  Solver.set_interrupt_check Budget.interrupted;
  mode := Explore st;
  if !Obs.Sink.enabled then
    Obs.Sink.instant ~cat:"engine" "run:start"
      ~args:
        [ ("strategy",
           Obs.Event.Str (Search.strategy_to_string config.strategy));
          ("resumed", Obs.Event.Bool (resume <> None)) ];
  let last_checkpoint = ref now in
  let finish () =
    mode := Off;
    Solver.Scope.release st.scope
  in
  Fun.protect ~finally:finish (fun () ->
      (try
         let continue = ref true in
         while !continue do
           (match config.limits.max_paths with
            | Some n when st.n_paths >= n -> stop st Budget.Paths
            | Some _ | None -> ());
           (* Instruction/time budgets are also enforced between paths,
              so straight-line testbenches cannot overrun them. *)
           check_limits st;
           (match checkpoint with
            | Some policy ->
              let t = Unix.gettimeofday () in
              if t -. !last_checkpoint >= policy.every_s then begin
                last_checkpoint := t;
                policy.write
                  (snapshot ~label st solver_stats0 ~coverage:(coverage ())
                     ~final:false)
              end
            | None -> ());
           match Search.pop st.frontier with
           | None -> continue := false
           | Some prefix ->
             (match exec_path st body ~prefix with
              | `Stopped taken ->
                Search.push st.frontier ~site:"requeued" taken;
                raise Stop_exploration
              | `Done -> ());
             if Obs.Progress.due ~paths:st.n_paths then begin
               let s = Solver.Stats.sub (Solver.Stats.get ()) solver_stats0 in
               Obs.Progress.tick
                 {
                   Obs.Progress.paths = st.n_paths;
                   instructions = instructions_so_far st;
                   frontier = Search.length st.frontier;
                   errors = List.length st.errors_rev;
                   solver_time = s.Solver.Stats.time;
                   solver_queries = s.Solver.Stats.queries;
                   cache_hits =
                     s.Solver.Stats.cache_hits + s.Solver.Stats.cex_hits;
                   wall = elapsed st;
                   workers = [];
                 }
             end
         done
       with Stop_exploration -> ());
      let exhausted = st.stop_reason = None && not st.degraded in
      (* The final checkpoint is written both on budget stops and on
         exhaustion (where it records an empty frontier), so a resumed
         run of a finished exploration simply returns the carried
         totals. *)
      (match checkpoint with
       | Some policy ->
         policy.write
           (snapshot ~label st solver_stats0 ~coverage:(coverage ())
              ~final:true)
       | None -> ());
      let solver_stats =
        Solver.Stats.sub (Solver.Stats.get ()) solver_stats0
      in
      if !Obs.Sink.enabled then
        Obs.Sink.instant ~cat:"engine" "run:end"
          ~args:
            [ ("paths", Obs.Event.Int st.n_paths);
              ("completed", Obs.Event.Int st.n_completed);
              ("errored", Obs.Event.Int st.n_errored);
              ("infeasible", Obs.Event.Int st.n_infeasible);
              ("unknown", Obs.Event.Int st.n_unknown);
              ("instructions", Obs.Event.Int (instructions_so_far st));
              ("exhausted", Obs.Event.Bool exhausted);
              ("stop",
               Obs.Event.Str
                 (match st.stop_reason with
                  | None -> "none"
                  | Some r -> Budget.reason_to_string r)) ];
      {
        errors = List.rev st.errors_rev;
        paths = st.n_paths;
        paths_completed = st.n_completed;
        paths_errored = st.n_errored;
        paths_infeasible = st.n_infeasible;
        paths_unknown = st.n_unknown;
        instructions = instructions_so_far st;
        wall_time = elapsed st;
        solver_time = solver_stats.Solver.Stats.time;
        solver_queries = solver_stats.Solver.Stats.queries;
        solver_stats;
        exhausted;
        stop_reason = st.stop_reason;
        strategy = config.strategy;
        branch_coverage = Search.visit_counts st.frontier;
        workers = 1;
        resilience =
          { no_resilience with
            res_checkpoint_fallbacks = Checkpoint.fallbacks ();
            res_chaos = Chaos.sub_counts (Chaos.counts ()) chaos0 };
        coverage = coverage ();
        profile = Obs.Profile.sub (Obs.Profile.get ()) profile0;
        events_dropped = Obs.Export.dropped_total ();
        snapshot_restores = 0;
        replay_fallbacks = 0;
        instructions_saved = 0;
      })

(* ------------------------------------------------------------------ *)
(* Worker-pool integration                                             *)

(* Persistent per-worker execution context.  Global budgets are
   stripped — the master enforces them between dispatches — while the
   per-query solver limits stay with the worker's private solver, and
   [stop_after_errors] is handled by the master (a worker must never
   stop the whole run on its own).  The positional symbolic-input pool
   survives across units so the worker's solver caches stay warm, just
   as they do across paths of a sequential run. *)
let unit_ctx config =
  let limits =
    { config.limits with
      max_paths = None;
      max_instructions = None;
      max_seconds = None;
      max_memory_mb = None }
  in
  {
    cfg = { config with limits; stop_after_errors = None };
    scope = Solver.Scope.create ();
    frontier = Search.create config.strategy;
    pool = Array.make 16 ("", 0, Expr.tru);
    pool_len = 0;
    cur = None;
    error_table = Hashtbl.create 16;
    errors_rev = [];
    n_paths = 0;
    n_completed = 0;
    n_errored = 0;
    n_infeasible = 0;
    n_unknown = 0;
    degraded = false;
    stop_reason = None;
    started = Unix.gettimeofday ();
    instr_base = Expr.instruction_count ();
  }

(* Execute one work unit: a single path under [prefix], collecting the
   forks it discovers into a fresh frontier.  The error/counter fields
   of [st] are per-unit (reset here); the input pool is not.  Worker-
   local bookkeeping in the result (error path ids, found_after) is in
   unit-relative terms — the master rewrites it into campaign terms at
   merge time. *)
let run_unit st body ~prefix =
  (match !mode with
   | Off -> ()
   | Explore _ | Replay _ | Rand _ ->
     failwith "Engine.run_unit: nested runs are not allowed");
  st.frontier <- Search.create st.cfg.strategy;
  Hashtbl.reset st.error_table;
  st.errors_rev <- [];
  st.n_paths <- 0;
  st.n_completed <- 0;
  st.n_errored <- 0;
  st.n_infeasible <- 0;
  st.n_unknown <- 0;
  st.degraded <- false;
  st.stop_reason <- None;
  st.instr_base <- Expr.instruction_count ();
  let solver0 = Solver.Stats.get () in
  let coverage0 = Obs.Coverage.get () in
  let profile0 = Obs.Profile.get () in
  Solver.set_interrupt_check Budget.interrupted;
  mode := Explore st;
  let finish () = mode := Off in
  let outcome =
    Fun.protect ~finally:finish (fun () -> exec_path st body ~prefix)
  in
  let solver = Solver.Stats.sub (Solver.Stats.get ()) solver0 in
  (* An aborted unit's coverage delta is zero by construction —
     [exec_path] restored the registry — mirroring the visits/
     instructions rollback; the profile delta ships regardless, like
     the solver stats. *)
  let coverage = Obs.Coverage.sub (Obs.Coverage.get ()) coverage0 in
  let profile = Obs.Profile.sub (Obs.Profile.get ()) profile0 in
  let forks = Search.entries st.frontier in
  let errors = List.rev st.errors_rev in
  match outcome with
  | `Stopped taken ->
    (* Mirror of the sequential budget-stop requeue: the partial path
       was rolled back by [exec_path]; forks and errors found before
       the stop are kept (resume de-duplicates the errors). *)
    { Pool.outcome = Pool.Unit_aborted;
      forks;
      errors;
      visits = [];
      instructions = 0;
      degraded = st.degraded;
      solver;
      requeue = Some taken;
      chaos = [];
      coverage;
      profile;
      events = [];
      events_dropped = 0 }
  | `Done ->
    let outcome =
      if st.n_completed > 0 then Pool.Unit_completed
      else if st.n_errored > 0 then Pool.Unit_errored
      else if st.n_infeasible > 0 then Pool.Unit_infeasible
      else Pool.Unit_unknown
    in
    { Pool.outcome;
      forks;
      errors;
      visits = Search.visit_counts st.frontier;
      instructions = instructions_so_far st;
      degraded = st.degraded;
      solver;
      requeue = None;
      chaos = [];
      coverage;
      profile;
      events = [];
      events_dropped = 0 }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let replay values body =
  (match !mode with
   | Off -> ()
   | Explore _ | Replay _ | Rand _ ->
     failwith "Engine.replay: nested runs are not allowed");
  let rs = { values = Array.of_list values; idx = 0; failure = None } in
  mode := Replay rs;
  let finish () = mode := Off in
  Fun.protect ~finally:finish (fun () ->
      try
        body ();
        None
      with
      | Replay_stop ->
        (match rs.failure with
         | Some err -> Some (Ok err)
         | None -> Some (Error "replay stopped without failure"))
      | Replay_diverged msg -> Some (Error msg)
      | exn -> Some (Error ("exception during replay: " ^ Printexc.to_string exn)))

(* ------------------------------------------------------------------ *)
(* Counterexample validation                                           *)

(* The engine as a self-checking oracle: every error's model is
   replayed concretely (solver-free) through the testbench, and an
   error whose replay does not reproduce the same (site, kind) is
   demoted to [validated = false] instead of being silently trusted —
   a solver or engine defect then surfaces in the report rather than
   as a false bug ticket. *)

let m_unvalidated =
  lazy
    (Obs.Metrics.counter
       ~help:"reported errors whose counterexample replay did not \
              reproduce the failure"
       "symsysc_unvalidated_errors_total")

let confirm_error body (e : Error.t) =
  match replay e.Error.counterexample body with
  | Some (Ok e') ->
    e'.Error.site = e.Error.site && e'.Error.kind = e.Error.kind
  | Some (Error msg) ->
    (* An unhandled exception escapes the replay harness as [Error];
       it confirms an [Unhandled_exception] finding when it is the
       same exception the explorer recorded (site "exception:<exn>"). *)
    (match e.Error.kind with
     | Error.Unhandled_exception ->
       let prefix = "exception:" in
       let plen = String.length prefix in
       String.length e.Error.site > plen
       && String.sub e.Error.site 0 plen = prefix
       && msg
          = "exception during replay: "
            ^ String.sub e.Error.site plen (String.length e.Error.site - plen)
     | _ -> false)
  | None | (exception _) -> false

let validate_errors body (rep : report) =
  let unvalidated = ref 0 in
  let errors =
    List.map
      (fun (e : Error.t) ->
         if confirm_error body e then e
         else begin
           incr unvalidated;
           Obs.Metrics.inc (Lazy.force m_unvalidated);
           if !Obs.Sink.enabled then
             Obs.Sink.instant ~cat:"engine" "unvalidated"
               ~args:
                 [ ("site", Obs.Event.Str e.Error.site);
                   ("kind", Obs.Event.Str (Error.kind_to_string e.Error.kind)) ];
           { e with Error.validated = false }
         end)
      rep.errors
  in
  { rep with
    errors;
    resilience = { rep.resilience with res_unvalidated = !unvalidated } }

(* ------------------------------------------------------------------ *)
(* Session API                                                         *)

module Session = struct
  type t = {
    strategy : Search.strategy;
    limits : limits;
    stop_after_errors : int option;
    checkpoint : Checkpoint.policy option;
    resume : Checkpoint.t option;
    seed : int option;
    workers : int;
    listen : Transport.listener option;
    lease_ms : int option;
    cookie : string option;
    validate : bool;
  }

  (* Poison-unit quarantine threshold: a unit that has taken down this
     many workers is dropped rather than requeued. *)
  let max_unit_crashes = 3

  let make ?strategy ?(limits = no_limits) ?stop_after_errors ?checkpoint
      ?resume ?seed ?(workers = 1) ?listen ?lease_ms ?cookie
      ?(validate = true) () =
    if workers < 1 && listen = None then
      invalid_arg "Engine.Session.make: workers must be >= 1";
    if workers < 0 then
      invalid_arg "Engine.Session.make: workers must be >= 0";
    (match lease_ms with
     | Some ms when ms < 1 ->
       invalid_arg "Engine.Session.make: lease_ms must be >= 1"
     | _ -> ());
    let strategy =
      match strategy, seed with
      | Some s, _ -> s
      | None, Some seed -> Search.Random_path seed
      | None, None -> Search.Dfs
    in
    { strategy; limits; stop_after_errors; checkpoint; resume; seed; workers;
      listen; lease_ms; cookie; validate }

  (* What the sequential loop and a pool worker's context read. *)
  let to_config t : config =
    { strategy = t.strategy;
      limits = t.limits;
      stop_after_errors = t.stop_after_errors }

  let run ?(label = "run") t body =
    let rep =
      if t.workers = 1 && t.listen = None then
        seq_run ~config:(to_config t) ~label ?resume:t.resume
          ?checkpoint:t.checkpoint body
      else begin
        (match !mode with
         | Off -> ()
         | Explore _ | Replay _ | Rand _ ->
           failwith "Engine.Session.run: nested runs are not allowed");
        let pool_cfg =
          { Pool.workers = t.workers;
            strategy = t.strategy;
            limits = t.limits;
            stop_after_errors = t.stop_after_errors;
            label;
            max_unit_crashes;
            listen = t.listen;
            lease_ms = t.lease_ms;
            cookie = t.cookie }
        in
        (* The context is created lazily so it materializes in each
           worker process after the fork, never in the master. *)
        let ctx = lazy (unit_ctx (to_config t)) in
        let exec ~prefix = run_unit (Lazy.force ctx) body ~prefix in
        let r =
          Pool.run pool_cfg ?resume:t.resume ?checkpoint:t.checkpoint ~exec ()
        in
        {
          errors = r.Pool.r_errors;
          paths = r.Pool.r_paths;
          paths_completed = r.Pool.r_completed;
          paths_errored = r.Pool.r_errored;
          paths_infeasible = r.Pool.r_infeasible;
          paths_unknown = r.Pool.r_unknown;
          instructions = r.Pool.r_instructions;
          wall_time = r.Pool.r_wall_time;
          solver_time = r.Pool.r_solver.Solver.Stats.time;
          solver_queries = r.Pool.r_solver.Solver.Stats.queries;
          solver_stats = r.Pool.r_solver;
          exhausted = r.Pool.r_exhausted;
          stop_reason = r.Pool.r_stop_reason;
          strategy = t.strategy;
          branch_coverage = r.Pool.r_visits;
          workers = t.workers;
          resilience =
            { no_resilience with
              res_requeued = r.Pool.r_requeued;
              res_worker_deaths = r.Pool.r_worker_deaths;
              res_quarantined = r.Pool.r_quarantined;
              res_lease_expired = r.Pool.r_lease_expired;
              res_duplicates = r.Pool.r_duplicates;
              res_reconnects = r.Pool.r_reconnects;
              res_checkpoint_fallbacks = Checkpoint.fallbacks ();
              res_chaos = r.Pool.r_chaos };
          coverage = r.Pool.r_coverage;
          profile = r.Pool.r_profile;
          events_dropped = Obs.Export.dropped_total ();
          snapshot_restores = 0;
          replay_fallbacks = 0;
          instructions_saved = 0;
        }
      end
    in
    if t.validate then validate_errors body rep else rep

  (* Remote worker side of a distributed run: dial the master and serve
     units with the same per-worker execution context a local forked
     worker would use. *)
  let serve ~host ~port ~workers ?backoff_seed ~label t body =
    if workers < 1 then
      invalid_arg "Engine.Session.serve: workers must be >= 1";
    (match !mode with
     | Off -> ()
     | Explore _ | Replay _ | Rand _ ->
       failwith "Engine.Session.serve: nested runs are not allowed");
    let ctx = lazy (unit_ctx (to_config t)) in
    let exec ~prefix = run_unit (Lazy.force ctx) body ~prefix in
    Pool.serve ~host ~port ~workers ~label ~strategy:t.strategy
      ?cookie:t.cookie ?backoff_seed ~exec ()
end

(* ------------------------------------------------------------------ *)
(* Random-testing baseline                                             *)

type random_report = {
  trials : int;
  rejected : int;
  failure : (Error.t * int) option;
  random_wall_time : float;
  seed : int;
  workers : int;
}

let random_test_seq ~seed ~max_trials ?max_seconds body =
  (match !mode with
   | Off -> ()
   | Explore _ | Replay _ | Rand _ ->
     failwith "Engine.random_test: nested runs are not allowed");
  let rng = Random.State.make [| seed |] in
  let started = Unix.gettimeofday () in
  let trials = ref 0 and rejected = ref 0 in
  let failure = ref None in
  let finish () = mode := Off in
  Fun.protect ~finally:finish (fun () ->
      let continue = ref true in
      while
        !continue && !failure = None && !trials < max_trials
        && (match max_seconds with
            | Some s -> Unix.gettimeofday () -. started < s
            | None -> true)
      do
        let rs = { rng; r_inputs = []; r_failure = None } in
        mode := Rand rs;
        incr trials;
        (try body () with
         | Replay_stop ->
           failure :=
             Option.map (fun e -> (e, !trials)) rs.r_failure
         | Trial_rejected -> incr rejected
         | Check_failed site ->
           (* a concrete-mode style failure escaping DUV code *)
           failure :=
             Some
               ( {
                   Error.kind = Error.Abort;
                   site;
                   message = "check failed during random trial";
                   counterexample = List.rev rs.r_inputs;
                   path_id = 0;
                   instructions = 0;
                   found_after = Unix.gettimeofday () -. started;
                   validated = true;
                 },
                 !trials )
         | Stdlib.Exit -> continue := false
         | exn ->
           failure :=
             Some
               ( {
                   Error.kind = Error.Unhandled_exception;
                   site = "exception:" ^ Printexc.to_string exn;
                   message = Printexc.to_string exn;
                   counterexample = List.rev rs.r_inputs;
                   path_id = 0;
                   instructions = 0;
                   found_after = Unix.gettimeofday () -. started;
                   validated = true;
                 },
                 !trials ));
        mode := Off
      done;
      {
        trials = !trials;
        rejected = !rejected;
        failure = !failure;
        random_wall_time = Unix.gettimeofday () -. started;
        seed;
        workers = 1;
      })

(* Transport form of a random report for the fork-map pipe (the
   counterexample travels inside [Error.to_json]). *)
let random_report_to_json r =
  let open Obs.Json in
  Obj
    [ ("trials", Int r.trials);
      ("rejected", Int r.rejected);
      ("wall", Float r.random_wall_time);
      ("failure",
       match r.failure with
       | None -> Null
       | Some (e, trial) ->
         Obj [ ("error", Error.to_json e); ("trial", Int trial) ]) ]

let random_report_of_json ~seed j =
  let open Obs.Json in
  let int k = Option.value ~default:0 (Option.bind (member k j) to_int_opt) in
  let failure =
    match member "failure" j with
    | None | Some Null -> None
    | Some fj ->
      Option.bind (member "error" fj) (fun ej ->
          match Error.of_json ej with
          | Ok e ->
            Some
              ( e,
                Option.value ~default:0
                  (Option.bind (member "trial" fj) to_int_opt) )
          | Error _ -> None)
  in
  {
    trials = int "trials";
    rejected = int "rejected";
    failure;
    random_wall_time =
      Option.value ~default:0.0
        (Option.bind (member "wall" j) to_float_opt);
    seed;
    workers = 1;
  }

(* The i-th worker draws from its own RNG stream, derived from the run
   seed by walking the splitmix64 sequence — so [--seed X --workers N]
   is reproducible for a given N (and explores different trial sets
   for different N, which is the point of adding workers). *)
let derive_worker_seed seed i =
  let rec go state k =
    let state, z = Search.splitmix64 state in
    if k = 0 then Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL)
    else go state (k - 1)
  in
  go (Int64.of_int seed) i

let random_test ?(seed = 42) ?(max_trials = 10_000) ?max_seconds
    ?(workers = 1) body =
  if workers < 1 then invalid_arg "Engine.random_test: workers must be >= 1";
  if workers = 1 then random_test_seq ~seed ~max_trials ?max_seconds body
  else begin
    (match !mode with
     | Off -> ()
     | Explore _ | Replay _ | Rand _ ->
       failwith "Engine.random_test: nested runs are not allowed");
    let started = Unix.gettimeofday () in
    let per_worker = (max_trials + workers - 1) / workers in
    let results =
      Pool.fork_map ~workers (fun i ->
          random_report_to_json
            (random_test_seq ~seed:(derive_worker_seed seed i)
               ~max_trials:per_worker ?max_seconds body))
    in
    let reports =
      List.filter_map
        (function Ok j -> Some (random_report_of_json ~seed j) | Error _ -> None)
        results
    in
    {
      trials = List.fold_left (fun a r -> a + r.trials) 0 reports;
      rejected = List.fold_left (fun a r -> a + r.rejected) 0 reports;
      (* The lowest-indexed worker's failure wins, keeping the merged
         verdict deterministic; its trial number is worker-local. *)
      failure = List.find_map (fun r -> r.failure) reports;
      random_wall_time = Unix.gettimeofday () -. started;
      seed;
      workers;
    }
  end
