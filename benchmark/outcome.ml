(* What one sample of a workload measured, and the helpers workloads
   use to produce it.  Outcomes cross from the sample process to
   the runner as JSON. *)

module Json = Obs.Json

type t = {
  attempted : int;  (** operations: tests, cells, devices or jobs *)
  failed : int;
  problems : string list;  (** why operations failed (first few) *)
  work_s : float;  (** host time of the sample's timed work *)
  values : (string * float) list;  (** per-layer counts and ratios *)
  times : (string * float) list;
      (** per-layer seconds, reported as shares of [work_s] *)
  latencies : (string * float list) list;  (** per-operation seconds *)
}

let now = Unix.gettimeofday

(* A layer call made by the benchmark: a [bench] span when the sample
   is traced, a plain call otherwise. *)
let span name f = Obs.Sink.with_span ~cat:"bench" name f

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- pass/fail bookkeeping ---- *)

type checks = {
  mutable c_attempted : int;
  mutable c_failed : int;
  mutable c_problems : string list;  (* newest first *)
}

let checks () = { c_attempted = 0; c_failed = 0; c_problems = [] }

let max_problems = 20

let note c msg =
  if List.length c.c_problems < max_problems then
    c.c_problems <- msg :: c.c_problems

(* One operation: it fails when [errors] is non-empty. *)
let operation c ~what errors =
  c.c_attempted <- c.c_attempted + 1;
  if errors <> [] then begin
    c.c_failed <- c.c_failed + 1;
    note c (what ^ ": " ^ String.concat "; " errors)
  end

(* [expect what got want] is [[]] when equal, else one error line. *)
let expect pp what ~got ~want =
  if got = want then [] else [ Printf.sprintf "%s %s, expected %s" what (pp got) (pp want) ]

let finish c ~work_s ?(values = []) ?(times = []) ?(latencies = []) () =
  {
    attempted = c.c_attempted;
    failed = c.c_failed;
    problems = List.rev c.c_problems;
    work_s;
    values;
    times;
    latencies;
  }

(* ---- layer counters shared by the symbolic workloads ---- *)

(* Solver counters and stage times of one [Smt.Solver.Stats] delta. *)
let solver (s : Smt.Solver.Stats.t) =
  let module S = Smt.Solver.Stats in
  let f = float_of_int in
  let values =
    [
      ("smt.queries", f s.S.queries);
      ("smt.slices", f s.S.slices);
      ( "smt.slice_hit_ratio",
        if s.S.slices = 0 then 0.0 else f s.S.slice_hits /. f s.S.slices );
      ("smt.cex_hits", f s.S.cex_hits);
      ("smt.interval_unsat", f s.S.interval_unsat);
      ("smt.sat_calls", f s.S.sat_calls);
      ("smt.sat_conflicts", f s.S.sat_conflicts);
      ("smt.sat_propagations", f s.S.sat_propagations);
      ("smt.scope_reused", f s.S.scope_reused);
      ("smt.scope_rebuilds", f s.S.scope_rebuilds);
      ("smt.sat_timeouts", f s.S.sat_timeouts);
    ]
  in
  let times =
    [
      ("smt.time", s.S.time);
      ("smt.interval", s.S.interval_time);
      ("smt.bitblast", s.S.bitblast_time);
      ("smt.sat", s.S.sat_time);
      ( "smt.other",
        s.S.time -. s.S.interval_time -. s.S.bitblast_time -. s.S.sat_time );
    ]
  in
  (values, times)

(* Exploration counters summed over engine reports, and the engine's
   own time (wall minus solver). *)
let exploration (reports : Symex.Engine.report list) =
  let module E = Symex.Engine in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 reports) in
  let values =
    [
      ("symex.paths", sum (fun r -> r.E.paths));
      ("symex.instructions", sum (fun r -> r.E.instructions));
      ("symex.executed", sum (fun r -> r.E.instructions - r.E.instructions_saved));
      ("symex.snapshot_restores", sum (fun r -> r.E.snapshot_restores));
      ("symex.replay_fallbacks", sum (fun r -> r.E.replay_fallbacks));
      ("symex.paths_unknown", sum (fun r -> r.E.paths_unknown));
    ]
  in
  let self =
    List.fold_left (fun a r -> a +. r.E.wall_time -. r.E.solver_time) 0.0 reports
  in
  (values, [ ("symex.self", self) ])

(* The (site, kind) set of a run's errors, sorted. *)
let bug_set (r : Symex.Engine.report) =
  List.sort_uniq compare
    (List.map
       (fun (e : Symex.Error.t) ->
          e.Symex.Error.site ^ "/" ^ Symex.Error.kind_to_string e.Symex.Error.kind)
       r.Symex.Engine.errors)

(* Failures every symbolic run must be free of: Unknown paths and
   counterexamples that did not replay. *)
let sound_run (r : Symex.Engine.report) =
  let module E = Symex.Engine in
  (if r.E.paths_unknown = 0 then []
   else [ Printf.sprintf "%d Unknown path(s)" r.E.paths_unknown ])
  @
  if r.E.resilience.E.res_unvalidated = 0 then []
  else
    [ Printf.sprintf "%d unvalidated error(s)" r.E.resilience.E.res_unvalidated ]

(* ---- JSON (sample process -> runner) ---- *)

let floats l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l)

let to_json t =
  Json.Obj
    [
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("problems", Json.List (List.map (fun s -> Json.Str s) t.problems));
      ("work_s", Json.Float t.work_s);
      ("values", floats t.values);
      ("times", floats t.times);
      ( "latencies",
        Json.Obj
          (List.map
             (fun (k, l) -> (k, Json.List (List.map (fun v -> Json.Float v) l)))
             t.latencies) );
    ]

let fields j key =
  match Json.member key j with Some (Json.Obj l) -> l | _ -> []

let to_float j = Option.value ~default:nan (Json.to_float_opt j)

let of_json j =
  let int key = Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int_opt) in
  {
    attempted = int "attempted";
    failed = int "failed";
    problems =
      (match Option.bind (Json.member "problems" j) Json.to_list_opt with
       | Some l -> List.filter_map Json.to_string_opt l
       | None -> []);
    work_s = Option.fold ~none:nan ~some:to_float (Json.member "work_s" j);
    values = List.map (fun (k, v) -> (k, to_float v)) (fields j "values");
    times = List.map (fun (k, v) -> (k, to_float v)) (fields j "times");
    latencies =
      List.map
        (fun (k, v) ->
           (k, List.map to_float (Option.value ~default:[] (Json.to_list_opt v))))
        (fields j "latencies");
  }
