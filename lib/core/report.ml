module Engine = Symex.Engine

type verdict = Pass | Fail of int

type t = {
  test_name : string;
  verdict : verdict;
  engine : Engine.report;
}

let make test_name (engine : Engine.report) =
  let verdict =
    match List.length engine.Engine.errors with
    | 0 -> Pass
    | n -> Fail n
  in
  { test_name; verdict; engine }

let solver_fraction t =
  if t.engine.Engine.wall_time <= 0.0 then 0.0
  else t.engine.Engine.solver_time /. t.engine.Engine.wall_time

let cache_hit_rate t =
  Smt.Solver.Stats.cache_hit_rate t.engine.Engine.solver_stats

let verdict_to_string = function
  | Pass -> "Pass"
  | Fail n -> Printf.sprintf "Fail (%d)" n

(* Resilience events are rare enough that the one-line summary only
   mentions them when they fired; a quiet run stays one line. *)
let resilience_suffix (r : Engine.resilience) =
  let parts =
    List.filter_map
      (fun (n, label) -> if n > 0 then Some (Printf.sprintf "%d %s" n label)
        else None)
      [ (r.Engine.res_unvalidated, "UNVALIDATED");
        (r.Engine.res_quarantined, "quarantined");
        (r.Engine.res_worker_deaths, "worker deaths");
        (r.Engine.res_lease_expired, "leases expired");
        (r.Engine.res_duplicates, "duplicate results");
        (r.Engine.res_reconnects, "reconnects");
        (r.Engine.res_checkpoint_fallbacks, "checkpoint fallbacks");
        (Engine.(List.fold_left (fun a (_, n) -> a + n) 0 r.res_chaos),
         "injected faults") ]
  in
  match parts with
  | [] -> ""
  | _ -> Printf.sprintf " [%s]" (String.concat ", " parts)

let pp ppf t =
  Format.fprintf ppf
    "%s: %s — %d instr, %.2fs, %d paths, %.2f%% solver, %d queries, \
     %.1f%% cache%s%s%s"
    t.test_name
    (verdict_to_string t.verdict)
    t.engine.Engine.instructions t.engine.Engine.wall_time
    t.engine.Engine.paths
    (100.0 *. solver_fraction t)
    t.engine.Engine.solver_queries
    (100.0 *. cache_hit_rate t)
    (match t.engine.Engine.stop_reason with
     | Some r ->
       Printf.sprintf " (stopped: %s)" (Symex.Budget.reason_to_string r)
     | None -> if t.engine.Engine.exhausted then "" else " (degraded)")
    (resilience_suffix t.engine.Engine.resilience)
    (if t.engine.Engine.events_dropped > 0 then
       Printf.sprintf " [%d trace events dropped]"
         t.engine.Engine.events_dropped
     else "")

let pp_coverage ppf t =
  Obs.Coverage.pp ppf t.engine.Engine.coverage

let pp_profile ?k ppf t =
  Obs.Profile.pp_top ?k ~queries:t.engine.Engine.solver_queries ppf
    t.engine.Engine.profile

let pp_solver_breakdown ppf t =
  let s = t.engine.Engine.solver_stats in
  let pct part =
    if s.Smt.Solver.Stats.time <= 0.0 then 0.0
    else 100.0 *. part /. s.Smt.Solver.Stats.time
  in
  Format.fprintf ppf
    "@[<v>solver breakdown for %s:@,\
     \  queries      %6d@,\
     \  slices       %6d (%d query-cache, %d cex-cache hits)@,\
     \  interval     %6.3fs (%4.1f%%) — %d unsat, %d sat@,\
     \  bit-blast    %6.3fs (%4.1f%%)@,\
     \  sat          %6.3fs (%4.1f%%) — %d calls, %d conflicts, %d decisions, \
     %d propagations@,\
     \  scope        %d encodings reused, %d rebuilds@,\
     \  total        %6.3fs@]"
    t.test_name
    s.Smt.Solver.Stats.queries s.Smt.Solver.Stats.slices
    s.Smt.Solver.Stats.cache_hits s.Smt.Solver.Stats.cex_hits
    s.Smt.Solver.Stats.interval_time (pct s.Smt.Solver.Stats.interval_time)
    s.Smt.Solver.Stats.interval_unsat s.Smt.Solver.Stats.interval_sat
    s.Smt.Solver.Stats.bitblast_time (pct s.Smt.Solver.Stats.bitblast_time)
    s.Smt.Solver.Stats.sat_time (pct s.Smt.Solver.Stats.sat_time)
    s.Smt.Solver.Stats.sat_calls s.Smt.Solver.Stats.sat_conflicts
    s.Smt.Solver.Stats.sat_decisions s.Smt.Solver.Stats.sat_propagations
    s.Smt.Solver.Stats.scope_reused s.Smt.Solver.Stats.scope_rebuilds
    s.Smt.Solver.Stats.time

(* Mirror the report into the Obs.Metrics registry so a --metrics-out
   dump carries the run totals next to the event-derived counters. *)
let record_metrics t =
  let e = t.engine in
  let s = e.Engine.solver_stats in
  let g name v = Obs.Metrics.set (Obs.Metrics.gauge name) v in
  let gi name v = g name (float_of_int v) in
  (* Some resilience totals are live counters owned by their subsystem
     (pool, checkpoint, validation, chaos) — but increments in
     forked workers die with the worker process, so the master's
     counter can undershoot the merged run total.  Top the existing
     counter up to the merged value rather than registering a clashing
     gauge under the same name. *)
  let ci name v =
    let c = Obs.Metrics.counter name in
    let d = v - Obs.Metrics.counter_value c in
    if d > 0 then Obs.Metrics.inc ~by:d c
  in
  gi "symsysc_engine_paths" e.Engine.paths;
  gi "symsysc_engine_paths_completed" e.Engine.paths_completed;
  gi "symsysc_engine_paths_errored" e.Engine.paths_errored;
  gi "symsysc_engine_paths_infeasible" e.Engine.paths_infeasible;
  gi "symsysc_engine_paths_unknown" e.Engine.paths_unknown;
  gi "symsysc_engine_instructions" e.Engine.instructions;
  gi "symsysc_engine_errors" (List.length e.Engine.errors);
  g "symsysc_engine_wall_seconds" e.Engine.wall_time;
  g "symsysc_solver_seconds" e.Engine.solver_time;
  gi "symsysc_solver_queries" e.Engine.solver_queries;
  gi "symsysc_solver_slices" s.Smt.Solver.Stats.slices;
  gi "symsysc_solver_slice_hits" s.Smt.Solver.Stats.slice_hits;
  g "symsysc_solver_cache_hit_rate" (Smt.Solver.Stats.cache_hit_rate s);
  g "symsysc_solver_interval_seconds" s.Smt.Solver.Stats.interval_time;
  g "symsysc_solver_bitblast_seconds" s.Smt.Solver.Stats.bitblast_time;
  g "symsysc_solver_sat_seconds" s.Smt.Solver.Stats.sat_time;
  gi "symsysc_solver_sat_conflicts" s.Smt.Solver.Stats.sat_conflicts;
  gi "symsysc_solver_sat_decisions" s.Smt.Solver.Stats.sat_decisions;
  gi "symsysc_solver_sat_propagations" s.Smt.Solver.Stats.sat_propagations;
  gi "symsysc_solver_sat_timeouts" s.Smt.Solver.Stats.sat_timeouts;
  gi "symsysc_solver_sat_retries" s.Smt.Solver.Stats.sat_retries;
  gi "symsysc_scope_reused" s.Smt.Solver.Stats.scope_reused;
  gi "symsysc_scope_rebuilds" s.Smt.Solver.Stats.scope_rebuilds;
  gi "symsysc_solver_query_evictions" s.Smt.Solver.Stats.query_evictions;
  gi "symsysc_solver_cex_evictions" s.Smt.Solver.Stats.cex_evictions;
  gi "symsysc_engine_exhausted" (if e.Engine.exhausted then 1 else 0);
  gi "symsysc_engine_workers" e.Engine.workers;
  (let r = e.Engine.resilience in
   gi "symsysc_engine_requeued" r.Engine.res_requeued;
   gi "symsysc_engine_worker_deaths" r.Engine.res_worker_deaths;
   ci "symsysc_pool_units_quarantined" r.Engine.res_quarantined;
   ci "symsysc_pool_lease_expired_total" r.Engine.res_lease_expired;
   ci "symsysc_pool_duplicate_results_total" r.Engine.res_duplicates;
   ci "symsysc_pool_reconnects_total" r.Engine.res_reconnects;
   ci "symsysc_checkpoint_fallbacks_total" r.Engine.res_checkpoint_fallbacks;
   ci "symsysc_unvalidated_errors_total" r.Engine.res_unvalidated;
   List.iter
     (fun (point, n) ->
        ci (Printf.sprintf "symsysc_chaos_%s_total"
              (String.map (function '-' -> '_' | c -> c) point))
          n)
     r.Engine.res_chaos);
  (* One-hot stop-reason gauges so alerting can key on a specific
     budget without string labels. *)
  List.iter
    (fun r ->
       gi
         ("symsysc_engine_stop_" ^ Symex.Budget.reason_to_string r)
         (if e.Engine.stop_reason = Some r then 1 else 0))
    Symex.Budget.
      [ Paths; Instructions; Deadline; Memory; Errors; Interrupt ];
  (* Coverage gauges: one per peripheral (register / byte-resolution bit
     percentages) and one per branch-site group (arm percentage).  Label
     syntax matches the existing symsysc_chaos_* convention: the key is
     folded into the metric name. *)
  let mname base key =
    Printf.sprintf "symsysc_coverage_%s_%s" base
      (String.map
         (function
           | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
           | _ -> '_')
         key)
  in
  List.iter
    (fun (p : Obs.Coverage.peripheral_summary) ->
       g (mname "register_pct" p.Obs.Coverage.ps_peripheral)
         (Obs.Coverage.pct p.Obs.Coverage.ps_touched
            p.Obs.Coverage.ps_registers);
       g (mname "bit_pct" p.Obs.Coverage.ps_peripheral)
         (Obs.Coverage.pct p.Obs.Coverage.ps_bits_touched
            p.Obs.Coverage.ps_bits))
    (Obs.Coverage.peripherals e.Engine.coverage);
  List.iter
    (fun (b : Obs.Coverage.branch_summary) ->
       g (mname "arm_pct" b.Obs.Coverage.bs_group)
         (Obs.Coverage.pct b.Obs.Coverage.bs_covered b.Obs.Coverage.bs_arms))
    (Obs.Coverage.branches e.Engine.coverage);
  ci "symsysc_events_dropped_total" e.Engine.events_dropped

let pp_errors ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Symex.Error.pp)
    t.engine.Engine.errors

(* Machine-readable report, for --report-out and the CI resume-
   equivalence check.  Error sites are sorted (by site, then kind) so
   two runs that found the same bugs in different orders — e.g. an
   interrupted-and-resumed run vs a straight-through one under a
   non-DFS strategy — serialize identically.  Wall-clock fields are
   deliberately excluded from [errors] ordering but kept in the body;
   CI diffs should compare the deterministic fields. *)
let to_json t =
  let open Obs.Json in
  let e = t.engine in
  let errors =
    List.sort
      (fun (a : Symex.Error.t) (b : Symex.Error.t) ->
         match String.compare a.Symex.Error.site b.Symex.Error.site with
         | 0 ->
           String.compare
             (Symex.Error.kind_to_string a.Symex.Error.kind)
             (Symex.Error.kind_to_string b.Symex.Error.kind)
         | c -> c)
      e.Engine.errors
  in
  Obj
    [ ("test", Str t.test_name);
      ("verdict", Str (verdict_to_string t.verdict));
      ("strategy", Str (Symex.Search.strategy_to_string e.Engine.strategy));
      ("workers", Int e.Engine.workers);
      ("exhausted", Bool e.Engine.exhausted);
      ("stop_reason",
       match e.Engine.stop_reason with
       | None -> Null
       | Some r -> Str (Symex.Budget.reason_to_string r));
      ("paths", Int e.Engine.paths);
      ("paths_completed", Int e.Engine.paths_completed);
      ("paths_errored", Int e.Engine.paths_errored);
      ("paths_infeasible", Int e.Engine.paths_infeasible);
      ("paths_unknown", Int e.Engine.paths_unknown);
      ("instructions", Int e.Engine.instructions);
      ("wall_time", Float e.Engine.wall_time);
      ("solver_time", Float e.Engine.solver_time);
      ("solver_queries", Int e.Engine.solver_queries);
      ("solver", Smt.Solver.Stats.to_json e.Engine.solver_stats);
      ("resilience",
       (let r = e.Engine.resilience in
        Obj
          [ ("requeued", Int r.Engine.res_requeued);
            ("worker_deaths", Int r.Engine.res_worker_deaths);
            ("quarantined", Int r.Engine.res_quarantined);
            ("lease_expired", Int r.Engine.res_lease_expired);
            ("duplicates", Int r.Engine.res_duplicates);
            ("reconnects", Int r.Engine.res_reconnects);
            ("checkpoint_fallbacks", Int r.Engine.res_checkpoint_fallbacks);
            ("unvalidated", Int r.Engine.res_unvalidated);
            ("chaos",
             Obj
               (List.map (fun (p, n) -> (p, Int n)) r.Engine.res_chaos)) ]));
      ("coverage", Obs.Coverage.to_json e.Engine.coverage);
      ("coverage_summary", Obs.Coverage.summary_to_json e.Engine.coverage);
      ("profile", Obs.Profile.to_json e.Engine.profile);
      ("events_dropped", Int e.Engine.events_dropped);
      ("errors", List (List.map Symex.Error.to_json errors)) ]

let save_json path t = Obs.Json.save path (to_json t)
