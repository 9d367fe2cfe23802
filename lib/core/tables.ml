module Engine = Symex.Engine

(* The paper rounds detection times up to the next whole minute; at our
   scale sub-second detections are common, so keep seconds visible
   below one minute. *)
let format_duration seconds =
  if seconds >= 7200.0 then Printf.sprintf "%.0fh" (seconds /. 3600.0)
  else if seconds >= 60.0 then
    Printf.sprintf "%.0fm" (Float.of_int (int_of_float (ceil (seconds /. 60.0))))
  else if seconds >= 1.0 then Printf.sprintf "%.0fs" (ceil seconds)
  else Printf.sprintf "%.2fs" seconds

(* "full" when the run exhausted the state space; otherwise which
   budget stopped it ("deadline", "paths", ...) or "degraded" when a
   solver limit silently lost paths. *)
let coverage_note (r : Report.t) =
  match r.Report.engine.Engine.stop_reason with
  | Some reason -> Symex.Budget.reason_to_string reason
  | None -> if r.Report.engine.Engine.exhausted then "full" else "degraded"

let print_table1 ppf reports =
  Format.fprintf ppf
    "| Test | Result    | #Exec. Instr. | Time [s] | Paths | Solver  | \
     Coverage |@.";
  Format.fprintf ppf
    "|------|-----------|---------------|----------|-------|---------|\
     ----------|@.";
  List.iter
    (fun (r : Report.t) ->
       Format.fprintf ppf
         "| %-4s | %-9s | %13d | %8.2f | %5d | %6.2f%% | %-8s |@."
         r.Report.test_name
         (Report.verdict_to_string r.Report.verdict)
         r.Report.engine.Engine.instructions
         r.Report.engine.Engine.wall_time r.Report.engine.Engine.paths
         (100.0 *. Report.solver_fraction r)
         (coverage_note r))
    reports

(* Companion to Table 1: where the solver fraction actually goes.
   Times are per exploration run; Slices counts the independent
   constraint slices examined and Cache the fraction of them the two
   solver caches answered. *)
let print_solver_breakdown ppf reports =
  Format.fprintf ppf
    "| Test | Queries | Slices  | Cache  | Itv [s] | Blast [s] | SAT [s] | \
     Conflicts |@.";
  Format.fprintf ppf
    "|------|---------|---------|--------|---------|-----------|---------|\
     -----------|@.";
  List.iter
    (fun (r : Report.t) ->
       let s = r.Report.engine.Engine.solver_stats in
       Format.fprintf ppf
         "| %-4s | %7d | %7d | %5.1f%% | %7.3f | %9.3f | %7.3f | %9d |@."
         r.Report.test_name s.Smt.Solver.Stats.queries
         s.Smt.Solver.Stats.slices
         (100.0 *. Smt.Solver.Stats.cache_hit_rate s)
         s.Smt.Solver.Stats.interval_time s.Smt.Solver.Stats.bitblast_time
         s.Smt.Solver.Stats.sat_time s.Smt.Solver.Stats.sat_conflicts)
    reports

(* Coverage companion to Table 1: how much of each test's register file
   and decision tree the explored paths actually exercised.  Reg%% and
   Bit%% aggregate over every peripheral the test mapped; Arm%% is over
   all decision sites (both arms of a site count separately). *)
let print_coverage ppf reports =
  Format.fprintf ppf
    "| Test | Regs  | Reg %%  | Bit %%  | Sites | Arm %%  |@.";
  Format.fprintf ppf
    "|------|-------|--------|--------|-------|--------|@.";
  List.iter
    (fun (r : Report.t) ->
       let cov = r.Report.engine.Engine.coverage in
       let sum f =
         List.fold_left
           (fun acc p -> acc + f p)
           0
           (Obs.Coverage.peripherals cov)
       in
       let regs = sum (fun p -> p.Obs.Coverage.ps_registers) in
       let touched = sum (fun p -> p.Obs.Coverage.ps_touched) in
       let bits = sum (fun p -> p.Obs.Coverage.ps_bits) in
       let bits_touched = sum (fun p -> p.Obs.Coverage.ps_bits_touched) in
       let bsum f =
         List.fold_left
           (fun acc b -> acc + f b)
           0
           (Obs.Coverage.branches cov)
       in
       let arms = bsum (fun b -> b.Obs.Coverage.bs_arms) in
       let covered = bsum (fun b -> b.Obs.Coverage.bs_covered) in
       Format.fprintf ppf
         "| %-4s | %5d | %5.1f%% | %5.1f%% | %5d | %5.1f%% |@."
         r.Report.test_name regs
         (Obs.Coverage.pct touched regs)
         (Obs.Coverage.pct bits_touched bits)
         (arms / 2)
         (Obs.Coverage.pct covered arms))
    reports

let print_table2 ppf ~tests detections =
  let bug_names = List.map (fun d -> Verify.bug_to_string d.Verify.bug) detections in
  Format.fprintf ppf "|      ";
  List.iter (fun b -> Format.fprintf ppf "| %-6s " b) bug_names;
  Format.fprintf ppf "|@.";
  Format.fprintf ppf "|------";
  List.iter (fun _ -> Format.fprintf ppf "|--------") bug_names;
  Format.fprintf ppf "|@.";
  List.iter
    (fun test ->
       Format.fprintf ppf "| %-4s " test;
       List.iter
         (fun (d : Verify.detection) ->
            let cell =
              match List.assoc_opt test d.Verify.per_test with
              | Some (Some t) -> format_duration t
              | Some None | None -> "-"
            in
            Format.fprintf ppf "| %-6s " cell)
         detections;
       Format.fprintf ppf "|@.")
    tests
