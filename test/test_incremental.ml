(* Retained-scope tests at campaign scale.

   Every verdict-only query of a run is answered by a retained scope
   (Solver.Scope), and a finished run hands its instances on to the
   next one, which resets them.  Two properties rest on that, checked
   for every strategy:
   - a second run in the same process, caches cleared and scopes
     recycled from the first, reproduces the first run's report and
     every solver search counter (the report diff leaves those out,
     and the CI counter pins assume them);
   - a run cut inside its first path and resumed, sequentially or by a
     4-worker pool, lands on the straight-through report. *)

module Engine = Symex.Engine
module Search = Symex.Search
module Solver = Smt.Solver
module Verify = Symsysc.Verify
module Report = Symsysc.Report

let strategies =
  [ ("dfs", Search.Dfs);
    ("bfs", Search.Bfs);
    ("random", Search.Random_path 42);
    ("cover-new", Search.Cover_new) ]

let tests = [ "t1"; "t2"; "t3"; "t4"; "t5" ]

(* The solver counters of a run, wall times left out. *)
let search_counters (r : Report.t) =
  { r.Report.engine.Engine.solver_stats with
    Solver.Stats.time = 0.0;
    interval_time = 0.0;
    bitblast_time = 0.0;
    sat_time = 0.0 }

let check_repeat strategy name () =
  let run () =
    Solver.clear_caches ();
    Verify.run_test (Test_snapshots.scenario ~strategy ()) name
  in
  let first = run () in
  let second = run () in
  Test_snapshots.check_same "a repeated run equals the first" first second;
  Alcotest.(check bool) "the run queried the solver" true
    ((search_counters first).Solver.Stats.queries > 0);
  if search_counters first <> search_counters second then
    Alcotest.failf "search counters moved on a repeated run:@ %a@ against %a"
      Solver.Stats.pp (search_counters first) Solver.Stats.pp
      (search_counters second)

let repeat_cases =
  List.concat_map
    (fun (sname, strategy) ->
       List.map
         (fun name ->
            ( Printf.sprintf "incremental equivalence: %s/%s" sname name,
              `Slow,
              check_repeat strategy name ))
         tests)
    strategies

(* Cut at 50 instructions: inside t4's first path. *)
let midscope_cases =
  List.map
    (fun (sname, strategy) ->
       ( Printf.sprintf "mid-scope resume equivalence: %s/t4" sname,
         `Slow,
         Test_snapshots.check_resume ~cut:50 strategy ))
    strategies

let suite = repeat_cases @ midscope_cases
