(* Parallel exploration tests.

   The property the worker pool promises is the DESIGN.md one: a run
   with N workers reaches the same verdict, bug sites and exhausted
   flag as the single-worker run of the same session — and, because
   every run here is exhaustive, the same path totals and instruction
   count too (leaf sets are order-independent).  On top of that:
   master-side fault tolerance (a worker SIGKILLed mid-unit), parallel
   checkpoint/resume equivalence across worker counts, and the
   reproducibility of the parallel random-testing baseline. *)

module Engine = Symex.Engine
module Search = Symex.Search
module Error = Symex.Error
module Decision = Symex.Decision
module Pool = Symex.Pool
module Expr = Smt.Expr
module Verify = Symsysc.Verify
module Report = Symsysc.Report
module Diff = Symsysc.Diff

let scenario ?strategy ?workers () =
  Verify.scenario ~num_sources:4 ~t5_max_len:8 ?strategy ?workers ()

let strategies =
  [ ("dfs", Search.Dfs);
    ("bfs", Search.Bfs);
    ("random", Search.Random_path 42);
    ("cover-new", Search.Cover_new) ]

let tests = [ "t1"; "t2"; "t3"; "t4"; "t5" ]

(* The pool de-duplicates errors by (site, kind) while the sequential
   engine records one per failing path, so compare error identity, not
   multiplicity. *)
let fingerprint (r : Report.t) =
  let e = r.Report.engine in
  ( r.Report.verdict,
    e.Engine.paths,
    e.Engine.paths_completed,
    e.Engine.paths_errored,
    e.Engine.paths_infeasible,
    e.Engine.paths_unknown,
    e.Engine.instructions,
    e.Engine.exhausted,
    List.sort_uniq compare
      (List.map
         (fun (err : Error.t) ->
            (err.Error.site, Error.kind_to_string err.Error.kind))
         e.Engine.errors) )

let check_equiv strategy name () =
  let seq = Verify.run_test (scenario ~strategy ()) name in
  Alcotest.(check int) "sequential run reports one worker" 1
    seq.Report.engine.Engine.workers;
  List.iter
    (fun workers ->
       let par = Verify.run_test (scenario ~strategy ~workers ()) name in
       Alcotest.(check int)
         (Printf.sprintf "report records %d workers" workers)
         workers par.Report.engine.Engine.workers;
       Alcotest.(check bool)
         (Printf.sprintf "fingerprint equals sequential at %d workers" workers)
         true
         (fingerprint par = fingerprint seq);
       (* The report diff adds the coverage map and its summary. *)
       Alcotest.(check (list string))
         (Printf.sprintf "report diff against sequential at %d workers" workers)
         []
         (Diff.compare_reports (Report.to_json seq) (Report.to_json par)))
    [ 2; 4 ]

let equiv_cases =
  List.concat_map
    (fun (sname, strategy) ->
       List.map
         (fun name ->
            ( Printf.sprintf "parallel equivalence: %s/%s" sname name,
              `Slow,
              check_equiv strategy name ))
         tests)
    strategies

(* ------------------------------------------------------------------ *)
(* Master-side fault tolerance                                         *)

let unit_ok ?(forks = []) () =
  { Pool.outcome = Pool.Unit_completed; forks; errors = []; visits = [];
    instructions = 1; degraded = false; solver = Smt.Solver.Stats.zero;
    requeue = None; chaos = [];
    coverage = Obs.Coverage.zero; profile = Obs.Profile.zero;
    events = []; events_dropped = 0 }

(* A worker SIGKILLed in the middle of a unit must have its prefix
   re-queued and served by a surviving worker.  The exec callback runs
   in the forked workers, so a flag file distinguishes the first
   execution of the doomed unit (die) from its re-run (complete). *)
let test_worker_death_requeued () =
  let flag = Filename.temp_file "symsysc_kill" ".flag" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove flag with Sys_error _ -> ())
    (fun () ->
       let config =
         { Pool.workers = 2; strategy = Search.Dfs;
           limits = Engine.no_limits; stop_after_errors = None;
           label = "kill-test"; max_unit_crashes = 3;
           listen = None; lease_ms = None; cookie = None }
       in
       let exec ~prefix =
         match Array.to_list prefix with
         | [] ->
           unit_ok
             ~forks:
               [ ("root", [| Decision.Dir false |]);
                 ("root", [| Decision.Dir true |]) ]
             ()
         | [ Decision.Dir true ] when Sys.file_exists flag ->
           (try Sys.remove flag with Sys_error _ -> ());
           Unix.kill (Unix.getpid ()) Sys.sigkill;
           assert false
         | _ -> unit_ok ()
       in
       let r = Pool.run config ~exec () in
       Alcotest.(check int) "one worker death" 1 r.Pool.r_worker_deaths;
       Alcotest.(check bool) "the in-flight unit was re-queued" true
         (r.Pool.r_requeued >= 1);
       Alcotest.(check int) "all three units completed" 3 r.Pool.r_completed;
       Alcotest.(check int) "logical path count unaffected" 3 r.Pool.r_paths;
       Alcotest.(check int) "re-run means an extra dispatch" 4
         r.Pool.r_dispatched;
       Alcotest.(check int) "no errors" 0 (List.length r.Pool.r_errors);
       Alcotest.(check bool) "run still counts as exhaustive" true
         r.Pool.r_exhausted)

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume composes with workers                             *)

let with_session sc f = { sc with Verify.session = f sc.Verify.session }

(* Truncate a 2-worker run by a path budget, checkpoint it, resume with
   4 workers: same fingerprint as the uninterrupted parallel run. *)
let test_parallel_resume_equiv () =
  let sc = scenario ~workers:2 () in
  let straight = Verify.run_test sc "t4" in
  let saved = ref None in
  let policy =
    { Symex.Checkpoint.write = (fun ck -> saved := Some ck);
      every_s = infinity }
  in
  let truncated_sc =
    with_session sc (fun s ->
        { s with
          Engine.Session.limits =
            { Engine.no_limits with Engine.max_paths = Some 5 };
          checkpoint = Some policy })
  in
  let truncated = Verify.run_test truncated_sc "t4" in
  Alcotest.(check bool) "truncated run stopped early" true
    (truncated.Report.engine.Engine.stop_reason <> None);
  match !saved with
  | None -> Alcotest.fail "no checkpoint written"
  | Some ck ->
    let resumed_sc =
      with_session
        (scenario ~workers:4 ())
        (fun s -> { s with Engine.Session.resume = Some ck })
    in
    let resumed = Verify.run_test resumed_sc "t4" in
    Alcotest.(check bool) "resumed run exhausted" true
      resumed.Report.engine.Engine.exhausted;
    Alcotest.(check bool)
      "resumed fingerprint equals uninterrupted parallel run" true
      (fingerprint resumed = fingerprint straight)

(* ------------------------------------------------------------------ *)
(* Parallel random-testing baseline                                    *)

let e8 v = Expr.int ~width:8 v

(* Fails on roughly 6% of trials, so a few hundred per worker suffice. *)
let random_body () =
  let x = Engine.fresh "x" 8 in
  Engine.check ~site:"random:rare" (Expr.ult x (e8 240))

let failure_key (r : Engine.random_report) =
  Option.map
    (fun ((e : Error.t), trial) -> (e.Error.site, trial))
    r.Engine.failure

let test_random_workers_reproducible () =
  let campaign () =
    Engine.random_test ~seed:7 ~max_trials:600 ~workers:2 random_body
  in
  let r1 = campaign () in
  let r2 = campaign () in
  Alcotest.(check int) "workers recorded" 2 r1.Engine.workers;
  Alcotest.(check int) "trials reproducible" r1.Engine.trials r2.Engine.trials;
  Alcotest.(check int) "rejections reproducible" r1.Engine.rejected
    r2.Engine.rejected;
  Alcotest.(check (option (pair string int))) "failure reproducible"
    (failure_key r1) (failure_key r2);
  Alcotest.(check bool) "the rare failure is found" true
    (r1.Engine.failure <> None)

let test_random_workers_streams_differ () =
  (* Worker streams are derived from the seed, not shared with the
     sequential RNG — different worker counts are different (but each
     reproducible) campaigns. *)
  let seq = Engine.random_test ~seed:7 ~max_trials:600 random_body in
  Alcotest.(check int) "sequential campaign reports one worker" 1
    seq.Engine.workers;
  Alcotest.(check bool) "sequential campaign also finds it" true
    (seq.Engine.failure <> None)

(* ------------------------------------------------------------------ *)
(* fork_map plumbing                                                   *)

let test_fork_map () =
  let results = Pool.fork_map ~workers:3 (fun i -> Obs.Json.Int (i * 10)) in
  Alcotest.(check int) "three results" 3 (List.length results);
  List.iteri
    (fun i r ->
       match r with
       | Ok (Obs.Json.Int n) ->
         Alcotest.(check int) "results in index order" (i * 10) n
       | Ok _ -> Alcotest.fail "unexpected json shape"
       | Error e -> Alcotest.fail e)
    results

let test_fork_map_dead_child () =
  let results =
    Pool.fork_map ~workers:2 (fun i ->
        if i = 0 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        Obs.Json.Int i)
  in
  match results with
  | [ Error _; Ok (Obs.Json.Int 1) ] -> ()
  | _ -> Alcotest.fail "expected child 0 dead, child 1 reporting"

let suite =
  equiv_cases
  @ [
      ("pool: worker killed mid-unit is re-queued", `Quick,
       test_worker_death_requeued);
      ("pool: parallel checkpoint/resume equivalence", `Slow,
       test_parallel_resume_equiv);
      ("random: parallel campaign reproducible", `Quick,
       test_random_workers_reproducible);
      ("random: sequential campaign unchanged", `Quick,
       test_random_workers_streams_differ);
      ("fork_map: ordered results", `Quick, test_fork_map);
      ("fork_map: dead child reported", `Quick, test_fork_map_dead_child);
    ]
