(* Incremental-solving equivalence tests.

   Incremental scope solving (Solver.Scope: retained CDCL instances
   queried under guard assumptions) is a pure optimization: every
   verdict, path total, instruction count and (site, kind) bug set must
   be identical with it on or off, sequentially or across a worker
   pool, straight through or checkpointed mid-scope and resumed.  The
   matrix here runs the incremental-off sequential baseline against
   incremental-on runs at workers 1 and 4 for every strategy and
   testbench, then checks the Section 5.3 detection matrix is
   mode-independent. *)

module Engine = Symex.Engine
module Search = Symex.Search
module Error = Symex.Error
module Solver = Smt.Solver
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

(* The pool de-duplicates errors by (site, kind); compare identity. *)
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

let with_incremental on f =
  Fun.protect
    ~finally:(fun () ->
        Solver.set_incremental true;
        Solver.clear_caches ())
    (fun () ->
       Solver.set_incremental on;
       Solver.clear_caches ();
       f ())

let check_matrix strategy name () =
  let baseline =
    with_incremental false (fun () ->
        Verify.run_test (scenario ~strategy ()) name)
  in
  let seq =
    with_incremental true (fun () ->
        Verify.run_test (scenario ~strategy ()) name)
  in
  Alcotest.(check bool) "incremental sequential equals scratch baseline" true
    (fingerprint seq = fingerprint baseline);
  let par =
    with_incremental true (fun () ->
        Verify.run_test (scenario ~strategy ~workers:4 ()) name)
  in
  Alcotest.(check bool) "incremental 4-worker equals scratch baseline" true
    (fingerprint par = fingerprint baseline)

let matrix_cases =
  List.concat_map
    (fun (sname, strategy) ->
       List.map
         (fun name ->
            ( Printf.sprintf "incremental equivalence: %s/%s" sname name,
              `Slow,
              check_matrix strategy name ))
         tests)
    strategies

(* ------------------------------------------------------------------ *)
(* Mid-scope checkpoint/resume                                         *)

let with_session sc f = { sc with Verify.session = f sc.Verify.session }

(* An instruction budget that fires partway through a path, so the
   checkpoint is written while the per-path solver scope is mid-stack;
   the resumed process (fresh scopes, cold instances) must land on the
   same exploration. *)
let check_midscope_resume strategy () =
  let sc = scenario ~strategy () in
  let name = "t4" in
  let straight =
    with_incremental true (fun () -> Verify.run_test sc name)
  in
  let saved = ref None in
  let policy =
    { Engine.write = (fun ck -> saved := Some ck); every_s = infinity }
  in
  let truncated_sc =
    with_session sc (fun s ->
        { s with
          Engine.Session.checkpoint = Some policy;
          limits =
            { s.Engine.Session.limits with
              Engine.max_instructions = Some 50 } })
  in
  let _truncated =
    with_incremental true (fun () -> Verify.run_test truncated_sc name)
  in
  match !saved with
  | None -> Alcotest.fail "no checkpoint written"
  | Some ck ->
    let resumed =
      with_incremental true (fun () ->
          Verify.run_test
            (with_session sc
               (fun s -> { s with Engine.Session.resume = Some ck }))
            name)
    in
    Alcotest.(check bool) "resumed run exhausted" true
      resumed.Report.engine.Engine.exhausted;
    Alcotest.(check bool) "mid-scope resume equals straight-through" true
      (fingerprint resumed = fingerprint straight);
    (* The report diff adds the coverage map and its summary. *)
    Alcotest.(check (list string)) "mid-scope resume report diff" []
      (Diff.compare_reports (Report.to_json straight) (Report.to_json resumed))

let midscope_cases =
  List.map
    (fun (sname, strategy) ->
       ( Printf.sprintf "mid-scope resume equivalence: %s/t4" sname,
         `Slow,
         check_midscope_resume strategy ))
    strategies

(* ------------------------------------------------------------------ *)
(* Detection matrix mode-independence                                  *)

(* The fault-injection campaign of Section 5.3 — the same matrix pinned
   as a golden in the resilience suite — must not notice the solving
   mode: detection flags and first-detection latencies are identical
   with incremental solving on and off. *)
let test_detection_matrix_mode_independent () =
  let run on =
    with_incremental on (fun () -> Verify.detection_matrix (scenario ()))
  in
  let summarize m =
    List.map
      (fun (fault, cells) ->
         ( fault,
           List.map
             (fun (test, (c : Verify.matrix_cell)) ->
                (test, c.Verify.detected, c.Verify.first_path))
             cells ))
      m
  in
  Alcotest.(check bool) "matrix identical across modes" true
    (summarize (run true) = summarize (run false))

let suite =
  matrix_cases @ midscope_cases
  @ [ ("detection matrix: mode independent", `Slow,
       test_detection_matrix_mode_independent) ]
