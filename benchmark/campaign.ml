(* Workload [table1]: the paper's Table 1 campaign — T1..T5 on the
   original PLIC, sequential DFS, exhaustive — through [Verify.table1].
   The solver takes almost all of its time and its counts repeat
   exactly, so solver and fork changes show here. *)

open Sampler

(* Per test: verdict, (site/kind) bug set, paths. *)
type expectation = string * string * string list * int

let expected scale : expectation list =
  let paths = match scale with Full -> [| 8; 112; 16; 50; 434 |] | Smoke -> [| 4; 24; 8; 34; 142 |] in
  [
    ("T1", "Fail (1)", [ "plic:trigger:bounds/abort" ], paths.(0));
    ("T2", "Pass", [], paths.(1));
    ("T3", "Pass", [], paths.(2));
    ("T4", "Fail (3)", [ "reg:access/abort"; "reg:align/abort"; "reg:mapping/abort" ], paths.(3));
    ( "T5",
      "Fail (4)",
      [ "plic:claim:eip/abort"; "reg:access/abort"; "reg:mapping/abort";
        "reg:memcpy:write/out-of-bounds access" ],
      paths.(4) );
  ]

let scale_params = function Full -> (8, 16) | Smoke -> (4, 8)

let run scale ~seed:_ ~dir:_ ~mark =
  let num_sources, t5_max_len = scale_params scale in
  let scenario = Symsysc.Verify.scenario ~num_sources ~t5_max_len () in
  let before = Smt.Solver.Stats.get () in
  mark ();
  let reports, work_s =
    Outcome.timed (fun () ->
        Outcome.span "verify.table1" (fun () -> Symsysc.Verify.table1 scenario))
  in
  let stats = Smt.Solver.Stats.sub (Smt.Solver.Stats.get ()) before in
  let c = Outcome.checks () in
  let str s = s and ints l = String.concat "," l and num = string_of_int in
  List.iter2
    (fun (r : Symsysc.Report.t) (name, verdict, bugs, paths) ->
       let e = r.Symsysc.Report.engine in
       Outcome.operation c ~what:name
         (Outcome.expect str "test" ~got:r.Symsysc.Report.test_name ~want:name
          @ Outcome.expect str "verdict"
              ~got:(Symsysc.Report.verdict_to_string r.Symsysc.Report.verdict)
              ~want:verdict
          @ Outcome.expect ints "bugs" ~got:(Outcome.bug_set e) ~want:bugs
          @ Outcome.expect num "paths" ~got:e.Symex.Engine.paths ~want:paths
          @ Outcome.sound_run e))
    reports (expected scale);
  let engine = List.map (fun (r : Symsysc.Report.t) -> r.Symsysc.Report.engine) reports in
  let sv, st = Outcome.solver stats and ev, et = Outcome.exploration engine in
  Outcome.finish c ~work_s ~values:(sv @ ev) ~times:(st @ et) ()

let workload =
  { name = "table1"; operations = (fun _ -> 5); deterministic = true; run }
