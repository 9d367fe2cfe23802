(* Deep-observability tests: coverage-map determinism across worker
   counts, worker-trace merge ordering, drop-count accounting, profile
   bucket totals, and the report-diff comparison. *)

module Engine = Symex.Engine
module Coverage = Obs.Coverage
module Profile = Obs.Profile
module Event = Obs.Event
module Export = Obs.Export
module Json = Obs.Json
module Verify = Symsysc.Verify
module Report = Symsysc.Report

let scenario ?workers () =
  Verify.scenario ~num_sources:4 ~t5_max_len:8 ?workers ()

let tests = [ "t1"; "t2"; "t3"; "t4"; "t5" ]

(* ------------------------------------------------------------------ *)
(* Coverage algebra                                                    *)

let sample_coverage () =
  let before = Coverage.get () in
  Coverage.declare ~peripheral:"p" ~register:"r0" ~size:4;
  Coverage.declare ~peripheral:"p" ~register:"r1" ~size:8;
  Coverage.record_read ~peripheral:"p" ~register:"r0" ~off:0 ~len:2 ();
  Coverage.record_write ~peripheral:"p" ~register:"r1" ();
  Coverage.record_arm ~site:"s:a" true;
  Coverage.record_arm ~site:"s:a" true;
  Coverage.record_arm ~site:"s:b" false;
  let delta = Coverage.sub (Coverage.get ()) before in
  Coverage.restore before;
  delta

let check_coverage_algebra () =
  let d = sample_coverage () in
  Alcotest.(check bool) "delta is non-trivial" true (d <> Coverage.zero);
  Alcotest.(check bool) "add zero is identity" true
    (Coverage.add d Coverage.zero = d);
  Alcotest.(check bool) "sub self is zero" true
    (Coverage.sub d d = Coverage.zero);
  Alcotest.(check bool) "add then sub round-trips" true
    (Coverage.sub (Coverage.add d d) d = d);
  Alcotest.(check bool) "json round-trips" true
    (Coverage.of_json (Coverage.to_json d) = d);
  (* Summaries on the sample: r0 read (2 of 4 bytes), r1 written
     whole, site s:a one arm, site s:b one arm. *)
  (match Coverage.peripherals d with
   | [ p ] ->
     Alcotest.(check string) "peripheral" "p" p.Coverage.ps_peripheral;
     Alcotest.(check int) "registers" 2 p.Coverage.ps_registers;
     Alcotest.(check int) "touched" 2 p.Coverage.ps_touched;
     Alcotest.(check int) "bits" ((4 + 8) * 8) p.Coverage.ps_bits;
     Alcotest.(check int) "bits touched" ((2 + 8) * 8)
       p.Coverage.ps_bits_touched
   | l ->
     Alcotest.failf "expected one peripheral summary, got %d"
       (List.length l));
  match Coverage.branches d with
  | [ b ] ->
    Alcotest.(check string) "group" "s" b.Coverage.bs_group;
    Alcotest.(check int) "arms" 4 b.Coverage.bs_arms;
    Alcotest.(check int) "covered" 2 b.Coverage.bs_covered
  | l -> Alcotest.failf "expected one branch group, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Coverage determinism across worker counts                           *)

let coverage_fingerprint (r : Report.t) =
  Json.to_string (Coverage.to_json r.Report.engine.Engine.coverage)

let check_coverage_equiv name () =
  let seq = Verify.run_test (scenario ()) name in
  Alcotest.(check bool) "sequential run has coverage" true
    (seq.Report.engine.Engine.coverage <> Coverage.zero);
  let par = Verify.run_test (scenario ~workers:4 ()) name in
  Alcotest.(check string) "coverage map equals sequential at 4 workers"
    (coverage_fingerprint seq) (coverage_fingerprint par);
  Alcotest.(check string) "coverage summary equals sequential"
    (Json.to_string
       (Coverage.summary_to_json seq.Report.engine.Engine.coverage))
    (Json.to_string
       (Coverage.summary_to_json par.Report.engine.Engine.coverage))

(* ------------------------------------------------------------------ *)
(* Profile: buckets partition solver wall time                         *)

let check_profile_algebra () =
  let before = Profile.get () in
  Profile.record_as ~origin:"o" ~stage:"s" 1.0;
  let mid = Profile.get () in
  Profile.record_as ~origin:"o" ~stage:"s" 2.0;
  Profile.record_as ~origin:"o2" ~stage:"s" 0.5;
  let after = Profile.get () in
  (* The (o, s) bucket exists on both sides of each delta, so this
     exercises subtraction over common keys — not just disjoint ones. *)
  let d = Profile.sub after mid in
  Alcotest.(check int) "delta count" 2 (Profile.total_count d);
  Alcotest.(check bool) "delta time" true
    (Float.abs (Profile.total_time d -. 2.5) < 1e-9);
  let whole = Profile.sub after before in
  Alcotest.(check bool) "deltas compose" true
    (Profile.add d (Profile.sub mid before) = whole);
  Alcotest.(check bool) "sub self is zero" true
    (Profile.sub after after = Profile.zero);
  Alcotest.(check bool) "json round-trips" true
    (Profile.of_json (Profile.to_json whole) = whole)

let check_profile_totals () =
  (* Pre-existing buckets (earlier suites, earlier runs in the same
     process) must not leak into a run's delta. *)
  Profile.record_as ~origin:"pollute" ~stage:"x" 100.0;
  let r = Verify.run_test (scenario ()) "t2" in
  let e = r.Report.engine in
  let profiled = Profile.total_time e.Engine.profile in
  let solver = e.Engine.solver_stats.Smt.Solver.Stats.time in
  Alcotest.(check bool) "profile is non-trivial" true
    (Profile.total_count e.Engine.profile > 0);
  Alcotest.(check bool)
    (Printf.sprintf "bucket times sum to solver time (%g vs %g)" profiled
       solver)
    true
    (Float.abs (profiled -. solver) < 1e-6);
  (* Bucket keys are engine sites and solver stages; the engine always
     tags an origin before querying, so neither "init" nor the
     polluted bucket shows up in the delta. *)
  List.iter
    (fun ((origin, stage), _) ->
       Alcotest.(check bool)
         (Printf.sprintf "bucket (%s, %s) has a real origin" origin stage)
         false (origin = "init" || origin = "pollute"))
    e.Engine.profile

(* ------------------------------------------------------------------ *)
(* Tagged trace merge                                                  *)

let ev ts name = { Event.ts; cat = "test"; name; kind = Event.Instant;
                   args = [] }

let chrome_rows doc =
  match Json.of_string doc with
  | Error msg -> Alcotest.failf "unparsable chrome trace: %s" msg
  | Ok j ->
    (match Option.bind (Json.member "traceEvents" j) Json.to_list_opt with
     | Some rows -> rows
     | None -> Alcotest.fail "no traceEvents array")

let row_str k row =
  Option.value ~default:"" (Option.bind (Json.member k row) Json.to_string_opt)

let check_trace_merge () =
  let tagged =
    [ (0, ev 2.0 "m0"); (1, ev 5.0 "w0a"); (3, ev 1.0 "w2a");
      (3, ev 9.0 "w2b"); (1, ev 5.0 "w0b") ]
  in
  let rows = chrome_rows (Export.to_chrome_tagged tagged) in
  let tracks =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
            if row_str "name" r = "process_name" then
              Option.bind (Json.member "args" r)
                (fun a ->
                   Option.bind (Json.member "name" a) Json.to_string_opt)
            else None)
         rows)
  in
  Alcotest.(check (list string)) "one named track per source"
    [ "master"; "worker 0"; "worker 2" ] tracks;
  let payload =
    List.filter (fun r -> row_str "ph" r = "i") rows
  in
  Alcotest.(check (list string)) "events sorted by timestamp, stably"
    [ "w2a"; "m0"; "w0a"; "w0b"; "w2b" ]
    (List.map (row_str "name") payload);
  (* Distinct sources land in distinct Chrome processes. *)
  let pid_of name =
    List.find_map
      (fun r ->
         if row_str "name" r = name then
           Option.bind (Json.member "pid" r) Json.to_int_opt
         else None)
      payload
  in
  Alcotest.(check bool) "master and worker pids differ" true
    (pid_of "m0" <> pid_of "w0a" && pid_of "w0a" <> pid_of "w2a")

(* A parallel run with a live recorder really merges worker streams:
   the recorder ends up holding events tagged with worker sources. *)
let check_pool_forwarding () =
  let r = Export.recorder () in
  let finish () = Export.stop r in
  Fun.protect ~finally:finish (fun () ->
      ignore (Verify.run_test (scenario ~workers:2 ()) "t1");
      let tags =
        List.sort_uniq compare (List.map fst (Export.tagged_events r))
      in
      Alcotest.(check bool) "some events came from workers" true
        (List.exists (fun t -> t > 0) tags))

(* ------------------------------------------------------------------ *)
(* Drop accounting                                                     *)

let check_drop_accounting () =
  let r = Export.recorder ~limit:3 () in
  let finish () = Export.stop r in
  Fun.protect ~finally:finish (fun () ->
      Export.inject ~worker:0 (List.init 5 (fun i -> ev (float_of_int i) "e"));
      Alcotest.(check int) "recorder keeps up to the limit" 3
        (List.length (Export.events r));
      Alcotest.(check int) "overflow counted as local drops" 2
        (Export.dropped r);
      Export.note_remote_dropped 4;
      Alcotest.(check int) "worker drops accounted separately" 4
        (Export.remote_dropped r);
      Alcotest.(check int) "dropped_total sums both" 6
        (Export.dropped_total ()))

(* ------------------------------------------------------------------ *)
(* Event JSON round-trip (the worker→master frame encoding)            *)

let check_event_roundtrip () =
  let cases =
    [ { Event.ts = 1.5; cat = "engine"; name = "fork";
        kind = Event.Instant; args = [ ("n", Event.Int 3) ] };
      { Event.ts = 2.0; cat = "solver"; name = "q";
        kind = Event.Counter; args = [ ("load", Event.Float 0.5) ] };
      { Event.ts = 3.0; cat = "tlm"; name = "route";
        kind = Event.Span_begin; args = [ ("ok", Event.Bool true) ] };
      { Event.ts = 4.0; cat = "tlm"; name = "route";
        kind = Event.Span_end; args = [] };
      { Event.ts = 5.0; cat = "kernel"; name = "delta";
        kind = Event.Complete 12.5; args = [ ("s", Event.Str "x") ] } ]
  in
  List.iter
    (fun e ->
       match Event.of_json (Event.to_json e) with
       | Some e' ->
         Alcotest.(check bool)
           (Printf.sprintf "round-trips %s/%s" e.Event.cat e.Event.name)
           true (e' = e)
       | None -> Alcotest.failf "decode failed for %s" e.Event.name)
    cases;
  Alcotest.(check bool) "malformed phase rejected" true
    (Event.of_json (Json.Obj [ ("ts", Json.Float 0.0); ("ph", Json.Str "?") ])
     = None)

(* ------------------------------------------------------------------ *)
(* report-diff                                                         *)

let check_report_diff () =
  let report = Verify.run_test (scenario ()) "t1" in
  let j = Report.to_json report in
  Alcotest.(check (list string)) "a report agrees with itself" []
    (Symsysc.Diff.compare_reports j j);
  (* Wall-clock fields are excluded: jittering them is not a diff. *)
  let set k v = function
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) fields)
    | other -> other
  in
  Alcotest.(check (list string)) "wall time is ignored" []
    (Symsysc.Diff.compare_reports j (set "wall_time" (Json.Float 999.0) j));
  Alcotest.(check (list string)) "solver time is ignored" []
    (Symsysc.Diff.compare_reports j (set "solver_time" (Json.Float 999.0) j));
  (* Deterministic fields are not. *)
  let mutated = set "paths" (Json.Int 123456) j in
  Alcotest.(check bool) "path-count change is a regression" true
    (Symsysc.Diff.compare_reports j mutated <> []);
  let no_errors = set "errors" (Json.List []) j in
  Alcotest.(check bool) "losing a bug is a regression" true
    (Symsysc.Diff.compare_reports j no_errors <> []);
  let no_cov = set "coverage" (Json.Obj []) j in
  Alcotest.(check bool) "coverage change is a regression" true
    (Symsysc.Diff.compare_reports j no_cov <> [])

(* ------------------------------------------------------------------ *)
(* Explain entries for CLINT / UART detector sites                     *)

let check_explain_sites () =
  let err site =
    { Symex.Error.kind = Symex.Error.Assertion_failure; site; message = "";
      counterexample = []; path_id = 0; instructions = 0; found_after = 0.0;
      validated = true }
  in
  List.iter
    (fun site ->
       Alcotest.(check bool)
         (Printf.sprintf "explain knows %s" site)
         true
         (Symsysc.Explain.lookup (err site) <> None))
    [ "clint:not-early"; "clint:fired"; "clint:exact"; "clint:retract";
      "clint:delay"; "uart:loopback"; "uart:wm-property"; "uart:div" ]

(* ------------------------------------------------------------------ *)

(* The profile footer counts queries, not stage records: a query leaves
   one record per stage it reaches, so the two differ on any run that
   bit-blasts. *)
let check_profile_footer () =
  let r = Verify.run_test (scenario ()) "t1" in
  let e = r.Report.engine in
  Alcotest.(check bool) "records and queries differ on this run" true
    (Profile.total_count e.Engine.profile <> e.Engine.solver_queries);
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" (Report.pp_profile ~k:3) r)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check string) "footer shows the report's query count"
    (Printf.sprintf "total: %d queries, %.3fs solver time"
       e.Engine.solver_queries (Profile.total_time e.Engine.profile))
    (List.nth lines (List.length lines - 1))

let suite =
  [ ("coverage: delta algebra and summaries", `Quick,
     check_coverage_algebra);
    ("profile: delta algebra over common keys", `Quick,
     check_profile_algebra);
    ("profile: buckets sum to solver time", `Quick, check_profile_totals);
    ("trace: tagged chrome merge", `Quick, check_trace_merge);
    ("trace: pool forwards worker events", `Slow, check_pool_forwarding);
    ("trace: drop accounting", `Quick, check_drop_accounting);
    ("event: frame json round-trip", `Quick, check_event_roundtrip);
    ("report-diff: deterministic fields only", `Quick, check_report_diff);
    ("explain: clint/uart detector sites", `Quick, check_explain_sites) ]
  @ List.map
      (fun name ->
         ( Printf.sprintf "coverage: 1 worker = 4 workers on %s" name,
           `Slow, check_coverage_equiv name ))
      tests
  @ [ ("profile: footer counts queries", `Quick, check_profile_footer) ]
