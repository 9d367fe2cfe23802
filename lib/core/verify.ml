module Engine = Symex.Engine
module Error = Symex.Error
module Fault = Plic.Fault
module Config = Plic.Config

type bug = F1 | F2 | F3 | F4 | F5 | F6 | Injected of Fault.t

let original_bugs = [ F1; F2; F3; F4; F5; F6 ]
let all_bugs = original_bugs @ List.map (fun f -> Injected f) Fault.all

let bug_to_string = function
  | F1 -> "F1"
  | F2 -> "F2"
  | F3 -> "F3"
  | F4 -> "F4"
  | F5 -> "F5"
  | F6 -> "F6"
  | Injected f -> Fault.to_string f

let bug_of_string s =
  let s = String.uppercase_ascii s in
  List.find_opt (fun b -> bug_to_string b = s) all_bugs

(* Original bugs are identified by the detector site of the error. *)
let bug_matches bug (err : Error.t) =
  match bug with
  | F1 -> err.Error.site = "plic:trigger:bounds"
  | F2 -> err.Error.site = "reg:align"
  | F3 -> err.Error.site = "reg:mapping"
  | F4 -> err.Error.site = "reg:access"
  | F5 ->
    err.Error.kind = Error.Out_of_bounds
    && String.length err.Error.site >= 10
    && String.sub err.Error.site 0 10 = "reg:memcpy"
  | F6 -> err.Error.site = "plic:claim:eip"
  | Injected _ -> true

type scenario = {
  params : Tests.params;
  session : Engine.Session.t;
}

(* The cookie a distributed campaign uses to reject mismatched remote
   workers: a master and a worker launched with different PLIC scales,
   variants or fault plants would silently merge incomparable paths. *)
let params_signature (p : Tests.params) =
  Printf.sprintf "harts=%d;sources=%d;maxprio=%d;variant=%s;faults=%s;\
                  t4=%d;t5=%d;latency=%s"
    p.Tests.cfg.Config.num_harts p.Tests.cfg.Config.num_sources
    p.Tests.cfg.Config.max_priority
    (Config.variant_to_string p.Tests.variant)
    (String.concat "," (List.map Fault.to_string p.Tests.faults))
    p.Tests.t4_max_len p.Tests.t5_max_len
    (Pk.Sc_time.to_string p.Tests.latency_budget)

let scenario ?(num_sources = 8) ?(t5_max_len = 16) ?session ?max_paths
    ?max_seconds ?max_solver_conflicts ?solver_timeout_ms ?max_memory_mb
    ?stop_after_errors ?seed ?workers ?heartbeat_ms ?listen ?lease_ms
    ?validate ?strategy () =
  let params = Tests.scaled_params ~num_sources ~t5_max_len in
  let session =
    match session with
    | Some s -> s
    | None ->
      Engine.Session.make ?strategy
        ~limits:
          { Engine.no_limits with
            max_paths;
            max_seconds;
            max_solver_conflicts;
            solver_timeout_ms;
            max_memory_mb }
        ?stop_after_errors ?seed ?workers ?heartbeat_ms ?listen ?lease_ms
        ~cookie:(params_signature params) ?validate ()
  in
  { params; session }

let run_named session name params =
  match Tests.by_name name with
  | None -> invalid_arg ("Verify.run_test: unknown test " ^ name)
  | Some test ->
    let report = Engine.Session.run ~label:name session (test params) in
    Report.make name report

let run_test scenario name = run_named scenario.session name scenario.params

(* Remote worker side of a distributed campaign: serve one test's work
   units to a listening master.  The scenario must be built with the
   same parameters as the master's — the cookie in the hello handshake
   enforces it. *)
let serve ~host ~port ~workers ?backoff_seed scenario name =
  match Tests.by_name name with
  | None -> invalid_arg ("Verify.serve: unknown test " ^ name)
  | Some test ->
    Engine.Session.serve ~host ~port ~workers ?backoff_seed ~label:name
      scenario.session (test scenario.params)

(* Campaign runs execute many labelled tests under one scenario, so a
   session-level [resume] (whose checkpoint names a single test) and a
   [checkpoint] sink (one path, would be overwritten per test) cannot
   apply; strip them rather than fail on the second test. *)
let campaign_session scenario =
  { scenario.session with Engine.Session.resume = None; checkpoint = None }

let table1 scenario =
  let params = Tests.with_variant Config.Original scenario.params in
  let params = Tests.with_faults [] params in
  let session = campaign_session scenario in
  List.map (fun (name, _) -> run_named session name params) Tests.all

type detection = {
  bug : bug;
  per_test : (string * float option) list;
}

let detection_time bug (report : Report.t) =
  List.filter_map
    (fun (e : Error.t) ->
       if bug_matches bug e then Some e.Error.found_after else None)
    report.Report.engine.Engine.errors
  |> function
  | [] -> None
  | times -> Some (List.fold_left Float.min Float.infinity times)

let table2 ?(tests = List.map fst Tests.all) scenario =
  let session = campaign_session scenario in
  (* One run per test on the original PLIC serves all F columns. *)
  let original_params =
    Tests.with_faults [] (Tests.with_variant Config.Original scenario.params)
  in
  let original_reports =
    List.map (fun name -> (name, run_named session name original_params)) tests
  in
  let f_rows =
    List.map
      (fun bug ->
         {
           bug;
           per_test =
             List.map
               (fun (name, report) -> (name, detection_time bug report))
               original_reports;
         })
      original_bugs
  in
  (* Each injected fault runs on the fixed PLIC, one run per test; the
     engine can stop at the first error since the baseline is clean. *)
  let if_rows =
    List.map
      (fun fault ->
         let params =
           Tests.with_faults [ fault ]
             (Tests.with_variant Config.Fixed scenario.params)
         in
         let stop_session =
           { session with Engine.Session.stop_after_errors = Some 1 }
         in
         {
           bug = Injected fault;
           per_test =
             List.map
               (fun name ->
                  let report = run_named stop_session name params in
                  (name, detection_time (Injected fault) report))
               tests;
         })
      Fault.all
  in
  f_rows @ if_rows

(* The IF1–IF6 detection matrix with path-count latency: for every
   injected fault, on the fixed PLIC with exactly that fault planted,
   which tests detect it and how many paths the engine explored before
   the first detection (the error's [path_id]).  This is the
   regression-testable core of the paper's Section 5.3 campaign. *)
type matrix_cell = { detected : bool; first_path : int option }

let detection_matrix ?(tests = List.map fst Tests.all) scenario =
  let stop_session =
    { (campaign_session scenario) with
      Engine.Session.stop_after_errors = Some 1 }
  in
  List.map
    (fun fault ->
       let params =
         Tests.with_faults [ fault ]
           (Tests.with_variant Config.Fixed scenario.params)
       in
       ( fault,
         List.map
           (fun name ->
              let report = run_named stop_session name params in
              let first_path =
                List.filter_map
                  (fun (e : Error.t) ->
                     if bug_matches (Injected fault) e then
                       Some e.Error.path_id
                     else None)
                  report.Report.engine.Engine.errors
                |> function
                | [] -> None
                | ps -> Some (List.fold_left min max_int ps)
              in
              (name, { detected = first_path <> None; first_path }))
           tests ))
    Fault.all
