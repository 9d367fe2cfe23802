(* Chaos-tested self-checking: fault injection for the verifier
   itself.

   These tests arm the Chaos injector against the verifier's own
   solver, worker pool and checkpoint layers and assert that the
   hardening added alongside it actually heals every injected failure
   mode: solver retries absorb injected Unknowns, an expired lease
   replaces a SIGSTOPped worker, poison units are quarantined
   rather than retried forever, a corrupted checkpoint falls back to
   its .bak rotation — and, the acceptance property, a whole campaign
   under a fixed chaos spec/seed converges to the clean run's
   fingerprint at 1 and 4 workers.  Counterexample validation is
   exercised both ways: clean runs report zero unvalidated errors, a
   deliberately flaky testbench gets its error demoted. *)

module Engine = Symex.Engine
module Search = Symex.Search
module Error = Symex.Error
module Budget = Symex.Budget
module Checkpoint = Symex.Checkpoint
module Decision = Symex.Decision
module Pool = Symex.Pool
module Expr = Smt.Expr
module Solver = Smt.Solver
module Verify = Symsysc.Verify
module Report = Symsysc.Report

let scenario ?strategy ?workers ?lease_ms ?validate () =
  Verify.scenario ~num_sources:4 ~t5_max_len:8 ?strategy ?workers ?lease_ms
    ?validate ()

(* Chaos and the retry count are process-global; every test that arms
   them must disarm on the way out or it poisons the suites that run
   after it. *)
let with_chaos ?seed spec f =
  Chaos.configure ?seed spec;
  Fun.protect ~finally:Chaos.disable f

let with_retries n f =
  Solver.set_retries n;
  Fun.protect ~finally:(fun () -> Solver.set_retries 0) f

let chaos_total counts = List.fold_left (fun a (_, n) -> a + n) 0 counts

(* Everything a chaos run must reproduce from the clean run.  The
   instruction count is deliberately absent: healing an injected
   Unknown retries the query with perturbed SAT phases, which may find
   a {e different} satisfying model, and a concretization (t5's
   symbolic memcpy length) executed under a different concrete value
   runs a different number of instructions — without moving the
   verdict, the bug sites or any path total. *)
let fingerprint (r : Report.t) =
  let e = r.Report.engine in
  Printf.sprintf
    "%s paths=%d completed=%d errored=%d infeasible=%d unknown=%d \
     exhausted=%b errors=[%s]"
    (Report.verdict_to_string r.Report.verdict)
    e.Engine.paths e.Engine.paths_completed e.Engine.paths_errored
    e.Engine.paths_infeasible e.Engine.paths_unknown
    e.Engine.exhausted
    (String.concat ","
       (List.sort_uniq compare
          (List.map
             (fun (err : Error.t) ->
                err.Error.site ^ "/" ^ Error.kind_to_string err.Error.kind)
             e.Engine.errors)))

(* ------------------------------------------------------------------ *)
(* Spec parsing and stream determinism                                 *)

let test_spec_parse () =
  (match Chaos.parse_spec "" with
   | Ok [] -> ()
   | Ok _ -> Alcotest.fail "empty spec should be the empty list"
   | Error e -> Alcotest.fail e);
  (match Chaos.parse_spec "solver-unknown:0.5,worker-crash" with
   | Ok [ (Chaos.Solver_unknown, r); (Chaos.Worker_crash, r') ] ->
     Alcotest.(check (float 1e-9)) "explicit rate" 0.5 r;
     Alcotest.(check (float 1e-9)) "default rate" 1.0 r'
   | Ok _ -> Alcotest.fail "unexpected spec shape"
   | Error e -> Alcotest.fail e);
  (* Round-trip through the printer. *)
  (match Chaos.parse_spec "frame-corrupt:0.25,checkpoint-corrupt" with
   | Ok spec ->
     (match Chaos.parse_spec (Chaos.spec_to_string spec) with
      | Ok spec' ->
        Alcotest.(check bool) "round-trip" true (spec = spec')
      | Error e -> Alcotest.fail e)
   | Error e -> Alcotest.fail e);
  (match Chaos.parse_spec "no-such-point:0.5" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown point should be rejected");
  match Chaos.parse_spec "solver-unknown:1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rate outside [0,1] should be rejected"

let draws n p = List.init n (fun _ -> Chaos.fire p)

let test_streams_deterministic () =
  let spec = [ (Chaos.Solver_unknown, 0.5); (Chaos.Worker_crash, 0.5) ] in
  let a =
    with_chaos ~seed:42 spec (fun () -> draws 64 Chaos.Solver_unknown)
  in
  let b =
    with_chaos ~seed:42 spec (fun () -> draws 64 Chaos.Solver_unknown)
  in
  Alcotest.(check bool) "same seed, same decisions" true (a = b);
  let c =
    with_chaos ~seed:43 spec (fun () -> draws 64 Chaos.Solver_unknown)
  in
  Alcotest.(check bool) "different seed, different decisions" true (a <> c);
  (* Streams are per-point: drawing one point does not disturb another. *)
  let solver_then_crash =
    with_chaos ~seed:42 spec (fun () ->
        let s = draws 64 Chaos.Solver_unknown in
        (s, draws 64 Chaos.Worker_crash))
  in
  let crash_then_solver =
    with_chaos ~seed:42 spec (fun () ->
        let c = draws 64 Chaos.Worker_crash in
        (draws 64 Chaos.Solver_unknown, c))
  in
  Alcotest.(check bool) "per-point streams independent" true
    (solver_then_crash = crash_then_solver)

let test_counts_accounting () =
  with_chaos ~seed:1 [ (Chaos.Solver_unknown, 0.5) ] (fun () ->
      let fired =
        List.length (List.filter Fun.id (draws 100 Chaos.Solver_unknown))
      in
      Alcotest.(check bool) "a 0.5 rate fires sometimes" true (fired > 0);
      Alcotest.(check int) "counts record every injection" fired
        (List.assoc "solver-unknown" (Chaos.counts ()));
      Alcotest.(check int) "total sums the counts" fired (Chaos.total ());
      let before = Chaos.counts () in
      ignore (draws 50 Chaos.Solver_unknown);
      let delta = Chaos.sub_counts (Chaos.counts ()) before in
      Alcotest.(check int) "sub_counts isolates the delta"
        (Chaos.total () - fired)
        (chaos_total delta);
      Alcotest.(check int) "add_counts merges back" (Chaos.total ())
        (chaos_total (Chaos.add_counts before delta)));
  Alcotest.(check bool) "disarmed injector never fires" false
    (List.exists Fun.id (draws 50 Chaos.Solver_unknown))

(* ------------------------------------------------------------------ *)
(* Solver retries heal injected Unknowns                               *)

let test_retry_heals_injected_unknown () =
  with_retries 8 (fun () ->
      with_chaos ~seed:5 [ (Chaos.Solver_unknown, 0.25) ] (fun () ->
          let r = Verify.run_test (scenario ()) "t1" in
          let e = r.Report.engine in
          Alcotest.(check int) "no path lost to injected unknowns" 0
            e.Engine.paths_unknown;
          Alcotest.(check bool) "run still exhaustive" true
            e.Engine.exhausted;
          Alcotest.(check bool) "retries actually fired" true
            (e.Engine.solver_stats.Solver.Stats.sat_retries > 0);
          Alcotest.(check bool) "injections accounted in the report" true
            (chaos_total e.Engine.resilience.Engine.res_chaos > 0)))

(* ------------------------------------------------------------------ *)
(* Counterexample validation                                           *)

(* Clean engine + solver: every reported error's model replays to the
   same failure, so no error is demoted.  This is the self-check the
   design leans on: nonzero unvalidated means the verifier is suspect. *)
let check_clean_validation strategy name () =
  let r = Verify.run_test (scenario ~strategy ()) name in
  Alcotest.(check int) "zero unvalidated errors" 0
    r.Report.engine.Engine.resilience.Engine.res_unvalidated;
  List.iter
    (fun (e : Error.t) ->
       Alcotest.(check bool) (e.Error.site ^ " validated") true
         e.Error.validated)
    r.Report.engine.Engine.errors

let strategies =
  [ ("dfs", Search.Dfs);
    ("bfs", Search.Bfs);
    ("random", Search.Random_path 42);
    ("cover-new", Search.Cover_new) ]

let clean_validation_cases =
  List.concat_map
    (fun (sname, strategy) ->
       List.map
         (fun name ->
            ( Printf.sprintf "validation: clean %s/%s" sname name,
              `Slow,
              check_clean_validation strategy name ))
         [ "t1"; "t2"; "t3"; "t4"; "t5" ])
    strategies

let e8 v = Expr.int ~width:8 v

(* A testbench whose error cannot be reproduced: the check exists only
   for the first [threshold] executions, so by the time validation
   replays the counterexample the failure is gone — exactly the shape
   of a verifier (or flaky-model) bug that validation is meant to
   catch. *)
let test_unvalidated_flagged () =
  let calls = ref 0 in
  let threshold = ref max_int in
  let body () =
    incr calls;
    let x = Engine.fresh "x" 8 in
    if !calls <= !threshold then
      Engine.check ~site:"flaky:check" (Expr.ult x (e8 16))
  in
  (* Discover how many executions exploration needs... *)
  let rep0 =
    Engine.Session.run ~label:"flaky"
      (Engine.Session.make ~validate:false ())
      body
  in
  Alcotest.(check int) "flaky body errors once" 1
    (List.length rep0.Engine.errors);
  (* ...then make the check evaporate exactly when validation replays. *)
  threshold := !calls;
  calls := 0;
  let rep =
    Engine.Session.run ~label:"flaky" (Engine.Session.make ()) body
  in
  (match rep.Engine.errors with
   | [ e ] ->
     Alcotest.(check bool) "error demoted to unvalidated" false
       e.Error.validated
   | _ -> Alcotest.fail "expected exactly one error");
  Alcotest.(check int) "resilience counts the demotion" 1
    rep.Engine.resilience.Engine.res_unvalidated

let test_validated_error_confirmed () =
  let body () =
    let x = Engine.fresh "x" 8 in
    Engine.check ~site:"stable:check" (Expr.ult x (e8 16))
  in
  let rep =
    Engine.Session.run ~label:"stable" (Engine.Session.make ()) body
  in
  (match rep.Engine.errors with
   | [ e ] ->
     Alcotest.(check bool) "stable error stays validated" true
       e.Error.validated
   | _ -> Alcotest.fail "expected exactly one error");
  Alcotest.(check int) "no demotions" 0
    rep.Engine.resilience.Engine.res_unvalidated

(* ------------------------------------------------------------------ *)
(* Checkpoint integrity                                                *)

let mk_ck label =
  { Checkpoint.label; strategy = "dfs";
    frontier = [ ("root", [| Decision.Dir true |]) ];
    leases = [];
    visits = [ ("root", 1) ]; coverage = Obs.Coverage.zero; rng = 7L; paths = 1; completed = 1;
    errored = 0; infeasible = 0; unknown = 0; instructions = 3;
    wall_time = 0.1; solver = Solver.Stats.zero; errors = [];
    degraded = false; stop_reason = None }

let with_ck_file f =
  let path = Filename.temp_file "symsysc_chaos_ck" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Checkpoint.backup_path path ])
    (fun () -> f path)

let clobber path =
  let oc = open_out path in
  output_string oc "{ torn garbage";
  close_out oc

let test_checkpoint_bak_fallback () =
  with_ck_file (fun path ->
      Checkpoint.save path (mk_ck "one");
      Checkpoint.save path (mk_ck "two");
      (* The rotation now holds "one"; tear the primary. *)
      clobber path;
      let f0 = Checkpoint.fallbacks () in
      (match Checkpoint.load path with
       | Ok ck ->
         Alcotest.(check string) "backup snapshot served" "one"
           ck.Checkpoint.label
       | Error e -> Alcotest.fail ("fallback failed: " ^ e));
      Alcotest.(check int) "fallback counted" (f0 + 1)
        (Checkpoint.fallbacks ());
      (* Both copies gone: load must fail, not fabricate state. *)
      clobber (Checkpoint.backup_path path);
      match Checkpoint.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "load of two torn files should fail")

let test_checkpoint_crc_rejects_flip () =
  with_ck_file (fun path ->
      Checkpoint.save path (mk_ck "good");
      (match Checkpoint.load path with
       | Ok ck ->
         Alcotest.(check string) "clean round-trip" "good"
           ck.Checkpoint.label
       | Error e -> Alcotest.fail e);
      (* Flip one payload byte; the envelope CRC must notice.  (No .bak
         exists for a first save, so the load has nothing to fall back
         to.) *)
      let ic = open_in_bin path in
      let doc = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let i =
        match String.index_opt doc 'd' with
        | Some i -> i
        | None -> String.length doc / 2
      in
      let doc = Bytes.of_string doc in
      Bytes.set doc i 'X';
      let oc = open_out_bin path in
      output_bytes oc doc;
      close_out oc;
      match Checkpoint.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bit flip should fail the CRC")

let test_chaos_corrupts_checkpoint_write () =
  with_ck_file (fun path ->
      Checkpoint.save path (mk_ck "good");
      with_chaos ~seed:3 [ (Chaos.Checkpoint_corrupt, 1.0) ] (fun () ->
          Checkpoint.save path (mk_ck "doomed");
          Alcotest.(check int) "injection accounted" 1
            (List.assoc "checkpoint-corrupt" (Chaos.counts ())));
      match Checkpoint.load path with
      | Ok ck ->
        Alcotest.(check string)
          "rotation rescues the previous snapshot" "good"
          ck.Checkpoint.label
      | Error e -> Alcotest.fail ("expected .bak fallback: " ^ e))

(* ------------------------------------------------------------------ *)
(* Lease expiry and poison-unit quarantine                             *)

let unit_ok ?(forks = []) () =
  { Pool.outcome = Pool.Unit_completed; forks; errors = []; visits = [];
    instructions = 1; degraded = false; solver = Solver.Stats.zero;
    requeue = None; chaos = [];
    coverage = Obs.Coverage.zero; profile = Obs.Profile.zero;
    events = []; events_dropped = 0 }

(* A SIGSTOPped worker sends no result and never exits.  Its lease
   expires: the unit is requeued without blame, the worker gets no new
   unit and is replaced, and shutdown kills and reaps it.  The stopped
   worker leaves its pid in the flag file; the regrant finds the file
   filled and completes.  The run is forked, so that a pool wedged on
   the stopped worker fails at the deadline instead of hanging. *)
let test_expired_lease_replaces_stopped_worker () =
  let run workers () =
    let flag = Filename.temp_file "symsysc_stop" ".pid" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove flag with Sys_error _ -> ())
      (fun () ->
         let config =
           { Pool.workers; strategy = Search.Dfs; limits = Engine.no_limits;
             stop_after_errors = None; label = "stop-test";
             max_unit_crashes = 3; listen = None; lease_ms = Some 200;
             cookie = None }
         in
         let exec ~prefix =
           match Array.to_list prefix with
           | [] ->
             unit_ok
               ~forks:
                 [ ("root", [| Decision.Dir false |]);
                   ("root", [| Decision.Dir true |]) ]
               ()
           | [ Decision.Dir true ] when (Unix.stat flag).Unix.st_size = 0 ->
             Out_channel.with_open_text flag (fun oc ->
                 output_string oc (string_of_int (Unix.getpid ())));
             Unix.kill (Unix.getpid ()) Sys.sigstop;
             unit_ok ()
           | _ -> unit_ok ()
         in
         let r = Pool.run config ~exec () in
         let pid =
           int_of_string (In_channel.with_open_text flag In_channel.input_all)
         in
         let reaped =
           match Unix.kill pid 0 with
           | () -> false
           | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
         in
         Printf.sprintf
           "lease expired %b, worker deaths %d, quarantined %d, \
            completed %d, exhausted %b, stopped worker reaped %b"
           (r.Pool.r_lease_expired >= 1) r.Pool.r_worker_deaths
           r.Pool.r_quarantined r.Pool.r_completed r.Pool.r_exhausted
           reaped)
  in
  List.iter
    (fun workers ->
       Alcotest.(check (option string))
         (Printf.sprintf "%d workers: finished within 20 s" workers)
         (Some
            "lease expired true, worker deaths 0, quarantined 0, completed 3, \
             exhausted true, stopped worker reaped true")
         (Test_distributed.within ~seconds:20.0 (run workers)))
    [ 1; 2 ]

(* A unit that kills every worker it touches must be dropped after
   max_unit_crashes, not retried until the respawn cap burns out. *)
let test_poison_unit_quarantined () =
  let config =
    { Pool.workers = 2; strategy = Search.Dfs; limits = Engine.no_limits;
      stop_after_errors = None; label = "poison-test"; max_unit_crashes = 2;
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
    | [ Decision.Dir true ] ->
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      assert false
    | _ -> unit_ok ()
  in
  let r = Pool.run config ~exec () in
  Alcotest.(check int) "poison unit quarantined once" 1 r.Pool.r_quarantined;
  Alcotest.(check int) "it was allowed max_unit_crashes kills" 2
    r.Pool.r_worker_deaths;
  Alcotest.(check int) "the healthy units still completed" 2
    r.Pool.r_completed;
  Alcotest.(check bool) "a quarantined path forfeits exhaustiveness" false
    r.Pool.r_exhausted

(* A forked worker that loses its link exits normally; the unit it
   held is requeued without being charged as a crash, so even a budget
   of one crash quarantines nothing under link faults alone. *)
let test_lost_link_is_not_a_crash () =
  let config =
    { Pool.workers = 2; strategy = Search.Dfs; limits = Engine.no_limits;
      stop_after_errors = None; label = "link-test"; max_unit_crashes = 1;
      listen = None; lease_ms = None; cookie = None }
  in
  let r =
    with_chaos ~seed:5 [ (Chaos.Conn_drop, 0.4); (Chaos.Frame_shear, 0.4) ]
      (fun () -> Pool.run config ~exec:Test_distributed.nine_units ())
  in
  Alcotest.(check bool) "link faults took workers down" true
    (r.Pool.r_worker_deaths >= 1);
  (* Every death is a link fault on a worker holding a unit; a
     replacement that died before its first unit would show up here. *)
  Alcotest.(check int) "every death requeued the unit in flight"
    r.Pool.r_worker_deaths r.Pool.r_requeued;
  Alcotest.(check int) "no unit quarantined" 0 r.Pool.r_quarantined;
  Alcotest.(check int) "every unit completed" 9 r.Pool.r_completed;
  Alcotest.(check bool) "run still counts as exhaustive" true
    r.Pool.r_exhausted

(* ------------------------------------------------------------------ *)
(* SIGTERM parity with SIGINT                                          *)

let test_sigterm_sets_interrupt () =
  Budget.install_signal_handlers ();
  Budget.clear_interrupt ();
  Fun.protect ~finally:Budget.clear_interrupt (fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* OCaml delivers signals at safe points; spin briefly. *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      while
        (not (Budget.interrupted ())) && Unix.gettimeofday () < deadline
      do
        ignore (Sys.opaque_identity (ref ()))
      done;
      Alcotest.(check bool) "SIGTERM sets the interrupt flag" true
        (Budget.interrupted ()))

(* ------------------------------------------------------------------ *)
(* Acceptance: chaos campaign converges to the clean run               *)

(* Every point armed at once (a hung worker is cleared only by its
   lease expiring, hence the lease).  Rates are low enough that
   retries/requeues heal every injection; the spec/seed is fixed so the
   campaign is reproducible. *)
let campaign_spec =
  [ (Chaos.Solver_unknown, 0.1);
    (Chaos.Solver_stall, 0.02);
    (Chaos.Worker_crash, 0.05);
    (Chaos.Worker_hang, 0.02);
    (Chaos.Frame_truncate, 0.02);
    (Chaos.Frame_corrupt, 0.02) ]

let bug_sites (r : Report.t) =
  List.sort_uniq compare
    (List.map
       (fun (err : Error.t) ->
          (err.Error.site, Error.kind_to_string err.Error.kind))
       r.Report.engine.Engine.errors)

let check_campaign_equiv name () =
  let clean = Verify.run_test (scenario ()) name in
  List.iter
    (fun workers ->
       let chaotic =
         with_retries 8 (fun () ->
             with_chaos ~seed:11 campaign_spec (fun () ->
                 Verify.run_test
                   (scenario ~workers ~lease_ms:1000 ())
                   name))
       in
       let res = chaotic.Report.engine.Engine.resilience in
       (* The acceptance property: the faulted campaign converges to
          the clean run's verdict and bug set. *)
       Alcotest.(check string)
         (Printf.sprintf "verdict equals clean at %d workers" workers)
         (Report.verdict_to_string clean.Report.verdict)
         (Report.verdict_to_string chaotic.Report.verdict);
       Alcotest.(check (list (pair string string)))
         (Printf.sprintf "bug sites equal clean at %d workers" workers)
         (bug_sites clean) (bug_sites chaotic);
       Alcotest.(check int)
         (Printf.sprintf "no unvalidated errors at %d workers" workers)
         0 res.Engine.res_unvalidated;
       (* Quarantine is the one sanctioned loss (a poison-looking unit
          dropped after repeated worker deaths); without it the whole
          fingerprint — path totals, instructions, exhaustiveness —
          must match the clean run. *)
       if res.Engine.res_quarantined = 0 then
         Alcotest.(check string)
           (Printf.sprintf "full fingerprint equals clean at %d workers"
              workers)
           (fingerprint clean) (fingerprint chaotic))
    [ 1; 4 ]

let campaign_cases =
  List.map
    (fun name ->
       ( Printf.sprintf "chaos campaign equivalence: %s" name,
         `Slow,
         check_campaign_equiv name ))
    [ "t1"; "t2"; "t3"; "t4"; "t5" ]

let suite =
  [
    ("chaos: spec parsing", `Quick, test_spec_parse);
    ("chaos: streams deterministic per seed", `Quick,
     test_streams_deterministic);
    ("chaos: injection accounting", `Quick, test_counts_accounting);
    ("chaos: retries heal injected unknowns", `Quick,
     test_retry_heals_injected_unknown);
    ("validation: flaky error demoted", `Quick, test_unvalidated_flagged);
    ("validation: stable error confirmed", `Quick,
     test_validated_error_confirmed);
    ("checkpoint: torn primary falls back to .bak", `Quick,
     test_checkpoint_bak_fallback);
    ("checkpoint: CRC rejects a bit flip", `Quick,
     test_checkpoint_crc_rejects_flip);
    ("checkpoint: chaos-corrupted write rescued by rotation", `Quick,
     test_chaos_corrupts_checkpoint_write);
    ("pool: an expired lease replaces a SIGSTOPped worker", `Quick,
     test_expired_lease_replaces_stopped_worker);
    ("pool: poison unit quarantined", `Quick, test_poison_unit_quarantined);
    ("budget: SIGTERM interrupts gracefully", `Quick,
     test_sigterm_sets_interrupt);
  ]
  @ clean_validation_cases @ campaign_cases
  @ [ ("pool: a lost link is not a unit crash", `Quick,
       test_lost_link_is_not_a_crash) ]
