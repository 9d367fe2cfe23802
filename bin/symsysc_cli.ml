(* Command-line front end: run the paper's symbolic tests and regenerate
   its tables at any scale.

     symsysc run T1 --variant original
     symsysc run T5 --variant fixed --fault IF3 --interrupts 16
     symsysc table1 --interrupts 51 --t5-len 1000
     symsysc table2 --interrupts 16
     symsysc list *)

open Cmdliner

module Engine = Symex.Engine
module Error = Symex.Error
module Config = Plic.Config
module Fault = Plic.Fault

(* ---- shared options ---- *)

let interrupts =
  let doc = "Number of interrupt sources (FE310: 51)." in
  Arg.(value & opt int 8 & info [ "interrupts"; "n" ] ~docv:"N" ~doc)

let t5_len =
  let doc = "Upper bound of T5's symbolic write length (paper: 1000)." in
  Arg.(value & opt int 16 & info [ "t5-len" ] ~docv:"BYTES" ~doc)

let max_paths =
  let doc = "Stop exploration after this many paths." in
  Arg.(value & opt (some int) None & info [ "max-paths" ] ~docv:"N" ~doc)

let max_seconds =
  let doc =
    "Wall-clock deadline for exploration in seconds; on expiry the run \
     stops gracefully (partial report, final checkpoint)."
  in
  Arg.(value & opt (some float) None
       & info [ "deadline-s"; "max-seconds" ] ~docv:"S" ~doc)

let max_solver_conflicts =
  let doc =
    "Per-query SAT conflict budget; a query exceeding it kills only the \
     current path (reported as non-exhaustive)."
  in
  Arg.(value & opt (some int) None
       & info [ "max-solver-conflicts" ] ~docv:"N" ~doc)

let solver_timeout_ms =
  let doc =
    "Per-query solver deadline in milliseconds — a true per-query \
     ceiling shared by bit-blasting, the CDCL loop and every \
     --solver-retries attempt; an over-deadline query kills only the \
     current path."
  in
  Arg.(value & opt (some int) None
       & info [ "solver-timeout-ms" ] ~docv:"MS" ~doc)

let max_memory_mb =
  let doc =
    "Stop exploration gracefully when the OCaml heap exceeds this many \
     megabytes."
  in
  Arg.(value & opt (some int) None & info [ "max-memory-mb" ] ~docv:"MB" ~doc)

let seed =
  let doc =
    "Seed for the random search strategy (selects --strategy \
     random:$(docv) unless --strategy is given explicitly; recorded in \
     the report so campaigns are reproducible)."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let workers =
  let doc =
    "Explore with $(docv) parallel worker processes: a master owns the \
     path frontier and shares work units with forked workers, each \
     running a private solver.  Verdicts, bug sites and the exhausted \
     flag match a single-worker run of the same session; path totals \
     match when the run is exhaustive.  Composes with \
     --checkpoint-out/--resume-from and --seed."
  in
  Arg.(value & opt int 1 & info [ "workers"; "j" ] ~docv:"N" ~doc)

let solver_cache_cap =
  let doc =
    "Capacity of the solver's LRU query cache in entries (0 = unbounded; \
     default 65536).  Evictions are counted in the solver stats."
  in
  Arg.(value & opt (some int) None
       & info [ "solver-cache-cap" ] ~docv:"N" ~doc)

let no_independence =
  let doc =
    "Disable constraint-independence slicing in the solver (solve every \
     query as one monolithic constraint set)."
  in
  Arg.(value & flag & info [ "no-independence" ] ~doc)

let no_incremental =
  let doc =
    "Disable incremental scope solving (rebuild the SAT instance from \
     scratch for every query instead of reusing retained instances \
     across the decision tree).  Verdicts and bug sites are identical \
     either way; counterexamples and concretized values can differ, \
     and so can solving cost."
  in
  Arg.(value & flag & info [ "no-incremental" ] ~doc)

let heartbeat_ms =
  let doc =
    "Worker heartbeat period in milliseconds (with --workers > 1): \
     workers emit periodic liveness frames and the master's watchdog \
     kills and replaces a worker silent for max(8 heartbeats, 1s), \
     re-queueing its unit.  Without it a wedged (e.g. SIGSTOPped) \
     worker blocks the run forever."
  in
  Arg.(value & opt (some int) None & info [ "heartbeat-ms" ] ~docv:"MS" ~doc)

(* HOST:PORT parsing shared by --listen and --connect.  The split is on
   the last ':' so a future bracketed-IPv6 host keeps its colons. *)
let hostport_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "%S is not HOST:PORT" s))
    | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt port with
       | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (host, p)
       | _ -> Error (`Msg (Printf.sprintf "%S is not HOST:PORT" s)))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let listen =
  let doc =
    "Accept remote TCP worker pools on $(docv) (port 0 picks a free \
     port; the bound address is printed to stderr).  Remote workers \
     dial in with --connect and are dispatched to exactly like local \
     --workers processes; with --listen, --workers 0 is allowed (remote \
     peers do all the work).  The final report is equivalent to a \
     local run of the same session regardless of worker placement."
  in
  Arg.(value & opt (some hostport_conv) None
       & info [ "listen" ] ~docv:"HOST:PORT" ~doc)

let lease_ms =
  let doc =
    "Work-unit lease deadline in milliseconds: a unit granted to a \
     peer that stays silent this long is re-queued for another peer \
     (the holder is not killed; if its result arrives late it is \
     dropped first-result-wins).  Bounds the stall any lost or wedged \
     peer can cause.  Heartbeats renew leases, so set --lease-ms well \
     above --heartbeat-ms."
  in
  Arg.(value & opt (some int) None & info [ "lease-ms" ] ~docv:"MS" ~doc)

let connect =
  let doc =
    "Run as a remote worker pool for a master started with --listen on \
     $(docv): serve its work units with --workers processes until it \
     stops us, reconnecting with seeded exponential backoff when the \
     connection drops.  SIGTERM drains gracefully (current unit \
     finishes and is flushed).  Scale, variant, fault and strategy \
     flags must match the master's — mismatches are rejected in the \
     registration handshake."
  in
  Arg.(value & opt (some hostport_conv) None
       & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

let backoff_seed =
  let doc =
    "Seed of the reconnect backoff jitter (with --connect); the delay \
     schedule is a pure function of (seed, slot, attempt), so outage \
     recovery is reproducible."
  in
  Arg.(value & opt int 0 & info [ "backoff-seed" ] ~docv:"N" ~doc)

let solver_retries =
  let doc =
    "Retry an Unknown solver query up to $(docv) times with a restarted, \
     perturbed SAT search (fresh branching order and phases) before \
     giving the path up as unknown.  Heals transient resource-limit \
     blowups; retries are counted in the solver stats."
  in
  Arg.(value & opt int 2 & info [ "solver-retries" ] ~docv:"N" ~doc)

let no_validate =
  let doc =
    "Skip counterexample validation (by default every reported error's \
     model is concretely re-executed solver-free and errors whose \
     replay disagrees are marked UNVALIDATED)."
  in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

let chaos_spec =
  let parse s =
    match Chaos.parse_spec s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print ppf spec = Format.pp_print_string ppf (Chaos.spec_to_string spec) in
  let chaos_conv = Arg.conv (parse, print) in
  let doc =
    "Arm the verifier's own fault injector with \
     \"point:rate,point:rate,...\" (rates in [0,1], default 1): e.g. \
     \"solver-unknown:0.05,worker-crash:0.02\".  Points: solver-unknown, \
     solver-stall, worker-hang, worker-crash, frame-truncate, \
     frame-corrupt, checkpoint-corrupt, conn-drop, conn-stall, \
     frame-shear, dup-result, journal-truncate, job-crash, \
     service-kill.  Injections are deterministic for a fixed \
     --chaos-seed and are accounted in the report."
  in
  Arg.(value & opt (some chaos_conv) None
       & info [ "chaos-spec" ] ~docv:"SPEC" ~doc)

let chaos_seed =
  let doc = "Seed for the --chaos-spec injection streams." in
  Arg.(value & opt int 0 & info [ "chaos-seed" ] ~docv:"N" ~doc)

let strategy =
  let parse s =
    match Symex.Search.strategy_of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf st =
    Format.pp_print_string ppf (Symex.Search.strategy_to_string st)
  in
  let strategy_conv = Arg.conv (parse, print) in
  let doc = "Search strategy: dfs (default), bfs, random[:seed], cover-new." in
  Arg.(value & opt (some strategy_conv) None
       & info [ "strategy" ] ~docv:"S" ~doc)

(* Every command builds exactly one Engine.Session (inside
   Verify.scenario) from these flags; run/table layers share it rather
   than reassembling config bundles. *)
let scenario_term =
  let make interrupts t5_len max_paths max_seconds max_solver_conflicts
      solver_timeout_ms max_memory_mb seed solver_cache_cap no_independence
      no_incremental strategy workers heartbeat_ms listen lease_ms
      solver_retries no_validate chaos_spec chaos_seed =
    Smt.Solver.set_independence (not no_independence);
    Smt.Solver.set_incremental (not no_incremental);
    Option.iter (fun cap -> Smt.Solver.set_cache_capacity ~query:cap ())
      solver_cache_cap;
    Smt.Solver.set_retries solver_retries;
    (match chaos_spec with
     | Some spec -> Chaos.configure ~seed:chaos_seed spec
     | None -> Chaos.disable ());
    (* Budget stops are delivered through the interrupt flag's siblings;
       make SIGINT/SIGTERM graceful for every command. *)
    Symex.Budget.install_signal_handlers ();
    Symex.Budget.clear_interrupt ();
    let listen =
      Option.map
        (fun (host, port) ->
           let l = Symex.Transport.listen ~host ~port () in
           let bound_host, bound_port = Symex.Transport.listener_addr l in
           Format.eprintf "[pool] listening on %s:%d@." bound_host bound_port;
           l)
        listen
    in
    Symsysc.Verify.scenario ~num_sources:interrupts ~t5_max_len:t5_len
      ?max_paths ?max_seconds ?max_solver_conflicts ?solver_timeout_ms
      ?max_memory_mb ?seed ?strategy ~workers ?heartbeat_ms ?listen ?lease_ms
      ~validate:(not no_validate) ()
  in
  Term.(
    const make $ interrupts $ t5_len $ max_paths $ max_seconds
    $ max_solver_conflicts $ solver_timeout_ms $ max_memory_mb $ seed
    $ solver_cache_cap $ no_independence $ no_incremental $ strategy
    $ workers $ heartbeat_ms $ listen $ lease_ms $ solver_retries
    $ no_validate $ chaos_spec $ chaos_seed)

(* ---- observability options ---- *)

let trace_out =
  let doc =
    "Write a Chrome trace-event JSON file of the run (open it in \
     Perfetto or about://tracing)."
  in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc)

let events_out =
  let doc = "Write the raw telemetry event stream as JSONL." in
  Arg.(value & opt (some string) None
       & info [ "events-out" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Write a Prometheus-style text dump of the metrics registry after \
     the run."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let stats_interval =
  let doc =
    "Print a live stats line (paths/s, instr/s, frontier, solver and \
     cache rates) to stderr every $(docv) finished paths."
  in
  let pos_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "invalid interval %S, expected a positive path count" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some pos_int) None
       & info [ "stats-interval" ] ~docv:"N" ~doc)

let top_flag =
  let doc =
    "Live TTY dashboard on stderr (redraws in place): paths/s, frontier \
     depth, solver and cache rates, and with --workers > 1 a per-worker \
     busy/idle line with heartbeat ages.  Overrides --stats-interval."
  in
  Arg.(value & flag & info [ "top" ] ~doc)

type obs_opts = {
  trace_out : string option;
  events_out : string option;
  metrics_out : string option;
  stats_interval : int option;
  top : bool;
}

let obs_term =
  let make trace_out events_out metrics_out stats_interval top =
    { trace_out; events_out; metrics_out; stats_interval; top }
  in
  Term.(
    const make $ trace_out $ events_out $ metrics_out $ stats_interval
    $ top_flag)

(* Run [f] with the requested telemetry consumers installed; write the
   output files afterwards.  [record] lets the caller publish final
   metrics (e.g. the run report) before the registry is dumped. *)
let with_obs (o : obs_opts) ?(record = fun _ -> ()) f =
  let recorder =
    if o.trace_out <> None || o.events_out <> None then
      Some (Obs.Export.recorder ())
    else None
  in
  let bridge =
    if o.metrics_out <> None then Some (Obs.Export.metrics_bridge ())
    else None
  in
  if o.top then Obs.Progress.configure_top ()
  else
    (match o.stats_interval with
     | Some n -> Obs.Progress.configure ~interval:n ()
     | None -> ());
  let finish () =
    Obs.Progress.disable ();
    Option.iter Obs.Export.stop recorder;
    Option.iter Obs.Sink.unsubscribe bridge
  in
  let result = Fun.protect ~finally:finish f in
  (match recorder with
   | Some r ->
     (* Tagged save: a -j N run merges worker event streams into this
        recorder, and the tagged serializers give each source its own
        named Perfetto track ("master", "worker 0", ...). *)
     let tagged = Obs.Export.tagged_events r in
     (match Obs.Export.dropped r, Obs.Export.remote_dropped r with
      | 0, 0 -> ()
      | local, 0 ->
        Format.eprintf "[obs] warning: %d events dropped (buffer limit)@."
          local
      | local, remote ->
        Format.eprintf
          "[obs] warning: %d events dropped (%d at the recorder, %d in \
           worker forwarding buffers)@."
          (local + remote) local remote);
     let save what path write =
       try
         write path;
         Format.eprintf "[obs] %s (%d events) -> %s@." what
           (List.length tagged) path
       with Sys_error msg ->
         Format.eprintf "symsysc: cannot write %s: %s@." what msg
     in
     Option.iter
       (fun path ->
          save "chrome trace" path (Obs.Export.save_chrome_tagged tagged))
       o.trace_out;
     Option.iter
       (fun path ->
          save "event log" path (Obs.Export.save_jsonl_tagged tagged))
       o.events_out
   | None -> ());
  record result;
  Option.iter
    (fun path ->
       try
         Obs.Metrics.save path;
         Format.eprintf "[obs] metrics -> %s@." path
       with Sys_error msg ->
         Format.eprintf "symsysc: cannot write metrics: %s@." msg)
    o.metrics_out;
  result

(* ---- run ---- *)

let variant =
  let variant_conv =
    Arg.enum [ ("original", Config.Original); ("fixed", Config.Fixed) ]
  in
  let doc = "PLIC variant: the paper's buggy $(b,original) or $(b,fixed)." in
  Arg.(value & opt variant_conv Config.Original
       & info [ "variant" ] ~docv:"V" ~doc)

let faults =
  let parse s =
    match Fault.of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown fault %S" s))
  in
  let print ppf f = Format.pp_print_string ppf (Fault.to_string f) in
  let fault_conv = Arg.conv (parse, print) in
  let doc = "Inject a fault (IF1..IF6); repeatable." in
  Arg.(value & opt_all fault_conv [] & info [ "fault" ] ~docv:"IFx" ~doc)

let test_name =
  let doc = "Test to run: T1..T5." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TEST" ~doc)

let coverage_flag =
  let doc = "Print branch-site coverage after the run." in
  Arg.(value & flag & info [ "coverage" ] ~doc)

let solver_stats_flag =
  let doc = "Print the per-stage solver breakdown after the run." in
  Arg.(value & flag & info [ "solver-stats" ] ~doc)

let profile_flag =
  let doc =
    "Print the top-$(docv) solver-time attribution buckets — (query \
     origin, pipeline stage) keys ranked by self time — after the run \
     (default K: 10)."
  in
  Arg.(value & opt ~vopt:(Some 10) (some int) None
       & info [ "profile" ] ~docv:"K" ~doc)

(* ---- resilience options ---- *)

let checkpoint_out =
  let doc =
    "Write a resumable exploration checkpoint to $(docv): periodically, \
     on budget exhaustion and on SIGINT/SIGTERM (atomically, so the \
     file is never torn)."
  in
  Arg.(value & opt (some string) None
       & info [ "checkpoint-out" ] ~docv:"FILE" ~doc)

let checkpoint_every_s =
  let doc = "Seconds between periodic checkpoints (with --checkpoint-out)." in
  Arg.(value & opt float 30.0 & info [ "checkpoint-every-s" ] ~docv:"S" ~doc)

let resume_from =
  let doc =
    "Resume exploration from a checkpoint written by --checkpoint-out. \
     The test and --strategy must match the checkpointed run; the \
     resumed run reaches the same verdict, path totals and bug sites \
     as an uninterrupted one."
  in
  Arg.(value & opt (some string) None
       & info [ "resume-from" ] ~docv:"FILE" ~doc)

let report_out =
  let doc =
    "Write the final report as JSON to $(docv) (error sites sorted, so \
     reports of equivalent runs diff cleanly)."
  in
  Arg.(value & opt (some string) None
       & info [ "report-out" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run scenario variant faults coverage solver_stats profile obs
      checkpoint_out checkpoint_every_s resume_from report_out connect
      backoff_seed name =
    match Symsysc.Tests.by_name name with
    | None -> `Error (false, "unknown test " ^ name)
    | Some _ ->
      let label = String.uppercase_ascii name in
      let params =
        Symsysc.Tests.with_faults faults
          (Symsysc.Tests.with_variant variant scenario.Symsysc.Verify.params)
      in
      (* The handshake cookie must cover the variant/fault rewrites made
         here, not just the scenario-level scale, so recompute it from
         the final parameter set on both sides of the socket. *)
      let scenario =
        { Symsysc.Verify.params;
          session =
            { scenario.Symsysc.Verify.session with
              Engine.Session.cookie =
                Some (Symsysc.Verify.params_signature params) } }
      in
      match connect with
      | Some (host, port) ->
        let workers =
          max 1 scenario.Symsysc.Verify.session.Engine.Session.workers
        in
        let code =
          Symsysc.Verify.serve ~host ~port ~workers ~backoff_seed scenario
            label
        in
        if code = 0 then `Ok () else `Error (false, "worker pool failed")
      | None ->
      let resume =
        Option.map
          (fun path ->
             match Symex.Checkpoint.load path with
             | Ok ck -> ck
             | Error msg ->
               Format.eprintf "symsysc: cannot resume from %s: %s@." path msg;
               exit 2)
          resume_from
      in
      let checkpoint =
        Option.map
          (fun path ->
             { Symex.Checkpoint.write = Symex.Checkpoint.save path;
               every_s = checkpoint_every_s })
          checkpoint_out
      in
      (* Inject the per-run flags into the one session every layer
         shares; Verify.run_test does the rest. *)
      let scenario =
        { Symsysc.Verify.params;
          session =
            { scenario.Symsysc.Verify.session with
              Engine.Session.resume; checkpoint } }
      in
      let report =
        with_obs obs ~record:Symsysc.Report.record_metrics (fun () ->
            Symsysc.Verify.run_test scenario label)
      in
      (match report.Symsysc.Report.engine.Engine.stop_reason with
       | Some reason ->
         Format.eprintf "symsysc: exploration stopped early (%s)%s@."
           (Symex.Budget.reason_to_string reason)
           (match checkpoint_out with
            | Some path -> Printf.sprintf "; resume with --resume-from %s" path
            | None -> "")
       | None -> ());
      Option.iter
        (fun path ->
           try
             Symsysc.Report.save_json path report;
             Format.eprintf "[report] -> %s@." path
           with Sys_error msg ->
             Format.eprintf "symsysc: cannot write report: %s@." msg)
        report_out;
      Format.printf "%a@." Symsysc.Report.pp report;
      if report.Symsysc.Report.engine.Engine.coverage <> Obs.Coverage.zero
      then Format.printf "%a" Symsysc.Report.pp_coverage report;
      if solver_stats then
        Format.printf "@.%a@." Symsysc.Report.pp_solver_breakdown report;
      Option.iter
        (fun k ->
           Format.printf "@.%a" (Symsysc.Report.pp_profile ~k) report)
        profile;
      List.iter
        (fun e ->
           Format.printf "@.%a@." Error.pp e;
           match Symsysc.Explain.lookup e with
           | Some ex -> Format.printf "@[<hov 2>explanation: %a@]@." Symsysc.Explain.pp ex
           | None -> ())
        report.Symsysc.Report.engine.Engine.errors;
      if coverage then begin
        Format.printf "@.branch coverage:@.";
        List.iter
          (fun (site, n) -> Format.printf "  %-32s %d@." site n)
          report.Symsysc.Report.engine.Engine.branch_coverage
      end;
      `Ok ()
  in
  let doc = "Run one symbolic test against the PLIC." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret (const run $ scenario_term $ variant $ faults $ coverage_flag
           $ solver_stats_flag $ profile_flag $ obs_term $ checkpoint_out
           $ checkpoint_every_s $ resume_from $ report_out $ connect
           $ backoff_seed $ test_name))

(* ---- table1 ---- *)

let table1_cmd =
  let run scenario obs =
    let reports =
      with_obs obs
        ~record:(List.iter Symsysc.Report.record_metrics)
        (fun () -> Symsysc.Verify.table1 scenario)
    in
    Symsysc.Tables.print_table1 Format.std_formatter reports;
    Format.printf "@.where the solver time goes:@.";
    Symsysc.Tables.print_solver_breakdown Format.std_formatter reports;
    Format.printf "@.what the paths covered:@.";
    Symsysc.Tables.print_coverage Format.std_formatter reports;
    List.iter
      (fun (r : Symsysc.Report.t) ->
         List.iter
           (fun (e : Error.t) ->
              Format.printf "%s: %s (%s)@." r.Symsysc.Report.test_name
                e.Error.site (Error.kind_to_string e.Error.kind))
           r.Symsysc.Report.engine.Engine.errors)
      reports
  in
  let doc = "Regenerate Table 1 (test results on the original PLIC)." in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ scenario_term $ obs_term)

(* ---- table2 ---- *)

let tests_opt =
  let doc = "Comma-separated tests to include (default: all)." in
  Arg.(value & opt (list string) [ "T1"; "T2"; "T3"; "T4"; "T5" ]
       & info [ "tests" ] ~docv:"TESTS" ~doc)

let table2_cmd =
  let run scenario tests =
    let tests = List.map String.uppercase_ascii tests in
    let detections = Symsysc.Verify.table2 ~tests scenario in
    Symsysc.Tables.print_table2 Format.std_formatter ~tests detections
  in
  let doc = "Regenerate Table 2 (time-to-detection matrix)." in
  Cmd.v (Cmd.info "table2" ~doc) Term.(const run $ scenario_term $ tests_opt)

(* ---- report-diff ---- *)

let report_diff_cmd =
  let file n =
    let doc = "Report JSON written by --report-out." in
    Arg.(required & pos n (some file) None & info [] ~docv:"REPORT" ~doc)
  in
  let run a_path b_path =
    let load path =
      match Obs.Json.load path with
      | Ok j -> j
      | Error msg ->
        Format.eprintf "symsysc: cannot read %s: %s@." path msg;
        exit 2
    in
    let diffs = Symsysc.Diff.compare_reports (load a_path) (load b_path) in
    match diffs with
    | [] ->
      Format.printf "reports agree (%s vs %s)@." a_path b_path;
      `Ok ()
    | _ ->
      Format.printf "%a@." Symsysc.Diff.pp diffs;
      Format.eprintf "symsysc: %d difference%s between %s and %s@."
        (List.length diffs)
        (if List.length diffs = 1 then "" else "s")
        a_path b_path;
      exit 1
  in
  let doc =
    "Compare two --report-out JSONs on their deterministic fields \
     (verdict, termination, path/instruction counters, (site, kind) \
     error set, coverage maps and percentages); exit 1 on any \
     difference.  Wall/solver times, cache statistics, worker counts, \
     resilience counters and the solver-time profile are ignored — \
     they legitimately vary across runs and worker counts."
  in
  Cmd.v
    (Cmd.info "report-diff" ~doc)
    Term.(ret (const run $ file 0 $ file 1))

(* ---- campaign service ---- *)

let journal_dir =
  let doc =
    "Journal directory: the daemon's only durable state (WAL segments \
     plus per-job checkpoint/report artifacts).  Restarting on the \
     same directory resumes the campaign."
  in
  Arg.(required & opt (some string) None
       & info [ "journal" ] ~docv:"DIR" ~doc)

let daemon_addr =
  let doc = "Address of a running $(b,symsysc serve) daemon." in
  Arg.(value & opt hostport_conv ("127.0.0.1", 7321)
       & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let serve_listen =
    let doc =
      "Listen for client frames on $(docv) (port 0 picks a free port; \
       the bound address is printed to stderr)."
    in
    Arg.(value & opt hostport_conv ("127.0.0.1", 7321)
         & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
  in
  let max_jobs =
    let doc = "Admission cap: concurrent job processes." in
    Arg.(value & opt int 2 & info [ "max-jobs" ] ~docv:"N" ~doc)
  in
  let job_retries =
    let doc =
      "Failed attempts before a job is quarantined by the circuit \
       breaker (retries are gated by seeded exponential backoff)."
    in
    Arg.(value & opt int 2 & info [ "job-retries" ] ~docv:"N" ~doc)
  in
  let job_timeout =
    let doc = "Per-job wall-clock timeout in seconds (SIGKILL + retry)." in
    Arg.(value & opt (some float) None
         & info [ "job-timeout-s" ] ~docv:"S" ~doc)
  in
  let watermark =
    let doc =
      "Memory watermark in MB: above it admission pauses and the \
       newest running job is shed back to the queue with its budget \
       halved (never below one running job)."
    in
    Arg.(value & opt (some float) None
         & info [ "mem-watermark-mb" ] ~docv:"MB" ~doc)
  in
  let segment_bytes =
    let doc = "Journal segment rotation threshold in bytes." in
    Arg.(value & opt int (1 lsl 20) & info [ "segment-bytes" ] ~docv:"N" ~doc)
  in
  let exit_when_idle =
    let doc =
      "Exit 0 once at least one job was submitted and every job is \
       terminal (for batch campaigns and CI)."
    in
    Arg.(value & flag & info [ "exit-when-idle" ] ~doc)
  in
  let ck_every =
    let doc = "Seconds between periodic job checkpoints." in
    Arg.(value & opt float 0.5 & info [ "checkpoint-every-s" ] ~docv:"S" ~doc)
  in
  let run (host, port) journal_dir max_jobs job_retries job_timeout_s
      mem_watermark_mb segment_bytes exit_when_idle checkpoint_every_s
      backoff_seed chaos_spec chaos_seed =
    (match chaos_spec with
     | Some spec -> Chaos.configure ~seed:chaos_seed spec
     | None -> Chaos.disable ());
    let listener = Symex.Transport.listen ~host ~port () in
    let bound_host, bound_port = Symex.Transport.listener_addr listener in
    Format.eprintf "[serve] listening on %s:%d, journal %s@." bound_host
      bound_port journal_dir;
    let opts =
      {
        (Service.Daemon.default_opts ~journal_dir) with
        Service.Daemon.max_jobs;
        job_retries;
        job_timeout_s;
        mem_watermark_mb;
        segment_bytes;
        backoff_seed;
        checkpoint_every_s;
        exit_when_idle;
      }
    in
    exit (Service.Daemon.run ~listener opts)
  in
  let doc =
    "Run the crash-safe campaign daemon: accept submitted jobs, run \
     each as a supervised process with retry/backoff/quarantine, \
     journal every transition (fsync before ack), shed load under \
     memory pressure, and drain to checkpoints on SIGTERM.  \
     Restarting on the same --journal resumes the campaign; a clean \
     kill-at-any-point recovery is part of the contract."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ serve_listen $ journal_dir $ max_jobs $ job_retries
      $ job_timeout $ watermark $ segment_bytes $ exit_when_idle $ ck_every
      $ backoff_seed $ chaos_spec $ chaos_seed)

let client_fail msg =
  Format.eprintf "symsysc: %s@." msg;
  exit 2

let submit_cmd =
  let peripheral =
    let doc = "Peripheral: plic, clint or uart." in
    Arg.(value & opt string "plic" & info [ "peripheral" ] ~docv:"P" ~doc)
  in
  let test =
    let doc = "Test name: T1..T5 (plic), timer (clint), loopback (uart)." in
    Arg.(value & opt string "T1" & info [ "test" ] ~docv:"T" ~doc)
  in
  let mode =
    let mode_conv =
      Arg.conv
        ( (fun s ->
             match Service.Jobspec.mode_of_string s with
             | Some m -> Ok m
             | None -> Error (`Msg (Printf.sprintf "unknown mode %S" s))),
          fun ppf m ->
            Format.pp_print_string ppf (Service.Jobspec.mode_to_string m) )
    in
    let doc = "Exploration mode: symbolic (default) or random." in
    Arg.(value & opt mode_conv Service.Jobspec.Symbolic
         & info [ "mode" ] ~docv:"M" ~doc)
  in
  let strategy =
    let doc = "Search strategy (symbolic mode): dfs, bfs, random[:seed], cover-new." in
    Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let seed =
    let doc = "Seed (random campaigns and random[:seed] strategies)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let trials =
    let doc = "Trials for --mode random." in
    Arg.(value & opt int 256 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let max_paths =
    let doc = "Path budget for the job." in
    Arg.(value & opt (some int) None & info [ "max-paths" ] ~docv:"N" ~doc)
  in
  let max_seconds =
    let doc = "Time budget for the job (seconds)." in
    Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"S" ~doc)
  in
  let max_memory_mb =
    let doc = "Heap budget for the job (MB)." in
    Arg.(value & opt (some int) None & info [ "max-memory-mb" ] ~docv:"MB" ~doc)
  in
  let workers =
    let doc = "Worker processes inside the job." in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let num_sources =
    let doc = "PLIC interrupt sources (scenario scale)." in
    Arg.(value & opt int 4 & info [ "num-sources" ] ~docv:"N" ~doc)
  in
  let t5_len =
    let doc = "T5 symbolic-sequence length." in
    Arg.(value & opt int 8 & info [ "t5-len" ] ~docv:"N" ~doc)
  in
  let run (host, port) peripheral test mode strategy seed trials max_paths
      max_seconds max_memory_mb workers num_sources t5_len =
    let spec =
      {
        Service.Jobspec.peripheral;
        test;
        mode;
        strategy;
        seed;
        trials;
        max_paths;
        max_seconds;
        max_memory_mb;
        workers;
        num_sources;
        t5_len;
      }
    in
    match Service.Jobspec.validate spec with
    | Error msg -> client_fail msg
    | Ok () ->
      (match Service.Client.submit ~host ~port spec with
       | Ok id -> Format.printf "submitted job %d (%s)@." id
                    (Service.Jobspec.describe spec)
       | Error msg -> client_fail msg)
  in
  let doc = "Submit a job to a running campaign daemon (durable on ack)." in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ daemon_addr $ peripheral $ test $ mode $ strategy $ seed
      $ trials $ max_paths $ max_seconds $ max_memory_mb $ workers
      $ num_sources $ t5_len)

let status_cmd =
  let json_flag =
    let doc = "Print the raw status document as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run (host, port) json =
    match Service.Client.status ~host ~port with
    | Error msg -> client_fail msg
    | Ok doc ->
      if json then print_endline (Obs.Json.to_string doc)
      else begin
        let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt in
        let uptime =
          Option.bind (Obs.Json.member "uptime" doc) Obs.Json.to_float_opt
          |> Option.value ~default:0.0
        in
        Format.printf "daemon up %.1fs@." uptime;
        (match Obs.Json.member "counts" doc with
         | Some (Obs.Json.Obj kvs) ->
           Format.printf "counts:";
           List.iter
             (fun (k, v) ->
                match Obs.Json.to_int_opt v with
                | Some n -> Format.printf " %s=%d" k n
                | None -> ())
             kvs;
           Format.printf "@."
         | _ -> ());
        match Option.bind (Obs.Json.member "jobs" doc) Obs.Json.to_list_opt with
        | None -> ()
        | Some jobs ->
          List.iter
            (fun j ->
               let int k =
                 Option.bind (Obs.Json.member k j) Obs.Json.to_int_opt
                 |> Option.value ~default:0
               in
               Format.printf "  #%-3d %-28s %-12s attempts=%d%s%s@."
                 (int "id")
                 (Option.value ~default:"?" (str "job" j))
                 (Option.value ~default:"?" (str "state" j))
                 (int "attempts")
                 (match str "verdict" j with
                  | Some v -> " verdict=" ^ v
                  | None -> "")
                 (match str "fail_reason" j with
                  | Some r -> " reason=" ^ r
                  | None -> ""))
            jobs
      end
  in
  let doc = "Show a campaign daemon's queue, counters and journal state." in
  Cmd.v (Cmd.info "status" ~doc) Term.(const run $ daemon_addr $ json_flag)

let cancel_cmd =
  let id =
    let doc = "Job id to cancel." in
    Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc)
  in
  let run (host, port) id =
    match Service.Client.cancel ~host ~port id with
    | Ok () -> Format.printf "cancelled job %d@." id
    | Error msg -> client_fail msg
  in
  let doc = "Cancel a queued or running job." in
  Cmd.v (Cmd.info "cancel" ~doc) Term.(const run $ daemon_addr $ id)

let drain_cmd =
  let run (host, port) =
    match Service.Client.drain ~host ~port with
    | Ok () -> Format.printf "draining@."
    | Error msg -> client_fail msg
  in
  let doc =
    "Ask the daemon to drain: running jobs checkpoint and re-queue, \
     the journal is flushed, and the daemon exits 0."
  in
  Cmd.v (Cmd.info "drain" ~doc) Term.(const run $ daemon_addr)

let jobs_cmd =
  let run journal_dir =
    let wal, records, dropped = Service.Wal.open_dir journal_dir in
    let sup =
      Service.Supervisor.create ~wal ~job_retries:0 ~backoff_seed:0 records
    in
    Service.Wal.close wal;
    let doc =
      Obs.Json.Obj
        [
          ("dropped_bytes", Obs.Json.Int dropped);
          ( "counts",
            Obs.Json.Obj
              (List.map
                 (fun (k, v) -> (k, Obs.Json.Int v))
                 (Service.Supervisor.counts sup)) );
          ( "jobs",
            Obs.Json.List
              (List.map
                 (fun (j : Service.Supervisor.job) ->
                    let opt = function
                      | Some s -> Obs.Json.Str s
                      | None -> Obs.Json.Null
                    in
                    Obs.Json.Obj
                      [
                        ("id", Obs.Json.Int j.Service.Supervisor.id);
                        ( "job",
                          Obs.Json.Str
                            (Service.Jobspec.describe j.Service.Supervisor.spec)
                        );
                        ( "state",
                          Obs.Json.Str
                            (Service.Supervisor.state_to_string
                               j.Service.Supervisor.state) );
                        ("attempts", Obs.Json.Int j.Service.Supervisor.attempts);
                        ("sheds", Obs.Json.Int j.Service.Supervisor.sheds);
                        ("verdict", opt j.Service.Supervisor.verdict);
                        ("report", opt j.Service.Supervisor.report);
                        ("checkpoint", opt j.Service.Supervisor.checkpoint);
                      ])
                 (Service.Supervisor.jobs sup)) );
        ]
    in
    print_endline (Obs.Json.to_string doc)
  in
  let doc =
    "Replay a campaign journal offline (no daemon needed) and print \
     the recovered job table as JSON — what a restarted daemon would \
     see.  For CI assertions and post-mortems."
  in
  Cmd.v (Cmd.info "jobs" ~doc) Term.(const run $ journal_dir)

(* ---- list ---- *)

let list_cmd =
  let run () =
    Format.printf "tests:@.";
    List.iter (fun (n, _) -> Format.printf "  %s@." n) Symsysc.Tests.all;
    Format.printf "@.original bugs (variant = original):@.";
    List.iter
      (fun b -> Format.printf "  %s@." (Symsysc.Verify.bug_to_string b))
      [ Symsysc.Verify.F1; Symsysc.Verify.F2; Symsysc.Verify.F3;
        Symsysc.Verify.F4; Symsysc.Verify.F5; Symsysc.Verify.F6 ];
    Format.printf "@.injectable faults (--fault):@.";
    List.iter
      (fun f ->
         Format.printf "  %s: %s@." (Fault.to_string f) (Fault.description f))
      Fault.all
  in
  let doc = "List the available tests, bugs and faults." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc =
    "Symbolic verification of SystemC TLM peripherals (SymSysC, DAC'22)"
  in
  let info = Cmd.info "symsysc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; table1_cmd; table2_cmd; report_diff_cmd; serve_cmd;
            submit_cmd; status_cmd; cancel_cmd; drain_cmd; jobs_cmd;
            list_cmd ]))
