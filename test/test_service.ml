(* Campaign-service tests.

   The service's contract is "kill it anywhere, lose nothing": the
   write-ahead journal recovers from empty/torn/corrupt segments and
   from a SIGKILL mid-append or mid-rotation; the supervisor retries
   with backoff, quarantines poison jobs and re-queues in-flight work;
   and a daemon SIGKILLed mid-campaign, restarted on the same journal,
   finishes every job with reports equivalent to an uninterrupted
   run's (report-diff clean).  Plus the satellite regression: budget
   signal handlers chain instead of silently replacing what was
   installed before them. *)

module Json = Obs.Json
module Budget = Symex.Budget
module Transport = Symex.Transport
module Wal = Service.Wal
module Supervisor = Service.Supervisor
module Jobspec = Service.Jobspec
module Runner = Service.Runner
module Daemon = Service.Daemon
module Client = Service.Client

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)

let record_fingerprint r = Json.to_string (Wal.record_to_json r)

let sample_records =
  [
    Wal.Submit (1, Jobspec.to_json Jobspec.default);
    Wal.Start (1, 1);
    Wal.Checkpoint_ref (1, "/tmp/job-1.ck");
    Wal.Fail (1, 1, "signal 9");
    Wal.Start (1, 2);
    Wal.Finish (1, "Pass", "/tmp/job-1-report.json");
    Wal.Submit (2, Jobspec.to_json { Jobspec.default with Jobspec.test = "T2" });
    Wal.Shed (2, 0.5);
    Wal.Cancel (2);
    Wal.Quarantine (3, 3);
  ]

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)

let test_wal_roundtrip () =
  with_dir "symsysc_wal" (fun dir ->
      let wal, recovered, dropped = Wal.open_dir dir in
      Alcotest.(check int) "fresh journal is empty" 0 (List.length recovered);
      Alcotest.(check int) "fresh journal drops nothing" 0 dropped;
      List.iter (Wal.append wal) sample_records;
      Wal.close wal;
      let wal2, recovered, dropped = Wal.open_dir dir in
      Wal.close wal2;
      Alcotest.(check int) "no bytes dropped" 0 dropped;
      Alcotest.(check (list string))
        "records replay in order"
        (List.map record_fingerprint sample_records)
        (List.map record_fingerprint recovered))

let test_wal_empty_journal () =
  with_dir "symsysc_wal" (fun dir ->
      (* Twice: open_dir must also accept a directory it just created,
         and an existing one holding an empty segment. *)
      let wal, r, d = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check bool) "empty" true (r = [] && d = 0);
      let wal, r, d = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check bool) "still empty" true (r = [] && d = 0))

let test_wal_torn_tail () =
  with_dir "symsysc_wal" (fun dir ->
      let wal, _, _ = Wal.open_dir dir in
      List.iter (Wal.append wal) sample_records;
      Wal.close wal;
      (* A crash mid-append: half of one frame at the end of the
         segment. *)
      let seg = Filename.concat dir "wal-000000.log" in
      let torn = Wal.frame (Wal.Cancel 9) in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 seg in
      output_string oc (String.sub torn 0 (String.length torn / 2));
      close_out oc;
      let wal, recovered, dropped = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check int) "torn bytes counted"
        (String.length torn / 2) dropped;
      Alcotest.(check (list string))
        "intact records survive"
        (List.map record_fingerprint sample_records)
        (List.map record_fingerprint recovered))

let test_wal_corrupt_crc_mid_segment () =
  with_dir "symsysc_wal" (fun dir ->
      let wal, _, _ = Wal.open_dir dir in
      List.iter (Wal.append wal) sample_records;
      Wal.close wal;
      let seg = Filename.concat dir "wal-000000.log" in
      let ic = open_in_bin seg in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* Flip one payload byte in the 4th line: its CRC no longer
         matches, so replay must stop there — nothing after a corrupt
         record can be trusted. *)
      let lines = String.split_on_char '\n' contents in
      let corrupted =
        List.mapi
          (fun i line ->
             if i = 3 then begin
               let b = Bytes.of_string line in
               let pos = String.length line - 3 in
               Bytes.set b pos
                 (if Bytes.get b pos = 'x' then 'y' else 'x');
               Bytes.to_string b
             end
             else line)
          lines
      in
      let oc = open_out_bin seg in
      output_string oc (String.concat "\n" corrupted);
      close_out oc;
      let wal, recovered, dropped = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check (list string))
        "replay stops before the corrupt record"
        (List.map record_fingerprint
           [ List.nth sample_records 0; List.nth sample_records 1;
             List.nth sample_records 2 ])
        (List.map record_fingerprint recovered);
      Alcotest.(check bool) "corrupt tail counted" true (dropped > 0))

let test_wal_rotation () =
  with_dir "symsysc_wal" (fun dir ->
      let wal, _, _ = Wal.open_dir ~segment_bytes:256 dir in
      List.iter (Wal.append wal) sample_records;
      Alcotest.(check bool) "due for rotation" true (Wal.needs_rotation wal);
      let snapshot = Json.Obj [ ("state", Json.Str "compacted") ] in
      Wal.rotate wal ~snapshot;
      Alcotest.(check int) "segment advanced" 1 (Wal.segment_index wal);
      Wal.append wal (Wal.Cancel 7);
      Wal.close wal;
      Alcotest.(check bool) "old segment unlinked" false
        (Sys.file_exists (Filename.concat dir "wal-000000.log"));
      let wal, recovered, dropped = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check int) "clean replay" 0 dropped;
      Alcotest.(check (list string))
        "snapshot supersedes older records"
        (List.map record_fingerprint
           [ Wal.Snapshot snapshot; Wal.Cancel 7 ])
        (List.map record_fingerprint recovered))

let test_wal_interrupted_rotation () =
  (* A rotation can die at two interesting instants; both on-disk
     states must recover.  (1) before the new segment's rename: the
     journal is untouched, a stale .tmp lies around.  (2) after the
     rename but before old segments are unlinked: the snapshot
     supersedes the old segment's records on replay. *)
  with_dir "symsysc_wal" (fun dir ->
      let wal, _, _ = Wal.open_dir dir in
      List.iter (Wal.append wal) sample_records;
      Wal.close wal;
      (* state 1 *)
      let tmp = Filename.concat dir "wal-000001.log.tmp" in
      let oc = open_out_bin tmp in
      output_string oc "half a snapshot fra";
      close_out oc;
      let wal, recovered, dropped = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check bool) "stale tmp removed" false (Sys.file_exists tmp);
      Alcotest.(check int) "old journal intact" 0 dropped;
      Alcotest.(check int) "all records replay"
        (List.length sample_records) (List.length recovered);
      (* state 2 *)
      let snapshot = Json.Obj [ ("jobs", Json.List []) ] in
      let oc =
        open_out_bin (Filename.concat dir "wal-000001.log")
      in
      output_string oc (Wal.frame (Wal.Snapshot snapshot));
      close_out oc;
      let wal, recovered, _ = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check (list string))
        "snapshot segment wins"
        [ record_fingerprint (Wal.Snapshot snapshot) ]
        (List.map record_fingerprint recovered))

let test_wal_chaos_truncate_sigkill () =
  (* The journal-truncate chaos point for real: the appending process
     writes half a frame and dies by SIGKILL.  Recovery keeps every
     earlier record and drops the torn tail. *)
  with_dir "symsysc_wal" (fun dir ->
      flush stdout;
      flush stderr;
      (match Unix.fork () with
       | 0 ->
         (try
            let wal, _, _ = Wal.open_dir dir in
            Wal.append wal (Wal.Submit (1, Jobspec.to_json Jobspec.default));
            Wal.append wal (Wal.Start (1, 1));
            Chaos.configure ~seed:3
              (match Chaos.parse_spec "journal-truncate:1" with
               | Ok s -> s
               | Error m -> failwith m);
            Wal.append wal (Wal.Finish (1, "Pass", "r.json"));
            (* unreachable: the append above kills the process *)
            Unix._exit 7
          with _ -> Unix._exit 8)
       | pid ->
         let _, status = Unix.waitpid [] pid in
         Alcotest.(check bool) "child died by SIGKILL" true
           (status = Unix.WSIGNALED Sys.sigkill));
      let wal, recovered, dropped = Wal.open_dir dir in
      Wal.close wal;
      Alcotest.(check bool) "torn tail dropped" true (dropped > 0);
      Alcotest.(check (list string))
        "records before the crash survive"
        (List.map record_fingerprint
           [ Wal.Submit (1, Jobspec.to_json Jobspec.default);
             Wal.Start (1, 1) ])
        (List.map record_fingerprint recovered))

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)

let open_supervisor ?(job_retries = 2) dir =
  let wal, records, _ = Wal.open_dir dir in
  (wal, Supervisor.create ~wal ~job_retries ~backoff_seed:5 records)

let test_supervisor_retry_quarantine () =
  with_dir "symsysc_sup" (fun dir ->
      let wal, sup = open_supervisor ~job_retries:2 dir in
      let j = Supervisor.submit sup Jobspec.default in
      Supervisor.note_start sup j;
      Supervisor.note_fail sup j ~reason:"signal 9";
      Alcotest.(check bool) "re-queued after first failure" true
        (j.Supervisor.state = Supervisor.Queued);
      Alcotest.(check bool) "backoff gate armed" true
        (j.Supervisor.not_before > 0.0);
      Alcotest.(check bool) "gate respects the clock" true
        (Supervisor.next_runnable sup ~now:0.0 = None);
      Alcotest.(check bool) "gate opens later" true
        (Supervisor.next_runnable sup
           ~now:(j.Supervisor.not_before +. 1.0)
         <> None);
      Supervisor.note_start sup j;
      Supervisor.note_fail sup j ~reason:"signal 9";
      Supervisor.note_start sup j;
      Supervisor.note_fail sup j ~reason:"signal 9";
      Alcotest.(check bool) "third failure quarantines" true
        (j.Supervisor.state = Supervisor.Quarantined);
      Alcotest.(check int) "attempts surfaced" 3 j.Supervisor.attempts;
      Alcotest.(check int) "quarantine counted" 1
        (List.assoc "quarantined" (Supervisor.counts sup));
      Alcotest.(check int) "retries counted" 2
        (List.assoc "retried" (Supervisor.counts sup));
      Alcotest.(check bool) "terminal" true (Supervisor.all_terminal sup);
      Wal.close wal;
      (* The whole story must replay identically. *)
      let wal, sup2 = open_supervisor ~job_retries:2 dir in
      Wal.close wal;
      (match Supervisor.job sup2 1 with
       | Some j2 ->
         Alcotest.(check bool) "quarantine replays" true
           (j2.Supervisor.state = Supervisor.Quarantined);
         Alcotest.(check int) "attempts replay" 3 j2.Supervisor.attempts
       | None -> Alcotest.fail "job lost on replay"))

let test_supervisor_crash_recovery () =
  with_dir "symsysc_sup" (fun dir ->
      let wal, sup = open_supervisor dir in
      let j1 = Supervisor.submit sup Jobspec.default in
      let j2 =
        Supervisor.submit sup { Jobspec.default with Jobspec.test = "T2" }
      in
      Supervisor.note_start sup j1;
      Supervisor.note_checkpoint sup j1 "/tmp/job-1.ck";
      Supervisor.note_finish sup j2 ~verdict:"Pass" ~report:"r2.json";
      Wal.close wal;
      (* The daemon dies here.  Replay: the in-flight job is re-queued
         with its checkpoint ref intact; the finished one stays
         finished. *)
      let wal, sup2 = open_supervisor dir in
      Wal.close wal;
      (match Supervisor.job sup2 j1.Supervisor.id with
       | Some j ->
         Alcotest.(check bool) "in-flight job re-queued" true
           (j.Supervisor.state = Supervisor.Queued);
         Alcotest.(check (option string))
           "checkpoint ref survives" (Some "/tmp/job-1.ck")
           j.Supervisor.checkpoint
       | None -> Alcotest.fail "job 1 lost");
      match Supervisor.job sup2 j2.Supervisor.id with
      | Some j ->
        Alcotest.(check bool) "finished job stays finished" true
          (j.Supervisor.state = Supervisor.Finished);
        Alcotest.(check (option string)) "verdict survives" (Some "Pass")
          j.Supervisor.verdict
      | None -> Alcotest.fail "job 2 lost")

let test_supervisor_shed_and_snapshot () =
  with_dir "symsysc_sup" (fun dir ->
      let wal, sup = open_supervisor dir in
      let j = Supervisor.submit sup Jobspec.default in
      Supervisor.note_start sup j;
      Supervisor.note_shed sup j;
      Alcotest.(check bool) "shed re-queues" true
        (j.Supervisor.state = Supervisor.Queued);
      Alcotest.(check (float 1e-9)) "budget halved" 0.5
        j.Supervisor.budget_scale;
      Supervisor.note_start sup j;
      Supervisor.note_shed sup j;
      Alcotest.(check (float 1e-9)) "budget halves again" 0.25
        j.Supervisor.budget_scale;
      (* Snapshot/rotate, then replay only the new segment. *)
      Wal.rotate wal ~snapshot:(Supervisor.snapshot sup);
      Wal.close wal;
      let wal, sup2 = open_supervisor dir in
      Wal.close wal;
      match Supervisor.job sup2 j.Supervisor.id with
      | Some j2 ->
        Alcotest.(check (float 1e-9)) "scale survives compaction" 0.25
          j2.Supervisor.budget_scale;
        Alcotest.(check int) "sheds survive compaction" 2 j2.Supervisor.sheds;
        Alcotest.(check int) "shed total survives" 2
          (List.assoc "shed" (Supervisor.counts sup2))
      | None -> Alcotest.fail "job lost across rotation")

(* ------------------------------------------------------------------ *)
(* Budget signal-handler chaining (satellite regression)               *)

let test_signal_handler_chaining () =
  let hits = ref 0 in
  let prev =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> incr hits))
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev;
      Budget.clear_interrupt ())
    (fun () ->
       Budget.install_signal_handlers ();
       (* The old bug: a second install was silently skipped by a
          [handlers_installed] latch — after any code replaced the
          handler in between, budget stops went dead.  Now installs
          chain; a double install must not chain the handler to
          itself (that would loop forever on the first signal). *)
       Budget.install_signal_handlers ();
       Budget.clear_interrupt ();
       Unix.kill (Unix.getpid ()) Sys.sigterm;
       (* Signal delivery happens at a safe point; give it one. *)
       let deadline = Unix.gettimeofday () +. 5.0 in
       while (not (Budget.interrupted ())) && Unix.gettimeofday () < deadline do
         ignore (Sys.opaque_identity (ref 0));
         Unix.sleepf 0.001
       done;
       Alcotest.(check bool) "interrupt flag set" true (Budget.interrupted ());
       Alcotest.(check int) "previous handler chained exactly once" 1 !hits)

(* ------------------------------------------------------------------ *)
(* Runner: interrupt -> checkpoint -> resume equivalence               *)

let t3_spec =
  {
    Jobspec.default with
    Jobspec.test = "T3";
    num_sources = 3;
    seed = Some 11;
  }

let run_runner_child ~dir ~id ~attempt spec =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Runner.exec ~journal_dir:dir ~checkpoint_every_s:0.05 ~id ~attempt
          ~budget_scale:1.0 spec
      with _ -> 9
    in
    Unix._exit code
  | pid -> pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> `Exit n
  | _, Unix.WSIGNALED s -> `Signal s
  | _, Unix.WSTOPPED _ -> `Stopped

let load_report path =
  match Json.load path with
  | Ok j -> j
  | Error msg -> Alcotest.fail (path ^ ": " ^ msg)

let test_runner_resume_equivalence () =
  with_dir "symsysc_ref" (fun ref_dir ->
      with_dir "symsysc_resume" (fun dir ->
          (* Reference: one uninterrupted execution. *)
          let pid = run_runner_child ~dir:ref_dir ~id:1 ~attempt:1 t3_spec in
          Alcotest.(check bool) "reference run finishes" true
            (wait_exit pid = `Exit 0);
          (* Interrupted: SIGTERM mid-run -> exit 3 + checkpoint; then
             a second attempt resumes and finishes. *)
          let pid = run_runner_child ~dir ~id:1 ~attempt:1 t3_spec in
          Unix.sleepf 0.4;
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          (match wait_exit pid with
           | `Exit 3 ->
             Alcotest.(check bool) "drain left a checkpoint" true
               (Sys.file_exists (Runner.checkpoint_path ~journal_dir:dir 1))
           | `Exit 0 ->
             (* The run beat the SIGTERM — equivalence still checked. *)
             ()
           | r ->
             Alcotest.failf "interrupted run: unexpected %s"
               (match r with
                | `Exit n -> Printf.sprintf "exit %d" n
                | `Signal s -> Printf.sprintf "signal %d" s
                | `Stopped -> "stop"));
          let pid = run_runner_child ~dir ~id:1 ~attempt:2 t3_spec in
          Alcotest.(check bool) "resumed run finishes" true
            (wait_exit pid = `Exit 0);
          let diffs =
            Symsysc.Diff.compare_reports
              (load_report (Runner.report_path ~journal_dir:ref_dir 1))
              (load_report (Runner.report_path ~journal_dir:dir 1))
          in
          if diffs <> [] then
            Alcotest.failf "resumed report differs: %s"
              (Format.asprintf "%a" Symsysc.Diff.pp diffs)))

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                   *)

let spawn_daemon ?chaos_spec ?(opts_f = fun o -> o) dir =
  let listener = Transport.listen ~host:"127.0.0.1" ~port:0 () in
  let _, port = Transport.listener_addr listener in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        (match chaos_spec with
         | Some (spec, seed) ->
           Chaos.configure ~seed
             (match Chaos.parse_spec spec with
              | Ok s -> s
              | Error m -> failwith m)
         | None -> Chaos.disable ());
        Daemon.run ~listener (opts_f (Daemon.default_opts ~journal_dir:dir))
      with _ -> 9
    in
    Unix._exit code
  | pid ->
    Transport.close_listener listener;
    (pid, port)

let rec wait_for_daemon ~port attempts =
  match Client.ping ~host:"127.0.0.1" ~port with
  | Ok _ -> ()
  | Error _ when attempts > 0 ->
    Unix.sleepf 0.05;
    wait_for_daemon ~port (attempts - 1)
  | Error msg -> Alcotest.fail ("daemon never came up: " ^ msg)

let submit_ok ~port spec =
  match Client.submit ~host:"127.0.0.1" ~port spec with
  | Ok id -> id
  | Error msg -> Alcotest.fail ("submit: " ^ msg)

let matrix =
  [
    { Jobspec.default with Jobspec.test = "T1"; num_sources = 2 };
    { Jobspec.default with Jobspec.peripheral = "uart"; test = "loopback" };
    {
      Jobspec.default with
      Jobspec.peripheral = "clint";
      test = "timer";
      mode = Jobspec.Random;
      trials = 64;
      seed = Some 7;
    };
  ]

let offline_counts dir =
  let wal, records, _ = Wal.open_dir dir in
  let sup = Supervisor.create ~wal ~job_retries:0 ~backoff_seed:0 records in
  Wal.close wal;
  (Supervisor.counts sup, Supervisor.jobs sup)

let test_daemon_kill_restart_equivalence () =
  with_dir "symsysc_dref" (fun ref_dir ->
      with_dir "symsysc_dkill" (fun dir ->
          (* Reference campaign, uninterrupted. *)
          let pid, port =
            spawn_daemon ref_dir ~opts_f:(fun o ->
                { o with Daemon.exit_when_idle = true })
          in
          wait_for_daemon ~port 100;
          List.iter (fun s -> ignore (submit_ok ~port s)) matrix;
          Alcotest.(check bool) "reference daemon exits clean" true
            (wait_exit pid = `Exit 0);
          (* Same campaign, SIGKILLed mid-flight, restarted on the same
             journal. *)
          let pid, port =
            spawn_daemon dir ~opts_f:(fun o ->
                { o with Daemon.exit_when_idle = true })
          in
          wait_for_daemon ~port 100;
          List.iter (fun s -> ignore (submit_ok ~port s)) matrix;
          Unix.sleepf 0.6;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait_exit pid);
          let pid, port =
            spawn_daemon dir ~opts_f:(fun o ->
                { o with Daemon.exit_when_idle = true })
          in
          wait_for_daemon ~port 100;
          Alcotest.(check bool) "restarted daemon finishes the campaign"
            true
            (wait_exit pid = `Exit 0);
          let counts, jobs = offline_counts dir in
          Alcotest.(check int) "every job finished" (List.length matrix)
            (List.assoc "finished" counts);
          ignore jobs;
          (* Per-job report equivalence against the reference run. *)
          List.iteri
            (fun i (spec : Jobspec.t) ->
               let id = i + 1 in
               let a = load_report (Runner.report_path ~journal_dir:ref_dir id) in
               let b = load_report (Runner.report_path ~journal_dir:dir id) in
               match spec.Jobspec.mode with
               | Jobspec.Random ->
                 (* Random reports carry only deterministic fields —
                    exact equality. *)
                 Alcotest.(check string)
                   (Printf.sprintf "job %d random report equal" id)
                   (Json.to_string a) (Json.to_string b)
               | Jobspec.Symbolic ->
                 let diffs = Symsysc.Diff.compare_reports a b in
                 if diffs <> [] then
                   Alcotest.failf "job %d report differs: %s" id
                     (Format.asprintf "%a" Symsysc.Diff.pp diffs))
            matrix))

let test_daemon_drain () =
  with_dir "symsysc_drain" (fun dir ->
      let pid, port = spawn_daemon dir in
      wait_for_daemon ~port 100;
      let _ = submit_ok ~port t3_spec in
      Unix.sleepf 0.4;
      (match Client.drain ~host:"127.0.0.1" ~port with
       | Ok () -> ()
       | Error msg -> Alcotest.fail ("drain: " ^ msg));
      Alcotest.(check bool) "drained daemon exits 0" true
        (wait_exit pid = `Exit 0);
      (* The journal must be consistent and the job either finished
         (drain raced its completion) or re-queued for the next
         daemon. *)
      let counts, jobs = offline_counts dir in
      Alcotest.(check int) "nothing lost" 1 (List.length jobs);
      let finished = List.assoc "finished" counts in
      let queued = List.assoc "queued" counts in
      Alcotest.(check int) "finished or re-queued" 1 (finished + queued);
      (* Restart finishes the campaign with an equivalent report. *)
      let pid, port =
        spawn_daemon dir ~opts_f:(fun o ->
            { o with Daemon.exit_when_idle = true })
      in
      wait_for_daemon ~port 100;
      Alcotest.(check bool) "restart finishes" true (wait_exit pid = `Exit 0);
      with_dir "symsysc_drain_ref" (fun ref_dir ->
          let rpid = run_runner_child ~dir:ref_dir ~id:1 ~attempt:1 t3_spec in
          Alcotest.(check bool) "reference finishes" true
            (wait_exit rpid = `Exit 0);
          let diffs =
            Symsysc.Diff.compare_reports
              (load_report (Runner.report_path ~journal_dir:ref_dir 1))
              (load_report (Runner.report_path ~journal_dir:dir 1))
          in
          if diffs <> [] then
            Alcotest.failf "post-drain report differs: %s"
              (Format.asprintf "%a" Symsysc.Diff.pp diffs)))

let test_daemon_quarantines_crashing_job () =
  with_dir "symsysc_poison" (fun dir ->
      (* job-crash:1 kills every job process at startup: the daemon
         must retry (backoff), give up after the configured attempts,
         quarantine — and still exit idle cleanly, surfacing the
         counts. *)
      let pid, port =
        spawn_daemon dir
          ~chaos_spec:("job-crash:1", 13)
          ~opts_f:(fun o ->
            { o with Daemon.exit_when_idle = true; job_retries = 1 })
      in
      wait_for_daemon ~port 100;
      let _ =
        submit_ok ~port
          { Jobspec.default with Jobspec.peripheral = "uart"; test = "loopback" }
      in
      Alcotest.(check bool) "daemon exits despite poison job" true
        (wait_exit pid = `Exit 0);
      let counts, jobs = offline_counts dir in
      Alcotest.(check int) "job quarantined" 1
        (List.assoc "quarantined" counts);
      Alcotest.(check int) "retry counted" 1 (List.assoc "retried" counts);
      match jobs with
      | [ j ] ->
        Alcotest.(check int) "attempts surfaced" 2 j.Supervisor.attempts
      | _ -> Alcotest.fail "expected exactly one job")

(* A client that sends garbage loses its connection, not the daemon:
   the next client still gets an answer. *)
let test_daemon_survives_malformed_frame () =
  with_dir "symsysc_badframe" (fun dir ->
      let pid, port = spawn_daemon dir in
      wait_for_daemon ~port 100;
      let conn = Transport.connect ~host:"127.0.0.1" ~port in
      let fd = conn.Transport.c_in in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      ignore (Unix.write_substring fd "hello\n" 0 6);
      (* Wait until the daemon has dropped the connection. *)
      (try ignore (Unix.read fd (Bytes.create 64) 0 64)
       with Unix.Unix_error _ -> ());
      Transport.close conn;
      let pinged = Client.ping ~host:"127.0.0.1" ~port in
      (match Client.drain ~host:"127.0.0.1" ~port with
       | Ok () -> ()
       | Error _ -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
      let exit = wait_exit pid in
      Alcotest.(check bool) "daemon answers a ping after a malformed frame"
        true (Result.is_ok pinged);
      Alcotest.(check bool) "daemon drains and exits 0" true (exit = `Exit 0))

let test_daemon_sheds_under_pressure () =
  with_dir "symsysc_shed" (fun dir ->
      (* In-process daemon with injected pressure.  The window opens
         only after both jobs have been admitted (pressure at tick one
         would just pause admission — the ladder's first step) and
         closes a second later so the shed job can be re-admitted and
         the campaign can finish.  exit_when_idle returns control to
         the test. *)
      let listener = Transport.listen ~host:"127.0.0.1" ~port:0 () in
      let started = Unix.gettimeofday () in
      let pressure () =
        let t = Unix.gettimeofday () -. started in
        if t > 0.1 && t < 1.1 then 10_000.0 else 0.0
      in
      (* Pre-load the queue offline so both jobs are admitted at tick
         one; T5 is the slow sequence test, so both are still running
         when the pressure window opens. *)
      let slow = { t3_spec with Jobspec.test = "T5"; t5_len = 8 } in
      let wal, records, _ = Wal.open_dir dir in
      let sup = Supervisor.create ~wal ~job_retries:2 ~backoff_seed:0 records in
      ignore (Supervisor.submit sup slow);
      ignore (Supervisor.submit sup { slow with Jobspec.seed = Some 23 });
      Wal.close wal;
      let code =
        Daemon.run ~pressure_mb:pressure ~listener
          { (Daemon.default_opts ~journal_dir:dir) with
            Daemon.exit_when_idle = true;
            mem_watermark_mb = Some 100.0 }
      in
      Transport.close_listener listener;
      Alcotest.(check int) "campaign completes" 0 code;
      let counts, jobs = offline_counts dir in
      Alcotest.(check int) "both jobs finished" 2
        (List.assoc "finished" counts);
      Alcotest.(check bool) "at least one shed surfaced" true
        (List.assoc "shed" counts >= 1);
      Alcotest.(check bool) "a job ran on a halved budget" true
        (List.exists
           (fun (j : Supervisor.job) -> j.Supervisor.budget_scale < 1.0)
           jobs))

(* The loop reaps exited jobs before it answers a client.  With a poll
   period longer than the test, only requests wake the daemon, so the
   first status after the job's process has exited must already read
   finished. *)
let test_daemon_status_after_exit () =
  with_dir "symsysc_status" (fun dir ->
      let pid, port =
        spawn_daemon dir ~opts_f:(fun o -> { o with Daemon.poll_s = 30. })
      in
      let state =
        Fun.protect
          ~finally:(fun () ->
            (match Client.drain ~host:"127.0.0.1" ~port with
             | Ok () -> ()
             | Error _ -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()));
            ignore (wait_exit pid))
          (fun () ->
             wait_for_daemon ~port 100;
             let id =
               submit_ok ~port
                 { Jobspec.default with Jobspec.peripheral = "uart"; test = "loopback" }
             in
             let report = Runner.report_path ~journal_dir:dir id in
             let rec await n =
               if not (Sys.file_exists report) then
                 if n = 0 then Alcotest.fail "the job never wrote its report"
                 else begin
                   Unix.sleepf 0.02;
                   await (n - 1)
                 end
             in
             await 1500;
             Unix.sleepf 0.3;
             match Client.status ~host:"127.0.0.1" ~port with
             | Error msg -> Alcotest.fail ("status: " ^ msg)
             | Ok doc ->
               (match Option.bind (Json.member "jobs" doc) Json.to_list_opt with
                | Some [ job ] ->
                  Option.value ~default:"?"
                    (Option.bind (Json.member "state" job) Json.to_string_opt)
                | _ -> Alcotest.fail "expected exactly one job"))
      in
      Alcotest.(check string) "first status after the job exited" "finished"
        state)

let suite =
  [
    Alcotest.test_case "wal: round-trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: empty journal" `Quick test_wal_empty_journal;
    Alcotest.test_case "wal: torn tail dropped" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal: corrupt CRC stops replay" `Quick
      test_wal_corrupt_crc_mid_segment;
    Alcotest.test_case "wal: rotation compacts" `Quick test_wal_rotation;
    Alcotest.test_case "wal: interrupted rotation recovers" `Quick
      test_wal_interrupted_rotation;
    Alcotest.test_case "wal: SIGKILL mid-append (chaos)" `Quick
      test_wal_chaos_truncate_sigkill;
    Alcotest.test_case "supervisor: retry, backoff, quarantine" `Quick
      test_supervisor_retry_quarantine;
    Alcotest.test_case "supervisor: crash recovery re-queues" `Quick
      test_supervisor_crash_recovery;
    Alcotest.test_case "supervisor: shed + snapshot compaction" `Quick
      test_supervisor_shed_and_snapshot;
    Alcotest.test_case "budget: signal handlers chain" `Quick
      test_signal_handler_chaining;
    Alcotest.test_case "runner: interrupt/resume equivalence" `Slow
      test_runner_resume_equivalence;
    Alcotest.test_case "daemon: SIGKILL + restart equivalence" `Slow
      test_daemon_kill_restart_equivalence;
    Alcotest.test_case "daemon: SIGTERM drain + restart" `Slow
      test_daemon_drain;
    Alcotest.test_case "daemon: poison job quarantined" `Slow
      test_daemon_quarantines_crashing_job;
    Alcotest.test_case "daemon: sheds under memory pressure" `Slow
      test_daemon_sheds_under_pressure;
    Alcotest.test_case "daemon: survives a malformed client frame" `Quick
      test_daemon_survives_malformed_frame;
    Alcotest.test_case "daemon: status after exit" `Quick
      test_daemon_status_after_exit;
  ]
