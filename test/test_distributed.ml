(* Distributed exploration tests.

   Remote TCP workers promise exactly what forked workers do: a
   campaign spread over remote worker pools reaches the same verdict,
   path totals and bug sites as the sequential run — and keeps doing
   so when a worker pool is SIGKILLed mid-campaign, when a pool drains
   on SIGTERM, when leases expire on a slow holder, and under injected
   network faults (dropped connections, stalled and sheared frames,
   duplicated results), which are never charged to a unit.  On top of
   the end-to-end equivalences: the pure reconnect-backoff schedule,
   the framing and EPIPE normalization of the transport, a master that
   a half-written frame cannot wedge, the first-result-wins lease
   bookkeeping, and lease-carrying checkpoints crossing between the
   sequential and distributed engines. *)

module Engine = Symex.Engine
module Search = Symex.Search
module Decision = Symex.Decision
module Checkpoint = Symex.Checkpoint
module Transport = Symex.Transport
module Lease = Symex.Lease
module Pool = Symex.Pool
module Expr = Smt.Expr
module Verify = Symsysc.Verify
module Report = Symsysc.Report

let scenario ?strategy ?workers ?listen ?lease_ms () =
  Verify.scenario ~num_sources:4 ~t5_max_len:8 ?strategy ?workers ?listen
    ?lease_ms ()

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
         (fun (err : Symex.Error.t) ->
            (err.Symex.Error.site, Symex.Error.kind_to_string err.Symex.Error.kind))
         e.Engine.errors) )

(* Run [f] in a forked child in its own process group and return the
   string it produced, or [None] if it has not finished after [seconds];
   the whole group (the child and every worker it forked) is then
   SIGKILLed, so a wedged pool fails the test instead of hanging it. *)
let within ~seconds f =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    ignore (Unix.setsid ());
    Unix.close r;
    Obs.Progress.disable ();
    Obs.Sink.reset ();
    let msg = try f () with e -> "raised " ^ Printexc.to_string e in
    Transport.write_frame_fd w (Obs.Json.Str msg);
    Unix._exit 0
  | kid ->
    Unix.close w;
    let deadline = Unix.gettimeofday () +. seconds in
    let rec await () =
      match Unix.waitpid [ Unix.WNOHANG ] kid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        await ()
      | 0, _ ->
        (try Unix.kill (-kid) Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] kid);
        None
      | _, Unix.WEXITED 0 ->
        (match Transport.read_frame_fd r with
         | Obs.Json.Str msg -> Some msg
         | _ -> Some "child sent no message"
         | exception _ -> Some "child sent no message")
      | _ ->
        (* Its workers may still hold the pipe: reading could block. *)
        (try Unix.kill (-kid) Sys.sigkill with Unix.Unix_error _ -> ());
        Some "child died before reporting"
    in
    Fun.protect ~finally:(fun () -> Unix.close r) await

(* ------------------------------------------------------------------ *)
(* Reconnect backoff                                                   *)

let test_backoff_schedule () =
  (* Pure: the same (seed, attempt) always yields the same delay. *)
  for attempt = 1 to 20 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d reproducible" attempt)
      (Transport.backoff_delay ~seed:7 ~attempt)
      (Transport.backoff_delay ~seed:7 ~attempt)
  done;
  (* Bounded: positive, never above the cap, and below the exponential
     ceiling for early attempts. *)
  List.iter
    (fun seed ->
       for attempt = 1 to 40 do
         let d = Transport.backoff_delay ~seed ~attempt in
         Alcotest.(check bool) "positive" true (d > 0.0);
         Alcotest.(check bool) "capped" true (d <= Transport.backoff_cap_s);
         if attempt <= 3 then
           Alcotest.(check bool) "under the exponential ceiling" true
             (d <= 0.05 *. (2.0 ** float_of_int (attempt - 1)) +. 1e-9)
       done)
    [ 0; 1; 42; 123456 ];
  (* Jittered: distinct seeds desynchronize (at least one attempt in a
     small window must differ — equality everywhere would mean the
     jitter stream ignores the seed). *)
  let schedule seed =
    List.init 8 (fun i -> Transport.backoff_delay ~seed ~attempt:(i + 1))
  in
  Alcotest.(check bool) "seeds produce distinct schedules" true
    (schedule 1 <> schedule 2)

(* ------------------------------------------------------------------ *)
(* Transport framing and EPIPE normalization                           *)

let test_frame_roundtrip_socketpair () =
  Transport.init ();
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = { Transport.c_fd = a; c_addr = "a" }
  and cb = { Transport.c_fd = b; c_addr = "b" } in
  let msg =
    Obs.Json.Obj
      [ ("cmd", Obs.Json.Str "unit");
        ("id", Obs.Json.Int 42);
        ("prefix", Obs.Json.List [ Obs.Json.Bool true ]) ]
  in
  Transport.write_frame ca msg;
  let got = Transport.read_frame cb in
  Alcotest.(check string) "frame round-trips over a socket"
    (Obs.Json.to_string msg) (Obs.Json.to_string got);
  Transport.close ca;
  Transport.close cb

(* A frame header longer than the 10 digits of the largest allowed
   length is malformed as soon as it is seen: the reader does not
   consume the rest of an unbounded header. *)
let test_overlong_header_is_malformed () =
  Transport.init ();
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let digits = String.make 4096 '1' in
  Transport.write_all a (Bytes.of_string digits) 0 (String.length digits);
  Unix.close a;
  let outcome =
    match Transport.read_frame_fd b with
    | _ -> "frame"
    | exception Failure msg -> msg
    | exception Transport.Disconnected msg -> "disconnected: " ^ msg
  in
  Unix.close b;
  Alcotest.(check string) "overlong header rejected"
    "transport: malformed frame header" outcome

(* Satellite pin: a write to a peer that closed its end must surface as
   Transport.Disconnected (the worker-death path), not as a SIGPIPE
   kill or a raw Unix_error. *)
let test_write_to_closed_peer_is_disconnected () =
  Transport.init ();
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = { Transport.c_fd = a; c_addr = "a" } in
  Unix.close b;
  let payload = Obs.Json.Str (String.make 65536 'x') in
  let disconnected =
    (* The first write may land in the socket buffer; keep writing
       until the kernel reports the peer is gone. *)
    try
      for _ = 1 to 64 do Transport.write_frame ca payload done;
      false
    with
    | Transport.Disconnected _ -> true
    | Unix.Unix_error _ -> false
  in
  Transport.close ca;
  Alcotest.(check bool) "EPIPE/ECONNRESET normalized to Disconnected" true
    disconnected;
  (* And reading from a closed peer is Disconnected too (EOF shape). *)
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close d;
  let cc = { Transport.c_fd = c; c_addr = "c" } in
  let eof =
    try ignore (Transport.read_frame cc); false
    with Transport.Disconnected _ -> true
  in
  Transport.close cc;
  Alcotest.(check bool) "EOF normalized to Disconnected" true eof

(* ------------------------------------------------------------------ *)
(* Lease bookkeeping                                                   *)

let test_lease_first_result_wins () =
  let t = Lease.create ~lease_ms:(Some 50) in
  let e = Lease.make_entry t ~id:1 ~site:"s" ~prefix:[||] ~now:100.0 in
  Alcotest.(check int) "first grant is attempt 1" 1 e.Lease.l_attempts;
  Alcotest.(check bool) "not yet expired" false
    (Lease.expired e ~now:100.04);
  Alcotest.(check bool) "expired past the deadline" true
    (Lease.expired e ~now:100.06);
  (* Expiry requeues; regrant bumps attempts. *)
  Lease.requeue t e;
  Alcotest.(check int) "one pending regrant" 1 (Lease.pending t);
  (match Lease.take_pending t with
   | None -> Alcotest.fail "pending entry vanished"
   | Some e' ->
     let e' = Lease.regrant t e' ~now:200.0 in
     Alcotest.(check int) "regrant is attempt 2" 2 e'.Lease.l_attempts);
  (* First result settles; the second is a counted duplicate. *)
  Alcotest.(check bool) "first settle is fresh" true
    (Lease.settle t 1 = `Fresh);
  Alcotest.(check bool) "second settle is a duplicate" true
    (Lease.settle t 1 = `Duplicate);
  Alcotest.(check bool) "settled is settled" true (Lease.is_settled t 1)

let test_lease_settle_drops_pending_copy () =
  let t = Lease.create ~lease_ms:None in
  let e = Lease.make_entry t ~id:7 ~site:"s" ~prefix:[||] ~now:0.0 in
  Alcotest.(check bool) "no deadline means no expiry" false
    (Lease.expired e ~now:1e12);
  (* The unit expired and was requeued — then the original holder's
     result arrived before the regrant was dispatched.  The pending
     copy must be dropped, or the path would be explored twice. *)
  Lease.requeue t e;
  Alcotest.(check bool) "settles fresh" true (Lease.settle t 7 = `Fresh);
  Alcotest.(check int) "pending copy dropped by settle" 0 (Lease.pending t);
  Alcotest.(check bool) "take_pending agrees" true
    (Lease.take_pending t = None)

(* ------------------------------------------------------------------ *)
(* Loopback-TCP equivalence                                            *)

(* Run [name] distributed: a listening master with no local workers,
   plus remote worker pools forked as child processes (each dialing the
   master's loopback port).  [kill_after] SIGKILLs the first pool
   mid-campaign; [drain_after] SIGTERMs it instead.  Returns the
   master's report and the non-killed pools' exit codes. *)
let run_distributed ?(pools = [ 2 ]) ?kill_after ?drain_after ?local_workers
    ~strategy name =
  let l = Transport.listen ~host:"127.0.0.1" ~port:0 () in
  let _, port = Transport.listener_addr l in
  flush stdout;
  flush stderr;
  let kids =
    List.mapi
      (fun slot w ->
         match Unix.fork () with
         | 0 ->
           Unix.close (Transport.listener_fd l);
           Obs.Progress.disable ();
           Obs.Sink.reset ();
           let code =
             try
               Verify.serve ~host:"127.0.0.1" ~port ~workers:w
                 ~backoff_seed:(slot + 1)
                 (scenario ~strategy ()) name
             with _ -> 1
           in
           Unix._exit code
         | pid -> pid)
      pools
  in
  let disturber =
    let signal_first signal delay =
      match Unix.fork () with
      | 0 ->
        Unix.close (Transport.listener_fd l);
        Unix.sleepf delay;
        (try Unix.kill (List.hd kids) signal with Unix.Unix_error _ -> ());
        Unix._exit 0
      | pid -> Some pid
    in
    match kill_after, drain_after with
    | Some d, _ -> signal_first Sys.sigkill d
    | None, Some d -> signal_first Sys.sigterm d
    | None, None -> None
  in
  let workers = match local_workers with Some w -> w | None -> 0 in
  let sc = scenario ~strategy ~workers ~listen:l ~lease_ms:2000 () in
  let report = Verify.run_test sc name in
  Transport.close_listener l;
  let codes =
    List.mapi
      (fun i pid ->
         match Unix.waitpid [] pid with
         | _, Unix.WEXITED c -> Some (i, c)
         | _, _ -> None
         | exception Unix.Unix_error _ -> None)
      kids
    |> List.filter_map Fun.id
  in
  Option.iter (fun pid -> ignore (Unix.waitpid [] pid)) disturber;
  (report, codes)

let strategies =
  [ ("dfs", Search.Dfs);
    ("bfs", Search.Bfs);
    ("random", Search.Random_path 42);
    ("cover-new", Search.Cover_new) ]

let tests = [ "t1"; "t2"; "t3"; "t4"; "t5" ]

let check_tcp_equiv strategy name () =
  let seq = Verify.run_test (scenario ~strategy ()) name in
  let dist, codes = run_distributed ~pools:[ 2 ] ~strategy name in
  List.iter
    (fun (i, c) ->
       Alcotest.(check int) (Printf.sprintf "pool %d exited cleanly" i) 0 c)
    codes;
  Alcotest.(check bool) "TCP fingerprint equals sequential" true
    (fingerprint dist = fingerprint seq)

let tcp_equiv_cases =
  List.concat_map
    (fun (sname, strategy) ->
       List.map
         (fun name ->
            ( Printf.sprintf "tcp equivalence: %s/%s" sname name,
              `Slow,
              check_tcp_equiv strategy name ))
         tests)
    strategies

(* A remote worker pool SIGKILLed mid-campaign: its lease is requeued
   (by death detection or lease expiry) and the surviving pool finishes
   the campaign with an unchanged fingerprint. *)
let test_kill_one_pool_equiv () =
  let seq = Verify.run_test (scenario ~strategy:Search.Dfs ()) "t4" in
  let dist, codes =
    run_distributed ~pools:[ 1; 1 ] ~kill_after:0.2 ~strategy:Search.Dfs "t4"
  in
  (* The survivor (and the victim, if the campaign beat the killer to
     it) must exit cleanly. *)
  Alcotest.(check bool) "at least the surviving pool exited cleanly" true
    (List.exists (fun (_, c) -> c = 0) codes);
  Alcotest.(check bool) "fingerprint survives a SIGKILLed worker pool" true
    (fingerprint dist = fingerprint seq)

(* SIGTERM drains a pool gracefully: current unit flushed, bye sent, no
   worker-death panic, campaign completes on the remaining peers. *)
let test_sigterm_drain () =
  let seq = Verify.run_test (scenario ~strategy:Search.Dfs ()) "t3" in
  let dist, codes =
    run_distributed ~pools:[ 1; 1 ] ~drain_after:0.2 ~strategy:Search.Dfs "t3"
  in
  List.iter
    (fun (i, c) ->
       Alcotest.(check int)
         (Printf.sprintf "pool %d exited cleanly after drain" i) 0 c)
    codes;
  Alcotest.(check bool) "fingerprint survives a drained worker pool" true
    (fingerprint dist = fingerprint seq)

(* A mismatched parameter fingerprint must be rejected in the handshake
   (terminal for the worker), not silently merged. *)
let test_cookie_mismatch_rejected () =
  let l = Transport.listen ~host:"127.0.0.1" ~port:0 () in
  let _, port = Transport.listener_addr l in
  flush stdout;
  flush stderr;
  let kid =
    match Unix.fork () with
    | 0 ->
      Unix.close (Transport.listener_fd l);
      Obs.Progress.disable ();
      Obs.Sink.reset ();
      let exec ~prefix:_ =
        { Pool.outcome = Pool.Unit_completed; forks = []; errors = [];
          visits = []; instructions = 0; degraded = false;
          solver = Smt.Solver.Stats.zero; requeue = None; chaos = [];
          coverage = Obs.Coverage.zero; profile = Obs.Profile.zero;
          events = []; events_dropped = 0 }
      in
      let code =
        try
          Pool.serve ~host:"127.0.0.1" ~port ~workers:1 ~label:"t1"
            ~strategy:Search.Dfs ~cookie:"not-the-master's-parameters"
            ~max_dials:5 ~exec ()
        with _ -> 1
      in
      Unix._exit code
    | pid -> pid
  in
  (* The master runs with one local worker, so the rejected remote costs
     it nothing. *)
  let sc =
    scenario ~strategy:Search.Dfs ~workers:1 ~listen:l ~lease_ms:2000 ()
  in
  let seq = Verify.run_test (scenario ~strategy:Search.Dfs ()) "t1" in
  let dist = Verify.run_test sc "t1" in
  Transport.close_listener l;
  let code =
    match Unix.waitpid [] kid with
    | _, Unix.WEXITED c -> c
    | _, _ -> -1
  in
  Alcotest.(check int) "mismatched worker exits with failure" 1 code;
  Alcotest.(check bool) "master's campaign is unaffected" true
    (fingerprint dist = fingerprint seq)

(* A campaign can end before every worker of a pool has registered: the
   master stops the workers it knows and goes away, and a late sibling
   finds its dial reset or refused.  The pool must still end, cleanly.
   The test plays the master by hand: it welcomes and stops whichever
   worker it accepts first, then closes the listener with the other's
   dial unanswered.  The pool runs in its own process group so that a
   failure can kill its workers too. *)
let test_pool_ends_after_late_sibling () =
  let l = Transport.listen ~host:"127.0.0.1" ~port:0 () in
  let _, port = Transport.listener_addr l in
  flush stdout;
  flush stderr;
  let kid =
    match Unix.fork () with
    | 0 ->
      ignore (Unix.setsid ());
      Unix.close (Transport.listener_fd l);
      Obs.Progress.disable ();
      Obs.Sink.reset ();
      let code =
        try
          Pool.serve ~host:"127.0.0.1" ~port ~workers:2 ~label:"t1"
            ~strategy:Search.Dfs
            ~exec:(fun ~prefix:_ -> failwith "no unit is dispatched") ()
        with _ -> 1
      in
      Unix._exit code
    | pid -> pid
  in
  let c = Transport.accept l in
  ignore (Transport.read_frame c);
  Transport.write_frame c
    (Obs.Json.Obj
       [ ("cmd", Obs.Json.Str "welcome"); ("peer", Obs.Json.Int 0) ]);
  Transport.write_frame c (Obs.Json.Obj [ ("cmd", Obs.Json.Str "stop") ]);
  Transport.close c;
  Transport.close_listener l;
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec await () =
    match Unix.waitpid [ Unix.WNOHANG ] kid with
    | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.02; await ()
    | 0, _ ->
      (try Unix.kill (-kid) Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] kid);
      None
    | _, Unix.WEXITED c -> Some c
    | _, _ -> Some (-1)
  in
  Alcotest.(check (option int)) "pool exits cleanly within 20 s" (Some 0)
    (await ())

(* ------------------------------------------------------------------ *)
(* Lease expiry on a slow holder                                       *)

let unit_ok ?(forks = []) () =
  { Pool.outcome = Pool.Unit_completed; forks; errors = []; visits = [];
    instructions = 1; degraded = false; solver = Smt.Solver.Stats.zero;
    requeue = None; chaos = [];
    coverage = Obs.Coverage.zero; profile = Obs.Profile.zero;
    events = []; events_dropped = 0 }

(* A unit whose first execution outlives its lease is re-granted to
   another worker — without killing the slow holder, and without the
   path being counted twice when both copies eventually report. *)
let test_lease_expiry_regrants () =
  let flag = Filename.temp_file "symsysc_slow" ".flag" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove flag with Sys_error _ -> ())
    (fun () ->
       let config =
         { Pool.workers = 2; strategy = Search.Dfs;
           limits = Engine.no_limits; stop_after_errors = None;
           label = "lease-test"; max_unit_crashes = 3;
           listen = None; lease_ms = Some 100; cookie = None }
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
           (* Slow only on the first execution: the regrant (and any
              re-run) completes immediately. *)
           (try Sys.remove flag with Sys_error _ -> ());
           Unix.sleepf 0.8;
           unit_ok ()
         | _ -> unit_ok ()
       in
       let r = Pool.run config ~exec () in
       Alcotest.(check bool) "the slow unit's lease expired" true
         (r.Pool.r_lease_expired >= 1);
       Alcotest.(check bool) "expiry requeued, not killed" true
         (r.Pool.r_requeued >= 1);
       Alcotest.(check int) "no worker death" 0 r.Pool.r_worker_deaths;
       Alcotest.(check int) "logical path count unaffected" 3 r.Pool.r_paths;
       Alcotest.(check int) "every unit completed exactly once" 3
         r.Pool.r_completed;
       Alcotest.(check bool) "run still counts as exhaustive" true
         r.Pool.r_exhausted)

(* A root unit that forks eight leaves: nine units in all. *)
let nine_units ~prefix =
  match Array.to_list prefix with
  | [] ->
    unit_ok
      ~forks:
        (List.init 8 (fun i ->
             ( "root",
               Array.init 3 (fun b -> Decision.Dir (i land (1 lsl b) <> 0)) )))
      ()
  | _ -> unit_ok ()

let listening_config ~label ~workers l =
  { Pool.workers; strategy = Search.Dfs;
    limits = { Engine.no_limits with Engine.max_seconds = Some 15.0 };
    stop_after_errors = None; label; max_unit_crashes = 1; listen = Some l;
    lease_ms = Some 2000; cookie = None }

(* The remote twin of [chaos]' "pool: a lost link is not a unit crash".
   A remote peer leaves no exit status, so its dropped or sheared link
   is a lost link: the unit is requeued without blame, and even a crash
   budget of one quarantines nothing.  The master has no local workers;
   a forked remote pool of two serves it under link faults alone. *)
let test_lost_remote_link_is_not_a_crash () =
  let run () =
    let l = Transport.listen ~host:"127.0.0.1" ~port:0 () in
    let _, port = Transport.listener_addr l in
    let pool =
      match Unix.fork () with
      | 0 ->
        Unix.close (Transport.listener_fd l);
        Chaos.configure ~seed:1
          [ (Chaos.Conn_drop, 0.4); (Chaos.Frame_shear, 0.4) ];
        let code =
          try
            Pool.serve ~host:"127.0.0.1" ~port ~workers:2 ~label:"remote-link"
              ~strategy:Search.Dfs ~exec:nine_units ()
          with _ -> 1
        in
        Unix._exit code
      | pid -> pid
    in
    let r =
      Pool.run
        (listening_config ~label:"remote-link" ~workers:0 l)
        ~exec:nine_units ()
    in
    Transport.close_listener l;
    let code =
      match Unix.waitpid [] pool with
      | _, Unix.WEXITED c -> c
      | _ -> -1
    in
    Printf.sprintf "quarantined %d, completed %d, exhausted %b, pool exit %d"
      r.Pool.r_quarantined r.Pool.r_completed r.Pool.r_exhausted code
  in
  Alcotest.(check (option string)) "finished within 30 s"
    (Some "quarantined 0, completed 9, exhausted true, pool exit 0")
    (within ~seconds:30.0 run)

(* A dialer that writes half a frame and goes quiet must not wedge the
   master: every master-side socket has a receive timeout, after which
   an unregistered dialer is dropped.  The dial and its half frame are
   made before the campaign starts, so the master meets them while its
   one local worker still has work. *)
let test_half_frame_dialer () =
  let run () =
    let l = Transport.listen ~host:"127.0.0.1" ~port:0 () in
    let _, port = Transport.listener_addr l in
    let dialer = Transport.connect ~host:"127.0.0.1" ~port in
    Transport.write_all dialer.Transport.c_fd (Bytes.of_string "12\n{") 0 4;
    let r =
      Pool.run
        { (listening_config ~label:"half-frame" ~workers:1 l) with
          lease_ms = Some 500 }
        ~exec:nine_units ()
    in
    Transport.close dialer;
    Transport.close_listener l;
    Printf.sprintf "completed %d, exhausted %b" r.Pool.r_completed
      r.Pool.r_exhausted
  in
  Alcotest.(check (option string)) "finished within 20 s"
    (Some "completed 9, exhausted true") (within ~seconds:20.0 run)

(* ------------------------------------------------------------------ *)
(* Network chaos: campaign fingerprints survive injected faults        *)

let network_chaos_spec =
  match
    Chaos.parse_spec "conn-drop:0.05,conn-stall:0.03,frame-shear:0.04,\
                      dup-result:0.1"
  with
  | Ok spec -> spec
  | Error msg -> failwith msg

let string_of_fingerprint (r : Report.t) =
  let v, paths, completed, errored, infeasible, unknown, instructions,
      exhausted, errors =
    fingerprint r
  in
  Printf.sprintf
    "%s, %d paths (%d completed, %d errored, %d infeasible, %d unknown), \
     %d instructions, exhausted %b, errors [%s]"
    (Report.verdict_to_string v) paths completed errored infeasible unknown
    instructions exhausted
    (String.concat "; " (List.map (fun (site, kind) -> site ^ " " ^ kind) errors))

let check_network_chaos workers name () =
  let clean = Verify.run_test (scenario ~strategy:Search.Dfs ()) name in
  Fun.protect ~finally:Chaos.disable (fun () ->
      Chaos.configure ~seed:23 network_chaos_spec;
      let faulty =
        Verify.run_test
          (scenario ~strategy:Search.Dfs ~workers ()) name
      in
      if fingerprint faulty <> fingerprint clean then begin
        let r = faulty.Report.engine.Engine.resilience in
        Alcotest.failf
          "fingerprint with network chaos at %d workers differs from clean\n\
           clean:  %s\nfaulty: %s\n\
           faulty ledger: requeued %d, worker deaths %d, quarantined %d, \
           lease_expired %d, duplicates %d"
          workers (string_of_fingerprint clean) (string_of_fingerprint faulty)
          r.Engine.res_requeued r.Engine.res_worker_deaths
          r.Engine.res_quarantined r.Engine.res_lease_expired
          r.Engine.res_duplicates
      end)

let network_chaos_cases =
  List.concat_map
    (fun workers ->
       List.map
         (fun name ->
            ( Printf.sprintf "network chaos equivalence: %d workers/%s"
                workers name,
              `Slow,
              check_network_chaos workers name ))
         tests)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Lease-carrying checkpoints cross engine boundaries                  *)

let e1 v = Expr.int ~width:1 v

let lease_body () =
  let x = Engine.fresh "x" 1 in
  if Engine.branch ~site:"bit" (Expr.eq x (e1 0)) then () else ()

let blank_lease_checkpoint ~label ~leases =
  { Checkpoint.label;
    strategy = "dfs";
    frontier = [];
    leases;
    visits = [];
    coverage = Obs.Coverage.zero;
    rng = Search.rng_state (Search.create Search.Dfs);
    paths = 0;
    completed = 0;
    errored = 0;
    infeasible = 0;
    unknown = 0;
    instructions = 0;
    wall_time = 0.0;
    solver = Smt.Solver.Stats.zero;
    errors = [];
    degraded = false;
    stop_reason = None }

(* A checkpoint whose only content is an in-flight lease (say, written
   by a master that died right after dispatch) resumes sequentially:
   the leased prefix is re-executed as an ordinary frontier entry. *)
let test_seq_resume_of_lease_checkpoint () =
  let full =
    Engine.Session.run ~label:"lease-ck" (Engine.Session.make ()) lease_body
  in
  let ck =
    blank_lease_checkpoint ~label:"lease-ck" ~leases:[ ("root", [||], 2) ]
  in
  let resumed =
    Engine.Session.run ~label:"lease-ck"
      (Engine.Session.make ~resume:ck ())
      lease_body
  in
  Alcotest.(check int) "leased root re-explores the whole tree"
    full.Engine.paths resumed.Engine.paths;
  Alcotest.(check int) "completions match" full.Engine.paths_completed
    resumed.Engine.paths_completed;
  Alcotest.(check bool) "resumed run exhausts" true resumed.Engine.exhausted

(* And the pool resumes the same checkpoint by re-granting the lease
   (attempt count preserved for quarantine accounting). *)
let test_pool_resume_of_lease_checkpoint () =
  let config =
    { Pool.workers = 2; strategy = Search.Dfs; limits = Engine.no_limits;
      stop_after_errors = None; label = "lease-ck"; max_unit_crashes = 3;
      listen = None; lease_ms = None; cookie = None }
  in
  let exec ~prefix =
    match Array.to_list prefix with
    | [] ->
      unit_ok
        ~forks:
          [ ("bit", [| Decision.Dir false |]);
            ("bit", [| Decision.Dir true |]) ]
        ()
    | _ -> unit_ok ()
  in
  let ck =
    blank_lease_checkpoint ~label:"lease-ck" ~leases:[ ("root", [||], 2) ]
  in
  let r = Pool.run config ~resume:ck ~exec () in
  Alcotest.(check int) "all three units completed" 3 r.Pool.r_completed;
  Alcotest.(check int) "path count restored from the lease" 3 r.Pool.r_paths;
  Alcotest.(check bool) "run exhausts" true r.Pool.r_exhausted

(* A pool checkpoint taken mid-run records granted-but-unsettled units
   in [leases]; resuming it (at any worker count) loses nothing. *)
let test_pool_checkpoint_resume_roundtrip () =
  let sc = scenario ~strategy:Search.Dfs ~workers:2 () in
  let straight = Verify.run_test sc "t4" in
  let saved = ref None in
  let policy =
    { Checkpoint.write = (fun ck -> saved := Some ck); every_s = infinity }
  in
  let truncated_sc =
    { sc with
      Verify.session =
        { sc.Verify.session with
          Engine.Session.limits =
            { Engine.no_limits with Engine.max_paths = Some 5 };
          checkpoint = Some policy } }
  in
  let truncated = Verify.run_test truncated_sc "t4" in
  Alcotest.(check bool) "truncated run stopped early" true
    (truncated.Report.engine.Engine.stop_reason <> None);
  match !saved with
  | None -> Alcotest.fail "no checkpoint written"
  | Some ck ->
    let resumed_sc =
      { (scenario ~strategy:Search.Dfs ~workers:4 ()) with
        Verify.session =
          { (scenario ~strategy:Search.Dfs ~workers:4 ()).Verify.session with
            Engine.Session.resume = Some ck } }
    in
    let resumed = Verify.run_test resumed_sc "t4" in
    Alcotest.(check bool) "resumed fingerprint equals uninterrupted" true
      (fingerprint resumed = fingerprint straight)

let suite =
  [ ("backoff: pure, capped, seeded schedule", `Quick, test_backoff_schedule);
    ("transport: frame round-trip over a socket", `Quick,
     test_frame_roundtrip_socketpair);
    ("transport: dead peer raises Disconnected (EPIPE pin)", `Quick,
     test_write_to_closed_peer_is_disconnected);
    ("lease: first-result-wins settle", `Quick, test_lease_first_result_wins);
    ("lease: settle drops pending regrant copies", `Quick,
     test_lease_settle_drops_pending_copy);
    ("pool: lease expiry regrants without killing", `Quick,
     test_lease_expiry_regrants);
    ("pool: sequential resume of a lease checkpoint", `Quick,
     test_seq_resume_of_lease_checkpoint);
    ("pool: pool resume of a lease checkpoint", `Quick,
     test_pool_resume_of_lease_checkpoint);
    ("distributed: parallel checkpoint/resume round-trip", `Slow,
     test_pool_checkpoint_resume_roundtrip);
    ("distributed: SIGKILLed worker pool mid-campaign", `Slow,
     test_kill_one_pool_equiv);
    ("distributed: SIGTERM drains a pool gracefully", `Slow,
     test_sigterm_drain);
    ("distributed: mismatched cookie rejected in handshake", `Slow,
     test_cookie_mismatch_rejected) ]
  @ tcp_equiv_cases @ network_chaos_cases
  @ [ ("transport: overlong frame header is malformed", `Quick,
       test_overlong_header_is_malformed);
      ("distributed: a pool ends when its late sibling missed the campaign",
       `Slow, test_pool_ends_after_late_sibling);
      ("pool: a lost remote link is not a unit crash", `Slow,
       test_lost_remote_link_is_not_a_crash);
      ("distributed: a half-frame dialer does not wedge the master", `Slow,
       test_half_frame_dialer) ]
