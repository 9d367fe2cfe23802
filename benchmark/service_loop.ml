(* Workload [daemon]: the campaign service in a closed loop with one
   client.  The sample forks [Service.Daemon.run] with default options,
   a fresh journal and a loopback listener; the client submits one job
   at a time and polls [status] every [poll_s] until the job is
   terminal.  Submit-to-verdict latency is what a service user waits
   for.  Small jobs make the journal fsync, the fork per job and the
   report writes a visible share; the two [workers = 2] jobs keep the
   pool and its transport on the critical path.  They are the two
   shortest PLIC jobs: with both workers busy a sample uses every core
   of a 2-core host, and its time then follows whatever else runs
   there, so parallel solving stays a small share.  The loop is closed
   because job costs differ by two orders of magnitude: a fixed-rate
   open loop would measure the job mix rather than the service. *)

open Sampler

module Json = Obs.Json
module Jobspec = Service.Jobspec
module Client = Service.Client

type job = { spec : Jobspec.t; verdict : string }

let plic ?(workers = 1) test num_sources verdict =
  { spec = { Jobspec.default with Jobspec.test; num_sources; workers }; verdict }

let mix ~seed = function
  | Full ->
    [
      plic ~workers:2 "T1" 8 "Fail (1)";
      plic ~workers:2 "T3" 8 "Pass";
      plic "T4" 8 "Fail (3)";
      plic "T2" 4 "Pass";
      plic "T5" 4 "Fail (4)";
      { spec = { Jobspec.default with Jobspec.peripheral = "clint"; test = "timer" };
        verdict = "Pass" };
      { spec =
          { Jobspec.default with
            Jobspec.peripheral = "clint"; test = "timer"; mode = Jobspec.Random;
            seed = Some seed; trials = 256 };
        verdict = "Pass" };
      { spec = { Jobspec.default with Jobspec.peripheral = "uart"; test = "loopback" };
        verdict = "Pass" };
    ]
  | Smoke ->
    [
      plic "T1" 4 "Fail (1)";
      { spec = { Jobspec.default with Jobspec.peripheral = "uart"; test = "loopback" };
        verdict = "Pass" };
    ]

let rounds = function Full -> 3 | Smoke -> 1
let host = "127.0.0.1"
let poll_s = 0.01
let job_deadline_s = 60.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let start_daemon ~journal ~log =
  let listener = Symex.Transport.listen ~host ~port:0 () in
  let _, port = Symex.Transport.listener_addr listener in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    (* The daemon and its jobs run untraced even in a traced sample. *)
    Obs.Sink.reset ();
    let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Unix.dup2 fd Unix.stderr;
    Unix.close fd;
    let code =
      try Service.Daemon.run ~listener (Service.Daemon.default_opts ~journal_dir:journal)
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    Symex.Transport.close_listener listener;
    (pid, port)

let rec await_ping ~port ~deadline =
  match Client.ping ~host ~port with
  | Ok _ -> true
  | Error _ when Outcome.now () < deadline ->
    Unix.sleepf 0.001;
    await_ping ~port ~deadline
  | Error _ -> false

(* Drain, then reap; a daemon that does not exit in time is killed. *)
let stop_daemon pid ~port =
  ignore (Client.drain ~host ~port);
  let deadline = Outcome.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Outcome.now () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

let str key j = Option.bind (Json.member key j) Json.to_string_opt
let int key j = Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int_opt)
let flt key j = Option.bind (Json.member key j) Json.to_float_opt

let job_row id status =
  Option.bind (Option.bind (Json.member "jobs" status) Json.to_list_opt)
    (List.find_opt (fun row -> int "id" row = id))

(* Layer totals over the sample's job reports and client calls. *)
type totals = {
  mutable solver : Smt.Solver.Stats.t;
  mutable symex : (string * float) list;
  mutable symex_self : float;
  mutable pool : (string * float) list;
  mutable pool_s : float;
  mutable job_s : float;  (** report [wall_time] summed over jobs *)
  mutable lat : (string * float list) list;
}

let add_to l key v =
  let prev = Option.value ~default:0.0 (List.assoc_opt key l) in
  (key, prev +. v) :: List.remove_assoc key l

let push t key v =
  t.lat <- (key, v :: Option.value ~default:[] (List.assoc_opt key t.lat))
           :: List.remove_assoc key t.lat

(* Account one symbolic job report; returns its failures. *)
let account t ~pooled report =
  let res = Option.value ~default:(Json.Obj []) (Json.member "resilience" report) in
  let n key = float_of_int (int key report) in
  t.solver <-
    Smt.Solver.Stats.add t.solver
      (Smt.Solver.Stats.of_json
         (Option.value ~default:(Json.Obj []) (Json.member "solver" report)));
  List.iter
    (fun (k, v) -> t.symex <- add_to t.symex k v)
    [
      ("symex.paths", n "paths");
      ("symex.instructions", n "instructions");
      ("symex.executed", n "instructions" -. n "instructions_saved");
      ("symex.snapshot_restores", n "snapshot_restores");
      ("symex.replay_fallbacks", n "replay_fallbacks");
      ("symex.paths_unknown", n "paths_unknown");
    ];
  let wall = Option.value ~default:0.0 (flt "wall_time" report) in
  if pooled then begin
    t.pool_s <- t.pool_s +. wall;
    List.iter
      (fun (k, v) -> t.pool <- add_to t.pool k v)
      [
        ("pool.paths", n "paths");
        ("pool.requeued", float_of_int (int "requeued" res));
        ("pool.worker_deaths", float_of_int (int "worker_deaths" res));
        ("pool.lease_expired", float_of_int (int "lease_expired" res));
        ("pool.duplicates", float_of_int (int "duplicates" res));
      ]
  end
  else
    (* A pooled job's solver time is summed over its workers, so only
       single-worker jobs give the engine's own time. *)
    t.symex_self <-
      t.symex_self +. wall -. Option.value ~default:0.0 (flt "solver_time" report);
  (if int "paths_unknown" report = 0 then []
   else [ Printf.sprintf "%d Unknown path(s)" (int "paths_unknown" report) ])
  @
  if int "unvalidated" res = 0 then []
  else [ Printf.sprintf "%d unvalidated error(s)" (int "unvalidated" res) ]

let run_job t c ~port (job : job) =
  let what = Jobspec.describe job.spec in
  let t0 = Outcome.now () in
  let submitted, submit_s =
    Outcome.timed (fun () ->
        Outcome.span "service.submit" (fun () -> Client.submit ~host ~port job.spec))
  in
  push t "service.submit_s" submit_s;
  match submitted with
  | Error msg -> Outcome.operation c ~what [ "submit: " ^ msg ]
  | Ok id ->
    let rec poll () =
      Unix.sleepf poll_s;
      let status, dt =
        Outcome.timed (fun () ->
            Outcome.span "service.status" (fun () -> Client.status ~host ~port))
      in
      push t "service.status_s" dt;
      match Option.bind (Result.to_option status) (job_row id) with
      | Some row when List.mem (str "state" row) [ Some "finished"; Some "quarantined"; Some "cancelled" ] ->
        Some row
      | _ when Outcome.now () -. t0 > job_deadline_s -> None
      | _ -> poll ()
    in
    let row = poll () in
    let latency = Outcome.now () -. t0 in
    push t "service.verdict_s" latency;
    Outcome.operation c ~what
      (match row with
       | None -> [ Printf.sprintf "no verdict after %.0f s" job_deadline_s ]
       | Some row ->
         let show = Option.value ~default:"none" in
         Outcome.expect show "state" ~got:(str "state" row) ~want:(Some "finished")
         @ Outcome.expect show "verdict" ~got:(str "verdict" row) ~want:(Some job.verdict)
         @ Outcome.expect string_of_int "retries" ~got:(int "attempts" row) ~want:0
         @
         match Option.map Json.load (str "report" row) with
         | Some (Ok report) ->
           (match flt "wall_time" report with
            | Some wall ->
              t.job_s <- t.job_s +. wall;
              push t "service.overhead_s" (latency -. wall)
            | None -> ());
           if job.spec.Jobspec.mode = Jobspec.Symbolic then
             account t ~pooled:(job.spec.Jobspec.workers > 1) report
           else []
         | Some (Error msg) -> [ "report: " ^ msg ]
         | None -> [ "no report" ])

let run scale ~seed ~dir ~mark =
  let journal = Filename.concat dir "journal" in
  rm_rf journal;
  let pid, port =
    Outcome.span "service.start" (fun () ->
        let pid, port = start_daemon ~journal ~log:(Filename.concat dir "daemon.log") in
        if await_ping ~port ~deadline:(Outcome.now () +. 10.0) then (pid, port)
        else begin
          stop_daemon pid ~port;
          failwith "daemon never answered a ping"
        end)
  in
  Fun.protect
    ~finally:(fun () ->
        stop_daemon pid ~port;
        rm_rf journal)
    (fun () ->
       mark ();
       let t =
         { solver = Smt.Solver.Stats.zero; symex = []; symex_self = 0.0; pool = [];
           pool_s = 0.0; job_s = 0.0; lat = [] }
       in
       let c = Outcome.checks () in
       let jobs = mix ~seed scale in
       for _ = 1 to rounds scale do
         List.iter (run_job t c ~port) jobs
       done;
       let lat key = Option.value ~default:[] (List.assoc_opt key t.lat) in
       let sum key = List.fold_left ( +. ) 0.0 (lat key) in
       let status = Result.value ~default:(Json.Obj []) (Client.status ~host ~port) in
       let counts = Option.value ~default:(Json.Obj []) (Json.member "counts" status) in
       let journal_bytes =
         int "bytes" (Option.value ~default:(Json.Obj []) (Json.member "journal" status))
       in
       let sv, st = Outcome.solver t.solver in
       Outcome.finish c ~work_s:(sum "service.verdict_s")
         ~values:
           (sv @ List.rev t.symex @ List.rev t.pool
            @ [
              ("service.journal_bytes", float_of_int journal_bytes);
              ("service.retries", float_of_int (int "retried" counts));
              ("service.quarantined", float_of_int (int "quarantined" counts));
            ])
         ~times:
           (st
            @ [
              ("symex.self", t.symex_self);
              ("pool.job", t.pool_s);
              ("service.submit", sum "service.submit_s");
              ("service.status", sum "service.status_s");
              ("service.overhead", sum "service.overhead_s");
              ("service.job", t.job_s);
            ])
         ~latencies:(List.map (fun k -> (k, List.rev (lat k))) Catalog.latencies)
         ())

let workload =
  {
    name = "daemon";
    operations = (fun s -> rounds s * List.length (mix ~seed:0 s));
    deterministic = false;
    run;
  }
