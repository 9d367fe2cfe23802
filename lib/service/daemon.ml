(* The campaign daemon loop; see daemon.mli. *)

module Json = Obs.Json
module Transport = Symex.Transport

type opts = {
  journal_dir : string;
  max_jobs : int;
  job_retries : int;
  job_timeout_s : float option;
  mem_watermark_mb : float option;
  segment_bytes : int;
  backoff_seed : int;
  checkpoint_every_s : float;
  poll_s : float;
  exit_when_idle : bool;
}

let default_opts ~journal_dir =
  {
    journal_dir;
    max_jobs = 2;
    job_retries = 2;
    job_timeout_s = None;
    mem_watermark_mb = None;
    segment_bytes = 1 lsl 20;
    backoff_seed = 1;
    checkpoint_every_s = 0.5;
    poll_s = 0.05;
    exit_when_idle = false;
  }

(* One forked job process the daemon is waiting on.  [kill] remembers
   why we signalled it, so the reap can tell a timeout SIGKILL from a
   crash and a shed SIGTERM from a drain. *)
type running = {
  pid : int;
  rjob : Supervisor.job;
  started : float;
  mutable kill : string option;
}

let logf fmt =
  Printf.ksprintf
    (fun s ->
       Printf.eprintf "[serve] %s\n" s;
       flush stderr)
    fmt

let safe_kill pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* ---- service gauges ---- *)

let g_queue = Obs.Metrics.gauge ~help:"jobs waiting" "service_queue_depth"
let g_running = Obs.Metrics.gauge ~help:"job processes running" "service_jobs_running"
let g_retried = Obs.Metrics.gauge ~help:"failed attempts retried" "service_jobs_retried"
let g_quarantined =
  Obs.Metrics.gauge ~help:"jobs quarantined by the circuit breaker"
    "service_jobs_quarantined"
let g_shed = Obs.Metrics.gauge ~help:"jobs shed under memory pressure" "service_jobs_shed"
let g_journal = Obs.Metrics.gauge ~help:"active journal segment bytes" "service_journal_bytes"
let g_uptime = Obs.Metrics.gauge ~help:"daemon uptime (s)" "service_uptime_seconds"

let job_summary (j : Supervisor.job) =
  let opt = function Some s -> Json.Str s | None -> Json.Null in
  Json.Obj
    [
      ("id", Json.Int j.Supervisor.id);
      ("job", Json.Str (Jobspec.describe j.Supervisor.spec));
      ("state", Json.Str (Supervisor.state_to_string j.Supervisor.state));
      ("attempts", Json.Int j.Supervisor.attempts);
      ("sheds", Json.Int j.Supervisor.sheds);
      ("verdict", opt j.Supervisor.verdict);
      ("report", opt j.Supervisor.report);
      ("checkpoint", opt j.Supervisor.checkpoint);
      ("fail_reason", opt j.Supervisor.fail_reason);
    ]

let run ?pressure_mb ~listener opts =
  Transport.init ();
  let pressure = Option.value ~default:Symex.Budget.heap_mb pressure_mb in
  let started_at = Unix.gettimeofday () in
  let wal, records, dropped =
    Wal.open_dir ~segment_bytes:opts.segment_bytes opts.journal_dir
  in
  if dropped > 0 then
    logf "journal recovery dropped %d torn byte(s) at a segment tail" dropped;
  let sup =
    Supervisor.create ~wal ~job_retries:opts.job_retries
      ~backoff_seed:opts.backoff_seed records
  in
  if Supervisor.jobs sup <> [] then
    logf "recovered %d job(s) from %s"
      (List.length (Supervisor.jobs sup))
      opts.journal_dir;
  let drain = ref false in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> drain := true)))
    [ Sys.sigterm; Sys.sigint ];
  let running : running list ref = ref [] in
  let submitted_any = ref (Supervisor.jobs sup <> []) in
  let result = ref None in

  let find_running id = List.find_opt (fun r -> r.rjob.Supervisor.id = id) !running in

  (* ---- client protocol ---- *)
  let dispatch req =
    let cmd =
      Option.bind (Json.member "cmd" req) Json.to_string_opt
      |> Option.value ~default:""
    in
    match cmd with
    | "ping" ->
      Json.Obj [ ("ok", Json.Bool true); ("pid", Json.Int (Unix.getpid ())) ]
    | "submit" ->
      (match Option.to_result ~none:"missing spec" (Json.member "spec" req) with
       | Error msg -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]
       | Ok spec_json ->
         (match Jobspec.of_json spec_json with
          | Error msg ->
            Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]
          | Ok spec ->
            (* submit journals + fsyncs before returning: the ack below
               is durable. *)
            let job = Supervisor.submit sup spec in
            submitted_any := true;
            Json.Obj [ ("ok", Json.Bool true); ("id", Json.Int job.Supervisor.id) ]))
    | "status" ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("pid", Json.Int (Unix.getpid ()));
          ("uptime", Json.Float (Unix.gettimeofday () -. started_at));
          ( "counts",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Int v)) (Supervisor.counts sup)) );
          ( "journal",
            Json.Obj
              [
                ("dir", Json.Str opts.journal_dir);
                ("segment", Json.Int (Wal.segment_index wal));
                ("bytes", Json.Int (Wal.bytes wal));
              ] );
          ("jobs", Json.List (List.map job_summary (Supervisor.jobs sup)));
        ]
    | "cancel" ->
      (match Option.bind (Json.member "id" req) Json.to_int_opt with
       | None ->
         Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str "missing id") ]
       | Some id ->
         (match Supervisor.cancel sup id with
          | None ->
            Json.Obj
              [ ("ok", Json.Bool false);
                ("error", Json.Str "no such cancellable job") ]
          | Some job ->
            (match find_running job.Supervisor.id with
             | Some r ->
               r.kill <- Some "cancel";
               safe_kill r.pid Sys.sigkill
             | None -> ());
            Json.Obj [ ("ok", Json.Bool true); ("id", Json.Int id) ]))
    | "drain" ->
      drain := true;
      Json.Obj [ ("ok", Json.Bool true) ]
    | other ->
      Json.Obj
        [ ("ok", Json.Bool false);
          ("error", Json.Str (Printf.sprintf "unknown cmd %S" other)) ]
  in
  let serve_one_client () =
    match Transport.accept listener with
    | exception Unix.Unix_error _ -> ()
    | conn ->
      Fun.protect
        ~finally:(fun () -> Transport.close conn)
        (fun () ->
           (* A stalled client must not stall the campaign. *)
           (try Unix.setsockopt_float conn.Transport.c_fd Unix.SO_RCVTIMEO 2.0
            with Unix.Unix_error _ | Invalid_argument _ -> ());
           (* A malformed frame ([Failure]) is the client's fault: drop
              the connection and keep serving. *)
           match Transport.read_frame conn with
           | exception
               (Transport.Disconnected _ | Unix.Unix_error _ | Failure _) ->
             ()
           | req ->
             (try Transport.write_frame conn (dispatch req)
              with Transport.Disconnected _ | Unix.Unix_error _ -> ()))
  in

  (* ---- job processes ---- *)
  let start_job (job : Supervisor.job) =
    Supervisor.note_start sup job;
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      let code =
        try
          (try Transport.close_listener listener with _ -> ());
          Wal.close wal;
          Runner.exec ~journal_dir:opts.journal_dir
            ~checkpoint_every_s:opts.checkpoint_every_s ~id:job.Supervisor.id
            ~attempt:(job.Supervisor.attempts + 1)
            ~budget_scale:job.Supervisor.budget_scale job.Supervisor.spec
        with exn ->
          prerr_endline ("job process: " ^ Printexc.to_string exn);
          1
      in
      (* _exit: the child must not run the parent's at_exit handlers
         (alcotest reporters, metric dumps) it inherited by fork. *)
      Unix._exit code
    | pid ->
      running :=
        { pid; rjob = job; started = Unix.gettimeofday (); kill = None }
        :: !running
  in
  let on_exit r status =
    let j = r.rjob in
    let ck = Runner.checkpoint_path ~journal_dir:opts.journal_dir j.Supervisor.id in
    if Sys.file_exists ck then Supervisor.note_checkpoint sup j ck;
    if j.Supervisor.state = Supervisor.Cancelled then ()
    else
      match status with
      | Unix.WEXITED 0 ->
        let rpt = Runner.report_path ~journal_dir:opts.journal_dir j.Supervisor.id in
        let verdict =
          match Json.load rpt with
          | Ok doc ->
            Option.bind (Json.member "verdict" doc) Json.to_string_opt
            |> Option.value ~default:"unknown"
          | Error _ -> "unknown"
        in
        Supervisor.note_finish sup j ~verdict ~report:rpt;
        logf "job %d %s: %s" j.Supervisor.id (Jobspec.describe j.Supervisor.spec) verdict
      | Unix.WEXITED 3 when r.kill = Some "shed" ->
        Supervisor.note_shed sup j;
        logf "job %d shed (budget scale now %g)" j.Supervisor.id
          j.Supervisor.budget_scale
      | Unix.WEXITED 3 ->
        (* Drained (or externally interrupted): checkpointed, back in
           the queue for the next admission or the next daemon. *)
        Supervisor.note_interrupted j
      | Unix.WEXITED n ->
        Supervisor.note_fail sup j ~reason:(Printf.sprintf "exit %d" n)
      | Unix.WSIGNALED s when r.kill = Some "timeout" ->
        ignore s;
        Supervisor.note_fail sup j ~reason:"timeout"
      | Unix.WSIGNALED s ->
        Supervisor.note_fail sup j ~reason:(Printf.sprintf "signal %d" s)
      | Unix.WSTOPPED _ -> ()
  in
  let reap () =
    running :=
      List.filter
        (fun r ->
           match Unix.waitpid [ Unix.WNOHANG ] r.pid with
           | 0, _ -> true
           | _, status ->
             on_exit r status;
             false
           | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
             on_exit r (Unix.WEXITED 1);
             false)
        !running
  in

  (* ---- main loop ---- *)
  while !result = None do
    if Chaos.fire Chaos.Service_kill then
      Unix.kill (Unix.getpid ()) Sys.sigkill;
    let client =
      match
        Unix.select [ Transport.listener_fd listener ] [] [] opts.poll_s
      with
      | [], _, _ -> false
      | _ :: _, _, _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    (* Reap before answering, so a status request sees every job whose
       process has already exited. *)
    reap ();
    if client then serve_one_client ();
    let now = Unix.gettimeofday () in
    (* Per-job wall-clock timeout: SIGKILL, counted as a failed attempt. *)
    (match opts.job_timeout_s with
     | None -> ()
     | Some t ->
       List.iter
         (fun r ->
            if r.kill = None && now -. r.started > t then begin
              r.kill <- Some "timeout";
              safe_kill r.pid Sys.sigkill
            end)
         !running);
    (* Degradation ladder: pressure pauses admission; sustained pressure
       sheds the newest job (never the last one — the campaign must
       keep moving). *)
    let over =
      match opts.mem_watermark_mb with
      | Some wm -> pressure () > wm
      | None -> false
    in
    if over && List.length !running > 1
       && not (List.exists (fun r -> r.kill = Some "shed") !running)
    then begin
      match
        List.filter (fun r -> r.kill = None) !running
        |> List.sort (fun a b -> compare b.started a.started)
      with
      | newest :: _ ->
        newest.kill <- Some "shed";
        safe_kill newest.pid Sys.sigterm
      | [] -> ()
    end;
    if (not !drain) && not over then begin
      let continue = ref true in
      while !continue && List.length !running < opts.max_jobs do
        match Supervisor.next_runnable sup ~now:(Unix.gettimeofday ()) with
        | Some job -> start_job job
        | None -> continue := false
      done
    end;
    if Wal.needs_rotation wal then
      Wal.rotate wal ~snapshot:(Supervisor.snapshot sup);
    if !drain then begin
      List.iter
        (fun r ->
           if r.kill = None then begin
             r.kill <- Some "drain";
             safe_kill r.pid Sys.sigterm
           end)
        !running;
      if !running = [] then result := Some 0
    end
    else if opts.exit_when_idle && !submitted_any && !running = []
            && Supervisor.all_terminal sup
    then result := Some 0;
    (* service gauges *)
    let counts = Supervisor.counts sup in
    let c k = float_of_int (List.assoc k counts) in
    Obs.Metrics.set g_queue (c "queued");
    Obs.Metrics.set g_running (float_of_int (List.length !running));
    Obs.Metrics.set g_retried (c "retried");
    Obs.Metrics.set g_quarantined (c "quarantined");
    Obs.Metrics.set g_shed (c "shed");
    Obs.Metrics.set g_journal (float_of_int (Wal.bytes wal));
    Obs.Metrics.set g_uptime (Unix.gettimeofday () -. started_at)
  done;
  Wal.close wal;
  if !drain then logf "drained; journal flushed at %s" opts.journal_dir;
  Option.value ~default:0 !result
