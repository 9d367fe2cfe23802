module Json = Obs.Json
module Stats = Smt.Solver.Stats

type unit_outcome =
  | Unit_completed
  | Unit_errored
  | Unit_infeasible
  | Unit_unknown
  | Unit_aborted

type unit_result = {
  outcome : unit_outcome;
  forks : (string * Decision.t array) list;
  errors : Error.t list;
  visits : (string * int) list;
  instructions : int;
  degraded : bool;
  solver : Stats.t;
  requeue : Decision.t array option;
  chaos : (string * int) list;
  coverage : Obs.Coverage.t;
  profile : Obs.Profile.t;
  events : Obs.Event.t list;
  events_dropped : int;
}

type config = {
  workers : int;
  strategy : Search.strategy;
  limits : Budget.t;
  stop_after_errors : int option;
  label : string;
  max_unit_crashes : int;
  listen : Transport.listener option;
  lease_ms : int option;
  cookie : string option;
}

type result = {
  r_errors : Error.t list;
  r_paths : int;
  r_completed : int;
  r_errored : int;
  r_infeasible : int;
  r_unknown : int;
  r_instructions : int;
  r_wall_time : float;
  r_solver : Stats.t;
  r_exhausted : bool;
  r_stop_reason : Budget.reason option;
  r_visits : (string * int) list;
  r_dispatched : int;
  r_requeued : int;
  r_worker_deaths : int;
  r_quarantined : int;
  r_lease_expired : int;
  r_duplicates : int;
  r_reconnects : int;
  r_chaos : (string * int) list;
  r_coverage : Obs.Coverage.t;
  r_profile : Obs.Profile.t;
}

(* ------------------------------------------------------------------ *)
(* Message encoding.  Prefixes travel in their Decision.to_string form
   — the same representation checkpoints use — so work units are
   replayed without consulting the solver.  The framing itself
   (length-prefixed JSON) lives in {!Transport}. *)

let frame_string = Transport.frame_string

let prefix_to_json prefix =
  Json.List
    (Array.to_list
       (Array.map (fun d -> Json.Str (Decision.to_string d)) prefix))

let map_result f l =
  List.fold_right
    (fun x acc ->
       match acc with
       | Error _ -> acc
       | Ok tl -> (match f x with Ok y -> Ok (y :: tl) | Error e -> Error e))
    l (Ok [])

let prefix_of_json j =
  match Json.to_list_opt j with
  | None -> Error "pool: malformed prefix"
  | Some l ->
    Result.map Array.of_list
      (map_result
         (fun dj ->
            match Json.to_string_opt dj with
            | Some s -> Decision.of_string s
            | None -> Error "pool: malformed decision")
         l)

let outcome_to_string = function
  | Unit_completed -> "completed"
  | Unit_errored -> "errored"
  | Unit_infeasible -> "infeasible"
  | Unit_unknown -> "unknown"
  | Unit_aborted -> "aborted"

let outcome_of_string = function
  | "completed" -> Some Unit_completed
  | "errored" -> Some Unit_errored
  | "infeasible" -> Some Unit_infeasible
  | "unknown" -> Some Unit_unknown
  | "aborted" -> Some Unit_aborted
  | _ -> None

let unit_to_json id prefix =
  Json.Obj
    [ ("cmd", Json.Str "unit");
      ("id", Json.Int id);
      ("prefix", prefix_to_json prefix) ]

let stop_msg = Json.Obj [ ("cmd", Json.Str "stop") ]

let bye_msg = Json.Obj [ ("cmd", Json.Str "bye") ]

let fatal_msg msg =
  Json.Obj [ ("cmd", Json.Str "fatal"); ("msg", Json.Str msg) ]

(* The TCP registration handshake.  A dialing worker introduces itself
   with [hello]; the master either answers [welcome] (assigning the
   peer id and pushing down the forwarding settings) or a [fatal]
   frame naming the mismatch — a worker started with the wrong
   testbench, strategy or parameters must fail loudly, not corrupt the
   campaign. *)
let hello_msg ~label ~strategy ~slot ~reconnects ~cookie =
  Json.Obj
    ([ ("cmd", Json.Str "hello");
       ("label", Json.Str label);
       ("strategy", Json.Str strategy);
       ("slot", Json.Int slot);
       ("reconnects", Json.Int reconnects) ]
     @ match cookie with None -> [] | Some c -> [ ("cookie", Json.Str c) ])

let welcome_msg ~peer ~forward ~epoch =
  Json.Obj
    [ ("cmd", Json.Str "welcome");
      ("peer", Json.Int peer);
      ("forward", Json.Bool forward);
      ("epoch", if Float.is_nan epoch then Json.Null else Json.Float epoch) ]

let result_to_json id (r : unit_result) =
  Json.Obj
    [ ("cmd", Json.Str "result");
      ("id", Json.Int id);
      ("outcome", Json.Str (outcome_to_string r.outcome));
      ("forks",
       Json.List
         (List.map
            (fun (site, prefix) ->
               Json.Obj
                 [ ("site", Json.Str site); ("prefix", prefix_to_json prefix) ])
            r.forks));
      ("errors", Json.List (List.map Error.to_json r.errors));
      ("visits",
       Json.List
         (List.map
            (fun (site, n) ->
               Json.Obj [ ("site", Json.Str site); ("count", Json.Int n) ])
            r.visits));
      ("instructions", Json.Int r.instructions);
      ("degraded", Json.Bool r.degraded);
      ("solver", Stats.to_json r.solver);
      ("chaos",
       Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.chaos));
      ("coverage", Obs.Coverage.to_json r.coverage);
      ("profile", Obs.Profile.to_json r.profile);
      ("events", Json.List (List.map Obs.Event.to_json r.events));
      ("events_dropped", Json.Int r.events_dropped);
      ("requeue",
       match r.requeue with None -> Json.Null | Some p -> prefix_to_json p) ]

let result_of_json j =
  let ( let* ) = Result.bind in
  let require name = function
    | Some v -> Ok v
    | None -> Error ("pool: result missing " ^ name)
  in
  let* id = require "id" (Option.bind (Json.member "id" j) Json.to_int_opt) in
  let* outcome_s =
    require "outcome" (Option.bind (Json.member "outcome" j) Json.to_string_opt)
  in
  let* outcome = require "outcome" (outcome_of_string outcome_s) in
  let* forks_l =
    require "forks" (Option.bind (Json.member "forks" j) Json.to_list_opt)
  in
  let* forks =
    map_result
      (fun fj ->
         let* site =
           require "fork site"
             (Option.bind (Json.member "site" fj) Json.to_string_opt)
         in
         let* prefix =
           match Json.member "prefix" fj with
           | Some pj -> prefix_of_json pj
           | None -> Error "pool: fork missing prefix"
         in
         Ok (site, prefix))
      forks_l
  in
  let* errors =
    match Option.bind (Json.member "errors" j) Json.to_list_opt with
    | None -> Ok []
    | Some l -> map_result Error.of_json l
  in
  let* visits =
    match Option.bind (Json.member "visits" j) Json.to_list_opt with
    | None -> Ok []
    | Some l ->
      map_result
        (fun vj ->
           match
             ( Option.bind (Json.member "site" vj) Json.to_string_opt,
               Option.bind (Json.member "count" vj) Json.to_int_opt )
           with
           | Some site, Some n -> Ok (site, n)
           | _ -> Error "pool: malformed visit entry")
        l
  in
  let* requeue =
    match Json.member "requeue" j with
    | None | Some Json.Null -> Ok None
    | Some pj -> Result.map Option.some (prefix_of_json pj)
  in
  let solver =
    match Json.member "solver" j with
    | Some sj -> Stats.of_json sj
    | None -> Stats.zero
  in
  let chaos =
    match Json.member "chaos" j with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int_opt v))
        fields
    | _ -> []
  in
  let coverage =
    match Json.member "coverage" j with
    | Some cj -> Obs.Coverage.of_json cj
    | None -> Obs.Coverage.zero
  in
  let profile =
    match Json.member "profile" j with
    | Some pj -> Obs.Profile.of_json pj
    | None -> Obs.Profile.zero
  in
  let events =
    match Option.bind (Json.member "events" j) Json.to_list_opt with
    | None -> []
    | Some l -> List.filter_map Obs.Event.of_json l
  in
  Ok
    ( id,
      { outcome;
        forks;
        errors;
        visits;
        instructions =
          Option.value ~default:0
            (Option.bind (Json.member "instructions" j) Json.to_int_opt);
        degraded =
          Option.value ~default:false
            (Option.bind (Json.member "degraded" j) Json.to_bool_opt);
        solver;
        requeue;
        chaos;
        coverage;
        profile;
        events;
        events_dropped =
          Option.value ~default:0
            (Option.bind (Json.member "events_dropped" j) Json.to_int_opt) } )

(* ------------------------------------------------------------------ *)
(* Worker side: one session over one connection, shared by forked local
   workers and remote TCP workers.  A session silences inherited
   telemetry, serves units until a stop frame or a drain, and raises
   {!Transport.Disconnected} on every link fault: EOF, EPIPE, and the
   [conn-drop]/[frame-shear] chaos points alike.  A forked worker turns
   that into exit status 0, a remote one into a redial.

   SIGTERM requests a {e drain}: the worker finishes the unit in hand,
   flushes its result (with the event/coverage/profile deltas), sends a
   [bye] frame so the master deregisters it without counting a death,
   and exits. *)

let serve_conn ~exec ~conn ~drain ~forward () =
  let send_raw s len =
    Transport.write_all conn.Transport.c_fd (Bytes.unsafe_of_string s) 0 len
  in
  let send j =
    let s = frame_string j in
    send_raw s (String.length s)
  in
  (* Worker-level chaos kills the process with a non-zero status, as a
     real crash would.  Connection-level chaos raises [Disconnected]
     without closing the socket: a forked worker exits with status 0,
     so the master sees EOF only once the worker has exited and reaps a
     status that says it did not crash. *)
  let send_result id res =
    let res =
      if forward then begin
        let events, events_dropped = Obs.Export.forwarding_take () in
        { res with chaos = Chaos.counts (); events; events_dropped }
      end
      else { res with chaos = Chaos.counts () }
    in
    let j = result_to_json id res in
    if Chaos.fire Chaos.Frame_truncate then begin
      (* A worker dying mid-write: half a frame, then gone. *)
      let s = frame_string j in
      (try send_raw s (String.length s / 2) with _ -> ());
      Unix._exit 132
    end
    else if Chaos.fire Chaos.Frame_corrupt then begin
      (* Well-framed garbage: the length header is intact but the
         payload no longer parses, so the master must treat this
         worker as compromised and requeue its unit. *)
      let payload = Bytes.of_string (Json.to_string j) in
      if Bytes.length payload > 0 then Bytes.set payload 0 'X';
      let s =
        string_of_int (Bytes.length payload) ^ "\n" ^ Bytes.to_string payload
      in
      send_raw s (String.length s)
    end
    else if Chaos.fire Chaos.Conn_drop then
      (* The connection goes away before the result ships: the master
         requeues the unit. *)
      raise (Transport.Disconnected "chaos conn-drop")
    else if Chaos.fire Chaos.Frame_shear then begin
      (* The connection dies mid-write: the master reads a sheared
         frame, then EOF. *)
      let s = frame_string j in
      (try send_raw s (String.length s / 2) with _ -> ());
      raise (Transport.Disconnected "chaos frame-shear")
    end
    else begin
      (* A stalled socket: the result arrives, but late enough to
         expire a short lease. *)
      if Chaos.fire Chaos.Conn_stall then Unix.sleepf 0.2;
      send j;
      (* First-result-wins on the master makes the duplicate frame a
         counted no-op. *)
      if Chaos.fire Chaos.Dup_result then send j
    end
  in
  let graceful () = try send bye_msg with _ -> () in
  (* Wait for a frame without blocking past a drain request: a SIGTERM
     during the select shows up as EINTR (or the next timeout) and the
     idle worker deregisters immediately instead of hanging in read. *)
  let rec await () =
    if !drain then None
    else
      match Unix.select [ conn.Transport.c_fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      | [], _, _ -> await ()
      | _ -> Some (Transport.read_frame conn)
  in
  let rec loop () =
    match await () with
    | None -> graceful ()
    | Some j ->
      (match Option.bind (Json.member "cmd" j) Json.to_string_opt with
       | Some "stop" | None -> ()
       | Some "unit" ->
         let id =
           Option.value ~default:0
             (Option.bind (Json.member "id" j) Json.to_int_opt)
         in
         (match
            match Json.member "prefix" j with
            | Some pj -> prefix_of_json pj
            | None -> Error "pool: unit missing prefix"
          with
          | Error msg -> send (fatal_msg msg)
          | Ok prefix ->
            if Chaos.fire Chaos.Worker_crash then Unix._exit 131;
            if Chaos.fire Chaos.Worker_hang then
              (* A stuck worker: no result, no exit.  Only the lease
                 clears it. *)
              while true do
                Unix.sleepf 3600.0
              done;
            (match exec ~prefix with
             | res ->
               send_result id res;
               if !drain then graceful () else loop ()
             | exception exn -> send (fatal_msg (Printexc.to_string exn))))
       | Some _ -> loop ())
  in
  loop ()

(* [peer] salts the chaos streams: siblings inherit identical streams
   over [fork] and would otherwise all fail on the same draw, and the
   reseed also zeroes the inherited injection counters, so the worker
   accounts only its own.  With [forward], the worker sends its trace
   events back in result frames, timestamped on the master's [epoch]. *)
let session ~exec ~drain ~peer ~forward ~epoch conn =
  Obs.Progress.disable ();
  Obs.Sink.reset ();
  if forward then begin
    if not (Float.is_nan epoch) then Obs.Sink.set_epoch epoch;
    Obs.Export.forwarding_begin ()
  end;
  if Chaos.active () then Chaos.reseed peer;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
  serve_conn ~exec ~conn ~drain ~forward ()

(* ------------------------------------------------------------------ *)
(* Master side. *)

type peer = {
  p_id : int;
  p_pid : int option;          (* forked local workers only *)
  p_conn : Transport.conn;
  mutable p_lease : (Lease.entry * float) option;
      (* granted lease and dispatch time *)
  mutable p_alive : bool;
  mutable p_expired : bool;
      (* silent past its lease deadline and not heard from since: gets
         no unit and does not count toward the local pool's strength *)
  mutable p_last_seen : float;
      (* last frame received from this peer *)
  mutable p_chaos : (string * int) list;
      (* cumulative injection counts last reported by this peer *)
}

exception Worker_fatal of string

(* A dispatch can fail (worker died while being written to) without the
   run being dead — bounded by this many consecutive no-progress loop
   iterations before the master gives up and persists the frontier. *)
let max_dispatch_stalls = 10_000

(* A dialed-in connection that never completes its hello is dropped
   after this long, so a port scanner or wedged dialer cannot pin
   master resources.  It is also the receive timeout of every
   master-side peer socket: the master reads a frame once [select]
   reports its first byte, and a peer that stops halfway through a
   frame must not block it. *)
let handshake_timeout_s = 5.0

let set_recv_timeout (c : Transport.conn) =
  try Unix.setsockopt_float c.Transport.c_fd Unix.SO_RCVTIMEO handshake_timeout_s
  with Unix.Unix_error _ -> ()

let run cfg ?resume ?checkpoint ~exec () =
  (match cfg.listen with
   | None ->
     if cfg.workers < 1 then invalid_arg "Pool.run: workers must be >= 1"
   | Some _ ->
     if cfg.workers < 0 then invalid_arg "Pool.run: workers must be >= 0");
  if cfg.max_unit_crashes < 1 then
    invalid_arg "Pool.run: max_unit_crashes must be >= 1";
  (match cfg.lease_ms with
   | Some ms when ms < 1 -> invalid_arg "Pool.run: lease_ms must be >= 1"
   | _ -> ());
  Transport.init ();
  let leases = Lease.create ~lease_ms:cfg.lease_ms in
  let frontier = Search.create cfg.strategy in
  let error_table : (string * Error.kind, unit) Hashtbl.t =
    Hashtbl.create 16
  in
  let errors_rev = ref [] in
  let n_errors = ref 0 in
  let n_paths = ref 0 in
  let n_completed = ref 0 in
  let n_errored = ref 0 in
  let n_infeasible = ref 0 in
  let n_unknown = ref 0 in
  let instr = ref 0 in
  let solver_acc = ref Stats.zero in
  let degraded = ref false in
  let stop_reason = ref None in
  (* Unit ids come from their own monotonic sequence, never reused:
     aborts and quarantines shrink [n_paths], and a reused id would
     collide with the settled table and drop a fresh result as a
     duplicate. *)
  let unit_seq = ref 0 in
  let dispatched = ref 0 in
  let requeued = ref 0 in
  let deaths = ref 0 in
  let quarantined = ref 0 in
  let lease_expired = ref 0 in
  let duplicates = ref 0 in
  let reconnects = ref 0 in
  let stalls = ref 0 in
  let chaos0 = Chaos.counts () in
  let worker_chaos = ref [] in
  let coverage_acc = ref Obs.Coverage.zero in
  let profile_acc = ref Obs.Profile.zero in
  let now = Unix.gettimeofday () in
  let started =
    match resume with None -> now | Some ck -> now -. ck.Checkpoint.wall_time
  in
  (match resume with
   | None -> Search.push frontier ~site:"root" [||]
   | Some ck ->
     if ck.Checkpoint.label <> cfg.label then
       failwith
         (Printf.sprintf "Pool.run: checkpoint is for %S, not %S"
            ck.Checkpoint.label cfg.label);
     let here = Search.strategy_to_string cfg.strategy in
     if ck.Checkpoint.strategy <> here then
       failwith
         (Printf.sprintf
            "Pool.run: checkpoint used strategy %s, this run uses %s"
            ck.Checkpoint.strategy here);
     List.iter
       (fun (site, prefix) -> Search.push frontier ~site prefix)
       ck.Checkpoint.frontier;
     Search.set_visit_counts frontier ck.Checkpoint.visits;
     Search.set_rng_state frontier ck.Checkpoint.rng;
     n_paths := ck.Checkpoint.paths;
     n_completed := ck.Checkpoint.completed;
     n_errored := ck.Checkpoint.errored;
     n_infeasible := ck.Checkpoint.infeasible;
     n_unknown := ck.Checkpoint.unknown;
     instr := ck.Checkpoint.instructions;
     solver_acc := ck.Checkpoint.solver;
     coverage_acc := ck.Checkpoint.coverage;
     degraded := ck.Checkpoint.degraded;
     (* Units that were granted but unsettled at snapshot time re-enter
        through the pending queue with their attempt counts intact.
        They were excluded from the snapshot's [paths], so count them
        back in as the outstanding grants they are. *)
     List.iter
       (fun (site, prefix, attempts) ->
          let e =
            { Lease.l_id = !unit_seq; l_site = site; l_prefix = prefix;
              l_attempts = attempts; l_deadline = infinity }
          in
          incr unit_seq;
          incr n_paths;
          Lease.requeue leases e)
       ck.Checkpoint.leases;
     List.iter
       (fun (e : Error.t) ->
          Hashtbl.replace error_table (e.Error.site, e.Error.kind) ();
          errors_rev := e :: !errors_rev;
          incr n_errors)
       ck.Checkpoint.errors);
  let m_queue =
    Obs.Metrics.gauge ~help:"pending work units in the master frontier"
      "symsysc_pool_queue_depth"
  in
  let m_busy =
    Obs.Metrics.gauge ~help:"workers currently executing a unit"
      "symsysc_pool_workers_busy"
  in
  let m_dispatched =
    Obs.Metrics.counter ~help:"work units handed to workers"
      "symsysc_pool_units_dispatched"
  in
  let m_requeued =
    Obs.Metrics.counter
      ~help:"work units re-queued (aborts, worker deaths, lease expiries)"
      "symsysc_pool_requeues"
  in
  let m_deaths =
    Obs.Metrics.counter ~help:"worker processes lost mid-run"
      "symsysc_pool_worker_deaths"
  in
  let m_quarantined =
    Obs.Metrics.counter
      ~help:"work units quarantined after repeatedly killing workers"
      "symsysc_pool_units_quarantined"
  in
  let m_lease_expired =
    Obs.Metrics.counter
      ~help:"leases that passed their deadline and were requeued"
      "symsysc_pool_lease_expired_total"
  in
  let m_duplicates =
    Obs.Metrics.counter
      ~help:"duplicate or late unit results dropped by first-result-wins"
      "symsysc_pool_duplicate_results_total"
  in
  let m_reconnects =
    Obs.Metrics.counter ~help:"remote worker re-registrations"
      "symsysc_pool_reconnects_total"
  in
  (* Workers are spawned dynamically (the master replaces dead ones),
     so each spawn creates its own socketpair and the master closes the
     worker's end immediately after the fork.  A child can then only
     inherit the master's ends of the siblings alive at its fork, and
     it closes those too: a sibling would otherwise never see EOF when
     the master goes away.  The listener descriptor is closed in the
     child for the same reason.  A dead peer's descriptor is already
     closed, and this spawn's own socketpair may have reused its
     number, so the child leaves it alone.  A forked worker needs no
     handshake: it inherits the telemetry settings a [welcome] would
     carry. *)
  let peers : peer list ref = ref [] in
  let unregistered : (Transport.conn * float) list ref = ref [] in
  let next_id = ref 0 in
  let spawns = ref 0 in
  let spawn_cap = cfg.workers + 1024 in
  let spawn () =
    let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    flush stdout;
    flush stderr;
    let id = !next_id in
    incr next_id;
    incr spawns;
    let addr = Printf.sprintf "w%d" id in
    match Unix.fork () with
    | 0 ->
      Unix.close mine;
      (match cfg.listen with
       | Some l -> (try Unix.close (Transport.listener_fd l) with _ -> ())
       | None -> ());
      List.iter (fun p -> if p.p_alive then Transport.close p.p_conn) !peers;
      List.iter (fun (c, _) -> Transport.close c) !unregistered;
      (match
         session ~exec ~drain:(ref false) ~peer:id
           ~forward:(Obs.Export.active ())
           ~epoch:(Obs.Sink.current_epoch ())
           { Transport.c_fd = theirs; c_addr = addr }
       with
       | () | (exception Transport.Disconnected _) -> Unix._exit 0
       | exception _ -> Unix._exit 125)
    | pid ->
      Unix.close theirs;
      let c = { Transport.c_fd = mine; c_addr = addr } in
      set_recv_timeout c;
      let p =
        { p_id = id; p_pid = Some pid; p_conn = c; p_lease = None;
          p_alive = true; p_expired = false;
          p_last_seen = Unix.gettimeofday (); p_chaos = [] }
      in
      peers := !peers @ [ p ]
  in
  for _ = 1 to cfg.workers do spawn () done;
  let elapsed () = Unix.gettimeofday () -. started in
  let local_strength () =
    List.length
      (List.filter
         (fun p -> p.p_alive && p.p_pid <> None && not p.p_expired)
         !peers)
  in
  let inflight () =
    List.fold_left
      (fun acc p -> acc + (match p.p_lease with Some _ -> 1 | None -> 0))
      0 !peers
  in
  let stop reason = if !stop_reason = None then stop_reason := Some reason in
  (* All grants not yet settled: held by peers (minus already-settled
     ids a slow holder is still finishing) plus the pending queue. *)
  let unsettled_entries () =
    let held =
      List.filter_map
        (fun p ->
           match p.p_lease with
           | Some (e, _) when not (Lease.is_settled leases e.Lease.l_id) ->
             Some e
           | _ -> None)
        !peers
    in
    held @ Lease.pending_entries leases
  in
  let snapshot ~final =
    let entries = unsettled_entries () in
    { Checkpoint.label = cfg.label;
      strategy = Search.strategy_to_string cfg.strategy;
      frontier = Search.entries frontier;
      leases =
        List.map
          (fun (e : Lease.entry) ->
             (e.Lease.l_site, e.Lease.l_prefix, e.Lease.l_attempts))
          entries;
      visits = Search.visit_counts frontier;
      coverage = !coverage_acc;
      rng = Search.rng_state frontier;
      paths = !n_paths - List.length entries;
      completed = !n_completed;
      errored = !n_errored;
      infeasible = !n_infeasible;
      unknown = !n_unknown;
      instructions = !instr;
      wall_time = elapsed ();
      solver = !solver_acc;
      errors = List.rev !errors_rev;
      degraded = !degraded;
      stop_reason =
        (if final then Option.map Budget.reason_to_string !stop_reason
         else None) }
  in
  (* Units that repeatedly take their worker down with them are poison:
     after [max_unit_crashes] deaths attributable to the same prefix,
     the unit is quarantined instead of requeued — losing one path
     (and the exhaustiveness claim) beats losing the whole campaign.
     Keyed on crashes, not lease attempts: expiry regrants of a merely
     slow unit must never quarantine it.  A unit is charged only on
     evidence of a crash, which only a forked worker's exit status
     gives: a worker whose link fails exits with status 0, and a remote
     peer leaves no status at all, so its EOF, reset or failed write
     is a lost link.  Either way the unit is requeued without blame. *)
  let crash_counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let prefix_key p =
    String.concat ";" (Array.to_list (Array.map Decision.to_string p))
  in
  let handle_death ?(graceful = false) p =
    p.p_alive <- false;
    let crashed =
      match p.p_pid with
      | Some pid ->
        (* SIGKILL before reaping: a worker that sent a corrupt or
           stalled frame may still be running.  A worker whose EOF we
           saw has already exited (workers never close their socket
           first), so the kill leaves its status alone. *)
        if not graceful then (try Unix.kill pid Sys.sigkill with _ -> ());
        Transport.close p.p_conn;
        (match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> false
         | _ -> true
         | exception _ -> true)
      | None -> Transport.close p.p_conn; false
    in
    if not graceful then begin
      incr deaths;
      Obs.Metrics.inc m_deaths
    end;
    (match p.p_lease with
     | Some (e, _) ->
       p.p_lease <- None;
       if Lease.is_settled leases e.Lease.l_id then ()
       else if graceful || not crashed then begin
         (* A draining peer should have settled its unit first; if not,
            the unit is simply another orphaned grant.  So is the unit
            of a peer that lost its link. *)
         incr requeued;
         Obs.Metrics.inc m_requeued;
         Lease.requeue leases e
       end
       else begin
         let key = prefix_key e.Lease.l_prefix in
         let crashes =
           1 + Option.value ~default:0 (Hashtbl.find_opt crash_counts key)
         in
         Hashtbl.replace crash_counts key crashes;
         let quarantine = crashes >= cfg.max_unit_crashes in
         if quarantine then begin
           incr quarantined;
           Obs.Metrics.inc m_quarantined;
           degraded := true;
           decr n_paths;
           (* Pre-settle the dropped unit so a late result from an
              earlier grant cannot resurrect the path and corrupt the
              counters. *)
           Lease.force_settle leases e.Lease.l_id
         end
         else begin
           incr requeued;
           Obs.Metrics.inc m_requeued;
           Lease.requeue leases e
         end;
         if !Obs.Sink.enabled then
           Obs.Sink.instant ~cat:"pool"
             (if quarantine then "quarantine" else "worker-death")
             ~args:[ ("worker", Obs.Event.Int p.p_id);
                     ("addr", Obs.Event.Str p.p_conn.Transport.c_addr);
                     ("unit", Obs.Event.Int e.Lease.l_id);
                     ("attempt", Obs.Event.Int e.Lease.l_attempts);
                     ("crashes", Obs.Event.Int crashes);
                     ("requeued", Obs.Event.Bool (not quarantine)) ]
       end
     | None ->
       if !Obs.Sink.enabled then
         Obs.Sink.instant ~cat:"pool"
           (if graceful then "peer-drain" else "worker-death")
           ~args:[ ("worker", Obs.Event.Int p.p_id);
                   ("addr", Obs.Event.Str p.p_conn.Transport.c_addr);
                   ("requeued", Obs.Event.Bool false) ])
  in
  let dispatch p =
    let t = Unix.gettimeofday () in
    let entry =
      match Lease.take_pending leases with
      | Some e -> Some (Lease.regrant leases e ~now:t)
      | None ->
        (match Search.pop frontier with
         | None -> None
         | Some prefix ->
           let id = !unit_seq in
           incr unit_seq;
           incr n_paths;
           Some (Lease.make_entry leases ~id ~site:"in-flight" ~prefix ~now:t))
    in
    match entry with
    | None -> ()
    | Some e ->
      incr dispatched;
      p.p_lease <- Some (e, t);
      Obs.Metrics.inc m_dispatched;
      Obs.Metrics.set m_queue (float_of_int (Search.length frontier));
      if !Obs.Sink.enabled then
        Obs.Sink.instant ~cat:"pool" "dispatch"
          ~args:[ ("worker", Obs.Event.Int p.p_id);
                  ("unit", Obs.Event.Int e.Lease.l_id);
                  ("attempt", Obs.Event.Int e.Lease.l_attempts);
                  ("prefix_len", Obs.Event.Int (Array.length e.Lease.l_prefix));
                  ("frontier", Obs.Event.Int (Search.length frontier)) ];
      (try
         Transport.write_frame p.p_conn
           (unit_to_json e.Lease.l_id e.Lease.l_prefix);
         stalls := 0
       with _ -> handle_death p)
  in
  let merge p id (r : unit_result) =
    (* Fold the chaos delta on every result frame — duplicates resend
       the same cumulative counts, so their delta is zero. *)
    let delta = Chaos.sub_counts r.chaos p.p_chaos in
    p.p_chaos <- r.chaos;
    worker_chaos := Chaos.add_counts !worker_chaos delta;
    let held =
      match p.p_lease with
      | Some (e, t0) when e.Lease.l_id = id -> Some (e, t0)
      | _ -> None
    in
    (match held with
     | Some _ ->
       p.p_lease <- None;
       stalls := 0
     | None -> ());
    match Lease.settle leases id with
    | `Duplicate ->
      (* First-result-wins: a regrant raced the original holder (or the
         dup-result chaos point fired).  Count it; merge nothing. *)
      incr duplicates;
      Obs.Metrics.inc m_duplicates;
      if !Obs.Sink.enabled then
        Obs.Sink.instant ~cat:"pool" "duplicate-result"
          ~args:[ ("worker", Obs.Event.Int p.p_id);
                  ("unit", Obs.Event.Int id) ]
    | `Fresh ->
      (match r.outcome with
       | Unit_aborted ->
         decr n_paths;
         incr requeued;
         Obs.Metrics.inc m_requeued;
         (match r.requeue, held with
          | Some pr, _ -> Search.push frontier ~site:"requeued" pr
          | None, Some (e, _) ->
            Search.push frontier ~site:"requeued" e.Lease.l_prefix
          | None, None ->
            (* No prefix to recover (a late abort from a peer that no
               longer holds the lease, carrying no requeue): the path
               is lost and the run can no longer claim exhaustion. *)
            degraded := true)
       | Unit_completed -> incr n_completed
       | Unit_errored -> incr n_errored
       | Unit_infeasible -> incr n_infeasible
       | Unit_unknown -> incr n_unknown);
      if r.outcome <> Unit_aborted then begin
        instr := !instr + r.instructions;
        Search.merge_visit_counts frontier r.visits;
        (* Coverage merges only from units that counted: exactly one
           contribution per executed path, so the merged map matches a
           sequential run over the same path set bit for bit. *)
        coverage_acc := Obs.Coverage.add !coverage_acc r.coverage
      end;
      List.iter (fun (site, pr) -> Search.push frontier ~site pr) r.forks;
      solver_acc := Stats.add !solver_acc r.solver;
      (* Profile and forwarded events mirror the solver stats: work
         done is accounted even when the unit aborted. *)
      profile_acc := Obs.Profile.add !profile_acc r.profile;
      Obs.Export.inject ~worker:p.p_id r.events;
      if r.events_dropped > 0 then
        Obs.Export.note_remote_dropped r.events_dropped;
      if r.degraded then degraded := true;
      List.iter
        (fun (e : Error.t) ->
           let key = (e.Error.site, e.Error.kind) in
           if not (Hashtbl.mem error_table key) then begin
             Hashtbl.add error_table key ();
             (* Rewrite the worker-local bookkeeping fields into
                campaign terms: the unit id is the global path id and
                discovery time/instructions are campaign totals. *)
             errors_rev :=
               { e with
                 Error.path_id = id;
                 found_after = elapsed ();
                 instructions = !instr }
               :: !errors_rev;
             incr n_errors;
             if !Obs.Sink.enabled then
               Obs.Sink.instant ~cat:"pool" "error"
                 ~args:[ ("site", Obs.Event.Str e.Error.site);
                         ("kind",
                          Obs.Event.Str (Error.kind_to_string e.Error.kind));
                         ("worker", Obs.Event.Int p.p_id) ];
             match cfg.stop_after_errors with
             | Some n when !n_errors >= n -> stop Budget.Errors
             | _ -> ()
           end)
        r.errors;
      Obs.Metrics.set m_queue (float_of_int (Search.length frontier));
      if !Obs.Sink.enabled then
        Obs.Sink.complete ~cat:"pool"
          ~dur_us:
            ((match held with
              | Some (_, t0) -> Unix.gettimeofday () -. t0
              | None -> 0.0)
             *. 1e6)
          "unit"
          ~args:[ ("worker", Obs.Event.Int p.p_id);
                  ("unit", Obs.Event.Int id);
                  ("outcome", Obs.Event.Str (outcome_to_string r.outcome));
                  ("forks", Obs.Event.Int (List.length r.forks)) ]
  in
  let strategy_str = Search.strategy_to_string cfg.strategy in
  (* TCP registration: answer a well-formed, matching hello with a
     welcome (assigning the peer id); answer anything else with a fatal
     frame naming the mismatch, so a misconfigured worker fails loudly
     instead of silently computing the wrong campaign. *)
  let register c =
    match Transport.read_frame c with
    | exception _ -> Transport.close c
    | j ->
      let field k = Option.bind (Json.member k j) Json.to_string_opt in
      let cmd = field "cmd" in
      let label_ok = field "label" = Some cfg.label in
      let strat_ok = field "strategy" = Some strategy_str in
      let cookie_ok =
        match cfg.cookie with
        | None -> true
        | Some c0 -> field "cookie" = Some c0
      in
      if cmd <> Some "hello" || not (label_ok && strat_ok && cookie_ok) then begin
        let why =
          if cmd <> Some "hello" then "expected a hello frame"
          else if not label_ok then
            Printf.sprintf "label mismatch (master runs %S)" cfg.label
          else if not strat_ok then
            Printf.sprintf "strategy mismatch (master uses %s)" strategy_str
          else
            "parameter mismatch (worker flags must match the master's \
             test parameters)"
        in
        (try Transport.write_frame c (fatal_msg ("hello rejected: " ^ why))
         with _ -> ());
        Transport.close c
      end
      else begin
        let id = !next_id in
        incr next_id;
        let recon =
          Option.value ~default:0
            (Option.bind (Json.member "reconnects" j) Json.to_int_opt)
        in
        if recon > 0 then begin
          incr reconnects;
          Obs.Metrics.inc m_reconnects
        end;
        match
          Transport.write_frame c
            (welcome_msg ~peer:id ~forward:(Obs.Export.active ())
               ~epoch:(Obs.Sink.current_epoch ()))
        with
        | exception _ -> Transport.close c
        | () ->
          let p =
            { p_id = id; p_pid = None; p_conn = c; p_lease = None;
              p_alive = true; p_expired = false;
              p_last_seen = Unix.gettimeofday (); p_chaos = [] }
          in
          peers := !peers @ [ p ];
          if !Obs.Sink.enabled then
            Obs.Sink.instant ~cat:"pool" "peer-join"
              ~args:[ ("worker", Obs.Event.Int id);
                      ("addr", Obs.Event.Str c.Transport.c_addr);
                      ("reconnects", Obs.Event.Int recon) ]
      end
  in
  (* An expired peer may be wedged and never read a [stop]: a forked
     one is SIGKILLed before it is reaped, a remote one is closed. *)
  let shutdown ~force () =
    List.iter
      (fun p ->
         if p.p_alive then begin
           let kill = force || p.p_expired in
           (match p.p_pid with
            | Some pid ->
              if kill then (try Unix.kill pid Sys.sigkill with _ -> ())
              else (try Transport.write_frame p.p_conn stop_msg with _ -> ());
              Transport.close p.p_conn;
              (try ignore (Unix.waitpid [] pid) with _ -> ())
            | None ->
              if not kill then
                (try Transport.write_frame p.p_conn stop_msg with _ -> ());
              Transport.close p.p_conn);
           p.p_alive <- false
         end)
      !peers;
    List.iter (fun (c, _) -> Transport.close c) !unregistered;
    unregistered := []
  in
  if !Obs.Sink.enabled then
    Obs.Sink.instant ~cat:"pool" "run:start"
      ~args:
        ([ ("workers", Obs.Event.Int cfg.workers);
           ("strategy", Obs.Event.Str strategy_str);
           ("lease_ms",
            Obs.Event.Int (Option.value ~default:0 cfg.lease_ms));
           ("resumed", Obs.Event.Bool (resume <> None)) ]
         @
         match cfg.listen with
         | None -> []
         | Some l ->
           let host, port = Transport.listener_addr l in
           [ ("listen", Obs.Event.Str (Printf.sprintf "%s:%d" host port)) ]);
  let last_checkpoint = ref now in
  let main_loop () =
    let continue = ref true in
    while !continue do
      (* Budgets, first reason wins; same precedence as the sequential
         engine's per-path checks. *)
      if !stop_reason = None then begin
        if Budget.interrupted () then stop Budget.Interrupt
        else begin
          (match cfg.limits.Budget.max_paths with
           | Some n when !n_paths >= n -> stop Budget.Paths
           | _ -> ());
          (match cfg.limits.Budget.max_instructions with
           | Some n when !instr > n -> stop Budget.Instructions
           | _ -> ());
          (match cfg.limits.Budget.max_seconds with
           | Some s when elapsed () > s -> stop Budget.Deadline
           | _ -> ());
          (match cfg.limits.Budget.max_memory_mb with
           | Some mb when Budget.heap_mb () > float_of_int mb ->
             stop Budget.Memory
           | _ -> ())
        end
      end;
      (match checkpoint with
       | Some p ->
         let t = Unix.gettimeofday () in
         if t -. !last_checkpoint >= p.Checkpoint.every_s then begin
           last_checkpoint := t;
           p.Checkpoint.write (snapshot ~final:false)
         end
       | None -> ());
      (* Lease expiry, the pool's one liveness rule: a holder silent
         past its deadline loses the grant (the unit is requeued for
         another peer, never charged) and is marked expired until it
         sends any frame.  It is NOT killed: a slow worker is as silent
         as a wedged one, and a unit slower than the lease would be
         killed on every attempt.  If the slow result still arrives it
         settles the unit iff nobody beat it; otherwise it is a counted
         duplicate.  An expired peer gets no new unit, is not busy and
         is replaced, so a wedged worker costs one lease deadline;
         shutdown kills it. *)
      (let t = Unix.gettimeofday () in
       List.iter
         (fun p ->
            match p.p_lease with
            | Some (e, _) when p.p_alive && Lease.expired e ~now:t ->
              p.p_lease <- None;
              p.p_expired <- true;
              if not (Lease.is_settled leases e.Lease.l_id) then begin
                incr lease_expired;
                Obs.Metrics.inc m_lease_expired;
                incr requeued;
                Obs.Metrics.inc m_requeued;
                Lease.requeue leases e;
                if !Obs.Sink.enabled then
                  Obs.Sink.instant ~cat:"pool" "lease-expired"
                    ~args:[ ("worker", Obs.Event.Int p.p_id);
                            ("addr", Obs.Event.Str p.p_conn.Transport.c_addr);
                            ("unit", Obs.Event.Int e.Lease.l_id);
                            ("attempt", Obs.Event.Int e.Lease.l_attempts) ]
              end
            | _ -> ())
         !peers);
      (* Keep the local pool at strength: dead forked workers are
         replaced while work remains, so a chaos campaign (or a string
         of genuine crashes) degrades throughput rather than the
         verdict.  The spawn cap bounds a pathological crash loop.
         Remote peers replace themselves by reconnecting. *)
      if !stop_reason = None
         && (Lease.pending leases > 0 || not (Search.is_empty frontier))
      then begin
        let missing = cfg.workers - local_strength () in
        for _ = 1 to min missing (spawn_cap - !spawns) do
          spawn ()
        done
      end;
      (* Work-sharing: fill every idle peer while budget remains.
         Orphaned grants (pending regrants) go out before fresh
         frontier pops, so a requeued unit is never starved. *)
      let rec fill () =
        if !stop_reason = None
           && (Lease.pending leases > 0 || not (Search.is_empty frontier))
        then begin
          let paths_left =
            match cfg.limits.Budget.max_paths with
            | Some n -> !n_paths < n
            | None -> true
          in
          if paths_left then
            match
              List.find_opt
                (fun p -> p.p_alive && p.p_lease = None && not p.p_expired)
                !peers
            with
            | Some p -> dispatch p; fill ()
            | None -> ()
        end
      in
      fill ();
      let busy = inflight () in
      Obs.Metrics.set m_busy (float_of_int busy);
      (* Live progress (line mode or the --top dashboard); [due]
         dedupes, so polling every loop iteration is cheap. *)
      (let outstanding = List.length (unsettled_entries ()) in
       let done_paths = !n_paths - outstanding in
       if Obs.Progress.due ~paths:done_paths then begin
         let t = Unix.gettimeofday () in
         Obs.Progress.tick
           { Obs.Progress.paths = done_paths;
             instructions = !instr;
             frontier = Search.length frontier;
             errors = !n_errors;
             solver_time = !solver_acc.Stats.time;
             solver_queries = !solver_acc.Stats.queries;
             cache_hits = !solver_acc.Stats.cache_hits + !solver_acc.Stats.cex_hits;
             wall = elapsed ();
             workers =
               List.filter_map
                 (fun p ->
                    if p.p_alive then
                      Some
                        { Obs.Progress.wr_id = p.p_id;
                          wr_busy = p.p_lease <> None;
                          wr_age = t -. p.p_last_seen;
                          wr_addr = p.p_conn.Transport.c_addr }
                    else None)
                 !peers }
       end);
      if busy = 0
         && (!stop_reason <> None
             || (Search.is_empty frontier && Lease.pending leases = 0))
      then continue := false
      else if busy = 0 && cfg.listen = None then begin
        if
          not (List.exists (fun p -> p.p_alive) !peers)
          && !spawns >= spawn_cap
        then begin
          (* Work remains but nobody can run it and the respawn budget
             is spent: persist the frontier (so the run is resumable)
             and report the failure. *)
          (match checkpoint with
           | Some p -> p.Checkpoint.write (snapshot ~final:false)
           | None -> ());
          raise
            (Worker_fatal
               (Printf.sprintf
                  "all workers died with work remaining (%d spawned)"
                  !spawns))
        end
        else begin
          (* Dispatch made no progress this iteration (the idle workers
             died while being written to, or were just respawned).
             Retry — but boundedly, so a repeated dispatch failure
             cannot spin the master forever. *)
          incr stalls;
          if !stalls >= max_dispatch_stalls then begin
            (match checkpoint with
             | Some p -> p.Checkpoint.write (snapshot ~final:false)
             | None -> ());
            raise
              (Worker_fatal
                 (Printf.sprintf
                    "dispatch stalled %d consecutive times with work \
                     remaining"
                    !stalls))
          end;
          ignore (Unix.select [] [] [] 0.001)
        end
      end
      else begin
        let listener_fds =
          match cfg.listen with
          | Some l -> [ Transport.listener_fd l ]
          | None -> []
        in
        let unreg_fds =
          List.map (fun (c, _) -> c.Transport.c_fd) !unregistered
        in
        let peer_fds =
          List.filter_map
            (fun p -> if p.p_alive then Some p.p_conn.Transport.c_fd else None)
            !peers
        in
        (match Unix.select (listener_fds @ unreg_fds @ peer_fds) [] [] 0.1 with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | ready, _, _ ->
           List.iter
             (fun fd ->
                match cfg.listen with
                | Some l when fd == Transport.listener_fd l ->
                  (match Transport.accept l with
                   | c ->
                     set_recv_timeout c;
                     unregistered :=
                       !unregistered @ [ (c, Unix.gettimeofday ()) ]
                   | exception _ -> ())
                | _ ->
                  (match
                     List.find_opt
                       (fun (c, _) -> c.Transport.c_fd == fd)
                       !unregistered
                   with
                   | Some (c, _) ->
                     unregistered :=
                       List.filter (fun (c', _) -> c' != c) !unregistered;
                     register c
                   | None ->
                     (* Match on liveness too: a dead peer's closed fd
                        number is reused by the next spawn or accept,
                        and the stale entry would otherwise shadow the
                        live peer, swallowing its frames. *)
                     (match
                        List.find_opt
                          (fun p ->
                             p.p_alive && p.p_conn.Transport.c_fd == fd)
                          !peers
                      with
                      | None -> ()
                      | Some p ->
                        (* A read error, a malformed frame and a frame
                           that stalls past the receive timeout all end
                           the peer. *)
                        (match Transport.read_frame p.p_conn with
                         | exception _ -> handle_death p
                         | j ->
                           p.p_last_seen <- Unix.gettimeofday ();
                           p.p_expired <- false;
                           (match
                              Option.bind (Json.member "cmd" j)
                                Json.to_string_opt
                            with
                            | Some "result" ->
                              (match result_of_json j with
                               | Ok (id, r) -> merge p id r
                               | Error msg -> raise (Worker_fatal msg))
                            | Some "bye" -> handle_death ~graceful:true p
                            | Some "fatal" ->
                              let msg =
                                Option.value ~default:"worker failure"
                                  (Option.bind (Json.member "msg" j)
                                     Json.to_string_opt)
                              in
                              raise (Worker_fatal msg)
                            | _ -> ())))))
             ready);
        (* Reap half-open dials that never said hello. *)
        let t = Unix.gettimeofday () in
        unregistered :=
          List.filter
            (fun (c, t0) ->
               if t -. t0 > handshake_timeout_s then begin
                 Transport.close c;
                 false
               end
               else true)
            !unregistered
      end
    done
  in
  match main_loop () with
  | () ->
    shutdown ~force:false ();
    (match checkpoint with
     | Some p -> p.Checkpoint.write (snapshot ~final:true)
     | None -> ());
    let wall = elapsed () in
    let errors =
      List.rev !errors_rev
      |> List.sort (fun (a : Error.t) (b : Error.t) ->
          match String.compare a.Error.site b.Error.site with
          | 0 ->
            String.compare
              (Error.kind_to_string a.Error.kind)
              (Error.kind_to_string b.Error.kind)
          | c -> c)
    in
    let chaos =
      Chaos.add_counts
        (Chaos.sub_counts (Chaos.counts ()) chaos0)
        !worker_chaos
    in
    if !Obs.Sink.enabled then
      Obs.Sink.instant ~cat:"pool" "run:end"
        ~args:[ ("paths", Obs.Event.Int !n_paths);
                ("errors", Obs.Event.Int !n_errors);
                ("requeues", Obs.Event.Int !requeued);
                ("worker_deaths", Obs.Event.Int !deaths);
                ("quarantined", Obs.Event.Int !quarantined);
                ("lease_expired", Obs.Event.Int !lease_expired);
                ("duplicates", Obs.Event.Int !duplicates);
                ("reconnects", Obs.Event.Int !reconnects) ];
    { r_errors = errors;
      r_paths = !n_paths;
      r_completed = !n_completed;
      r_errored = !n_errored;
      r_infeasible = !n_infeasible;
      r_unknown = !n_unknown;
      r_instructions = !instr;
      r_wall_time = wall;
      r_solver = !solver_acc;
      r_exhausted = !stop_reason = None && not !degraded;
      r_stop_reason = !stop_reason;
      r_visits = Search.visit_counts frontier;
      r_dispatched = !dispatched;
      r_requeued = !requeued;
      r_worker_deaths = !deaths;
      r_quarantined = !quarantined;
      r_lease_expired = !lease_expired;
      r_duplicates = !duplicates;
      r_reconnects = !reconnects;
      r_chaos = chaos;
      r_coverage = !coverage_acc;
      r_profile = !profile_acc }
  | exception Worker_fatal msg ->
    shutdown ~force:true ();
    failwith ("Engine pool: " ^ msg)
  | exception exn ->
    shutdown ~force:true ();
    raise exn

(* ------------------------------------------------------------------ *)
(* Remote worker pool: dial a listening master, register, serve units.
   Reconnects with seeded exponential backoff + jitter; a fatal frame
   from the master (configuration mismatch) is terminal.  SIGTERM
   drains: finish the unit in hand, flush the result, send bye, exit. *)

let serve ~host ~port ~workers ~label ~strategy ?cookie ?(backoff_seed = 0)
    ?max_dials ~exec () =
  if workers < 1 then invalid_arg "Pool.serve: workers must be >= 1";
  (match max_dials with
   | Some n when n < 1 -> invalid_arg "Pool.serve: max_dials must be >= 1"
   | _ -> ());
  Transport.init ();
  let strategy_str = Search.strategy_to_string strategy in
  (* Installed before any fork, so a forked worker holds its drain
     handler from its first instruction: a SIGTERM the pool forwards
     to a sibling that has not run yet sets that sibling's [drain]
     instead of killing it with the default action. *)
  let drain = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
  let worker_loop slot =
    let reconnects = ref 0 in
    let dial_attempt = ref 0 in
    let continue = ref true in
    let code = ref 0 in
    let backoff_or_give_up () =
      incr dial_attempt;
      match max_dials with
      | Some n when !dial_attempt >= n ->
        Printf.eprintf "symsysc worker %d: giving up after %d failed dials\n%!"
          slot !dial_attempt;
        code := 1;
        continue := false
      | _ ->
        (* Distinct per-slot seeds desynchronize a worker pool that was
           cut off at the same instant. *)
        Unix.sleepf
          (Transport.backoff_delay
             ~seed:(backoff_seed + (31 * slot))
             ~attempt:!dial_attempt)
    in
    while !continue && not !drain do
      match Transport.connect ~host ~port with
      | exception Transport.Disconnected _ -> backoff_or_give_up ()
      | conn ->
        (match
           Transport.write_frame conn
             (hello_msg ~label ~strategy:strategy_str ~slot
                ~reconnects:!reconnects ~cookie);
           Transport.read_frame conn
         with
         | exception _ ->
           Transport.close conn;
           backoff_or_give_up ()
         | j ->
           (match Option.bind (Json.member "cmd" j) Json.to_string_opt with
            | Some "fatal" ->
              Printf.eprintf "symsysc worker %d: %s\n%!" slot
                (Option.value ~default:"registration rejected"
                   (Option.bind (Json.member "msg" j) Json.to_string_opt));
              Transport.close conn;
              code := 1;
              continue := false
            | Some "welcome" ->
              dial_attempt := 0;
              (* The master-assigned peer id is unique per registration,
                 so reseeded chaos streams differ across reconnects and
                 across siblings. *)
              let peer =
                Option.value ~default:0
                  (Option.bind (Json.member "peer" j) Json.to_int_opt)
              in
              let forward =
                Option.value ~default:false
                  (Option.bind (Json.member "forward" j) Json.to_bool_opt)
              in
              let epoch =
                Option.value ~default:Float.nan
                  (Option.bind (Json.member "epoch" j) Json.to_float_opt)
              in
              (match session ~exec ~drain ~peer ~forward ~epoch conn with
               | () ->
                 Transport.close conn;
                 continue := false
               | exception Transport.Disconnected _ | exception Failure _ ->
                 (* The master went away (or chaos cut the line): come
                    back with backoff, starting the schedule over. *)
                 Transport.close conn;
                 incr reconnects;
                 backoff_or_give_up ())
            | _ ->
              Transport.close conn;
              backoff_or_give_up ()))
    done;
    !code
  in
  if workers = 1 then worker_loop 0
  else begin
    flush stdout;
    flush stderr;
    let pids =
      List.init workers (fun slot ->
          match Unix.fork () with
          | 0 ->
            let code = try worker_loop slot with _ -> 1 in
            Unix._exit code
          | pid -> pid)
    in
    let drain_all pids =
      List.iter (fun pid -> try Unix.kill pid Sys.sigterm with _ -> ()) pids
    in
    (* Forward a drain request to every worker in the pool, including
       one that arrived while the pool was still forking. *)
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain_all pids));
    if !drain then drain_all pids;
    (* A worker exits 0 only on the master's [stop], a drain, or after
       reporting a fatal error that ends the campaign; either way the
       pool is done.  The master stops only the workers it registered,
       so a sibling whose first dial came after the campaign ended
       would redial the closed port forever: drain the rest once one
       worker exits cleanly.  Poll, so no other child of the caller is
       reaped. *)
    let rec reap live worst =
      if live = [] then worst
      else begin
        let ended, live =
          List.partition_map
            (fun pid ->
               match Unix.waitpid [ Unix.WNOHANG ] pid with
               | 0, _ -> Either.Right pid
               | _, Unix.WEXITED c -> Either.Left (Some c)
               | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Either.Left (Some 1)
               | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                 Either.Right pid
               | exception _ -> Either.Left None)
            live
        in
        let codes = List.filter_map Fun.id ended in
        if List.mem 0 codes then drain_all live;
        if ended = [] then Unix.sleepf 0.05;
        reap live (List.fold_left max worst codes)
      end
    in
    reap pids 0
  end

(* ------------------------------------------------------------------ *)

let fork_map ~workers f =
  if workers < 1 then invalid_arg "Pool.fork_map: workers must be >= 1";
  Transport.init ();
  flush stdout;
  flush stderr;
  (* Create every pipe before the first fork so each child can close
     the write ends it inherited from its siblings' pipes — otherwise a
     child dying early would never produce an EOF. *)
  let pipes = Array.init workers (fun _ -> Unix.pipe ()) in
  let children =
    Array.to_list
      (Array.init workers (fun i ->
           match Unix.fork () with
           | 0 ->
             Array.iteri
               (fun j (r', w') ->
                  if j = i then (try Unix.close r' with _ -> ())
                  else begin
                    (try Unix.close r' with _ -> ());
                    (try Unix.close w' with _ -> ())
                  end)
               pipes;
             Obs.Progress.disable ();
             Obs.Sink.reset ();
             (try Transport.write_frame_fd (snd pipes.(i)) (f i)
              with _ -> ());
             Unix._exit 0
           | pid -> (pid, fst pipes.(i))))
  in
  Array.iter (fun (_, w) -> try Unix.close w with _ -> ()) pipes;
  List.map
    (fun (pid, r) ->
       let res =
         match Transport.read_frame_fd r with
         | j -> Ok j
         | exception _ -> Error "worker died before reporting"
       in
       (try Unix.close r with _ -> ());
       (try ignore (Unix.waitpid [] pid) with _ -> ());
       res)
    children
