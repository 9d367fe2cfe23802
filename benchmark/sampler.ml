(* Fresh-process sampling.  Every sample is a new process running this
   executable's [sample] command, so no solver cache, hash-cons table or
   heap state carries from one sample to the next, and set-up includes
   process start and module initialisation; the outcome comes back on
   the sample's standard output.  Samples run one at a time, round-robin
   across workloads, so host drift hits every workload alike. *)

module Json = Obs.Json

type scale = Full | Smoke

let scale_to_string = function Full -> "full" | Smoke -> "smoke"
let scale_of_string = function "full" -> Some Full | "smoke" -> Some Smoke | _ -> None

type workload = {
  name : string;
  operations : scale -> int;  (** operations one sample attempts *)
  deterministic : bool;
      (** whether every per-layer count must repeat exactly across
          samples (a mismatch fails the sample) *)
  run : scale -> seed:int -> dir:string -> mark:(unit -> unit) -> Outcome.t;
      (** one sample; [mark ()] immediately before the first timed call
          ends set-up *)
}

(* [Setup_only] samples stop at [mark ()]: they measure set-up alone,
   so a run can take the median of many set-ups cheaply. *)
type kind = Plain | Traced | Setup_only

let kind_to_string = function Plain -> "plain" | Traced -> "traced" | Setup_only -> "setup"

let kind_of_string = function
  | "plain" -> Some Plain
  | "traced" -> Some Traced
  | "setup" -> Some Setup_only
  | _ -> None

type sample = {
  outcome : Outcome.t;
  kind : kind;
  setup_s : float;  (** spawn to [mark ()] *)
  cpu_s : float;  (** user + sys of the sample and its reaped descendants *)
  peak_rss_mb : float;
  elapsed_s : float;  (** spawn to reap *)
  trace_events : int;
  trace_dropped : int;
}

external maxrss_kb : bool -> int = "symbench_maxrss_kb" [@@noalloc]

(* Events kept for the Chrome trace; later ones are counted as dropped.
   Span times are summed from every event, kept or not. *)
let trace_limit = 65_536

(* A sample that has not reported by then is killed with its process
   group and counted as failed. *)
let sample_timeout_s = 120.0

let trace_file ~dir name = Filename.concat dir ("trace-" ^ name ^ ".json")

let crashed w scale msg =
  let n = w.operations scale in
  {
    Outcome.attempted = n;
    failed = n;
    problems = [ msg ];
    work_s = nan;
    values = [];
    times = [];
    latencies = [];
  }

(* ---- the sample process ---- *)

exception Setup_done

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Body of the [sample] command; [t_spawn] is the runner's clock when it
   spawned this process.  The result goes to the original standard
   output; anything the workload prints goes to standard error. *)
let child w ~kind ~scale ~seed ~dir ~t_spawn =
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  let result_fd = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let marked = ref nan in
  let mark () =
    if Float.is_nan !marked then begin
      marked := Outcome.now ();
      if kind = Setup_only then raise Setup_done
    end
  in
  let span_s = Hashtbl.create 16 in
  let tracing =
    if kind <> Traced then None
    else
      let recorder = Obs.Export.recorder ~limit:trace_limit () in
      let sub =
        Obs.Sink.subscribe (fun (e : Obs.Event.t) ->
            match e.Obs.Event.kind with
            | Obs.Event.Complete us when e.Obs.Event.cat = "bench" ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt span_s e.Obs.Event.name) in
              Hashtbl.replace span_s e.Obs.Event.name (prev +. (us /. 1e6))
            | _ -> ())
      in
      Some (recorder, sub)
  in
  let outcome =
    try w.run scale ~seed ~dir ~mark with
    | Setup_done -> Outcome.finish (Outcome.checks ()) ~work_s:nan ()
    | exn -> crashed w scale ("sample raised " ^ Printexc.to_string exn)
  in
  let trace_events, trace_dropped =
    match tracing with
    | None -> (0, 0)
    | Some (recorder, sub) ->
      Obs.Sink.unsubscribe sub;
      Obs.Export.stop recorder;
      let events = Obs.Export.events recorder in
      Obs.Export.save_chrome events (trace_file ~dir w.name);
      (List.length events, Obs.Export.dropped recorder)
  in
  (* Times the workload measured itself take precedence over span sums
     of the same name. *)
  let span_times =
    Hashtbl.fold
      (fun k v acc -> if List.mem_assoc k outcome.Outcome.times then acc else (k, v) :: acc)
      span_s []
  in
  let outcome =
    { outcome with Outcome.times = outcome.Outcome.times @ List.sort compare span_times }
  in
  let t = Unix.times () in
  let kb = max (maxrss_kb false) (maxrss_kb true) in
  write_all result_fd
    (Json.to_string
       (Json.Obj
          [
            ("outcome", Outcome.to_json outcome);
            ("setup_s", Json.Float (!marked -. t_spawn));
            ( "cpu_s",
              Json.Float Unix.(t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime) );
            ("peak_rss_mb", Json.Float (float_of_int kb /. 1024.0));
            ("trace_events", Json.Int trace_events);
            ("trace_dropped", Json.Int trace_dropped);
          ]))

(* ---- the runner side ---- *)

(* The sample process being waited on, killed with its group if the
   runner is asked to stop. *)
let current = ref None

let kill_group pid =
  try Unix.kill (-pid) Sys.sigkill
  with Unix.Unix_error _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let install_stop_handlers () =
  let stop _ =
    Option.iter
      (fun pid ->
         kill_group pid;
         ignore (waitpid_retry pid))
      !current;
    exit 130
  in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle stop)) [ Sys.sigterm; Sys.sigint ]

(* Everything the child writes, or [None] past the deadline. *)
let read_all fd ~deadline =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    let left = deadline -. Outcome.now () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Some (Buffer.contents buf)
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let run_sample w ~kind ~scale ~seed ~dir =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t_spawn = Outcome.now () in
  let args =
    [| Sys.executable_name; "sample"; w.name; kind_to_string kind; scale_to_string scale;
       string_of_int seed; dir; Printf.sprintf "%.17g" t_spawn |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  current := Some pid;
  let text = read_all rd ~deadline:(t_spawn +. sample_timeout_s) in
  Unix.close rd;
  if text = None then kill_group pid;
  let status = waitpid_retry pid in
  current := None;
  let elapsed_s = Outcome.now () -. t_spawn in
  let failed msg =
    {
      outcome = crashed w scale msg;
      kind;
      setup_s = nan;
      cpu_s = nan;
      peak_rss_mb = nan;
      elapsed_s;
      trace_events = 0;
      trace_dropped = 0;
    }
  in
  match (text, status) with
  | None, _ -> failed (Printf.sprintf "sample killed after %.0f s" sample_timeout_s)
  | Some text, Unix.WEXITED 0 -> (
      match Json.of_string text with
      | Error msg -> failed ("unreadable sample result: " ^ msg)
      | Ok j ->
        let flt k = Option.value ~default:nan (Option.bind (Json.member k j) Json.to_float_opt) in
        let int k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int_opt) in
        {
          outcome =
            Option.fold ~none:(crashed w scale "sample result without an outcome")
              ~some:Outcome.of_json (Json.member "outcome" j);
          kind;
          setup_s = flt "setup_s";
          cpu_s = flt "cpu_s";
          peak_rss_mb = flt "peak_rss_mb";
          elapsed_s;
          trace_events = int "trace_events";
          trace_dropped = int "trace_dropped";
        })
  | Some _, Unix.WEXITED n -> failed (Printf.sprintf "sample exited %d" n)
  | Some _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
    failed (Printf.sprintf "sample killed by signal %d" n)

(* ---- sampling plan ---- *)

type budget = Samples of int | Seconds of float

(* Set-up-only samples added to every round: with the set-ups of the
   full samples they give [setup_s] a median over many set-ups. *)
let setups_per_round = 2

(* Rounds of one untraced sample per workload (plus [setups_per_round]
   set-up-only samples each) until the budget is spent; then one traced
   sample per workload when [trace].  A time budget still runs at least
   [min_rounds] rounds (2 with a traced sample to follow, 3 without) so
   every median has a middle. *)
let sample_all ~budget ~trace ~scale ~seed ~dir workloads =
  let started = Outcome.now () in
  let samples = Hashtbl.create 8 in
  let add w s =
    Hashtbl.replace samples w.name
      (s :: Option.value ~default:[] (Hashtbl.find_opt samples w.name))
  in
  let estimate w =
    match Hashtbl.find_opt samples w.name with
    | None | Some [] -> 0.0
    | Some l ->
      let of_kind k = List.filter_map (fun s -> if s.kind = k then Some s.elapsed_s else None) l in
      let med k = match of_kind k with [] -> 0.0 | l -> Quartiles.median l in
      med Plain +. (float_of_int setups_per_round *. med Setup_only)
  in
  let round_s () = List.fold_left (fun a w -> a +. estimate w) 0.0 workloads in
  let min_rounds = if trace then 2 else 3 in
  let another round =
    match budget with
    | Samples n -> round < n
    | Seconds s ->
      round < min_rounds
      || Outcome.now () -. started +. round_s ()
         +. (if trace then 1.5 *. round_s () else 0.0)
         <= s
  in
  let round = ref 0 in
  while another !round do
    List.iter
      (fun w ->
         add w (run_sample w ~kind:Plain ~scale ~seed ~dir);
         for _ = 1 to setups_per_round do
           add w (run_sample w ~kind:Setup_only ~scale ~seed ~dir)
         done)
      workloads;
    incr round
  done;
  if trace then List.iter (fun w -> add w (run_sample w ~kind:Traced ~scale ~seed ~dir)) workloads;
  List.map
    (fun w -> (w, List.rev (Option.value ~default:[] (Hashtbl.find_opt samples w.name))))
    workloads
