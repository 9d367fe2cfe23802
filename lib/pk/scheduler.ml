exception Activation_limit_exceeded

type wake = Wake_event of Event.t | Wake_process of int

type entry = { at : Sc_time.t; seq : int; wake : wake }

type stats = {
  activations : int;
  delta_cycles : int;
  events_fired : int;
  time_advances : int;
}

type t = {
  mutable time : Sc_time.t;
  procs : (int, Process.t) Hashtbl.t;
  epochs : (int, int) Hashtbl.t;     (* process id -> current wait epoch *)
  mutable ready : int list;          (* reversed FIFO *)
  mutable delta_events : Event.t list;
  mutable delta_procs : int list;
  wakelist : entry Heap.t;
  mutable seq : int;
  mutable activations : int;
  mutable delta_cycles : int;
  mutable events_fired : int;
  mutable time_advances : int;
  mutable batch_hook : (int list -> int list) option;
}

let entry_cmp a b =
  let c = Sc_time.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    time = Sc_time.zero;
    procs = Hashtbl.create 16;
    epochs = Hashtbl.create 16;
    ready = [];
    delta_events = [];
    delta_procs = [];
    wakelist = Heap.create ~cmp:entry_cmp;
    seq = 0;
    activations = 0;
    delta_cycles = 0;
    events_fired = 0;
    time_advances = 0;
    batch_hook = None;
  }

let now t = t.time

let stats t =
  {
    activations = t.activations;
    delta_cycles = t.delta_cycles;
    events_fired = t.events_fired;
    time_advances = t.time_advances;
  }

let epoch t pid =
  match Hashtbl.find_opt t.epochs pid with Some e -> e | None -> 0

let bump_epoch t pid = Hashtbl.replace t.epochs pid (epoch t pid + 1)

let push_wake t at wake =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.wakelist { at; seq; wake }

let enqueue_ready t pid = t.ready <- pid :: t.ready

(* Wake every process currently waiting on the event; stale entries
   (whose epoch moved on) are dropped. *)
let fire_event t (ev : Event.t) =
  t.events_fired <- t.events_fired + 1;
  if !Obs.Sink.enabled then
    Obs.Sink.instant ~cat:"kernel" "event:fired"
      ~args:
        [ ("event", Obs.Event.Str ev.Event.ev_name);
          ("waiters", Obs.Event.Int (List.length ev.Event.waiters));
          ("sim_ps", Obs.Event.Int (Int64.to_int (Sc_time.to_ps t.time))) ];
  ev.Event.pending <- Event.Not_notified;
  let waiters = List.rev ev.Event.waiters in
  ev.Event.waiters <- [];
  List.iter
    (fun (pid, ep) ->
       if epoch t pid = ep then begin
         bump_epoch t pid;
         (match Hashtbl.find_opt t.procs pid with
          | Some p when p.Process.status = Process.Waiting ->
            p.Process.status <- Process.Ready;
            enqueue_ready t pid
          | Some _ | None -> ())
       end)
    waiters

let register_wait t (p : Process.t) (w : Process.wait) =
  match w with
  | Process.Terminate -> p.Process.status <- Process.Terminated
  | Process.Wait_event ev ->
    p.Process.status <- Process.Waiting;
    ev.Event.waiters <- (p.Process.proc_id, epoch t p.Process.proc_id) :: ev.Event.waiters
  | Process.Wait_any evs ->
    p.Process.status <- Process.Waiting;
    let ep = epoch t p.Process.proc_id in
    List.iter
      (fun (ev : Event.t) ->
         ev.Event.waiters <- (p.Process.proc_id, ep) :: ev.Event.waiters)
      evs
  | Process.Wait_time d ->
    p.Process.status <- Process.Waiting;
    bump_epoch t p.Process.proc_id;
    (* the epoch bump above invalidates stale event waits; the timed
       wake below carries no epoch and always fires *)
    push_wake t (Sc_time.add t.time d) (Wake_process p.Process.proc_id)
  | Process.Wait_delta ->
    p.Process.status <- Process.Waiting;
    t.delta_procs <- p.Process.proc_id :: t.delta_procs

let spawn t (p : Process.t) =
  Hashtbl.replace t.procs p.Process.proc_id p;
  enqueue_ready t p.Process.proc_id

let notify t ev = fire_event t ev

let notify_delta t (ev : Event.t) =
  match ev.Event.pending with
  | Event.Delta -> ()
  | Event.Not_notified | Event.At _ ->
    (* delta is the earliest possible notification, so it overrides *)
    ev.Event.pending <- Event.Delta;
    if not (List.memq ev t.delta_events) then
      t.delta_events <- ev :: t.delta_events

let notify_at t (ev : Event.t) delay =
  let at = Sc_time.add t.time delay in
  if Sc_time.is_zero delay then notify_delta t ev
  else
    match ev.Event.pending with
    | Event.Delta -> ()
    | Event.At old when Sc_time.(old <= at) -> ()
    | Event.At _ | Event.Not_notified ->
      ev.Event.pending <- Event.At at;
      push_wake t at (Wake_event ev)

let cancel _t (ev : Event.t) = ev.Event.pending <- Event.Not_notified

let set_batch_hook t hook = t.batch_hook <- hook

let apply_batch_hook t batch =
  match t.batch_hook with
  | Some hook when List.length batch > 1 ->
    let permuted = hook batch in
    if List.sort Int.compare permuted <> List.sort Int.compare batch then
      invalid_arg "Scheduler: batch hook must return a permutation";
    permuted
  | Some _ | None -> batch

let run_evaluation t guard =
  while t.ready <> [] do
    let batch = apply_batch_hook t (List.rev t.ready) in
    t.ready <- [];
    List.iter
      (fun pid ->
         match Hashtbl.find_opt t.procs pid with
         | Some p when p.Process.status <> Process.Terminated ->
           incr guard;
           t.activations <- t.activations + 1;
           if !guard > 1_000_000 then raise Activation_limit_exceeded;
           if !Obs.Sink.enabled then
             Obs.Sink.instant ~cat:"kernel" "resume"
               ~args:
                 [ ("process", Obs.Event.Str p.Process.proc_name);
                   ("pid", Obs.Event.Int pid);
                   ("sim_ps",
                    Obs.Event.Int (Int64.to_int (Sc_time.to_ps t.time))) ];
           p.Process.status <- Process.Ready;
           let w = p.Process.body () in
           register_wait t p w
         | Some _ | None -> ())
      batch
  done

let run_delta t =
  (* Returns true when a delta cycle actually ran. *)
  if t.delta_events = [] && t.delta_procs = [] then false
  else begin
    t.delta_cycles <- t.delta_cycles + 1;
    if !Obs.Sink.enabled then
      Obs.Sink.instant ~cat:"kernel" "delta-cycle"
        ~args:
          [ ("cycle", Obs.Event.Int t.delta_cycles);
            ("events", Obs.Event.Int (List.length t.delta_events));
            ("processes", Obs.Event.Int (List.length t.delta_procs));
            ("sim_ps", Obs.Event.Int (Int64.to_int (Sc_time.to_ps t.time))) ];
    let evs = List.rev t.delta_events in
    t.delta_events <- [];
    let procs = List.rev t.delta_procs in
    t.delta_procs <- [];
    List.iter
      (fun (ev : Event.t) ->
         if ev.Event.pending = Event.Delta then fire_event t ev)
      evs;
    List.iter
      (fun pid ->
         match Hashtbl.find_opt t.procs pid with
         | Some p when p.Process.status = Process.Waiting ->
           bump_epoch t pid;
           p.Process.status <- Process.Ready;
           enqueue_ready t pid
         | Some _ | None -> ())
      procs;
    true
  end

let run_ready t =
  (* The activation guard spans the delta loop, so a zero-delay
     self-notification cycle cannot spin forever. *)
  let guard = ref 0 in
  run_evaluation t guard;
  while run_delta t do
    run_evaluation t guard
  done

let live_entry _t (e : entry) =
  match e.wake with
  | Wake_process _ -> true
  | Wake_event ev ->
    (match ev.Event.pending with
     | Event.At at -> Sc_time.equal at e.at
     | Event.Not_notified | Event.Delta -> false)

let rec next_live t =
  match Heap.peek t.wakelist with
  | None -> None
  | Some e ->
    if live_entry t e then Some e
    else begin
      ignore (Heap.pop t.wakelist);
      next_live t
    end

let next_wake_time t = Option.map (fun e -> e.at) (next_live t)

let pending_count t =
  List.length (List.filter (live_entry t) (Heap.to_list t.wakelist))

let step t =
  run_ready t;
  match next_live t with
  | None -> false
  | Some first ->
    t.time <- first.at;
    t.time_advances <- t.time_advances + 1;
    if !Obs.Sink.enabled then
      Obs.Sink.instant ~cat:"kernel" "time-advance"
        ~args:
          [ ("sim_ps", Obs.Event.Int (Int64.to_int (Sc_time.to_ps t.time))) ];
    (* Fire every live entry scheduled for this timestamp. *)
    let continue = ref true in
    while !continue do
      match next_live t with
      | Some e when Sc_time.equal e.at t.time ->
        ignore (Heap.pop t.wakelist);
        (match e.wake with
         | Wake_event ev -> fire_event t ev
         | Wake_process pid ->
           (match Hashtbl.find_opt t.procs pid with
            | Some p when p.Process.status = Process.Waiting ->
              bump_epoch t pid;
              p.Process.status <- Process.Ready;
              enqueue_ready t pid
            | Some _ | None -> ()))
      | Some _ | None -> continue := false
    done;
    run_ready t;
    true

let run_until t limit =
  run_ready t;
  let continue = ref true in
  while !continue do
    match next_wake_time t with
    | Some at when Sc_time.(at <= limit) -> ignore (step t)
    | Some _ | None -> continue := false
  done
