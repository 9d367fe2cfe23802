(* Tests for the Peripheral Kernel: time, heap, events, scheduler
   semantics and the thread-to-function translation contract. *)

module Sc_time = Pk.Sc_time
module Heap = Pk.Heap
module Event = Pk.Event
module Process = Pk.Process
module Scheduler = Pk.Scheduler

(* ------------------------------------------------------------------ *)
(* Sc_time                                                             *)

let test_time_units () =
  Alcotest.(check int64) "ns" 1_000L (Sc_time.to_ps (Sc_time.ns 1));
  Alcotest.(check int64) "us" 1_000_000L (Sc_time.to_ps (Sc_time.us 1));
  Alcotest.(check int64) "ms" 1_000_000_000L (Sc_time.to_ps (Sc_time.ms 1));
  Alcotest.(check int64) "sec" 1_000_000_000_000L (Sc_time.to_ps (Sc_time.sec 1))

let test_time_arith () =
  let a = Sc_time.ns 10 and b = Sc_time.ns 3 in
  Alcotest.(check int64) "add" 13_000L (Sc_time.to_ps (Sc_time.add a b));
  Alcotest.(check int64) "sub" 7_000L (Sc_time.to_ps (Sc_time.sub a b));
  Alcotest.(check int64) "sub saturates" 0L (Sc_time.to_ps (Sc_time.sub b a));
  Alcotest.(check int64) "mul" 30_000L (Sc_time.to_ps (Sc_time.mul_int a 3));
  Alcotest.(check bool) "lt" true Sc_time.(b < a);
  Alcotest.(check bool) "is_zero" true (Sc_time.is_zero Sc_time.zero)

let test_time_pp () =
  Alcotest.(check string) "ns" "10ns" (Sc_time.to_string (Sc_time.ns 10));
  Alcotest.(check string) "zero" "0s" (Sc_time.to_string Sc_time.zero);
  Alcotest.(check string) "mixed stays ps" "1001ps"
    (Sc_time.to_string (Sc_time.of_ps 1001L))

let test_time_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Sc_time: negative time")
    (fun () -> ignore (Sc_time.ns (-1)))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_sorted_drain () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 3; 9; 1; 7; 3; 0 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ] (drain [])

let heap_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"heap drains sorted"
       QCheck.(list small_int)
       (fun xs ->
          let h = Heap.create ~cmp:Int.compare in
          List.iter (Heap.push h) xs;
          let rec drain acc =
            match Heap.pop h with
            | None -> List.rev acc
            | Some x -> drain (x :: acc)
          in
          drain [] = List.sort Int.compare xs))

let test_heap_peek () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek h);
  Heap.push h 4;
  Heap.push h 2;
  Alcotest.(check (option int)) "peek min" (Some 2) (Heap.peek h);
  Alcotest.(check int) "size" 2 (Heap.size h)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

(* A process that appends to a log at each activation and waits. *)
let logger log name wait =
  Process.make name (fun () ->
      log := name :: !log;
      wait ())

let test_spawn_runs_at_init () =
  let s = Scheduler.create () in
  let log = ref [] in
  Scheduler.spawn s (logger log "a" (fun () -> Process.Terminate));
  Scheduler.spawn s (logger log "b" (fun () -> Process.Terminate));
  Scheduler.run_ready s;
  Alcotest.(check (list string)) "both ran in order" [ "a"; "b" ] (List.rev !log)

let test_wait_event_and_notify () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let log = ref [] in
  let p =
    Process.make "w" (fun () ->
        log := "woke" :: !log;
        Process.Wait_event ev)
  in
  Scheduler.spawn s p;
  Scheduler.run_ready s;
  (* initial activation, then waiting *)
  Alcotest.(check int) "one activation" 1 (List.length !log);
  Scheduler.notify s ev;
  Scheduler.run_ready s;
  Alcotest.(check int) "woken once" 2 (List.length !log);
  (* no further wakeups without notify *)
  Scheduler.run_ready s;
  Alcotest.(check int) "stable" 2 (List.length !log)

let test_timed_notify_and_step () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let times = ref [] in
  let p =
    Process.make "w" (fun () ->
        times := Scheduler.now s :: !times;
        Process.Wait_event ev)
  in
  Scheduler.spawn s p;
  Scheduler.run_ready s;
  Scheduler.notify_at s ev (Sc_time.ns 10);
  Alcotest.(check bool) "step advances" true (Scheduler.step s);
  Alcotest.(check int64) "now = 10ns" 10_000L (Sc_time.to_ps (Scheduler.now s));
  (* times: init at 0, wake at 10ns *)
  Alcotest.(check int) "two activations" 2 (List.length !times);
  Alcotest.(check bool) "starved" false (Scheduler.step s)

let test_notify_override_rules () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let count = ref 0 in
  let p =
    Process.make "w" (fun () ->
        incr count;
        Process.Wait_event ev)
  in
  Scheduler.spawn s p;
  Scheduler.run_ready s;
  count := 0;
  (* A later notification cannot override an earlier pending one. *)
  Scheduler.notify_at s ev (Sc_time.ns 5);
  Scheduler.notify_at s ev (Sc_time.ns 50);
  ignore (Scheduler.step s);
  Alcotest.(check int64) "fired at earlier time" 5_000L
    (Sc_time.to_ps (Scheduler.now s));
  Alcotest.(check int) "woken once" 1 !count;
  (* the 50ns entry is stale now: nothing left *)
  Alcotest.(check bool) "no residual event" false (Scheduler.step s);
  (* An earlier notification overrides a later pending one. *)
  count := 0;
  Scheduler.notify_at s ev (Sc_time.ns 50);
  Scheduler.notify_at s ev (Sc_time.ns 5);
  ignore (Scheduler.step s);
  Alcotest.(check int64) "overridden to earlier" 10_000L
    (Sc_time.to_ps (Scheduler.now s));
  Alcotest.(check int) "woken exactly once" 1 !count

let test_cancel () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let count = ref 0 in
  let p =
    Process.make "w" (fun () ->
        incr count;
        Process.Wait_event ev)
  in
  Scheduler.spawn s p;
  Scheduler.run_ready s;
  count := 0;
  Scheduler.notify_at s ev (Sc_time.ns 5);
  Scheduler.cancel s ev;
  Alcotest.(check bool) "nothing fires" false (Scheduler.step s);
  Alcotest.(check int) "not woken" 0 !count

let test_delta_notification () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let count = ref 0 in
  let p =
    Process.make "w" (fun () ->
        incr count;
        Process.Wait_event ev)
  in
  Scheduler.spawn s p;
  Scheduler.run_ready s;
  count := 0;
  Scheduler.notify_delta s ev;
  Scheduler.run_ready s;
  Alcotest.(check int) "woken in delta cycle" 1 !count;
  Alcotest.(check int64) "time unchanged" 0L (Sc_time.to_ps (Scheduler.now s))

let test_wait_time () =
  let s = Scheduler.create () in
  let log = ref [] in
  let n = ref 0 in
  let p =
    Process.make "t" (fun () ->
        log := Scheduler.now s :: !log;
        incr n;
        if !n > 3 then Process.Terminate else Process.Wait_time (Sc_time.ns 7))
  in
  Scheduler.spawn s p;
  Scheduler.run_until s (Sc_time.us 1);
  let times = List.rev_map Sc_time.to_ps !log in
  Alcotest.(check (list int64)) "7ns cadence"
    [ 0L; 7_000L; 14_000L; 21_000L ] times

let test_wait_any () =
  let s = Scheduler.create () in
  let e1 = Event.make "e1" and e2 = Event.make "e2" in
  let count = ref 0 in
  let p =
    Process.make "w" (fun () ->
        incr count;
        Process.Wait_any [ e1; e2 ])
  in
  Scheduler.spawn s p;
  Scheduler.run_ready s;
  count := 0;
  Scheduler.notify s e2;
  Scheduler.run_ready s;
  Alcotest.(check int) "woken by e2" 1 !count;
  (* The stale e1 registration must not wake it again. *)
  Scheduler.notify s e1;
  Scheduler.run_ready s;
  Alcotest.(check int) "woken by e1 after re-registration" 2 !count;
  (* Fire both before running: the first immediate notification wakes
     the process (and invalidates its multi-event wait); the second
     finds nobody waiting — exactly one activation. *)
  count := 0;
  Scheduler.notify s e1;
  Scheduler.notify s e2;
  Scheduler.run_ready s;
  Alcotest.(check int) "one wake per wait" 1 !count

let test_same_time_order_deterministic () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let log = ref [] in
  let mk name =
    Process.make name (fun () ->
        log := name :: !log;
        Process.Wait_event ev)
  in
  Scheduler.spawn s (mk "p1");
  Scheduler.spawn s (mk "p2");
  Scheduler.spawn s (mk "p3");
  Scheduler.run_ready s;
  log := [];
  Scheduler.notify s ev;
  Scheduler.run_ready s;
  Alcotest.(check (list string)) "wake order = wait order" [ "p1"; "p2"; "p3" ]
    (List.rev !log)

let test_stats () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let p = Process.make "w" (fun () -> Process.Wait_event ev) in
  Scheduler.spawn s p;
  Scheduler.run_ready s;
  Scheduler.notify_at s ev (Sc_time.ns 1);
  ignore (Scheduler.step s);
  let st = Scheduler.stats s in
  Alcotest.(check int) "activations" 2 st.Scheduler.activations;
  Alcotest.(check int) "time advances" 1 st.Scheduler.time_advances;
  Alcotest.(check bool) "events fired" true (st.Scheduler.events_fired >= 1)

let test_activation_limit () =
  let s = Scheduler.create () in
  let ev = Event.make "e" in
  let p =
    Process.make "spin" (fun () ->
        (* immediate self-notification: a runaway zero-delay loop *)
        Scheduler.notify_delta s ev;
        Process.Wait_event ev)
  in
  Scheduler.spawn s p;
  Alcotest.check_raises "limit" Scheduler.Activation_limit_exceeded (fun () ->
      Scheduler.run_ready s)

(* ------------------------------------------------------------------ *)
(* Thread-to-function translation (Fig. 4 contract)                    *)

type label = Init | Lbl1

let test_fsm_translation () =
  (* The translated PLIC-style run thread: first activation waits, every
     further activation performs the scan and waits again. *)
  let s = Scheduler.create () in
  let e_run = Event.make "e_run" in
  let scans = ref 0 in
  let fsm = Process.Fsm.make ~init:Init in
  let body () =
    match Process.Fsm.position fsm with
    | Init -> Process.Fsm.suspend fsm ~at:Lbl1 (Process.Wait_event e_run)
    | Lbl1 ->
      incr scans;
      Process.Fsm.suspend fsm ~at:Lbl1 (Process.Wait_event e_run)
  in
  Scheduler.spawn s (Process.make "run" body);
  Scheduler.run_ready s;
  Alcotest.(check int) "no scan at init" 0 !scans;
  Scheduler.notify_at s e_run (Sc_time.ns 10);
  ignore (Scheduler.step s);
  Alcotest.(check int) "scan per wake" 1 !scans;
  Scheduler.notify_at s e_run (Sc_time.ns 10);
  ignore (Scheduler.step s);
  Alcotest.(check int) "second wake" 2 !scans

(* ------------------------------------------------------------------ *)
(* Sc_compat veneer                                                    *)

let test_sc_compat () =
  let s = Scheduler.create () in
  Pk.Sc_compat.sc_set_context s;
  let ev = Pk.Sc_compat.sc_event "e" in
  let count = ref 0 in
  ignore
    (Pk.Sc_compat.sc_spawn "p" (fun () ->
         incr count;
         Process.Wait_event ev));
  Scheduler.run_ready s;
  Pk.Sc_compat.notify ~delay:(Sc_time.ns 3) ev;
  Alcotest.(check bool) "step" true (Pk.Sc_compat.pkernel_step ());
  Alcotest.(check int) "woken" 2 !count;
  Alcotest.(check int64) "time stamp" 3_000L
    (Sc_time.to_ps (Pk.Sc_compat.sc_time_stamp ()))

(* ------------------------------------------------------------------ *)
(* Heavy kernel functional equivalence                                 *)

let test_heavy_kernel_equivalent () =
  (* Same periodic workload on both kernels must produce the same
     number of activations. *)
  let hk = Pk.Heavy_kernel.create ~context_bytes:1024 () in
  let ev = Pk.Heavy_kernel.new_event hk in
  let n = ref 0 in
  Pk.Heavy_kernel.spawn hk "w" (fun () ->
      incr n;
      Pk.Heavy_kernel.Wait_event ev);
  for _ = 1 to 5 do
    Pk.Heavy_kernel.notify_after hk ev 1e-9;
    ignore (Pk.Heavy_kernel.step hk)
  done;
  Alcotest.(check int) "activations" 6 !n;
  Alcotest.(check bool) "time advanced" true (Pk.Heavy_kernel.now hk > 0.0)

(* ------------------------------------------------------------------ *)
(* VCD tracing                                                         *)

let test_trace_vcd_structure () =
  let tr = Pk.Trace.create ~name:"plic" () in
  let irq = Pk.Trace.signal tr "irq" in
  let claim = Pk.Trace.signal tr ~width:8 "claim" in
  Pk.Trace.change_bool tr irq Sc_time.zero false;
  Pk.Trace.change_bool tr irq (Sc_time.ns 10) true;
  Pk.Trace.change tr claim (Sc_time.ns 10) 5L;
  Pk.Trace.change_bool tr irq (Sc_time.ns 20) false;
  let vcd = Pk.Trace.to_vcd tr in
  let has s =
    let n = String.length s and m = String.length vcd in
    let rec go i = i + n <= m && (String.sub vcd i n = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "timescale" true (has "$timescale 1ps $end");
  Alcotest.(check bool) "scalar var" true (has "$var wire 1 ! irq $end");
  Alcotest.(check bool) "vector var" true (has "$var wire 8 \" claim $end");
  Alcotest.(check bool) "time marker" true (has "#10000");
  Alcotest.(check bool) "scalar change" true (has "1!");
  Alcotest.(check bool) "vector change" true (has "b00000101 \"")

let test_trace_collapses_duplicates () =
  let tr = Pk.Trace.create ~name:"t" () in
  let s = Pk.Trace.signal tr "s" in
  Pk.Trace.change tr s Sc_time.zero 1L;
  Pk.Trace.change tr s (Sc_time.ns 5) 1L;
  Pk.Trace.change tr s (Sc_time.ns 9) 0L;
  let vcd = Pk.Trace.to_vcd tr in
  (* only two dumps: the initial 1 and the final 0 *)
  let count_lines prefix =
    String.split_on_char '\n' vcd
    |> List.filter (fun l -> l = prefix)
    |> List.length
  in
  Alcotest.(check int) "one rising dump" 1 (count_lines "1!");
  Alcotest.(check int) "one falling dump" 1 (count_lines "0!")

let test_trace_rejects_time_reversal () =
  let tr = Pk.Trace.create ~name:"t" () in
  let s = Pk.Trace.signal tr "s" in
  Pk.Trace.change tr s (Sc_time.ns 10) 1L;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Trace.change: time going backwards") (fun () ->
        Pk.Trace.change tr s (Sc_time.ns 5) 0L)

(* ------------------------------------------------------------------ *)
(* Event lifetime                                                      *)

(* The kernel keeps no table of events, so one that nothing references
   is garbage.  Random trials never reset event ids, so a registry
   would keep every event they ever made alive. *)
let[@inline never] make_transient_event w =
  Weak.set w 0 (Some (Event.make "transient"))

let test_event_collected () =
  let w = Weak.create 1 in
  make_transient_event w;
  Gc.full_major ();
  Alcotest.(check bool) "event collected" false (Weak.check w 0)

let suite =
  [
    ("time: units", `Quick, test_time_units);
    ("time: arithmetic", `Quick, test_time_arith);
    ("time: printing", `Quick, test_time_pp);
    ("time: negative rejected", `Quick, test_time_negative);
    ("heap: sorted drain", `Quick, test_heap_sorted_drain);
    ("heap: peek/size", `Quick, test_heap_peek);
    ("scheduler: init activation", `Quick, test_spawn_runs_at_init);
    ("scheduler: wait/notify", `Quick, test_wait_event_and_notify);
    ("scheduler: timed notify + step", `Quick, test_timed_notify_and_step);
    ("scheduler: notification override rules", `Quick, test_notify_override_rules);
    ("scheduler: cancel", `Quick, test_cancel);
    ("scheduler: delta notification", `Quick, test_delta_notification);
    ("scheduler: timed wait cadence", `Quick, test_wait_time);
    ("scheduler: wait on several events", `Quick, test_wait_any);
    ("scheduler: deterministic same-time order", `Quick,
     test_same_time_order_deterministic);
    ("scheduler: stats", `Quick, test_stats);
    ("scheduler: runaway loop guard", `Quick, test_activation_limit);
    ("translation: Fig. 4 contract", `Quick, test_fsm_translation);
    ("trace: VCD structure", `Quick, test_trace_vcd_structure);
    ("trace: duplicate values collapsed", `Quick, test_trace_collapses_duplicates);
    ("trace: time reversal rejected", `Quick, test_trace_rejects_time_reversal);
    ("sc_compat: veneer", `Quick, test_sc_compat);
    ("heavy kernel: functional equivalence", `Quick, test_heavy_kernel_equivalent);
    ("pk: an unreachable event is collected", `Quick, test_event_collected);
  ]
  @ [ heap_prop ]
