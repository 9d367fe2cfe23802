(* Snapshot and fork tests.

   Two layers: (1) per-peripheral state round trips through the
   unified {!Tlm.Peripheral.S} surface — capture, mutate, restore, and
   check every observable register, and that [reset] equals the
   construction-time snapshot (every [reset] is a [restore]); (2) the
   fork-equivalence matrix — every fork is a decision prefix replayed
   from the root, whether it waits in the engine's frontier, crosses
   the pool's wire or sits in a checkpoint, so each of those runs must
   produce a report that {!Symsysc.Diff.compare_reports} finds
   identical (verdict, paths, instructions, error set, coverage) to
   the sequential run, for every strategy and testbench — coverage
   excepted after a resume, since checkpoints do not carry it. *)

module Expr = Smt.Expr
module Bv = Smt.Bv
module Value = Symex.Value
module Engine = Symex.Engine
module Search = Symex.Search
module Payload = Tlm.Payload
module Sc_time = Pk.Sc_time
module Verify = Symsysc.Verify
module Report = Symsysc.Report
module Diff = Symsysc.Diff

(* ------------------------------------------------------------------ *)
(* Observable-state helpers                                            *)

let read32_via serve dev offset =
  let p =
    Payload.make_read ~addr:(Value.of_int offset) ~len:(Value.of_int 4)
  in
  ignore (serve dev p Sc_time.zero);
  match Expr.to_bv (Payload.data32 p) with
  | Some v -> Int64.to_int (Bv.to_int64 v)
  | None -> Alcotest.fail "expected concrete read"

let write32_via serve dev offset value =
  let p =
    Payload.make_write32 ~addr:(Value.of_int offset)
      ~value:(Value.of_int value)
  in
  ignore (serve dev p Sc_time.zero)

(* ------------------------------------------------------------------ *)
(* PLIC round trip                                                     *)

let plic_cfg = Plic.Config.scaled ~num_sources:4

let make_plic () =
  let sched = Pk.Scheduler.create () in
  Pk.Sc_compat.sc_set_context sched;
  let dut =
    Plic.Peripheral.make
      { Plic.Peripheral.pc_variant = Plic.Config.Fixed;
        pc_faults = [];
        pc_cfg = plic_cfg }
      sched
  in
  let hart = Plic.Hart.create () in
  Plic.connect_hart dut 0 hart;
  Pk.Scheduler.run_ready sched;
  (sched, dut)

(* Every readable register of the 4-source PLIC, plus the hart's
   interrupt line. *)
let plic_observables dut =
  let r = read32_via Plic.Peripheral.serve dut in
  List.concat
    [ List.init plic_cfg.Plic.Config.num_sources (fun i ->
          r (Plic.Config.priority_base + (4 * i)));
      [ r Plic.Config.pending_base;
        r Plic.Config.enable_base;
        r Plic.Config.threshold_base ] ]

let test_plic_roundtrip () =
  let sched, dut = make_plic () in
  let w = write32_via Plic.Peripheral.serve dut in
  let fresh = plic_observables dut in
  (* Mutate: priorities, enables, threshold, and a latched pending bit. *)
  for id = 1 to plic_cfg.Plic.Config.num_sources do
    w (Plic.Config.priority_base + (4 * (id - 1))) id
  done;
  w Plic.Config.enable_base (-1);
  w Plic.Config.threshold_base 1;
  Plic.trigger_interrupt dut (Value.of_int 2);
  Pk.Scheduler.run_until sched (Sc_time.us 1);
  let s1 = Plic.Peripheral.snapshot dut in
  let mutated = plic_observables dut in
  Alcotest.(check bool) "mutation is visible" false (fresh = mutated);
  (* Scribble over everything, then restore the snapshot. *)
  for id = 1 to plic_cfg.Plic.Config.num_sources do
    w (Plic.Config.priority_base + (4 * (id - 1))) 7
  done;
  w Plic.Config.enable_base 0;
  w Plic.Config.threshold_base 3;
  Plic.Peripheral.restore dut s1;
  Alcotest.(check (list int)) "restore reproduces snapshot state" mutated
    (plic_observables dut);
  (* Snapshot of a restored device round-trips to the same observables. *)
  Plic.Peripheral.restore dut (Plic.Peripheral.snapshot dut);
  Alcotest.(check (list int)) "snapshot/restore is idempotent" mutated
    (plic_observables dut);
  Plic.Peripheral.reset dut;
  Alcotest.(check (list int)) "reset = construction-time snapshot" fresh
    (plic_observables dut)

(* ------------------------------------------------------------------ *)
(* CLINT round trip                                                    *)

let test_clint_roundtrip () =
  let sched = Pk.Scheduler.create () in
  Pk.Sc_compat.sc_set_context sched;
  let clint =
    Clint.Peripheral.make
      { Clint.Peripheral.cc_policy = Tlm.Register.Fixed;
        cc_cfg = Clint.Config.fe310 }
      sched
  in
  let port = Clint.Port.create () in
  Clint.connect clint port;
  Pk.Scheduler.run_ready sched;
  let r = read32_via Clint.Peripheral.serve clint in
  let w = write32_via Clint.Peripheral.serve clint in
  let observe () =
    [ r Clint.msip_base;
      r Clint.mtimecmp_base;
      r (Clint.mtimecmp_base + 4) ]
  in
  let fresh = observe () in
  w Clint.msip_base 1;
  w Clint.mtimecmp_base 0x1234;
  w (Clint.mtimecmp_base + 4) 0x5;
  let s1 = Clint.Peripheral.snapshot clint in
  let mutated = observe () in
  Alcotest.(check bool) "mutation is visible" false (fresh = mutated);
  w Clint.msip_base 0;
  w Clint.mtimecmp_base 0xdead;
  Clint.Peripheral.restore clint s1;
  Alcotest.(check (list int)) "restore reproduces snapshot state" mutated
    (observe ());
  Clint.Peripheral.reset clint;
  Alcotest.(check (list int)) "reset = construction-time snapshot" fresh
    (observe ())

(* ------------------------------------------------------------------ *)
(* UART round trip                                                     *)

let test_uart_roundtrip () =
  let sched = Pk.Scheduler.create () in
  Pk.Sc_compat.sc_set_context sched;
  let uart =
    Uart.Peripheral.make
      { Uart.Peripheral.uc_policy = Tlm.Register.Fixed;
        uc_clock = Sc_time.ns 10;
        uc_irq = (fun () -> ()) }
      sched
  in
  Pk.Scheduler.run_ready sched;
  let r = read32_via Uart.Peripheral.serve uart in
  let w = write32_via Uart.Peripheral.serve uart in
  let observe () =
    [ r Uart.div_base; r Uart.txctrl_base; r Uart.rxctrl_base;
      r Uart.ie_base; Uart.tx_level uart; Uart.rx_level uart;
      List.length (Uart.transmitted uart) ]
  in
  let fresh = observe () in
  w Uart.div_base 3;
  w Uart.txctrl_base 1;
  w Uart.rxctrl_base 1;
  w Uart.ie_base 3;
  w Uart.txdata_base 0x41;
  w Uart.txdata_base 0x42;
  Uart.receive_byte uart (Value.of_int 0x55);
  let s1 = Uart.Peripheral.snapshot uart in
  let mutated = observe () in
  Alcotest.(check bool) "mutation is visible" false (fresh = mutated);
  (* Drain the FIFOs the snapshot captured, then restore. *)
  ignore (r Uart.rxdata_base);
  Pk.Scheduler.run_until sched (Sc_time.us 10);
  Uart.Peripheral.restore uart s1;
  Alcotest.(check (list int)) "restore reproduces snapshot state (FIFOs \
                               included)" mutated (observe ());
  Uart.Peripheral.reset uart;
  Alcotest.(check (list int)) "reset = construction-time snapshot" fresh
    (observe ())

(* ------------------------------------------------------------------ *)
(* Fork-equivalence matrix                                             *)

let scenario ?strategy ?workers () =
  Verify.scenario ~num_sources:4 ~t5_max_len:8 ?strategy ?workers ()

let strategies =
  [ ("dfs", Search.Dfs);
    ("bfs", Search.Bfs);
    ("random", Search.Random_path 42);
    ("cover-new", Search.Cover_new) ]

let tests = [ "t1"; "t2"; "t3"; "t4"; "t5" ]

(* The report diff compares the deterministic fields — verdict, path
   and instruction counters, error set, coverage — and ignores the
   fields that legitimately differ (wall time, solver cache traffic). *)
let check_same label a b =
  let diffs = Diff.compare_reports (Report.to_json a) (Report.to_json b) in
  Alcotest.(check (list string)) label [] diffs

(* Nothing fast-forwards a fork any more, so the report fields the
   snapshot-forking counters left behind read 0 on every run. *)
let check_no_fast_forward label (r : Report.t) =
  let e = r.Report.engine in
  Alcotest.(check (list int)) (label ^ ": retired fast-forward counters")
    [ 0; 0; 0 ]
    [ e.Engine.snapshot_restores; e.Engine.replay_fallbacks;
      e.Engine.instructions_saved ]

let check_matrix strategy name () =
  let baseline = Verify.run_test (scenario ~strategy ()) name in
  check_no_fast_forward "sequential" baseline;
  (* The second run starts with warm solver caches, hash-cons tables
     and scope history; replaying each fork from the root must not see
     any of them. *)
  let again = Verify.run_test (scenario ~strategy ()) name in
  check_same "second sequential run equals the first" baseline again;
  let par = Verify.run_test (scenario ~strategy ~workers:4 ()) name in
  check_no_fast_forward "4 workers" par;
  check_same "4-worker run equals sequential" baseline par

let matrix_cases =
  List.concat_map
    (fun (sname, strategy) ->
       List.map
         (fun name ->
            ( Printf.sprintf "fork equivalence: %s/%s" sname name,
              `Slow,
              check_matrix strategy name ))
         tests)
    strategies

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume: a checkpoint stores its frontier as decision
   prefixes, the same forks the engine and the pool hold, beside the
   counters, errors and coverage of the paths settled before it.  A
   run cut partway through a path and resumed — sequentially or by a
   4-worker pool — must land on the straight-through report, coverage
   included.  t4 runs about 5500 instructions over 34 paths: a cut at
   2000 instructions falls after some paths are done, one at 50 inside
   the first path. *)

let with_session sc f = { sc with Verify.session = f sc.Verify.session }

let check_resume ~cut strategy () =
  let name = "t4" in
  let baseline = Verify.run_test (scenario ~strategy ()) name in
  let saved = ref None in
  let policy =
    { Engine.write = (fun ck -> saved := Some ck); every_s = infinity }
  in
  let truncated_sc =
    with_session (scenario ~strategy ()) (fun s ->
        { s with
          Engine.Session.checkpoint = Some policy;
          limits =
            { s.Engine.Session.limits with
              Engine.max_instructions = Some cut } })
  in
  let truncated = Verify.run_test truncated_sc name in
  if cut >= 2000 then
    Alcotest.(check bool) "the cut run completed some paths" true
      (truncated.Report.engine.Engine.paths_completed > 0);
  match !saved with
  | None -> Alcotest.fail "no checkpoint written"
  | Some ck ->
    List.iter
      (fun workers ->
         let resumed =
           Verify.run_test
             (with_session (scenario ~strategy ~workers ()) (fun s ->
                  { s with Engine.Session.resume = Some ck }))
             name
         in
         Alcotest.(check bool)
           (Printf.sprintf "resumed run exhausted at %d worker(s)" workers)
           true resumed.Report.engine.Engine.exhausted;
         check_same
           (Printf.sprintf "resumed at %d worker(s) equals straight-through"
              workers)
           baseline resumed)
      [ 1; 4 ]

let resume_cases =
  List.map
    (fun (sname, strategy) ->
       ( Printf.sprintf "fork equivalence through resume: %s/t4" sname,
         `Slow,
         check_resume ~cut:2000 strategy ))
    strategies

let suite =
  [ ("plic snapshot round trip", `Quick, test_plic_roundtrip);
    ("clint snapshot round trip", `Quick, test_clint_roundtrip);
    ("uart snapshot round trip", `Quick, test_uart_roundtrip) ]
  @ matrix_cases @ resume_cases
