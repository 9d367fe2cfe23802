(* Concrete (non-symbolic) behavioural tests of the PLIC model: the
   interrupt delivery protocol, claim/complete, masking, the hart_eip
   suppression, the memory map, and the concrete effect of every
   injected fault. *)

module Expr = Smt.Expr
module Bv = Smt.Bv
module Value = Symex.Value
module Engine = Symex.Engine
module Config = Plic.Config
module Fault = Plic.Fault
module Payload = Tlm.Payload
module Sc_time = Pk.Sc_time

let cfg = Config.scaled ~num_sources:16

type rig = {
  sched : Pk.Scheduler.t;
  dut : Plic.t;
  hart : Plic.Hart.t;
}

let make_rig ?(variant = Config.Fixed) ?(faults = []) () =
  let sched = Pk.Scheduler.create () in
  let dut = Plic.create ~variant ~faults cfg sched in
  let hart = Plic.Hart.create () in
  Plic.connect_hart dut 0 hart;
  Pk.Scheduler.run_ready sched;
  { sched; dut; hart }

let trigger rig id = Plic.trigger_interrupt rig.dut (Value.of_int id)
let step rig = ignore (Pk.Scheduler.step rig.sched)

let read32 rig offset =
  let p =
    Payload.make_read ~addr:(Value.of_int offset) ~len:(Value.of_int 4)
  in
  ignore (Plic.transport rig.dut p Sc_time.zero);
  match Expr.to_bv (Payload.data32 p) with
  | Some v -> Int64.to_int (Bv.to_int64 v)
  | None -> Alcotest.fail "expected concrete read"

let write32 rig offset value =
  let p =
    Payload.make_write32 ~addr:(Value.of_int offset) ~value:(Value.of_int value)
  in
  ignore (Plic.transport rig.dut p Sc_time.zero)

let enable_words = (cfg.Config.num_sources + 1 + 31) / 32

let enable_all rig =
  for w = 0 to enable_words - 1 do
    write32 rig (Config.enable_base + (4 * w)) (-1)
  done

let set_priority rig id p =
  write32 rig (Config.priority_base + (4 * (id - 1))) p

let claim rig = read32 rig Config.claim_base
let complete rig id = write32 rig Config.claim_base id

let setup_basic ?variant ?faults () =
  let rig = make_rig ?variant ?faults () in
  enable_all rig;
  for id = 1 to cfg.Config.num_sources do
    set_priority rig id 1
  done;
  write32 rig Config.threshold_base 0;
  rig

(* ------------------------------------------------------------------ *)
(* Delivery protocol                                                   *)

let test_trigger_notifies_after_cycle () =
  let rig = setup_basic () in
  trigger rig 5;
  Alcotest.(check bool) "not yet" false rig.hart.Plic.Hart.was_triggered;
  step rig;
  Alcotest.(check bool) "triggered" true rig.hart.Plic.Hart.was_triggered;
  Alcotest.(check int64) "after one clock cycle"
    (Sc_time.to_ps cfg.Config.clock_cycle)
    (Sc_time.to_ps rig.hart.Plic.Hart.last_trigger_time)

let test_pending_bit_visible () =
  let rig = setup_basic () in
  trigger rig 5;
  step rig;
  let word = read32 rig Config.pending_base in
  Alcotest.(check int) "bit 5 set" (1 lsl 5) (word land (1 lsl 5));
  ignore (claim rig);
  let word = read32 rig Config.pending_base in
  Alcotest.(check int) "cleared after claim" 0 (word land (1 lsl 5))

let test_claim_complete_cycle () =
  let rig = setup_basic () in
  trigger rig 9;
  step rig;
  Alcotest.(check int) "claim returns source" 9 (claim rig);
  Alcotest.(check bool) "eip while in flight" true (Plic.hart_eip rig.dut 0);
  complete rig 9;
  Alcotest.(check bool) "eip released" false (Plic.hart_eip rig.dut 0);
  Alcotest.(check int) "nothing left to claim" 0 (claim rig)

let test_eip_suppresses_retrigger () =
  let rig = setup_basic () in
  trigger rig 3;
  step rig;
  Alcotest.(check int) "one notification" 1 rig.hart.Plic.Hart.trigger_count;
  (* a second interrupt while the first is in flight must not re-raise
     the external interrupt line *)
  trigger rig 4;
  step rig;
  Alcotest.(check int) "suppressed" 1 rig.hart.Plic.Hart.trigger_count

let test_completion_retriggers_remaining () =
  let rig = setup_basic () in
  trigger rig 3;
  trigger rig 4;
  step rig;
  Alcotest.(check int) "first claim" 3 (claim rig);
  complete rig 3;
  step rig;
  Alcotest.(check int) "second notification" 2 rig.hart.Plic.Hart.trigger_count;
  Alcotest.(check int) "second claim" 4 (claim rig)

let test_priority_order_and_ties () =
  let rig = setup_basic () in
  set_priority rig 3 1;
  set_priority rig 11 7;
  set_priority rig 12 7;
  trigger rig 3;
  trigger rig 11;
  trigger rig 12;
  step rig;
  Alcotest.(check int) "highest priority first, tie to lowest id" 11 (claim rig);
  complete rig 11;
  step rig;
  Alcotest.(check int) "then the tie loser" 12 (claim rig);
  complete rig 12;
  step rig;
  Alcotest.(check int) "lowest priority last" 3 (claim rig)

let test_threshold_masks () =
  let rig = setup_basic () in
  set_priority rig 4 2;
  write32 rig Config.threshold_base 2;
  trigger rig 4;
  step rig;
  Alcotest.(check bool) "prio == threshold masked" false
    rig.hart.Plic.Hart.was_triggered;
  write32 rig Config.threshold_base 1;
  trigger rig 4;
  step rig;
  Alcotest.(check bool) "prio > threshold fires" true
    rig.hart.Plic.Hart.was_triggered

let test_priority_zero_never_fires () =
  let rig = setup_basic () in
  set_priority rig 6 0;
  trigger rig 6;
  step rig;
  Alcotest.(check bool) "disabled by priority 0" false
    rig.hart.Plic.Hart.was_triggered

let test_disabled_source_not_delivered () =
  let rig = setup_basic () in
  for w = 0 to enable_words - 1 do
    write32 rig (Config.enable_base + (4 * w)) 0
  done;
  trigger rig 6;
  step rig;
  Alcotest.(check bool) "not enabled, not delivered" false
    rig.hart.Plic.Hart.was_triggered

let test_fixed_ignores_invalid_id () =
  let rig = setup_basic () in
  Plic.trigger_interrupt rig.dut (Value.of_int 0);
  Plic.trigger_interrupt rig.dut (Value.of_int 9999);
  step rig;
  Alcotest.(check bool) "no delivery" false rig.hart.Plic.Hart.was_triggered

let test_original_aborts_on_invalid_id () =
  let rig = setup_basic ~variant:Config.Original () in
  Alcotest.check_raises "F1 abort"
    (Engine.Check_failed "plic:trigger:bounds") (fun () ->
        Plic.trigger_interrupt rig.dut (Value.of_int 9999))

(* ------------------------------------------------------------------ *)
(* Memory map                                                          *)

let test_memory_map_smode_write_only () =
  let rig = setup_basic () in
  let p =
    Payload.make_read ~addr:(Value.of_int Config.smode_claim_base)
      ~len:(Value.of_int 4)
  in
  ignore (Plic.transport rig.dut p Sc_time.zero);
  Alcotest.(check bool) "read rejected" true
    (p.Payload.response = Payload.Command_error)

let test_memory_map_priority_persistence () =
  let rig = setup_basic () in
  set_priority rig 2 17;
  Alcotest.(check int) "read back" 17
    (read32 rig (Config.priority_base + 4))

let test_memory_map_hole_is_unmapped () =
  let rig = setup_basic () in
  (* offset 0 (priority of reserved source 0) is a hole *)
  let p = Payload.make_read ~addr:Value.zero ~len:(Value.of_int 4) in
  ignore (Plic.transport rig.dut p Sc_time.zero);
  Alcotest.(check bool) "address error" true
    (p.Payload.response = Payload.Address_error)

(* ------------------------------------------------------------------ *)
(* Concrete effect of each injected fault                              *)

let test_if1_overflow () =
  let rig = setup_basic ~faults:[ Fault.IF1 ] () in
  let bad = cfg.Config.num_sources + 1 in
  (* In concrete mode the checked memory raises on the overflow. *)
  Alcotest.check_raises "pending array overflow"
    (Engine.Check_failed "plic:pending-array") (fun () ->
        Plic.trigger_interrupt rig.dut (Value.of_int bad))

let test_if2_drops_13 () =
  let rig = setup_basic ~faults:[ Fault.IF2 ] () in
  trigger rig (Fault.if2_drop_id cfg);
  step rig;
  Alcotest.(check bool) "dropped" false rig.hart.Plic.Hart.was_triggered;
  (* other ids still work while 13 is not pending (fresh instance) *)
  let rig = setup_basic ~faults:[ Fault.IF2 ] () in
  trigger rig 2;
  step rig;
  Alcotest.(check bool) "others fine" true rig.hart.Plic.Hart.was_triggered

let test_if3_skips_retrigger () =
  let rig = setup_basic ~faults:[ Fault.IF3 ] () in
  trigger rig 3;
  trigger rig 4;
  step rig;
  Alcotest.(check int) "first claim" 3 (claim rig);
  complete rig 3;
  step rig;
  Alcotest.(check int) "second never notified" 1
    rig.hart.Plic.Hart.trigger_count

let test_if4_inflates_delay () =
  let rig = setup_basic ~faults:[ Fault.IF4 ] () in
  let late_id = Fault.if4_bound cfg + 1 in
  trigger rig late_id;
  step rig;
  Alcotest.(check bool) "still delivered" true rig.hart.Plic.Hart.was_triggered;
  Alcotest.(check int64) "ten times the cycle"
    (Sc_time.to_ps (Sc_time.mul_int cfg.Config.clock_cycle 10))
    (Sc_time.to_ps rig.hart.Plic.Hart.last_trigger_time)

let test_if5_skips_clear () =
  let rig = setup_basic ~faults:[ Fault.IF5 ] () in
  let sticky = Fault.if5_skip_id cfg in
  trigger rig sticky;
  step rig;
  Alcotest.(check int) "claimed" sticky (claim rig);
  let word = read32 rig Config.pending_base in
  Alcotest.(check bool) "pending bit survived the claim" true
    (word land (1 lsl sticky) <> 0)

let test_if6_threshold_off_by_one () =
  let rig = setup_basic ~faults:[ Fault.IF6 ] () in
  set_priority rig 4 2;
  write32 rig Config.threshold_base 2;
  trigger rig 4;
  step rig;
  Alcotest.(check bool) "prio == threshold wrongly fires" true
    rig.hart.Plic.Hart.was_triggered

(* ------------------------------------------------------------------ *)
(* White-box probes                                                    *)

let test_probes () =
  let rig = setup_basic () in
  Plic.set_priority rig.dut 3 (Value.of_int 9);
  (match Expr.to_bv (Plic.priority_of rig.dut 3) with
   | Some v -> Alcotest.(check int64) "priority poke" 9L (Bv.to_int64 v)
   | None -> Alcotest.fail "expected concrete");
  Plic.set_threshold rig.dut (Value.of_int 4);
  (match Expr.to_bv (Plic.threshold_of rig.dut) with
   | Some v -> Alcotest.(check int64) "threshold poke" 4L (Bv.to_int64 v)
   | None -> Alcotest.fail "expected concrete");
  Plic.set_enable_all rig.dut;
  Alcotest.(check bool) "enable bit" true
    (Expr.to_bool (Plic.enabled_bit rig.dut 7) = Some true);
  Alcotest.(check bool) "pending clear" true
    (Expr.to_bool (Plic.pending_is_set rig.dut 7) = Some false)

(* ------------------------------------------------------------------ *)
(* Derived terms                                                       *)

(* Range matches, bounds terms, gates and pending words are derived
   terms, shared by every PLIC in the process.  A seeded script run on
   a fresh PLIC, then on a second fresh one (every derivation now a
   hit), must give each operation the same terms and the same
   instruction count, and the second run must build no new term.  The
   11-source map gives the ranges and memories sizes no other test
   uses, so the first run misses. *)
type script_op =
  | Write of int * int  (** offset, value *)
  | Read of int
  | Trigger of int
  | Claim_complete

let derived_cfg = Config.scaled ~num_sources:11

let derived_script =
  let n = derived_cfg.Config.num_sources in
  let rng = Random.State.make [| 20 |] in
  let priority () = Config.priority_base + (4 * Random.State.int rng n) in
  let mapped () =
    match Random.State.int rng 5 with
    | 0 -> Config.pending_base
    | 1 -> Config.enable_base
    | 2 -> Config.threshold_base
    | 3 -> priority ()
    | _ -> 0x3000 (* unmapped *)
  in
  List.init 300 (fun _ ->
      match Random.State.int rng 8 with
      | 0 | 1 -> Write (priority (), Random.State.int rng 8)
      | 2 -> Write (Config.threshold_base, Random.State.int rng 4)
      | 3 -> Write (mapped (), Random.State.bits rng)
      | 4 -> Read (mapped ())
      | 5 | 6 -> Trigger (Random.State.int rng (n + 2))
      | _ -> Claim_complete)

let run_script () =
  let sched = Pk.Scheduler.create () in
  let dut = Plic.create ~variant:Config.Fixed derived_cfg sched in
  Pk.Scheduler.run_ready sched;
  (* A payload's response and data terms. *)
  let tlm p =
    ignore (Plic.transport dut p Sc_time.zero);
    (p.Payload.response, Array.to_list p.Payload.data)
  in
  let op = function
    | Write (off, v) ->
      tlm (Payload.make_write32 ~addr:(Value.of_int off) ~value:(Value.of_int v))
    | Read off ->
      tlm (Payload.make_read ~addr:(Value.of_int off) ~len:(Value.of_int 4))
    | Trigger id ->
      Plic.trigger_interrupt dut (Value.of_int id);
      ( Payload.Ok_response,
        if id >= 1 && id <= derived_cfg.Config.num_sources then
          [ Plic.pending_is_set dut id ]
        else [] )
    | Claim_complete ->
      let p =
        Payload.make_read ~addr:(Value.of_int Config.claim_base)
          ~len:(Value.of_int 4)
      in
      let claimed = tlm p in
      ignore
        (tlm
           (Payload.make_write32 ~addr:(Value.of_int Config.claim_base)
              ~value:(Payload.data32 p)));
      claimed
  in
  Plic.set_enable_all dut;
  List.map
    (fun o ->
       let before = Expr.instruction_count () in
       let response, ts = op o in
       ignore (Pk.Scheduler.step sched);
       (response, ts, Expr.instruction_count () - before))
    derived_script

let test_derived_terms_replay () =
  let mark () = (Expr.fresh_var "mark" 1).Expr.id in
  let first = run_script () in
  let start = mark () in
  let second = run_script () in
  Alcotest.(check int) "the second run builds no term" (start + 1) (mark ());
  List.iteri
    (fun i ((r1, t1, n1), (r2, t2, n2)) ->
       let what = Printf.sprintf "op %d" i in
       Alcotest.(check string) (what ^ ": response")
         (Payload.response_to_string r1) (Payload.response_to_string r2);
       Alcotest.(check bool) (what ^ ": same terms") true
         (List.length t1 = List.length t2 && List.for_all2 ( == ) t1 t2);
       Alcotest.(check int) (what ^ ": same instructions") n1 n2)
    (List.combine first second)

let suite =
  [
    ("delivery: notify after one cycle", `Quick, test_trigger_notifies_after_cycle);
    ("delivery: pending bit over TLM", `Quick, test_pending_bit_visible);
    ("delivery: claim/complete cycle", `Quick, test_claim_complete_cycle);
    ("delivery: eip suppression", `Quick, test_eip_suppresses_retrigger);
    ("delivery: completion re-triggers", `Quick,
     test_completion_retriggers_remaining);
    ("delivery: priority order and ties", `Quick, test_priority_order_and_ties);
    ("masking: threshold strict", `Quick, test_threshold_masks);
    ("masking: priority zero", `Quick, test_priority_zero_never_fires);
    ("masking: disabled source", `Quick, test_disabled_source_not_delivered);
    ("trigger: fixed ignores invalid id", `Quick, test_fixed_ignores_invalid_id);
    ("trigger: original aborts on invalid id", `Quick,
     test_original_aborts_on_invalid_id);
    ("map: S-mode port is write-only", `Quick, test_memory_map_smode_write_only);
    ("map: priority persistence", `Quick, test_memory_map_priority_persistence);
    ("map: reserved hole unmapped", `Quick, test_memory_map_hole_is_unmapped);
    ("fault IF1: pending array overflow", `Quick, test_if1_overflow);
    ("fault IF2: drops id 13", `Quick, test_if2_drops_13);
    ("fault IF3: skips re-trigger", `Quick, test_if3_skips_retrigger);
    ("fault IF4: inflated delay", `Quick, test_if4_inflates_delay);
    ("fault IF5: skips pending clear", `Quick, test_if5_skips_clear);
    ("fault IF6: threshold off-by-one", `Quick, test_if6_threshold_off_by_one);
    ("white-box probes", `Quick, test_probes);
    ("derived terms: a second PLIC replays the first", `Quick,
     test_derived_terms_replay);
  ]
