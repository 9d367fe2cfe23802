module Config = Config
module Fault = Fault
module Hart = Hart
module Spec = Spec
module Expr = Smt.Expr
module Value = Symex.Value
module Engine = Symex.Engine
module Mem = Symex.Mem
module Sc_time = Pk.Sc_time

(* Resume labels of the translated run thread (Fig. 4). *)
type run_label = Init | Lbl1

(* Captured device state: pure data, no aliasing into the live device
   (Mem.save is copy-on-write; arrays are copied). *)
type snap = {
  sn_pending : Mem.state;
  sn_priorities : Mem.state;
  sn_pending_mmio : Mem.state;
  sn_enable : Mem.state;
  sn_threshold : Mem.state;
  sn_claim_response : Mem.state;
  sn_smode_claim : Mem.state;
  sn_eip : bool array;
  sn_harts : Hart.state option array;
  sn_fsm : run_label;
}

type t = {
  cfg : Config.t;
  plic_variant : Config.variant;
  plic_faults : Fault.t list;
  sched : Pk.Scheduler.t;
  regs : Tlm.Register.t;
  (* Internal pending latch: one byte per source, index = source id.
     Sized num_sources + 1 so valid ids 1..num_sources fit exactly —
     the array IF1's off-by-one overflows. *)
  pending : Mem.t;
  (* Memory-mapped register backings. *)
  priorities : Mem.t;
  pending_mmio : Mem.t;
  enable : Mem.t;
  threshold : Mem.t;
  claim_response : Mem.t;
  smode_claim : Mem.t;
  eip : bool array;
  harts : Hart.t option array;
  run_event : Pk.Event.t;
  run_fsm : run_label Pk.Process.Fsm.t;
  mutable reset_snap : snap option;
}

let config t = t.cfg
let variant t = t.plic_variant
let faults t = t.plic_faults
let scheduler t = t.sched
let e_run t = t.run_event
let hart_eip t h = t.eip.(h)

let fault_on t f = Fault.enabled t.plic_faults f

let enable_words cfg = (cfg.Config.num_sources + 1 + 31) / 32

(* ---- register accessors (concrete offsets) ---- *)

let priority_of t id = Mem.read32 t.priorities (4 * (id - 1))
let threshold_of t = Mem.read32 t.threshold 0
let is_set byte = Expr.ne byte (Expr.int ~width:8 0)
let pending_is_set t id = is_set (Mem.read_byte t.pending id)

let enabled_bit t id =
  Value.bit (Mem.read32 t.enable (4 * (id / 32))) (id mod 32)

let set_priority t id v = Mem.write32 t.priorities (4 * (id - 1)) v

let set_enable_all t =
  for w = 0 to enable_words t.cfg - 1 do
    Mem.write32 t.enable (4 * w) (Value.of_int (-1))
  done

let set_threshold t v = Mem.write32 t.threshold 0 v

(* ---- interrupt delivery logic ---- *)

(* Threshold gate: the specification requires strictly greater
   ("priority 0 is reserved to mean never interrupt"), which the
   strict comparison subsumes since thresholds are non-negative.
   IF6 turns it into >=. *)
let above_threshold t prio =
  if fault_on t Fault.IF6 then Value.ge prio (threshold_of t)
  else Value.gt prio (threshold_of t)

(* Source [id]'s gate: its pending byte is set and its enable bit is
   on.  Both gates and the pending-word packing below are derived terms
   keyed on the byte, the word and the bit index alone, so every PLIC
   shares them; [consider] reads the enable word before the gate builds
   the pending side, the order the terms were always built in. *)
let gate bit byte word = Expr.and_ (is_set byte) (Value.bit word bit)
let gate_d = Expr.derivation "plic:consider"

let consider t id =
  let word = Mem.read32 t.enable (4 * (id / 32)) in
  Expr.derive gate_d (id mod 32) (Mem.read_byte t.pending id) word gate

let hart_has_pending_enabled_interrupts t =
  let n = t.cfg.Config.num_sources in
  let rec scan id =
    if id > n then false
    else if
      Value.truth ~site:"plic:scan:consider" (consider t id)
      && Value.truth ~site:"plic:scan:threshold"
           (above_threshold t (priority_of t id))
    then true
    else scan (id + 1)
  in
  scan 1

(* The run-thread scan of Fig. 3: notify each hart that does not
   already have an interrupt in flight.  IF2 drops the hart
   notification whenever interrupt 13 is among the pending-enabled
   sources. *)
let run_scan t =
  let dropped =
    fault_on t Fault.IF2
    && Value.truth ~site:"plic:if2"
         (consider t (Fault.if2_drop_id t.cfg))
  in
  if not dropped then
    for h = 0 to t.cfg.Config.num_harts - 1 do
      if not t.eip.(h) then
        if hart_has_pending_enabled_interrupts t then begin
          t.eip.(h) <- true;
          match t.harts.(h) with
          | Some hart ->
            Hart.trigger_external_interrupt hart (Pk.Scheduler.now t.sched)
          | None -> ()
        end
    done

let notify_run t ~(id : Value.t) =
  let cycle = t.cfg.Config.clock_cycle in
  let delay =
    if
      fault_on t Fault.IF4
      && Value.truth ~site:"plic:if4"
           (Value.gt id (Value.of_int (Fault.if4_bound t.cfg)))
    then Sc_time.mul_int cycle 10
    else cycle
  in
  Pk.Scheduler.notify_at t.sched t.run_event delay

let trigger_interrupt t id =
  let n = t.cfg.Config.num_sources in
  let bound = if fault_on t Fault.IF1 then n + 1 else n in
  let valid =
    Expr.and_ (Value.ge id Value.one) (Value.le id (Value.of_int bound))
  in
  let proceed =
    match t.plic_variant with
    | Config.Original ->
      (* F1: a bare assert guards the id — an unhandled abort on
         invalid input instead of a graceful rejection. *)
      Engine.fatal_check ~site:"plic:trigger:bounds"
        ~message:"invalid interrupt id passed to trigger_interrupt" valid;
      true
    | Config.Fixed ->
      (* Gracefully ignore out-of-range ids. *)
      Value.truth ~site:"plic:trigger:valid" valid
  in
  if proceed then begin
    (* Latch the pending bit.  The engine-checked write is where IF1's
       overflow is detected. *)
    Mem.write_bytes ~site:"plic:pending-array" t.pending ~offset:id
      ~len:Value.one [| Expr.int ~width:8 1 |];
    notify_run t ~id
  end

(* ---- claim / complete ---- *)

(* Highest priority wins; ties go to the lowest id (strict comparison
   while scanning upwards). *)
let claim t =
  let n = t.cfg.Config.num_sources in
  let best = ref 0 in
  let best_prio = ref Value.zero in
  for id = 1 to n do
    if Value.truth ~site:"plic:claim:consider" (consider t id) then
      let prio = priority_of t id in
      if Value.truth ~site:"plic:claim:compare" (Value.gt prio !best_prio)
      then begin
        best := id;
        best_prio := prio
      end
  done;
  Mem.write32 t.claim_response 0 (Value.of_int !best);
  if !best <> 0 then
    if not (fault_on t Fault.IF5 && !best = Fault.if5_skip_id t.cfg) then
      (* clear the pending latch of the claimed interrupt *)
      Mem.write_byte t.pending !best (Expr.int ~width:8 0)

let complete t ~hart:h =
  (* F6: this assertion "was previously thought never to be false" —
     a completion is expected only after a notification went out, but a
     testbench (or misbehaving software) can write the claim/response
     register between trigger_interrupt and the run-thread scan. *)
  (match t.plic_variant with
   | Config.Original ->
     Engine.fatal_check ~site:"plic:claim:eip"
       ~message:"completion written while no interrupt is in flight (race)"
       (Expr.bool t.eip.(h))
   | Config.Fixed -> ());
  if t.eip.(h) then begin
    t.eip.(h) <- false;
    if not (fault_on t Fault.IF3) then
      (* Re-trigger the scan so further pending interrupts notify. *)
      if hart_has_pending_enabled_interrupts t then
        Pk.Scheduler.notify_at t.sched t.run_event t.cfg.Config.clock_cycle
  end

(* Pack the pending latch into the memory-mapped pending words (pure
   term construction, no forking), one derived step per source. *)
let pack_step bit word byte =
  Expr.bor word (Expr.ite (is_set byte) (Value.of_int (1 lsl bit)) Value.zero)

let pack_step_d = Expr.derivation "plic:pack-pending"

let pack_pending t =
  let n = t.cfg.Config.num_sources in
  for w = 0 to enable_words t.cfg - 1 do
    let word = ref Value.zero in
    for bit = 0 to 31 do
      let id = (32 * w) + bit in
      if id >= 1 && id <= n then
        word :=
          Expr.derive pack_step_d bit !word (Mem.read_byte t.pending id)
            pack_step
    done;
    Mem.write32 t.pending_mmio (4 * w) !word
  done

(* ---- whole-device state capture ---- *)

let snapshot t =
  {
    sn_pending = Mem.save t.pending;
    sn_priorities = Mem.save t.priorities;
    sn_pending_mmio = Mem.save t.pending_mmio;
    sn_enable = Mem.save t.enable;
    sn_threshold = Mem.save t.threshold;
    sn_claim_response = Mem.save t.claim_response;
    sn_smode_claim = Mem.save t.smode_claim;
    sn_eip = Array.copy t.eip;
    sn_harts = Array.map (Option.map Hart.save) t.harts;
    sn_fsm = Pk.Process.Fsm.position t.run_fsm;
  }

let restore t s =
  Mem.load t.pending s.sn_pending;
  Mem.load t.priorities s.sn_priorities;
  Mem.load t.pending_mmio s.sn_pending_mmio;
  Mem.load t.enable s.sn_enable;
  Mem.load t.threshold s.sn_threshold;
  Mem.load t.claim_response s.sn_claim_response;
  Mem.load t.smode_claim s.sn_smode_claim;
  Array.blit s.sn_eip 0 t.eip 0 (Array.length t.eip);
  Array.iteri
    (fun i hs ->
       match hs, t.harts.(i) with
       | Some hs, Some h -> Hart.load h hs
       | None, _ -> ()
       | Some _, None -> ())
    s.sn_harts;
  Pk.Process.Fsm.set t.run_fsm s.sn_fsm

(* ---- construction ---- *)

let build_memory_map t =
  let add = Tlm.Register.add_range t.regs in
  ignore
    (add ~name:"priority" ~base:Config.priority_base
       ~access:Tlm.Register.Read_write t.priorities);
  ignore
    (add ~name:"pending" ~base:Config.pending_base
       ~access:Tlm.Register.Read_only
       ~pre_read:(fun () -> pack_pending t)
       t.pending_mmio);
  ignore
    (add ~name:"enable" ~base:Config.enable_base
       ~access:Tlm.Register.Read_write t.enable);
  ignore
    (add ~name:"threshold" ~base:Config.threshold_base
       ~access:Tlm.Register.Read_write t.threshold);
  ignore
    (add ~name:"claim_response" ~base:Config.claim_base
       ~access:Tlm.Register.Read_write
       ~pre_read:(fun () -> claim t)
       ~post_write:(fun () -> complete t ~hart:0)
       t.claim_response);
  (* S-mode completion port: write-only in this VP revision; a read of
     it trips the access-type assertion (F4). *)
  ignore
    (add ~name:"smode_claim" ~base:Config.smode_claim_base
       ~access:Tlm.Register.Write_only t.smode_claim)

(* The translated run thread (Fig. 4): first activation immediately
   waits on e_run; every later activation scans and waits again. *)
let spawn_run_thread t =
  let fsm = t.run_fsm in
  let body () =
    match Pk.Process.Fsm.position fsm with
    | Init ->
      Pk.Process.Fsm.suspend fsm ~at:Lbl1 (Pk.Process.Wait_event t.run_event)
    | Lbl1 ->
      run_scan t;
      Pk.Process.Fsm.suspend fsm ~at:Lbl1 (Pk.Process.Wait_event t.run_event)
  in
  Pk.Scheduler.spawn t.sched (Pk.Process.make "plic:run" body)

let create ?(variant = Config.Original) ?(faults = []) cfg sched =
  if cfg.Config.num_harts < 1 then invalid_arg "Plic.create: need >= 1 hart";
  let n = cfg.Config.num_sources in
  let words = enable_words cfg in
  let t =
    {
      cfg;
      plic_variant = variant;
      plic_faults = faults;
      sched;
      regs = Tlm.Register.create ~policy:(match variant with
          | Config.Original -> Tlm.Register.Original
          | Config.Fixed -> Tlm.Register.Fixed)
          ~name:"plic" ();
      pending = Mem.create ~name:"plic-pending" ~size:(n + 1);
      priorities = Mem.create ~name:"plic-priority" ~size:(4 * n);
      pending_mmio = Mem.create ~name:"plic-pending-mmio" ~size:(4 * words);
      enable = Mem.create ~name:"plic-enable" ~size:(4 * words);
      threshold = Mem.create ~name:"plic-threshold" ~size:4;
      claim_response = Mem.create ~name:"plic-claim" ~size:4;
      smode_claim = Mem.create ~name:"plic-smode-claim" ~size:4;
      eip = Array.make cfg.Config.num_harts false;
      harts = Array.make cfg.Config.num_harts None;
      run_event = Pk.Event.make "plic:e_run";
      run_fsm = Pk.Process.Fsm.make ~init:Init;
      reset_snap = None;
    }
  in
  build_memory_map t;
  spawn_run_thread t;
  t.reset_snap <- Some (snapshot t);
  t

let connect_hart t i hart = t.harts.(i) <- Some hart

let transport t payload delay = Tlm.Register.transport t.regs payload delay

let reset t =
  match t.reset_snap with
  | Some s -> restore t s
  | None -> assert false

module Peripheral = struct
  type nonrec t = t

  type config = {
    pc_variant : Config.variant;
    pc_faults : Fault.t list;
    pc_cfg : Config.t;
  }

  type state = snap

  let make c sched = create ~variant:c.pc_variant ~faults:c.pc_faults c.pc_cfg sched
  let reset = reset
  let serve = transport
  let snapshot = snapshot
  let restore = restore
end
