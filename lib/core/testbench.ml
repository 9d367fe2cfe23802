module Expr = Smt.Expr
module Value = Symex.Value
module Engine = Symex.Engine
module Config = Plic.Config

type duv = {
  sched : Pk.Scheduler.t;
  dut : Plic.t;
  hart : Plic.Hart.t;
}

let setup ?(variant = Plic.Config.Original) ?(faults = []) cfg =
  let sched = Pk.Scheduler.create () in
  Pk.Sc_compat.sc_set_context sched;
  let dut =
    Plic.Peripheral.make
      { Plic.Peripheral.pc_variant = variant; pc_faults = faults; pc_cfg = cfg }
      sched
  in
  let hart = Plic.Hart.create () in
  Plic.connect_hart dut 0 hart;
  (* Initialization phase: run threads until their first wait. *)
  Pk.Scheduler.run_ready sched;
  { sched; dut; hart }

let klee_int name = Engine.fresh32 name
let klee_assume cond = Engine.assume cond
let klee_assert ~site ?message cond = Engine.check ~site ?message cond
let pkernel_step duv = Pk.Scheduler.step duv.sched

let transport duv payload =
  ignore (Plic.Peripheral.serve duv.dut payload Pk.Sc_time.zero);
  payload

let read32 duv offset =
  let payload =
    Tlm.Payload.make_read ~addr:(Value.of_int offset) ~len:(Value.of_int 4)
  in
  ignore (transport duv payload);
  Tlm.Payload.data32 payload

let write32 duv offset value =
  let payload =
    Tlm.Payload.make_write32 ~addr:(Value.of_int offset) ~value
  in
  ignore (transport duv payload)

let enable_words cfg = (cfg.Config.num_sources + 1 + 31) / 32

let enable_all_interrupts duv =
  let cfg = Plic.config duv.dut in
  for w = 0 to enable_words cfg - 1 do
    write32 duv (Config.enable_base + (4 * w)) (Value.of_int (-1))
  done

let set_all_priorities duv prio =
  let cfg = Plic.config duv.dut in
  for id = 1 to cfg.Config.num_sources do
    write32 duv (Config.priority_base + (4 * (id - 1))) prio
  done

let claim_interrupt duv =
  let id_word = read32 duv Config.claim_base in
  let id = Value.to_concrete ~site:"tb:claimed-id" id_word in
  if id <> 0 then begin
    let word = read32 duv (Config.pending_base + (4 * (id / 32))) in
    let still_pending =
      Value.truth ~site:"tb:cleared?" (Value.bit word (id mod 32))
    in
    duv.hart.Plic.Hart.was_cleared <- not still_pending
  end;
  (* Completion: write the id back to the claim/response register. *)
  write32 duv Config.claim_base id_word;
  id_word
