module Expr = Smt.Expr
module Value = Symex.Value
module Mem = Symex.Mem
module Sc_time = Pk.Sc_time

let fifo_depth = 8
let txdata_base = 0x00
let rxdata_base = 0x04
let txctrl_base = 0x08
let rxctrl_base = 0x0C
let ie_base = 0x10
let ip_base = 0x14
let div_base = 0x18
let addr_window = 0x1C

(* Resume labels of the translated transmitter thread. *)
type tx_label = Idle | Draining

(* Captured device state: pure data, no aliasing into the live device. *)
type snap = {
  sn_txdata : Mem.state;
  sn_rxdata : Mem.state;
  sn_txctrl : Mem.state;
  sn_rxctrl : Mem.state;
  sn_ie : Mem.state;
  sn_ip : Mem.state;
  sn_divider : Mem.state;
  sn_tx_fifo : Expr.t Queue.t;  (* private copy, never mutated *)
  sn_rx_fifo : Expr.t Queue.t;
  sn_sent : Expr.t list;
  sn_line : bool;
  sn_fsm : tx_label;
}

type t = {
  sched : Pk.Scheduler.t;
  clock : Sc_time.t;
  irq : unit -> unit;
  regs : Tlm.Register.t;
  txdata : Mem.t;
  rxdata : Mem.t;
  txctrl : Mem.t;
  rxctrl : Mem.t;
  ie : Mem.t;
  ip : Mem.t;
  divider : Mem.t;
  tx_fifo : Expr.t Queue.t;
  rx_fifo : Expr.t Queue.t;
  mutable sent : Expr.t list;      (* newest first *)
  mutable line : bool;             (* interrupt output level *)
  e_kick : Pk.Event.t;
  tx_fsm : tx_label Pk.Process.Fsm.t;
  mutable reset_snap : snap option;
}

let tx_level t = Queue.length t.tx_fifo
let rx_level t = Queue.length t.rx_fifo
let interrupt_line t = t.line
let transmitted t = List.rev t.sent

let watermark ctrl = Value.band (Value.lshr ctrl (Value.of_int 16)) (Value.of_int 7)
let enabled_bit ctrl = Value.bit ctrl 0

(* FE310 watermark conditions: txwm pending while the TX FIFO is
   strictly below its watermark; rxwm pending while the RX FIFO is
   strictly above its watermark. *)
let pending_bits t =
  let txwm = watermark (Mem.read32 t.txctrl 0) in
  let rxwm = watermark (Mem.read32 t.rxctrl 0) in
  let txp =
    Value.truth ~site:"uart:txwm"
      (Value.lt (Value.of_int (tx_level t)) txwm)
  in
  let rxp =
    Value.truth ~site:"uart:rxwm"
      (Value.gt (Value.of_int (rx_level t)) rxwm)
  in
  (txp, rxp)

let update_irq t =
  let txp, rxp = pending_bits t in
  let ie = Mem.read32 t.ie 0 in
  let tx_en = Value.truth ~site:"uart:ie-tx" (Value.bit ie 0) in
  let rx_en = Value.truth ~site:"uart:ie-rx" (Value.bit ie 1) in
  let level = (txp && tx_en) || (rxp && rx_en) in
  if level && not t.line then t.irq ();
  t.line <- level

let refresh_ip t =
  let txp, rxp = pending_bits t in
  let v = (if txp then 1 else 0) lor if rxp then 2 else 0 in
  Mem.write32 t.ip 0 (Value.of_int v)

(* ---- register callbacks ---- *)

let on_txdata_write t =
  let word = Mem.read32 t.txdata 0 in
  if tx_level t < fifo_depth then begin
    Queue.push (Expr.extract ~hi:7 ~lo:0 word) t.tx_fifo;
    Pk.Scheduler.notify t.sched t.e_kick
  end;
  (* writes to a full FIFO are dropped, as on the FE310 *)
  update_irq t

let on_txdata_read t =
  (* bit 31 = full flag; data bits read back as zero *)
  let full = if tx_level t >= fifo_depth then 0x8000_0000 else 0 in
  Mem.write32 t.txdata 0 (Value.of_int full)

let on_rxdata_read t =
  if Queue.is_empty t.rx_fifo then
    Mem.write32 t.rxdata 0 (Value.of_int 0x8000_0000)
  else begin
    let byte = Queue.pop t.rx_fifo in
    Mem.write32 t.rxdata 0 (Expr.zext 32 byte);
    update_irq t
  end

(* ---- wire side ---- *)

let receive_byte t byte =
  if rx_level t < fifo_depth then begin
    Queue.push (Expr.extract ~hi:7 ~lo:0 byte) t.rx_fifo;
    update_irq t
  end

(* Time to shift one frame out: (div + 1) ticks for each of the ~10
   bits of an 8N1 frame, collapsed into one wait. *)
let frame_time t =
  let div = Value.to_concrete ~site:"uart:div" (Mem.read32 t.divider 0) in
  Sc_time.mul_int t.clock ((div + 1) * 10)

(* ---- whole-device state capture ---- *)

let snapshot t =
  {
    sn_txdata = Mem.save t.txdata;
    sn_rxdata = Mem.save t.rxdata;
    sn_txctrl = Mem.save t.txctrl;
    sn_rxctrl = Mem.save t.rxctrl;
    sn_ie = Mem.save t.ie;
    sn_ip = Mem.save t.ip;
    sn_divider = Mem.save t.divider;
    sn_tx_fifo = Queue.copy t.tx_fifo;
    sn_rx_fifo = Queue.copy t.rx_fifo;
    sn_sent = t.sent;
    sn_line = t.line;
    sn_fsm = Pk.Process.Fsm.position t.tx_fsm;
  }

let restore t s =
  Mem.load t.txdata s.sn_txdata;
  Mem.load t.rxdata s.sn_rxdata;
  Mem.load t.txctrl s.sn_txctrl;
  Mem.load t.rxctrl s.sn_rxctrl;
  Mem.load t.ie s.sn_ie;
  Mem.load t.ip s.sn_ip;
  Mem.load t.divider s.sn_divider;
  Queue.clear t.tx_fifo;
  Queue.transfer (Queue.copy s.sn_tx_fifo) t.tx_fifo;
  Queue.clear t.rx_fifo;
  Queue.transfer (Queue.copy s.sn_rx_fifo) t.rx_fifo;
  t.sent <- s.sn_sent;
  t.line <- s.sn_line;
  Pk.Process.Fsm.set t.tx_fsm s.sn_fsm

let spawn_transmitter t =
  let fsm = t.tx_fsm in
  let can_send () =
    tx_level t > 0
    && Value.truth ~site:"uart:txen" (enabled_bit (Mem.read32 t.txctrl 0))
  in
  let body () =
    match Pk.Process.Fsm.position fsm with
    | Idle ->
      if can_send () then
        Pk.Process.Fsm.suspend fsm ~at:Draining
          (Pk.Process.Wait_time (frame_time t))
      else
        Pk.Process.Fsm.suspend fsm ~at:Idle (Pk.Process.Wait_event t.e_kick)
    | Draining ->
      (* one frame time elapsed: the byte is on the wire *)
      (match Queue.take_opt t.tx_fifo with
       | Some byte -> t.sent <- byte :: t.sent
       | None -> ());
      update_irq t;
      if can_send () then
        Pk.Process.Fsm.suspend fsm ~at:Draining
          (Pk.Process.Wait_time (frame_time t))
      else
        Pk.Process.Fsm.suspend fsm ~at:Idle (Pk.Process.Wait_event t.e_kick)
  in
  Pk.Scheduler.spawn t.sched (Pk.Process.make "uart:tx" body)

let create ?(policy = Tlm.Register.Fixed) ?(clock = Sc_time.ns 10)
    ?(irq = fun () -> ()) sched =
  let t =
    {
      sched;
      clock;
      irq;
      regs = Tlm.Register.create ~policy ~name:"uart" ();
      txdata = Mem.create ~name:"uart-txdata" ~size:4;
      rxdata = Mem.create ~name:"uart-rxdata" ~size:4;
      txctrl = Mem.create ~name:"uart-txctrl" ~size:4;
      rxctrl = Mem.create ~name:"uart-rxctrl" ~size:4;
      ie = Mem.create ~name:"uart-ie" ~size:4;
      ip = Mem.create ~name:"uart-ip" ~size:4;
      divider = Mem.create ~name:"uart-div" ~size:4;
      tx_fifo = Queue.create ();
      rx_fifo = Queue.create ();
      sent = [];
      line = false;
      e_kick = Pk.Event.make "uart:kick";
      tx_fsm = Pk.Process.Fsm.make ~init:Idle;
      reset_snap = None;
    }
  in
  let add = Tlm.Register.add_range t.regs in
  ignore
    (add ~name:"txdata" ~base:txdata_base ~access:Tlm.Register.Read_write
       ~pre_read:(fun () -> on_txdata_read t)
       ~post_write:(fun () -> on_txdata_write t)
       t.txdata);
  ignore
    (add ~name:"rxdata" ~base:rxdata_base ~access:Tlm.Register.Read_only
       ~pre_read:(fun () -> on_rxdata_read t)
       t.rxdata);
  ignore
    (add ~name:"txctrl" ~base:txctrl_base ~access:Tlm.Register.Read_write
       ~post_write:(fun () ->
           Pk.Scheduler.notify t.sched t.e_kick;
           update_irq t)
       t.txctrl);
  ignore
    (add ~name:"rxctrl" ~base:rxctrl_base ~access:Tlm.Register.Read_write
       ~post_write:(fun () -> update_irq t)
       t.rxctrl);
  ignore
    (add ~name:"ie" ~base:ie_base ~access:Tlm.Register.Read_write
       ~post_write:(fun () -> update_irq t)
       t.ie);
  ignore
    (add ~name:"ip" ~base:ip_base ~access:Tlm.Register.Read_only
       ~pre_read:(fun () -> refresh_ip t)
       t.ip);
  ignore
    (add ~name:"div" ~base:div_base ~access:Tlm.Register.Read_write t.divider);
  spawn_transmitter t;
  t.reset_snap <- Some (snapshot t);
  t

let transport t payload delay = Tlm.Register.transport t.regs payload delay

let reset t =
  match t.reset_snap with
  | Some s -> restore t s
  | None -> assert false

module Peripheral = struct
  type nonrec t = t

  type config = {
    uc_policy : Tlm.Register.policy;
    uc_clock : Sc_time.t;
    uc_irq : unit -> unit;
  }

  type state = snap

  let make c sched = create ~policy:c.uc_policy ~clock:c.uc_clock ~irq:c.uc_irq sched
  let reset = reset
  let serve = transport
  let snapshot = snapshot
  let restore = restore
end
