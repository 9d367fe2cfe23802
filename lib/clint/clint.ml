module Expr = Smt.Expr
module Bv = Smt.Bv
module Value = Symex.Value
module Engine = Symex.Engine
module Mem = Symex.Mem
module Sc_time = Pk.Sc_time

module Config = struct
  type t = { tick : Sc_time.t }

  let fe310 = { tick = Sc_time.ns 10 }
end

module Port = struct
  type t = {
    mutable software_pending : bool;
    mutable timer_pending : bool;
    mutable timer_trigger_count : int;
    mutable last_timer_time : Sc_time.t;
  }

  let create () =
    {
      software_pending = false;
      timer_pending = false;
      timer_trigger_count = 0;
      last_timer_time = Sc_time.zero;
    }
end

let msip_base = 0x0000
let mtimecmp_base = 0x4000
let mtime_base = 0xBFF8
let addr_window = 0xC000

(* Comparator matches further than this many ticks in the future are
   beyond any simulation horizon and are not scheduled (the thread
   re-arms if mtimecmp changes). *)
let horizon_ticks = Int64.shift_left 1L 40

(* Resume labels of the translated timer thread. *)
type run_label = Init | Lbl1

(* Captured device state: pure data, no aliasing into the live device. *)
type snap = {
  sn_msip : Mem.state;
  sn_mtimecmp : Mem.state;
  sn_mtime : Mem.state;
  sn_ports : (bool * bool * int * Sc_time.t) list;
  sn_fsm : run_label;
}

type t = {
  cfg : Config.t;
  sched : Pk.Scheduler.t;
  regs : Tlm.Register.t;
  msip : Mem.t;
  mtimecmp : Mem.t;
  mtime : Mem.t;
  e_timer : Pk.Event.t;
  mutable ports : Port.t list;
  timer_fsm : run_label Pk.Process.Fsm.t;
  mutable reset_snap : snap option;
}

let mtime_now t =
  let ps = Sc_time.to_ps (Pk.Scheduler.now t.sched) in
  let tick = Sc_time.to_ps t.cfg.Config.tick in
  Expr.const (Bv.make ~width:64 (Int64.div ps tick))

let set_timer_level t level =
  List.iter
    (fun (port : Port.t) ->
       if level && not port.Port.timer_pending then begin
         port.Port.timer_pending <- true;
         port.Port.timer_trigger_count <- port.Port.timer_trigger_count + 1;
         port.Port.last_timer_time <- Pk.Scheduler.now t.sched
       end
       else if not level then port.Port.timer_pending <- false)
    t.ports

(* Evaluate the comparator and either assert the (level-triggered)
   interrupt or arm the wakeup for the match instant. *)
let update_timer t =
  let cmp = Mem.read64 t.mtimecmp 0 in
  let now = mtime_now t in
  if Value.truth ~site:"clint:cmp" (Expr.ule cmp now) then set_timer_level t true
  else begin
    set_timer_level t false;
    let delta_ticks = Engine.concretize ~site:"clint:delay" (Expr.sub cmp now) in
    let ticks64 = Bv.to_int64 delta_ticks in
    if Int64.unsigned_compare ticks64 horizon_ticks <= 0 then begin
      let delay =
        Sc_time.of_ps
          (Int64.mul ticks64 (Sc_time.to_ps t.cfg.Config.tick))
      in
      Pk.Scheduler.notify_at t.sched t.e_timer delay
    end
  end

let update_software t =
  let pending = Value.bit (Mem.read32 t.msip 0) 0 in
  let level = Value.truth ~site:"clint:msip" pending in
  List.iter (fun (port : Port.t) -> port.Port.software_pending <- level) t.ports

(* ---- whole-device state capture ---- *)

let snapshot t =
  {
    sn_msip = Mem.save t.msip;
    sn_mtimecmp = Mem.save t.mtimecmp;
    sn_mtime = Mem.save t.mtime;
    sn_ports =
      List.map
        (fun (p : Port.t) ->
           (p.Port.software_pending, p.Port.timer_pending,
            p.Port.timer_trigger_count, p.Port.last_timer_time))
        t.ports;
    sn_fsm = Pk.Process.Fsm.position t.timer_fsm;
  }

let restore t s =
  Mem.load t.msip s.sn_msip;
  Mem.load t.mtimecmp s.sn_mtimecmp;
  Mem.load t.mtime s.sn_mtime;
  (* [ports] is newest-first and only grows by [connect]; a snapshot
     taken before later connects covers the oldest suffix. *)
  let extra = List.length t.ports - List.length s.sn_ports in
  if extra < 0 then
    invalid_arg "Clint.restore: snapshot from a different device shape";
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  List.iter2
    (fun (p : Port.t) (sw, tp, tc, lt) ->
       p.Port.software_pending <- sw;
       p.Port.timer_pending <- tp;
       p.Port.timer_trigger_count <- tc;
       p.Port.last_timer_time <- lt)
    (drop extra t.ports) s.sn_ports;
  Pk.Process.Fsm.set t.timer_fsm s.sn_fsm

let spawn_timer_thread t =
  let fsm = t.timer_fsm in
  let body () =
    match Pk.Process.Fsm.position fsm with
    | Init ->
      Pk.Process.Fsm.suspend fsm ~at:Lbl1 (Pk.Process.Wait_event t.e_timer)
    | Lbl1 ->
      update_timer t;
      Pk.Process.Fsm.suspend fsm ~at:Lbl1 (Pk.Process.Wait_event t.e_timer)
  in
  Pk.Scheduler.spawn t.sched (Pk.Process.make "clint:timer" body)

let create ?(policy = Tlm.Register.Fixed) cfg sched =
  let t =
    {
      cfg;
      sched;
      regs = Tlm.Register.create ~policy ~name:"clint" ();
      msip = Mem.create ~name:"clint-msip" ~size:4;
      mtimecmp = Mem.create ~name:"clint-mtimecmp" ~size:8;
      mtime = Mem.create ~name:"clint-mtime" ~size:8;
      e_timer = Pk.Event.make "clint:e_timer";
      ports = [];
      timer_fsm = Pk.Process.Fsm.make ~init:Init;
      reset_snap = None;
    }
  in
  (* Reset value: mtimecmp all-ones, so the timer is quiet at boot. *)
  Mem.write64 t.mtimecmp 0 (Expr.const (Bv.ones 64));
  ignore
    (Tlm.Register.add_range t.regs ~name:"msip" ~base:msip_base
       ~access:Tlm.Register.Read_write
       ~post_write:(fun () -> update_software t)
       t.msip);
  ignore
    (Tlm.Register.add_range t.regs ~name:"mtimecmp" ~base:mtimecmp_base
       ~access:Tlm.Register.Read_write
       ~post_write:(fun () -> update_timer t)
       t.mtimecmp);
  ignore
    (Tlm.Register.add_range t.regs ~name:"mtime" ~base:mtime_base
       ~access:Tlm.Register.Read_only
       ~pre_read:(fun () -> Mem.write64 t.mtime 0 (mtime_now t))
       t.mtime);
  spawn_timer_thread t;
  t.reset_snap <- Some (snapshot t);
  t

let connect t port = t.ports <- port :: t.ports
let transport t payload delay = Tlm.Register.transport t.regs payload delay

let reset t =
  (* Ports connected after construction are absent from the snapshot;
     clear them to their power-on defaults first. *)
  List.iter
    (fun (p : Port.t) ->
       p.Port.software_pending <- false;
       p.Port.timer_pending <- false;
       p.Port.timer_trigger_count <- 0;
       p.Port.last_timer_time <- Sc_time.zero)
    t.ports;
  match t.reset_snap with
  | Some s -> restore t s
  | None -> assert false

module Peripheral = struct
  type nonrec t = t

  type config = {
    cc_policy : Tlm.Register.policy;
    cc_cfg : Config.t;
  }

  type state = snap

  let make c sched = create ~policy:c.cc_policy c.cc_cfg sched
  let reset = reset
  let serve = transport
  let snapshot = snapshot
  let restore = restore
end
