(** The RISC-V Platform Level Interrupt Controller (PLIC), modelled
    after the FE310 PLIC of the open-source riscv-vp (the paper's DUV).

    Global interrupts arrive through {!trigger_interrupt}; the PLIC
    latches them in a pending array and notifies its [run] thread via
    the [e_run] event after one clock cycle.  The [run] thread scans
    for a pending, enabled interrupt whose priority exceeds the hart's
    threshold and, unless the hart already has one in flight
    ([hart_eip] suppression), raises the external interrupt line of the
    target hart.  The hart then claims through the memory-mapped
    claim/response register (highest priority first, ties broken by the
    lowest id) and completes by writing the id back, which re-triggers
    the scan for any further pending interrupts.

    The memory map follows the FE310 PLIC: priority words, pending
    bits, enable bits, threshold and claim/response (plus the S-mode
    completion port — write-only in this VP revision).

    The {!Config.variant} selects the buggy original behaviour
    (bugs F1..F6 of the paper) or the fixed one; {!Fault.t}s inject the
    additional bugs IF1..IF6 of Section 5.3. *)

(* This module is the library entry point; re-export the siblings. *)

module Config = Config
module Fault = Fault
module Hart = Hart
module Spec = Spec

type t

val create :
  ?variant:Config.variant ->
  ?faults:Fault.t list ->
  Config.t ->
  Pk.Scheduler.t ->
  t
(** Build the PLIC, register its memory map and spawn the translated
    [run] thread on the given scheduler.  Default: [Original] variant,
    no injected faults. *)

val config : t -> Config.t
val variant : t -> Config.variant
val faults : t -> Fault.t list
val scheduler : t -> Pk.Scheduler.t

val connect_hart : t -> int -> Hart.t -> unit
(** Connect the external-interrupt line of hart [i]
    ([dut.target_harts\[i\] = &hart] in the paper's Fig. 6). *)

val trigger_interrupt : t -> Symex.Value.t -> unit
(** Custom interface function: an external device raises global
    interrupt [id] (may be symbolic). *)

val transport : t -> Tlm.Payload.t -> Pk.Sc_time.t -> Pk.Sc_time.t
(** The TLM target socket (blocking transport). *)

val reset : t -> unit
(** Restore the just-constructed device state (registers, latches,
    hart flags, thread FSM); scheduler state is untouched. *)

(** The unified peripheral surface ({!Tlm.Peripheral.S}): [make] maps
    the memory map and spawns the run thread; [snapshot]/[restore]
    capture the pending latch, all register backings, eip lines,
    connected-hart flags and the run-thread FSM position. *)
module Peripheral : sig
  type config = {
    pc_variant : Config.variant;
    pc_faults : Fault.t list;
    pc_cfg : Config.t;
  }

  include Tlm.Peripheral.S with type t = t and type config := config
end

val e_run : t -> Pk.Event.t
(** The synchronization event of the [run] thread (exposed for
    scheduler-level tests). *)

val hart_eip : t -> int -> bool
(** Whether hart [i] currently has an external interrupt in flight. *)

(* Internal state probes for white-box unit tests. *)

val pending_is_set : t -> int -> Smt.Expr.t
(** Pending latch of source [id] (concrete 8-bit backing, nonzero =
    pending), as a boolean term. *)

val priority_of : t -> int -> Symex.Value.t
val threshold_of : t -> Symex.Value.t
val enabled_bit : t -> int -> Smt.Expr.t

val set_priority : t -> int -> Symex.Value.t -> unit
(** Direct register poke (bypasses TLM) for unit tests. *)

val set_enable_all : t -> unit
val set_threshold : t -> Symex.Value.t -> unit
