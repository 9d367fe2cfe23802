(** The unified peripheral surface.

    Every TLM peripheral of this repository ({!Plic}, {!Clint},
    {!Uart}) exposes a submodule conforming to {!S}: construction
    ([make]), return-to-power-on ([reset]), the blocking-transport
    socket ([serve]) and whole-device state capture
    ([snapshot]/[restore]).  The [state] value is pure data — arrays
    and scalars, no aliasing into the live device — so restoring it
    onto the device it came from reproduces the exact pre-snapshot
    observable behaviour.  [reset] is a [restore] of the state captured
    at the end of [make].

    {1 State ownership rules}

    - A peripheral owns everything behind its register file: backing
      stores, internal latches, FIFOs, thread FSM positions, and the
      flags of connected hart/port objects.  All of it is captured by
      [snapshot].
    - The scheduler is shared between peripherals and is therefore
      {e not} part of any peripheral's [state].
    - Symbolic path-condition bookkeeping belongs to the engine: a
      forked path re-executes its decision prefix from the root and
      rebuilds the device on the way. *)

module type S = sig
  type t

  type config
  (** Per-peripheral construction parameters (variant, faults, register
      policy, clocking...). *)

  type state
  (** Captured device state: pure data, no aliasing into [t]. *)

  val make : config -> Pk.Scheduler.t -> t
  (** Build the device, map its registers and spawn its threads on the
      scheduler. *)

  val reset : t -> unit
  (** Restore the just-constructed state captured by [make].  Scheduler
      state (pending notifications, thread wait sets) is not touched. *)

  val serve : t -> Payload.t -> Pk.Sc_time.t -> Pk.Sc_time.t
  (** The TLM blocking-transport target socket. *)

  val snapshot : t -> state

  val restore : t -> state -> unit
  (** [restore t s] only makes sense for an [s] snapshotted from [t]
      (or from a structurally identical device built by the same
      deterministic construction glue). *)
end
