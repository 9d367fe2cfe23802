(** Thread-to-function translated SystemC processes.

    A SystemC thread is non-preemptive: it runs until it yields via
    [wait(...)] or terminates.  The paper's pre-processing step (Fig. 3
    and Fig. 4) rewrites each thread into a plain function that is
    called once per activation; the function keeps its progress in a
    static position variable and {e returns} at every context switch
    after recording what it is waiting for.

    This module is the OCaml contract of that translation: a process
    body is a function [unit -> wait] executed once per activation.
    State that must survive across activations lives in the enclosing
    module's mutable fields (the analogue of the C++ static locals), and
    the returned {!wait} value is the recorded context switch. *)

type wait =
  | Wait_event of Event.t       (** [wait(e)] — dynamic sensitivity *)
  | Wait_any of Event.t list    (** [wait(e1 | e2 | ...)] *)
  | Wait_time of Sc_time.t      (** [wait(t)] — timed suspension *)
  | Wait_delta                  (** [wait(SC_ZERO_TIME)] — next delta *)
  | Terminate                   (** the thread returned *)

type status = Ready | Waiting | Terminated

type t = {
  proc_name : string;
  proc_id : int;
  body : unit -> wait;
  mutable status : status;
}

val make : string -> (unit -> wait) -> t
(** Allocate a process with a unique id.  The process must still be
    registered with a scheduler ({!Scheduler.spawn}). *)

val reset_ids : unit -> unit
(** Reset the id counter; the symbolic engine calls this at every path
    start so re-executed testbenches allocate deterministic ids. *)

val pp : Format.formatter -> t -> unit

(** Helper for writing translated bodies with an explicit label, exactly
    mirroring the [enum class Label] + [switch] header of Fig. 4. *)
module Fsm : sig
  type 'label t

  val make : init:'label -> 'label t

  val position : 'label t -> 'label
  (** Current resume label (the static [position] variable). *)

  val set : 'label t -> 'label -> unit
  (** Overwrite the resume label (used when a peripheral restores its
      state, e.g. on [reset]). *)

  val suspend : 'label t -> at:'label -> wait -> wait
  (** Record the resume label and yield — the translated [wait()]. *)
end
