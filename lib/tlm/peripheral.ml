module type S = sig
  type t
  type config
  type state

  val make : config -> Pk.Scheduler.t -> t
  val reset : t -> unit
  val serve : t -> Payload.t -> Pk.Sc_time.t -> Pk.Sc_time.t
  val snapshot : t -> state
  val restore : t -> state -> unit
end
