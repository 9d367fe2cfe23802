(** Event consumers: in-memory recording and serialization to the
    Chrome trace-event format, JSONL, and the {!Metrics} registry.

    All serializers are hand-rolled (the tree carries no JSON
    dependency) and deterministic. *)

type recorder

val recorder : ?limit:int -> unit -> recorder
(** Subscribe a bounded in-memory event buffer to the {!Sink} (default
    limit: 2M events; later events are counted as dropped). *)

val stop : recorder -> unit
(** Unsubscribe; recorded events stay readable. *)

val events : recorder -> Event.t list
(** Recorded events in emission order. *)

val tagged_events : recorder -> (int * Event.t) list
(** Recorded events with their source tag: 0 for this process, [w + 1]
    for pool worker [w] (events added via {!inject}). *)

val dropped : recorder -> int
(** Events dropped locally past the recorder limit. *)

val remote_dropped : recorder -> int
(** Drop counts reported by workers via {!note_remote_dropped}. *)

(** {1 Cross-worker merge support}

    The pool master routes forwarded worker events into the most
    recently created live recorder; workers buffer events between result
    frames with the forwarding API below. *)

val active : unit -> bool
(** Whether a live recorder exists in this process (checked by workers
    before paying for forwarding). *)

val inject : worker:int -> Event.t list -> unit
(** Append events from pool worker [worker] to the live recorder (tag
    [worker + 1]), honouring its limit/drop accounting.  No-op without
    a live recorder. *)

val note_remote_dropped : int -> unit
(** Account events a worker dropped before forwarding. *)

val dropped_total : unit -> int
(** Local + remote drops of the live recorder; 0 when none is active. *)

val forwarding_begin : ?limit:int -> unit -> unit
(** Worker side: subscribe a bounded buffer (default 65536 events per
    work unit) that {!forwarding_take} drains. *)

val forwarding_take : unit -> Event.t list * int
(** Drain the forwarding buffer: buffered events in emission order and
    the number dropped past the limit; resets both. *)

val to_chrome : ?pid:int -> Event.t list -> string
(** A complete Chrome trace-event JSON document
    ([{"traceEvents":[...]}]), loadable in Perfetto /
    [about://tracing].  Each category is mapped to its own synthetic
    thread (with [thread_name] metadata) so subsystem spans render as
    separate tracks. *)

val to_jsonl : Event.t list -> string
(** One JSON object per line: [ts], [cat], [name], [ph], optional
    [dur], and [args]. *)

val save_chrome : ?pid:int -> Event.t list -> string -> unit
val save_jsonl : Event.t list -> string -> unit

val to_chrome_tagged : (int * Event.t) list -> string
(** Like {!to_chrome} for tagged events: tag [t] becomes Chrome process
    [t + 1] with a [process_name] metadata row ("master" / "worker N"),
    so a merged multi-worker trace opens in Perfetto with one named
    track group per worker.  Events are stably sorted by timestamp. *)

val save_chrome_tagged : (int * Event.t) list -> string -> unit

val to_jsonl_tagged : (int * Event.t) list -> string
(** {!to_jsonl} plus a leading [src] field ("master" / "worker N"). *)

val save_jsonl_tagged : (int * Event.t) list -> string -> unit

val metrics_bridge : unit -> int
(** Subscribe a folder that mirrors the event stream into {!Metrics}:
    every instant/complete/span-begin event [cat/name] increments
    counter [<cat>_<name>_total], and every complete span observes its
    duration (in seconds) into histogram [<cat>_<name>_seconds].
    Returns the subscription id (for {!Sink.unsubscribe}). *)
