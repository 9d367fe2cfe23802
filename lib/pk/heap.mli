(** Binary min-heap, the sorted wakelist backbone of the PK scheduler. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removal. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val to_list : 'a t -> 'a list
(** Elements in arbitrary order (heap order, not sorted). *)
