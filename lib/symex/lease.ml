(* Lease bookkeeping for dispatched work units.

   Every unit the master hands out is tracked here from dispatch until
   it is settled exactly once.  The same table answers three different
   failure questions with one mechanism:

   - peer died / disconnected: its entry is requeued (attempts intact)
     and regranted to the next idle peer;
   - holder sent no result by the deadline: the entry expires and is
     requeued WITHOUT killing the holder — if the slow result arrives
     later it is merged iff the unit is still unsettled;
   - result arrives twice (dup-result chaos, or a regrant racing the
     original): [settle] is first-result-wins keyed by unit id, so the
     second arrival is counted and dropped, never double-merged. *)

type entry = {
  l_id : int;                     (* unique per dispatched unit, never reused *)
  l_site : string;                (* provenance label for the frontier *)
  l_prefix : Decision.t array;
  mutable l_attempts : int;       (* grants so far, >= 1 *)
  mutable l_deadline : float;     (* Unix time; infinity when no lease_s *)
}

type t = {
  lease_s : float option;
  settled : (int, unit) Hashtbl.t;
  pending : entry Queue.t;        (* expired/orphaned grants awaiting regrant *)
}

let create ~lease_ms =
  {
    lease_s = Option.map (fun ms -> float_of_int ms /. 1000.0) lease_ms;
    settled = Hashtbl.create 64;
    pending = Queue.create ();
  }

let deadline t ~now =
  match t.lease_s with Some s -> now +. s | None -> infinity

let make_entry t ~id ~site ~prefix ~now =
  { l_id = id; l_site = site; l_prefix = prefix;
    l_attempts = 1; l_deadline = deadline t ~now }

let regrant t e ~now =
  e.l_attempts <- e.l_attempts + 1;
  e.l_deadline <- deadline t ~now;
  e

let expired e ~now = now > e.l_deadline

let requeue t e = Queue.push e t.pending

let take_pending t = Queue.take_opt t.pending

let pending t = Queue.length t.pending

let pending_entries t = List.of_seq (Queue.to_seq t.pending)

let is_settled t id = Hashtbl.mem t.settled id

let settle t id =
  if Hashtbl.mem t.settled id then `Duplicate
  else begin
    Hashtbl.replace t.settled id ();
    (* A settled unit must not be regranted: drop any pending copy a
       prior expiry or death left behind. *)
    let live = Queue.create () in
    Queue.iter (fun e -> if e.l_id <> id then Queue.push e live) t.pending;
    Queue.clear t.pending;
    Queue.transfer live t.pending;
    `Fresh
  end

let force_settle t id = ignore (settle t id)
