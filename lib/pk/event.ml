type pending =
  | Not_notified
  | Delta
  | At of Sc_time.t

type t = {
  ev_name : string;
  ev_id : int;
  mutable waiters : (int * int) list;
  mutable pending : pending;
}

let next_id = ref 0

let make ev_name =
  let ev_id = !next_id in
  incr next_id;
  { ev_name; ev_id; waiters = []; pending = Not_notified }

let reset_ids () = next_id := 0

let name t = t.ev_name

let pp ppf t =
  let pp_pending ppf = function
    | Not_notified -> Format.pp_print_string ppf "idle"
    | Delta -> Format.pp_print_string ppf "delta"
    | At time -> Sc_time.pp ppf time
  in
  Format.fprintf ppf "%s#%d[%a, %d waiting]" t.ev_name t.ev_id pp_pending
    t.pending (List.length t.waiters)
