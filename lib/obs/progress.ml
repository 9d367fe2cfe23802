type worker_row =
  { wr_id : int; wr_addr : string; wr_busy : bool; wr_age : float }

type snapshot = {
  paths : int;
  instructions : int;
  frontier : int;
  errors : int;
  solver_time : float;
  solver_queries : int;
  cache_hits : int;
  wall : float;
  workers : worker_row list;
}

type mode =
  | Lines of int   (* stats line every N finished paths *)
  | Top of float   (* redrawn dashboard every N seconds *)

type state = {
  st_mode : mode;
  out : Format.formatter;
  mutable last : snapshot option;
  mutable lines : int;
  (* Dedupe: the pool polls [due] many times per path count, so remember
     the last count (Lines) / draw time (Top) that fired. *)
  mutable last_due : int;
  mutable last_draw : float;
  mutable block : int;  (* height of the last drawn dashboard block *)
}

let state : state option ref = ref None

let make mode out =
  { st_mode = mode; out; last = None; lines = 0; last_due = 0;
    last_draw = 0.0; block = 0 }

let configure ?(out = Format.err_formatter) ~interval () =
  if interval <= 0 then invalid_arg "Obs.Progress.configure: interval < 1";
  state := Some (make (Lines interval) out)

let configure_top ?(out = Format.err_formatter) ?(refresh_s = 0.5) () =
  if refresh_s <= 0.0 then
    invalid_arg "Obs.Progress.configure_top: refresh_s <= 0";
  state := Some (make (Top refresh_s) out)

let disable () = state := None

let interval () =
  match !state with
  | None -> None
  | Some { st_mode = Lines n; _ } -> Some n
  | Some { st_mode = Top _; _ } -> None

let top_enabled () =
  match !state with Some { st_mode = Top _; _ } -> true | _ -> false

let due ~paths =
  match !state with
  | None -> false
  | Some ({ st_mode = Lines n; _ } as s) ->
    if paths > 0 && paths mod n = 0 && paths <> s.last_due then begin
      s.last_due <- paths;
      true
    end
    else false
  | Some ({ st_mode = Top refresh; _ } as s) ->
    let now = Unix.gettimeofday () in
    if now -. s.last_draw >= refresh then begin
      s.last_draw <- now;
      true
    end
    else false

let rate num den = if den <= 0.0 then 0.0 else num /. den

let zero_snapshot =
  { paths = 0; instructions = 0; frontier = 0; errors = 0; solver_time = 0.0;
    solver_queries = 0; cache_hits = 0; wall = 0.0; workers = [] }

let window s snap =
  (* Rates are computed over the window since the previous line, so a
     stall is visible immediately rather than averaged away. *)
  let prev = match s.last with Some p -> p | None -> zero_snapshot in
  let dt = snap.wall -. prev.wall in
  let pps = rate (float_of_int (snap.paths - prev.paths)) dt in
  let ips = rate (float_of_int (snap.instructions - prev.instructions)) dt in
  (pps, ips)

let solver_frac snap = 100.0 *. rate snap.solver_time snap.wall

let cache_frac snap =
  100.0 *. rate (float_of_int snap.cache_hits) (float_of_int snap.solver_queries)

let tick_lines s snap =
  let pps, ips = window s snap in
  if s.lines mod 20 = 0 then
    Format.fprintf s.out
      "[obs] %8s %9s %10s %11s %8s %8s %7s %7s@."
      "paths" "paths/s" "instr" "instr/s" "frontier" "solver%" "cache%"
      "errors";
  Format.fprintf s.out
    "[obs] %8d %9.1f %10d %11.1f %8d %7.1f%% %6.1f%% %7d@."
    snap.paths pps snap.instructions ips snap.frontier (solver_frac snap)
    (cache_frac snap) snap.errors;
  s.lines <- s.lines + 1;
  s.last <- Some snap

(* Dashboard: a fixed block redrawn in place (cursor-up + erase-line),
   two summary lines plus worker health rows, four workers per line. *)
let tick_top s snap =
  let pps, ips = window s snap in
  if s.block > 0 then Format.fprintf s.out "\027[%dA" s.block;
  let n = ref 0 in
  let line fmt =
    incr n;
    Format.fprintf s.out ("\027[2K" ^^ fmt ^^ "@.")
  in
  line "[top] wall %6.1fs  paths %8d (%.1f/s)  frontier %6d  errors %d"
    snap.wall snap.paths pps snap.frontier snap.errors;
  line
    "[top] instr %10d (%.0f/s)  solver %5.1f%% wall  queries %8d  cache %5.1f%%"
    snap.instructions ips (solver_frac snap) snap.solver_queries
    (cache_frac snap);
  let rec rows = function
    | [] -> ()
    | ws ->
      let chunk = List.filteri (fun i _ -> i < 4) ws in
      let rest = List.filteri (fun i _ -> i >= 4) ws in
      incr n;
      Format.fprintf s.out "\027[2K[top]";
      List.iter
        (fun w ->
           Format.fprintf s.out "  w%d[%s] %s last=%.1fs" w.wr_id w.wr_addr
             (if w.wr_busy then "busy" else "idle")
             w.wr_age)
        chunk;
      Format.fprintf s.out "@.";
      rows rest
  in
  rows snap.workers;
  s.block <- !n;
  s.last <- Some snap

let tick snap =
  match !state with
  | None -> ()
  | Some s ->
    (match s.st_mode with
     | Lines _ -> tick_lines s snap
     | Top _ -> tick_top s snap)
