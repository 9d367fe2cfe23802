(* Literal encoding: variable v (>= 1) maps to internal literals
   2*v (positive) and 2*v+1 (negative).  Internal arrays are indexed by
   variable or by internal literal. *)

exception Resource_exhausted
exception Timeout
exception Interrupted

type result = Sat | Unsat

(* Growable int-array vector used for watch lists.  Starts without a
   backing array: most literals of a large instance are never watched,
   and an unused list then costs only its record. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let data = Array.make (max 4 (2 * t.len)) 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1
end

type t = {
  mutable nvars : int;
  mutable clauses : int array array;   (* arena; index = clause id *)
  mutable nclauses : int;
  mutable watches : Ivec.t array;      (* per internal literal *)
  mutable assign : int array;          (* per var: -1 unassigned / 0 / 1 *)
  mutable level : int array;           (* per var *)
  mutable reason : int array;          (* per var: clause id or -1 *)
  mutable activity : float array;      (* per var *)
  mutable phase : bool array;          (* per var: saved polarity *)
  mutable trail : int array;           (* internal literals *)
  mutable trail_len : int;
  mutable trail_lim : int array;       (* decision-level boundaries *)
  mutable trail_lim_len : int;
  mutable qhead : int;
  mutable unsat : bool;
  mutable var_inc : float;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable seen : bool array;           (* scratch for conflict analysis *)
  mutable lits : int array;            (* scratch for clause normalization *)
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 64 [||];
    nclauses = 0;
    watches = Array.init 64 (fun _ -> Ivec.create ());
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = Array.make 16 0;
    trail_lim_len = 0;
    qhead = 0;
    unsat = false;
    var_inc = 1.0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    seen = Array.make 16 false;
    lits = Array.make 16 0;
  }

let grow_int_array a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float_array a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_bool_array a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) false in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let new_var t =
  t.nvars <- t.nvars + 1;
  let v = t.nvars in
  let n = v + 1 in
  t.assign <- grow_int_array t.assign n (-1);
  t.level <- grow_int_array t.level n 0;
  t.reason <- grow_int_array t.reason n (-1);
  t.activity <- grow_float_array t.activity n;
  t.phase <- grow_bool_array t.phase n;
  t.trail <- grow_int_array t.trail n 0;
  t.trail_lim <- grow_int_array t.trail_lim n 0;
  t.seen <- grow_bool_array t.seen n;
  t.assign.(v) <- -1;
  t.reason.(v) <- -1;
  let nlits = 2 * n + 2 in
  if Array.length t.watches < nlits then begin
    let w = Array.make (max nlits (2 * Array.length t.watches)) (Ivec.create ()) in
    Array.blit t.watches 0 w 0 (Array.length t.watches);
    for i = Array.length t.watches to Array.length w - 1 do
      w.(i) <- Ivec.create ()
    done;
    t.watches <- w
  end;
  v

let num_vars t = t.nvars

(* Internal literal helpers. *)
let ilit_of_dimacs l = if l > 0 then 2 * l else 2 * (-l) + 1
let ilit_var l = l lsr 1
let ilit_sign l = l land 1 = 1 (* true = negated *)
let ilit_neg l = l lxor 1
let dimacs_of_ilit l = if ilit_sign l then -ilit_var l else ilit_var l

(* Value of an internal literal: -1 unassigned, 0 false, 1 true. *)
let lit_value t l =
  let a = t.assign.(ilit_var l) in
  if a = -1 then -1 else if ilit_sign l then 1 - a else a

let decision_level t = t.trail_lim_len

let enqueue t l reason =
  let v = ilit_var l in
  t.assign.(v) <- (if ilit_sign l then 0 else 1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.phase.(v) <- not (ilit_sign l);
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let add_clause_internal t lits =
  let id = t.nclauses in
  if id = Array.length t.clauses then begin
    let c = Array.make (2 * id) [||] in
    Array.blit t.clauses 0 c 0 id;
    t.clauses <- c
  end;
  t.clauses.(id) <- lits;
  t.nclauses <- id + 1;
  if Array.length lits >= 2 then begin
    Ivec.push t.watches.(lits.(0)) id;
    Ivec.push t.watches.(lits.(1)) id
  end;
  id

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_len - 1 downto bound do
      let v = ilit_var t.trail.(i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- -1
    done;
    t.trail_len <- bound;
    t.qhead <- bound;
    t.trail_lim_len <- lvl
  end

(* Sort a clause's internal literals into [t.lits], ascending and
   without duplicates (the order [List.sort_uniq] gives), and return
   how many there are — or -1 for a tautology.  Clauses are short, so
   insertion sort into a reused buffer beats building and sorting
   lists; once sorted, a complementary pair [2v; 2v+1] is adjacent. *)
let normalize t dimacs_lits =
  let need = List.length dimacs_lits in
  if Array.length t.lits < need then
    t.lits <- Array.make (max need (2 * Array.length t.lits)) 0;
  let buf = t.lits in
  let n =
    List.fold_left
      (fun n d ->
         let l = ilit_of_dimacs d in
         let j = ref n in
         while !j > 0 && buf.(!j - 1) > l do decr j done;
         if !j > 0 && buf.(!j - 1) = l then n
         else begin
           Array.blit buf !j buf (!j + 1) (n - !j);
           buf.(!j) <- l;
           n + 1
         end)
      0 dimacs_lits
  in
  let taut = ref false in
  for i = 0 to n - 2 do
    if buf.(i + 1) = buf.(i) lxor 1 then taut := true
  done;
  if !taut then -1 else n

let add_clause t dimacs_lits =
  if not t.unsat then begin
    (* Incremental use leaves the trail populated after a [Sat] answer;
       the level-0 simplification below is only sound against the
       level-0 prefix, so drop any standing decisions first. *)
    if decision_level t > 0 then cancel_until t 0;
    let n = normalize t dimacs_lits in
    if n >= 0 then begin
      let buf = t.lits in
      let fixed l = t.level.(ilit_var l) = 0 in
      (* Drop literals already false at level 0; if any literal is true
         at level 0 the clause is satisfied. *)
      let satisfied = ref false in
      for i = 0 to n - 1 do
        if lit_value t buf.(i) = 1 && fixed buf.(i) then satisfied := true
      done;
      if not !satisfied then begin
        let k = ref 0 in
        for i = 0 to n - 1 do
          let l = buf.(i) in
          if not (lit_value t l = 0 && fixed l) then begin
            buf.(!k) <- l;
            incr k
          end
        done;
        match !k with
        | 0 -> t.unsat <- true
        | 1 ->
          let l = buf.(0) in
          (match lit_value t l with
           | 1 -> ()
           | 0 -> t.unsat <- true
           | _ -> enqueue t l (-1))
        | k -> ignore (add_clause_internal t (Array.sub buf 0 k))
      end
    end
  end

(* Propagation with two watched literals; returns conflicting clause id
   or -1.  Each watch list is compacted in place (MiniSat-style): kept
   entries slide down in their original order, and an entry whose
   clause found a new watch moves to that literal's list — never this
   one, since the new watch is not false. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict = -1 && t.qhead < t.trail_len do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = ilit_neg l in
    (* Clauses watching false_lit must find a new watch. *)
    let ws = t.watches.(false_lit) in
    let data = ws.Ivec.data in
    let j = ref 0 in
    for i = 0 to ws.Ivec.len - 1 do
      let cid = data.(i) in
      if !conflict <> -1 then begin
        data.(!j) <- cid;
        incr j
      end
      else begin
        let c = t.clauses.(cid) in
        (* Ensure c.(1) is the false literal. *)
        if c.(0) = false_lit then begin
          c.(0) <- c.(1);
          c.(1) <- false_lit
        end;
        if lit_value t c.(0) = 1 then begin
          data.(!j) <- cid;
          incr j
        end
        else begin
          (* Search for a non-false literal to watch. *)
          let len = Array.length c in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < len do
            if lit_value t c.(!k) <> 0 then begin
              let tmp = c.(1) in
              c.(1) <- c.(!k);
              c.(!k) <- tmp;
              Ivec.push t.watches.(c.(1)) cid;
              found := true
            end;
            incr k
          done;
          if not !found then begin
            (* Unit or conflicting. *)
            data.(!j) <- cid;
            incr j;
            if lit_value t c.(0) = 0 then conflict := cid
            else if lit_value t c.(0) = -1 then enqueue t c.(0) cid
          end
        end
      end
    done;
    ws.Ivec.len <- !j
  done;
  !conflict

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

(* First-UIP conflict analysis.  Returns (learned clause, backjump
   level); learned.(0) is the asserting literal. *)
let analyze t conflict =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let cid = ref conflict in
  let idx = ref (t.trail_len - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!cid) in
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length c - 1 do
      let q = c.(j) in
      let v = ilit_var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        var_bump t v;
        if t.level.(v) = decision_level t then incr counter
        else begin
          learned := q :: !learned;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* Select next literal from the trail at the current level. *)
    let continue_inner = ref true in
    while !continue_inner do
      let l = t.trail.(!idx) in
      decr idx;
      if t.seen.(ilit_var l) then begin
        p := l;
        continue_inner := false
      end
    done;
    t.seen.(ilit_var !p) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else cid := t.reason.(ilit_var !p)
  done;
  let learned = Array.of_list (ilit_neg !p :: !learned) in
  (* Clear seen flags. *)
  Array.iter (fun l -> t.seen.(ilit_var l) <- false) learned;
  (* Keep the watched-literal invariant: position 1 must hold the
     literal assigned at the backjump level (the last to be undone). *)
  if Array.length learned > 2 then begin
    let best = ref 1 in
    for j = 2 to Array.length learned - 1 do
      if t.level.(ilit_var learned.(j)) > t.level.(ilit_var learned.(!best))
      then best := j
    done;
    let tmp = learned.(1) in
    learned.(1) <- learned.(!best);
    learned.(!best) <- tmp
  end;
  learned, !btlevel

let pick_branch_var t =
  let best = ref 0 and best_act = ref neg_infinity in
  for v = 1 to t.nvars do
    if t.assign.(v) = -1 && t.activity.(v) > !best_act then begin
      best := v;
      best_act := t.activity.(v)
    end
  done;
  !best

(* Luby restart sequence. *)
let rec luby i =
  (* Find k with 2^(k-1) <= i+1 < 2^k. *)
  let k = ref 1 in
  while (1 lsl !k) - 1 < i + 1 do incr k done;
  if (1 lsl !k) - 1 = i + 1 then 1 lsl (!k - 1)
  else luby (i + 1 - (1 lsl (!k - 1)))

let solve ?(assumptions = []) ?(conflict_limit = max_int) ?deadline ?stop t =
  if t.unsat then Unsat
  else begin
    (* Incremental discipline: every call starts from a clean trail
       (learned clauses, activities and phases persist across calls). *)
    cancel_until t 0;
    let assumps = Array.of_list (List.map ilit_of_dimacs assumptions) in
    let nassumps = Array.length assumps in
    (* [t.conflicts] is cumulative across calls; the limit bounds this
       call only. *)
    let conflicts0 = t.conflicts in
    let restart_base = 100 in
    let restart_num = ref 0 in
    let result = ref None in
    (* Deadline and external-stop polling happen at propagation
       boundaries (after each [propagate] fixpoint): once at the first
       boundary — so even a query that resolves in a handful of steps
       observes an already-expired deadline — then subsampled every 64
       steps so the clock read does not show up in the profile. *)
    let steps = ref 0 in
    let poll () =
      incr steps;
      if !steps land 63 = 1 then begin
        (match deadline with
         | Some d when Unix.gettimeofday () > d -> raise Timeout
         | Some _ | None -> ());
        match stop with
        | Some f when f () -> raise Interrupted
        | Some _ | None -> ()
      end
    in
    while !result = None do
      let budget = restart_base * luby !restart_num in
      incr restart_num;
      let local_conflicts = ref 0 in
      let restart = ref false in
      while !result = None && not !restart do
        let conflict = propagate t in
        poll ();
        if conflict <> -1 then begin
          t.conflicts <- t.conflicts + 1;
          incr local_conflicts;
          if t.conflicts - conflicts0 > conflict_limit then
            raise Resource_exhausted;
          if decision_level t = 0 then begin
            t.unsat <- true;
            result := Some Unsat
          end
          else if decision_level t <= nassumps then
            (* Every decision so far is an assumption, so the conflict
               is forced by the assumption set: unsat {e under
               assumptions}.  The instance itself stays usable — do NOT
               latch [t.unsat]. *)
            result := Some Unsat
          else begin
            let learned, btlevel = analyze t conflict in
            cancel_until t btlevel;
            if Array.length learned = 1 then enqueue t learned.(0) (-1)
            else begin
              let cid = add_clause_internal t learned in
              enqueue t learned.(0) cid
            end;
            t.var_inc <- t.var_inc /. 0.95;
            if !local_conflicts >= budget then restart := true
          end
        end
        else if decision_level t < nassumps then begin
          (* Assert the next assumption as a decision (MiniSat-style
             solving under assumptions).  An already-implied assumption
             still opens an (empty) decision level so level indices stay
             aligned with assumption indices; a falsified one means
             unsat under assumptions, again without latching
             [t.unsat]. *)
          let a = assumps.(decision_level t) in
          match lit_value t a with
          | 1 ->
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1
          | 0 -> result := Some Unsat
          | _ ->
            t.decisions <- t.decisions + 1;
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1;
            enqueue t a (-1)
        end
        else begin
          let v = pick_branch_var t in
          if v = 0 then result := Some Sat
          else begin
            t.decisions <- t.decisions + 1;
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1;
            let l = if t.phase.(v) then 2 * v else 2 * v + 1 in
            enqueue t l (-1)
          end
        end
      done;
      if !restart then cancel_until t 0
    done;
    (* On Unsat leave a clean trail for the next incremental call; on
       Sat keep the assignment so [value] can read the model. *)
    (match !result with Some Unsat -> cancel_until t 0 | _ -> ());
    match !result with Some r -> r | None -> assert false
  end

(* Seeded search perturbation for retry-with-restart: jitter the
   initial VSIDS activities and saved phases so a retried query walks a
   different part of the search tree.  Deterministic in [seed]; a
   no-op on variables already assigned at level 0. *)
let perturb t seed =
  let st = ref seed in
  let next () =
    let s = Int64.add !st 0x9E3779B97F4A7C15L in
    st := s;
    let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30))
              0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  for v = 1 to t.nvars do
    let r = next () in
    t.activity.(v) <-
      Int64.to_float (Int64.shift_right_logical r 11) /. 9007199254740992.0;
    t.phase.(v) <- Int64.logand r 1L = 1L
  done

let value t v =
  if v >= 1 && v <= t.nvars && t.assign.(v) = 1 then true else false

let stats_conflicts t = t.conflicts
let stats_decisions t = t.decisions
let stats_propagations t = t.propagations

let clauses t =
  List.init t.nclauses (fun i -> Array.map dimacs_of_ilit t.clauses.(i))

let trail t = List.init t.trail_len (fun i -> dimacs_of_ilit t.trail.(i))

let watch_list t l =
  let ws = t.watches.(ilit_of_dimacs l) in
  List.init ws.Ivec.len (fun i -> ws.Ivec.data.(i))

let is_unsat t = t.unsat
