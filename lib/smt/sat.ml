(* Literal encoding: variable v (>= 1) maps to internal literals
   2*v (positive) and 2*v+1 (negative).  Internal arrays are indexed by
   variable or by internal literal. *)

exception Resource_exhausted
exception Timeout
exception Interrupted

type result = Sat | Unsat

(* Storage is flat and reused.  The literals of clause [id] are
   [arena.(cstart.(id)) .. arena.(cstart.(id) + clen.(id) - 1)], in one
   int arena shared by problem and learned clauses; the watch list of
   internal literal [l] is the first [wlen.(l)] entries of [wdata.(l)].
   Per-variable arrays (and the per-literal watch arrays) grow together
   under one capacity, [Array.length assign].  Nothing is freed by
   [reset]: a reused instance keeps every array, so once it has held its
   largest query, adding variables and clauses allocates nothing. *)
type t = {
  mutable nvars : int;
  mutable arena : int array;           (* clause literals, back to back *)
  mutable arena_len : int;
  mutable cstart : int array;          (* per clause id: arena offset *)
  mutable clen : int array;            (* per clause id: literal count *)
  mutable nclauses : int;
  mutable wdata : int array array;     (* per internal literal: clause ids *)
  mutable wlen : int array;            (* per internal literal *)
  mutable assign : int array;          (* per var: -1 unassigned / 0 / 1 *)
  mutable level : int array;           (* per var *)
  mutable reason : int array;          (* per var: clause id or -1 *)
  mutable activity : float array;      (* per var *)
  mutable phase : bool array;          (* per var: saved polarity *)
  mutable seen : bool array;           (* per var: conflict-analysis scratch *)
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
  mutable lits : int array;            (* scratch for clause normalization *)
}

let var_cap0 = 16

let create () =
  {
    nvars = 0;
    arena = Array.make 64 0;
    arena_len = 0;
    cstart = Array.make 16 0;
    clen = Array.make 16 0;
    nclauses = 0;
    wdata = Array.make (2 * var_cap0) [||];
    wlen = Array.make (2 * var_cap0) 0;
    assign = Array.make var_cap0 (-1);
    level = Array.make var_cap0 0;
    reason = Array.make var_cap0 (-1);
    activity = Array.make var_cap0 0.0;
    phase = Array.make var_cap0 false;
    seen = Array.make var_cap0 false;
    trail = Array.make var_cap0 0;
    trail_len = 0;
    trail_lim = Array.make var_cap0 0;
    trail_lim_len = 0;
    qhead = 0;
    unsat = false;
    var_inc = 1.0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    lits = Array.make 16 0;
  }

(* Back to a fresh instance's state, keeping every array.  Per-variable
   and per-literal entries are not cleared here: [new_var] initializes
   them as it hands each variable out again, so nothing of an earlier
   query is readable through a reset instance. *)
let reset t =
  t.nvars <- 0;
  t.arena_len <- 0;
  t.nclauses <- 0;
  t.trail_len <- 0;
  t.trail_lim_len <- 0;
  t.qhead <- 0;
  t.unsat <- false;
  t.var_inc <- 1.0;
  t.conflicts <- 0;
  t.decisions <- 0;
  t.propagations <- 0

(* [a] copied into a new array of length [n], padded with [default]. *)
let extend a n default =
  let b = Array.make n default in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The large arrays grow by half again: a reused instance keeps them for
   good, so doubling would mostly buy slack. *)
let grown len need = max need (len + (len lsr 1))

(* The padding of [wdata] is the empty array, a static atom: a young
   block there would make [Array.make] force a minor collection. *)
let grow_vars t need =
  let cap = grown (Array.length t.assign) need in
  t.assign <- extend t.assign cap (-1);
  t.level <- extend t.level cap 0;
  t.reason <- extend t.reason cap (-1);
  t.activity <- extend t.activity cap 0.0;
  t.phase <- extend t.phase cap false;
  t.seen <- extend t.seen cap false;
  t.trail <- extend t.trail cap 0;
  t.trail_lim <- extend t.trail_lim cap 0;
  t.wdata <- extend t.wdata (2 * cap) [||];
  t.wlen <- extend t.wlen (2 * cap) 0

let new_var t =
  let v = t.nvars + 1 in
  if v >= Array.length t.assign then grow_vars t (v + 1);
  t.nvars <- v;
  t.assign.(v) <- -1;
  t.level.(v) <- 0;
  t.reason.(v) <- -1;
  t.activity.(v) <- 0.0;
  t.phase.(v) <- false;
  t.seen.(v) <- false;
  t.wlen.(2 * v) <- 0;
  t.wlen.((2 * v) + 1) <- 0;
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

(* Append clause id [cid] to the watch list of internal literal [l]. *)
let watch t l cid =
  let n = t.wlen.(l) in
  let data = t.wdata.(l) in
  let data =
    if n < Array.length data then data
    else begin
      let d = extend data (max 4 (2 * n)) 0 in
      t.wdata.(l) <- d;
      d
    end
  in
  data.(n) <- cid;
  t.wlen.(l) <- n + 1

(* Store the first [k >= 2] literals of [src] as the next clause and
   watch its first two. *)
let add_clause_internal t src k =
  let id = t.nclauses in
  if id = Array.length t.cstart then begin
    let cap = grown id (id + 1) in
    t.cstart <- extend t.cstart cap 0;
    t.clen <- extend t.clen cap 0
  end;
  let off = t.arena_len in
  if off + k > Array.length t.arena then
    t.arena <- extend t.arena (grown (Array.length t.arena) (off + k)) 0;
  let arena = t.arena in
  for i = 0 to k - 1 do
    arena.(off + i) <- src.(i)
  done;
  t.cstart.(id) <- off;
  t.clen.(id) <- k;
  t.arena_len <- off + k;
  t.nclauses <- id + 1;
  watch t src.(0) id;
  watch t src.(1) id;
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

(* Insertion-sort a clause's internal literals into [t.lits], ascending
   and without duplicates (the order [List.sort_uniq] gives), and return
   how many there are — or -1 for a tautology.  Clauses are short, so
   shifting in a reused buffer beats building and sorting lists; once
   sorted, a complementary pair [2v; 2v+1] is adjacent. *)
let rec insert_lits t n = function
  | [] -> n
  | d :: rest ->
    let l = ilit_of_dimacs d in
    let buf = t.lits in
    let j = ref n in
    while !j > 0 && buf.(!j - 1) > l do decr j done;
    if !j > 0 && buf.(!j - 1) = l then insert_lits t n rest
    else begin
      if n = Array.length buf then t.lits <- extend buf (2 * n) 0;
      let buf = t.lits in
      for i = n downto !j + 1 do
        buf.(i) <- buf.(i - 1)
      done;
      buf.(!j) <- l;
      insert_lits t (n + 1) rest
    end

let normalize t dimacs_lits =
  let n = insert_lits t 0 dimacs_lits in
  let buf = t.lits in
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
      (* Drop literals already false at level 0; if any literal is true
         at level 0 the clause is satisfied, and its buffer, compacted
         in place on the way, is discarded. *)
      let satisfied = ref false in
      let k = ref 0 in
      for i = 0 to n - 1 do
        let l = buf.(i) in
        let value = lit_value t l in
        if value <> -1 && t.level.(ilit_var l) = 0 then begin
          if value = 1 then satisfied := true
        end
        else begin
          buf.(!k) <- l;
          incr k
        end
      done;
      if not !satisfied then
        match !k with
        | 0 -> t.unsat <- true
        | 1 ->
          let l = buf.(0) in
          (match lit_value t l with
           | 1 -> ()
           | 0 -> t.unsat <- true
           | _ -> enqueue t l (-1))
        | k -> ignore (add_clause_internal t buf k)
    end
  end

(* Propagation with two watched literals; returns conflicting clause id
   or -1.  Each watch list is compacted in place (MiniSat-style): kept
   entries slide down in their original order, and an entry whose
   clause found a new watch moves to that literal's list — never this
   one, since the new watch is not false. *)
let propagate t =
  let conflict = ref (-1) in
  (* No clause is added during propagation, so the arena stays put. *)
  let arena = t.arena in
  while !conflict = -1 && t.qhead < t.trail_len do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = ilit_neg l in
    (* Clauses watching false_lit must find a new watch. *)
    let data = t.wdata.(false_lit) in
    let j = ref 0 in
    for i = 0 to t.wlen.(false_lit) - 1 do
      let cid = data.(i) in
      if !conflict <> -1 then begin
        data.(!j) <- cid;
        incr j
      end
      else begin
        let off = t.cstart.(cid) in
        (* Ensure the clause's second literal is the false one. *)
        if arena.(off) = false_lit then begin
          arena.(off) <- arena.(off + 1);
          arena.(off + 1) <- false_lit
        end;
        let first = arena.(off) in
        if lit_value t first = 1 then begin
          data.(!j) <- cid;
          incr j
        end
        else begin
          (* Search for a non-false literal to watch. *)
          let stop = off + t.clen.(cid) in
          let found = ref false in
          let k = ref (off + 2) in
          while (not !found) && !k < stop do
            let lk = arena.(!k) in
            if lit_value t lk <> 0 then begin
              arena.(!k) <- arena.(off + 1);
              arena.(off + 1) <- lk;
              watch t lk cid;
              found := true
            end;
            incr k
          done;
          if not !found then begin
            (* Unit or conflicting. *)
            data.(!j) <- cid;
            incr j;
            match lit_value t first with
            | 0 -> conflict := cid
            | -1 -> enqueue t first cid
            | _ -> ()
          end
        end
      end
    done;
    t.wlen.(false_lit) <- !j
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
    let off = t.cstart.(!cid) in
    let start = if !p = -1 then 0 else 1 in
    for j = off + start to off + t.clen.(!cid) - 1 do
      let q = t.arena.(j) in
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
              let cid = add_clause_internal t learned (Array.length learned) in
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
  List.init t.nclauses (fun i ->
      Array.init t.clen.(i) (fun j -> dimacs_of_ilit t.arena.(t.cstart.(i) + j)))

let trail t = List.init t.trail_len (fun i -> dimacs_of_ilit t.trail.(i))

let watch_list t l =
  let l = ilit_of_dimacs l in
  List.init t.wlen.(l) (fun i -> t.wdata.(l).(i))

let is_unsat t = t.unsat
