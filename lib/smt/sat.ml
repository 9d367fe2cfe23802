(* Literal encoding: variable v (>= 1) maps to internal literals
   2*v (positive) and 2*v+1 (negative).  Internal arrays are indexed by
   variable or by internal literal. *)

exception Resource_exhausted
exception Timeout
exception Interrupted

type result = Sat | Unsat

(* Storage is flat and reused.  One int arena holds every clause,
   problem and learned, back to back in clause-id order: its length,
   then its literals.  A clause is referenced by the arena offset of
   its first literal (its "cref"), so its length sits at [cref - 1];
   watch lists and reasons hold crefs.  The watch list of internal
   literal [l] is the first [wlen.(l)] entries of [wdata.(l)].
   Literal values, saved phases and seen flags are bytes.  Per-variable
   arrays (and the per-literal ones) grow together under one capacity,
   [Array.length level].  Nothing is freed by [reset]: a reused
   instance keeps every array, so once it has held its largest query,
   adding variables and clauses allocates nothing. *)
type t = {
  mutable nvars : int;
  mutable arena : int array;           (* per clause: length, literals *)
  mutable arena_len : int;
  mutable wdata : int array array;     (* per internal literal: crefs *)
  mutable wlen : int array;            (* per internal literal *)
  mutable vals : Bytes.t;              (* per internal literal: value *)
  mutable level : int array;           (* per var *)
  mutable reason : int array;          (* per var: cref or -1 *)
  mutable activity : float array;      (* per var *)
  mutable phase : Bytes.t;             (* per var: saved polarity *)
  mutable seen : Bytes.t;              (* per var: conflict-analysis scratch *)
  mutable free : int array;            (* the unassigned vars, unordered *)
  mutable nfree : int;
  mutable free_pos : int array;        (* per var: index in [free] *)
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

(* Literal values.  Both literals of a variable are written together,
   so reading one is a single load. *)
let v_false = '\000'
let v_true = '\001'
let v_undef = '\002'

let var_cap0 = 16

let create () =
  {
    nvars = 0;
    arena = Array.make 64 0;
    arena_len = 0;
    wdata = Array.make (2 * var_cap0) [||];
    wlen = Array.make (2 * var_cap0) 0;
    vals = Bytes.make (2 * var_cap0) v_undef;
    level = Array.make var_cap0 0;
    reason = Array.make var_cap0 (-1);
    activity = Array.make var_cap0 0.0;
    phase = Bytes.make var_cap0 '\000';
    seen = Bytes.make var_cap0 '\000';
    free = Array.make var_cap0 0;
    nfree = 0;
    free_pos = Array.make var_cap0 0;
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
  t.nfree <- 0;
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

let extend_bytes a n default =
  let b = Bytes.make n default in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

(* The large arrays grow by half again: a reused instance keeps them for
   good, so doubling would mostly buy slack. *)
let grown len need = max need (len + (len lsr 1))

(* The padding of [wdata] is the empty array, a static atom: a young
   block there would make [Array.make] force a minor collection. *)
let grow_vars t need =
  let cap = grown (Array.length t.level) need in
  t.vals <- extend_bytes t.vals (2 * cap) v_undef;
  t.level <- extend t.level cap 0;
  t.reason <- extend t.reason cap (-1);
  t.activity <- extend t.activity cap 0.0;
  t.phase <- extend_bytes t.phase cap '\000';
  t.seen <- extend_bytes t.seen cap '\000';
  t.free <- extend t.free cap 0;
  t.free_pos <- extend t.free_pos cap 0;
  t.trail <- extend t.trail cap 0;
  t.trail_lim <- extend t.trail_lim cap 0;
  t.wdata <- extend t.wdata (2 * cap) [||];
  t.wlen <- extend t.wlen (2 * cap) 0

(* The unassigned set: [free.(0 .. nfree - 1)] in no particular order,
   with each member's index in [free_pos].  Adding and removing are
   O(1), so only [pick_branch_var] pays for its size. *)
let free_add t v =
  t.free.(t.nfree) <- v;
  t.free_pos.(v) <- t.nfree;
  t.nfree <- t.nfree + 1

let free_remove t v =
  let last = t.free.(t.nfree - 1) in
  let i = t.free_pos.(v) in
  t.free.(i) <- last;
  t.free_pos.(last) <- i;
  t.nfree <- t.nfree - 1

let new_var t =
  let v = t.nvars + 1 in
  if v >= Array.length t.level then grow_vars t (v + 1);
  t.nvars <- v;
  Bytes.set t.vals (2 * v) v_undef;
  Bytes.set t.vals ((2 * v) + 1) v_undef;
  t.level.(v) <- 0;
  t.reason.(v) <- -1;
  t.activity.(v) <- 0.0;
  Bytes.set t.phase v '\000';
  Bytes.set t.seen v '\000';
  free_add t v;
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

let lit_value t l = Bytes.get t.vals l

let decision_level t = t.trail_lim_len

let enqueue t l reason =
  let v = ilit_var l in
  Bytes.set t.vals l v_true;
  Bytes.set t.vals (ilit_neg l) v_false;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Bytes.set t.phase v (if ilit_sign l then '\000' else '\001');
  free_remove t v;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

(* Append [cref] to the watch list of internal literal [l]. *)
let watch t l cref =
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
  data.(n) <- cref;
  t.wlen.(l) <- n + 1

(* Store the first [k >= 2] literals of [src] as the next clause and
   watch its first two; returns its cref. *)
let add_clause_internal t src k =
  let cref = t.arena_len + 1 in
  if cref + k > Array.length t.arena then
    t.arena <- extend t.arena (grown (Array.length t.arena) (cref + k)) 0;
  let arena = t.arena in
  arena.(cref - 1) <- k;
  for i = 0 to k - 1 do
    arena.(cref + i) <- src.(i)
  done;
  t.arena_len <- cref + k;
  watch t src.(0) cref;
  watch t src.(1) cref;
  cref

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_len - 1 downto bound do
      let l = t.trail.(i) in
      let v = ilit_var l in
      Bytes.set t.vals l v_undef;
      Bytes.set t.vals (ilit_neg l) v_undef;
      t.reason.(v) <- -1;
      free_add t v
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

(* Whether the first [n] literals of ascending [buf], from index [i]
   on, hold a complementary pair. *)
let rec has_complement (buf : int array) n i =
  i < n - 1 && (buf.(i + 1) = buf.(i) lxor 1 || has_complement buf n (i + 1))

let normalize t dimacs_lits =
  let n = insert_lits t 0 dimacs_lits in
  if has_complement t.lits n 0 then -1 else n

(* Incremental use leaves the trail populated after a [Sat] answer;
   the level-0 simplification of [add_normalized] is only sound against
   the level-0 prefix, so every add drops standing decisions first. *)
let drop_decisions t = if decision_level t > 0 then cancel_until t 0

(* Add the clause of the [n] ascending, distinct, non-complementary
   internal literals in [t.lits]. *)
let add_normalized t n =
  let buf = t.lits in
  (* Drop literals already false at level 0; if any literal is true at
     level 0 the clause is satisfied, and its buffer, compacted in place
     on the way, is discarded. *)
  let satisfied = ref false in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let l = buf.(i) in
    let value = lit_value t l in
    if value <> v_undef && t.level.(ilit_var l) = 0 then begin
      if value = v_true then satisfied := true
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
      let value = lit_value t l in
      if value = v_false then t.unsat <- true
      else if value = v_undef then enqueue t l (-1)
    | k -> ignore (add_clause_internal t buf k)

let add_clause t dimacs_lits =
  if not t.unsat then begin
    drop_decisions t;
    let n = normalize t dimacs_lits in
    if n >= 0 then add_normalized t n
  end

(* The two- and three-literal forms sort by compare-and-swap into
   [t.lits]; sorted, a duplicate or a complementary pair is adjacent. *)
let order (buf : int array) i j =
  let x = buf.(i) and y = buf.(j) in
  if x > y then begin
    buf.(i) <- y;
    buf.(j) <- x
  end

let add_clause2 t a b =
  if not t.unsat then begin
    drop_decisions t;
    let a = ilit_of_dimacs a and b = ilit_of_dimacs b in
    let lo = if a < b then a else b and hi = if a < b then b else a in
    let buf = t.lits in
    buf.(0) <- lo;
    if lo = hi then add_normalized t 1
    else if hi <> lo lxor 1 then begin
      buf.(1) <- hi;
      add_normalized t 2
    end
  end

let add_clause3 t a b c =
  if not t.unsat then begin
    drop_decisions t;
    let buf = t.lits in
    buf.(0) <- ilit_of_dimacs a;
    buf.(1) <- ilit_of_dimacs b;
    buf.(2) <- ilit_of_dimacs c;
    order buf 0 1;
    order buf 1 2;
    order buf 0 1;
    let n =
      if buf.(0) = buf.(1) then begin
        buf.(1) <- buf.(2);
        if buf.(0) = buf.(1) then 1 else 2
      end
      else if buf.(1) = buf.(2) then 2
      else 3
    in
    if not (has_complement buf n 0) then add_normalized t n
  end

(* Propagation with two watched literals; returns the conflicting
   clause's cref or -1.  Each watch list is compacted in place
   (MiniSat-style): kept entries slide down in their original order,
   and an entry whose clause found a new watch moves to that literal's
   list — never this one, since the new watch is not false. *)
let propagate t =
  let conflict = ref (-1) in
  (* No clause or variable is added during propagation, so the arena
     and the value bytes stay put. *)
  let arena = t.arena and vals = t.vals in
  while !conflict = -1 && t.qhead < t.trail_len do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = ilit_neg l in
    (* Clauses watching false_lit must find a new watch. *)
    let data = t.wdata.(false_lit) in
    let n = t.wlen.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cref = data.(!i) in
      incr i;
      (* Ensure the clause's second literal is the false one. *)
      if arena.(cref) = false_lit then begin
        arena.(cref) <- arena.(cref + 1);
        arena.(cref + 1) <- false_lit
      end;
      let first = arena.(cref) in
      if Bytes.get vals first = v_true then begin
        data.(!j) <- cref;
        incr j
      end
      else begin
        (* Search for a non-false literal to watch. *)
        let stop = cref + arena.(cref - 1) in
        let k = ref (cref + 2) in
        while !k < stop && Bytes.get vals arena.(!k) = v_false do incr k done;
        if !k < stop then begin
          let lk = arena.(!k) in
          arena.(!k) <- false_lit;
          arena.(cref + 1) <- lk;
          watch t lk cref
        end
        else begin
          (* Unit or conflicting; [first] is not true. *)
          data.(!j) <- cref;
          incr j;
          if Bytes.get vals first = v_false then begin
            conflict := cref;
            (* Keep the entries not visited. *)
            Array.blit data !i data !j (n - !i);
            j := !j + (n - !i);
            i := n
          end
          else enqueue t first cref
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

let is_seen t v = Bytes.get t.seen v <> '\000'

(* First-UIP conflict analysis.  Returns (learned clause, backjump
   level); learned.(0) is the asserting literal. *)
let analyze t conflict =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let cref = ref conflict in
  let idx = ref (t.trail_len - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !cref in
    let start = if !p = -1 then 0 else 1 in
    for j = c + start to c + t.arena.(c - 1) - 1 do
      let q = t.arena.(j) in
      let v = ilit_var q in
      if (not (is_seen t v)) && t.level.(v) > 0 then begin
        Bytes.set t.seen v '\001';
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
      if is_seen t (ilit_var l) then begin
        p := l;
        continue_inner := false
      end
    done;
    Bytes.set t.seen (ilit_var !p) '\000';
    decr counter;
    if !counter = 0 then continue := false
    else cref := t.reason.(ilit_var !p)
  done;
  let learned = Array.of_list (ilit_neg !p :: !learned) in
  (* Clear seen flags. *)
  Array.iter (fun l -> Bytes.set t.seen (ilit_var l) '\000') learned;
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

(* The unassigned variable of highest activity, the lowest-numbered
   among equals — the one a scan of every variable in index order
   would pick — or 0 when all are assigned. *)
let pick_branch_var t =
  let best = ref 0 and best_act = ref neg_infinity in
  for i = 0 to t.nfree - 1 do
    let v = t.free.(i) in
    let a = t.activity.(v) in
    if a > !best_act || (a = !best_act && v < !best) then begin
      best := v;
      best_act := a
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
              let cref = add_clause_internal t learned (Array.length learned) in
              enqueue t learned.(0) cref
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
          let value = lit_value t a in
          if value = v_true then begin
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1
          end
          else if value = v_false then result := Some Unsat
          else begin
            t.decisions <- t.decisions + 1;
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1;
            enqueue t a (-1)
          end
        end
        else begin
          let v = pick_branch_var t in
          if v = 0 then result := Some Sat
          else begin
            t.decisions <- t.decisions + 1;
            t.trail_lim.(t.trail_lim_len) <- t.trail_len;
            t.trail_lim_len <- t.trail_lim_len + 1;
            let l = if Bytes.get t.phase v <> '\000' then 2 * v else 2 * v + 1 in
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
    Bytes.set t.phase v (if Int64.logand r 1L = 1L then '\001' else '\000')
  done

let value t v = v >= 1 && v <= t.nvars && lit_value t (2 * v) = v_true

let stats_conflicts t = t.conflicts
let stats_decisions t = t.decisions
let stats_propagations t = t.propagations

(* Clause ids are implicit: clauses sit in the arena in id order, each
   one word of length ahead of its literals. *)
let fold_clauses t f acc =
  let rec go cref id acc =
    if cref > t.arena_len then acc
    else go (cref + t.arena.(cref - 1) + 1) (id + 1) (f acc id cref)
  in
  go 1 0 acc

let clauses t =
  List.rev
    (fold_clauses t
       (fun acc _ cref ->
          Array.init t.arena.(cref - 1) (fun j ->
              dimacs_of_ilit t.arena.(cref + j))
          :: acc)
       [])

let trail t = List.init t.trail_len (fun i -> dimacs_of_ilit t.trail.(i))

let watch_list t l =
  let l = ilit_of_dimacs l in
  let id_of cref =
    fold_clauses t (fun found id c -> if c = cref then id else found) (-1)
  in
  List.init t.wlen.(l) (fun i -> id_of t.wdata.(l).(i))

let is_unsat t = t.unsat
