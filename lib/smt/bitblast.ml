(* Literals are DIMACS-style ints (v / -v); [neg] is unary minus. *)

type repr = Lit of int | Bits of int array

(* The memo maps [Expr.id] to the term's translation in an
   open-addressing table: power-of-two capacity, linear probing, grown
   at half load, multiplicative hashing (the top bits of the id times an
   odd constant, so runs of consecutive ids spread out).  A slot holds
   an entry only while its stamp equals [gen], so [reset] empties the
   table in O(1) by bumping the generation.

   A verdict context ([create_verdict]) also folds every gate whose
   inputs are constant, equal or complementary, and looks each
   remaining gate up by its kind and canonical inputs before it
   allocates a variable.  That gate table is open-addressed and stamped
   the same way; a slot's key is three words: [0, a, b] for [a /\ b]
   with [a < b], [-1, a, b] for [a xor b] with [0 < a < b], and
   [c, a, b] for [if c then a else b] with [c > 0] and [a > 0].  Its
   arrays are allocated at the first gate, so scratch contexts never
   hold one. *)
type ctx = {
  sat : Sat.t;
  verdict : bool;                      (* fold and hash gates *)
  mutable keys : int array;            (* per slot: Expr.id *)
  mutable stamps : int array;          (* per slot: generation *)
  mutable reprs : repr array;          (* per slot: translation *)
  mutable shift : int;                 (* 63 - log2 capacity *)
  mutable live : int;                  (* entries of this generation *)
  mutable gen : int;
  mutable gate_keys : int array;       (* per slot: three key words *)
  mutable gate_stamps : int array;     (* per slot: generation *)
  mutable gate_lits : int array;       (* per slot: the gate's literal *)
  mutable gate_live : int;             (* gates of this generation *)
  vars : (int, int array) Hashtbl.t;   (* var_id -> bit literals *)
  mutable true_lit : int;              (* literal asserted true, 0 if none *)
  mutable deadline : float option;     (* per-query; mutable for reuse *)
  mutable stop : (unit -> bool) option;
  mutable steps : int;                 (* poll subsampling counter *)
}

let memo_bits0 = 10

let make ~verdict sat =
  let cap = 1 lsl memo_bits0 in
  { sat; verdict; keys = Array.make cap 0; stamps = Array.make cap 0;
    reprs = Array.make cap (Lit 0); shift = 63 - memo_bits0; live = 0;
    gen = 1; gate_keys = [||]; gate_stamps = [||]; gate_lits = [||];
    gate_live = 0; vars = Hashtbl.create 64; true_lit = 0; deadline = None;
    stop = None; steps = 0 }

let create sat = make ~verdict:false sat
let create_verdict sat = make ~verdict:true sat

(* A reset context on a reset [Sat.t] encodes exactly as a fresh pair:
   no memo entry, gate, variable or true literal of an earlier query
   survives, and polling restarts its subsampling count. *)
let reset ctx =
  ctx.gen <- ctx.gen + 1;
  ctx.live <- 0;
  ctx.gate_live <- 0;
  Hashtbl.clear ctx.vars;
  ctx.true_lit <- 0;
  ctx.steps <- 0

let[@inline] memo_home ctx id = (id * 0x1E3779B97F4A7C15) lsr ctx.shift

(* The slot holding [id], or the empty slot where its probe ends. *)
let rec memo_probe ctx id i =
  if ctx.stamps.(i) <> ctx.gen || ctx.keys.(i) = id then i
  else memo_probe ctx id ((i + 1) land (Array.length ctx.keys - 1))

let memo_place ctx id r =
  let i = memo_probe ctx id (memo_home ctx id) in
  ctx.keys.(i) <- id;
  ctx.stamps.(i) <- ctx.gen;
  ctx.reprs.(i) <- r

let memo_grow ctx =
  let keys = ctx.keys and stamps = ctx.stamps and reprs = ctx.reprs in
  let cap = 2 * Array.length keys in
  ctx.keys <- Array.make cap 0;
  ctx.stamps <- Array.make cap 0;
  ctx.reprs <- Array.make cap (Lit 0);
  ctx.shift <- ctx.shift - 1;
  Array.iteri
    (fun i id -> if stamps.(i) = ctx.gen then memo_place ctx id reprs.(i))
    keys

let memo_add ctx id r =
  memo_place ctx id r;
  ctx.live <- ctx.live + 1;
  if 2 * ctx.live > Array.length ctx.keys then memo_grow ctx

(* A context carries a different budget for each query. *)
let set_deadline ctx d = ctx.deadline <- d
let set_stop ctx f = ctx.stop <- f

(* Encoding a huge term must not blow far past the per-query deadline
   before the CDCL loop ever gets to poll it, so translation polls the
   same deadline/stop pair at node boundaries (subsampled: a node may
   expand to hundreds of gates, so every node would be too often and
   every translate call of a deep term too rare). *)
let poll ctx =
  match ctx.deadline, ctx.stop with
  | None, None -> ()
  | deadline, stop ->
    ctx.steps <- ctx.steps + 1;
    if ctx.steps land 63 = 1 then begin
      (match deadline with
       | Some d when Unix.gettimeofday () > d -> raise Sat.Timeout
       | Some _ | None -> ());
      match stop with
      | Some f when f () -> raise Sat.Interrupted
      | Some _ | None -> ()
    end

let fresh ctx = Sat.new_var ctx.sat

let lit_true ctx =
  if ctx.true_lit = 0 then begin
    let v = fresh ctx in
    Sat.add_clause ctx.sat [ v ];
    ctx.true_lit <- v
  end;
  ctx.true_lit

let lit_false ctx = -lit_true ctx

let lit_of_bool ctx b = if b then lit_true ctx else lit_false ctx

(* Tseitin gates.  Each returns a literal equivalent to the gate.  A
   scratch context folds only what it always has: equal or
   complementary inputs of [and] and [xor], equal branches of [ite].
   A verdict context also folds constant inputs and the remaining equal
   or complementary ones, so an adder, comparator or barrel shifter fed
   constants shrinks and a shift by a constant is plain rewiring, and it
   shares every other gate through the gate table. *)

let and_clauses ctx g a b =
  Sat.add_clause2 ctx.sat (-g) a;
  Sat.add_clause2 ctx.sat (-g) b;
  Sat.add_clause3 ctx.sat (-a) (-b) g

let xor_clauses ctx g a b =
  Sat.add_clause3 ctx.sat (-g) a b;
  Sat.add_clause3 ctx.sat (-g) (-a) (-b);
  Sat.add_clause3 ctx.sat g (-a) b;
  Sat.add_clause3 ctx.sat g a (-b)

(* g = if c then a else b *)
let ite_clauses ctx g c a b =
  Sat.add_clause3 ctx.sat (-c) (-a) g;
  Sat.add_clause3 ctx.sat (-c) a (-g);
  Sat.add_clause3 ctx.sat c (-b) g;
  Sat.add_clause3 ctx.sat c b (-g)

let gate_bits0 = 10

(* Murmur3's finalizer over the three key words, as [Expr]'s
   hash-consing mixes its keys. *)
let[@inline] gate_home ctx k a b =
  let m = 0x100000001b3 in
  let h = (((k * m) + a) * m) + b in
  let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  (h lxor (h lsr 33)) land (Array.length ctx.gate_lits - 1)

(* The slot holding the key, or the empty slot where its probe ends. *)
let rec gate_probe ctx k a b i =
  let j = 3 * i in
  if ctx.gate_stamps.(i) <> ctx.gen
  || (ctx.gate_keys.(j) = k && ctx.gate_keys.(j + 1) = a
      && ctx.gate_keys.(j + 2) = b)
  then i
  else gate_probe ctx k a b ((i + 1) land (Array.length ctx.gate_lits - 1))

let gate_place ctx i k a b g =
  ctx.gate_keys.(3 * i) <- k;
  ctx.gate_keys.((3 * i) + 1) <- a;
  ctx.gate_keys.((3 * i) + 2) <- b;
  ctx.gate_stamps.(i) <- ctx.gen;
  ctx.gate_lits.(i) <- g

(* Twice the slots, or the first 1,024. *)
let gate_grow ctx =
  let keys = ctx.gate_keys and stamps = ctx.gate_stamps
  and lits = ctx.gate_lits in
  let cap = max (1 lsl gate_bits0) (2 * Array.length lits) in
  ctx.gate_keys <- Array.make (3 * cap) 0;
  ctx.gate_stamps <- Array.make cap 0;
  ctx.gate_lits <- Array.make cap 0;
  Array.iteri
    (fun i stamp ->
       if stamp = ctx.gen then begin
         let k = keys.(3 * i) and a = keys.((3 * i) + 1)
         and b = keys.((3 * i) + 2) in
         gate_place ctx (gate_probe ctx k a b (gate_home ctx k a b)) k a b
           lits.(i)
       end)
    stamps

(* The gate with key [k, a, b] (see [ctx]), built on a miss. *)
let hashed ctx k a b =
  if Array.length ctx.gate_lits = 0 then gate_grow ctx;
  let i = gate_probe ctx k a b (gate_home ctx k a b) in
  if ctx.gate_stamps.(i) = ctx.gen then ctx.gate_lits.(i)
  else begin
    let g = fresh ctx in
    if k = 0 then and_clauses ctx g a b
    else if k = -1 then xor_clauses ctx g a b
    else ite_clauses ctx g k a b;
    gate_place ctx i k a b g;
    ctx.gate_live <- ctx.gate_live + 1;
    if 2 * ctx.gate_live > Array.length ctx.gate_lits then gate_grow ctx;
    g
  end

(* The verdict folds.  [t] is 0 until a constant is encoded, and no
   literal is 0, so no input then matches [t] or [-t]. *)
let verdict_and ctx a b =
  let t = ctx.true_lit in
  if a = t then b
  else if b = t then a
  else if a = -t || b = -t then -t
  else if a < b then hashed ctx 0 a b
  else hashed ctx 0 b a

let gate_and ctx a b =
  if a = b then a
  else if a = -b then lit_false ctx
  else if ctx.verdict then verdict_and ctx a b
  else begin
    let g = fresh ctx in
    and_clauses ctx g a b;
    g
  end

let gate_or ctx a b = -gate_and ctx (-a) (-b)

(* [a xor b] is [-(-a xor b)], so the table keys positive inputs. *)
let verdict_xor ctx a b =
  let t = ctx.true_lit in
  if a = t then -b
  else if a = -t then b
  else if b = t then -a
  else if b = -t then a
  else begin
    let x = abs a and y = abs b in
    let g = if x < y then hashed ctx (-1) x y else hashed ctx (-1) y x in
    if (a < 0) <> (b < 0) then -g else g
  end

let gate_xor ctx a b =
  if a = b then lit_false ctx
  else if a = -b then lit_true ctx
  else if ctx.verdict then verdict_xor ctx a b
  else begin
    let g = fresh ctx in
    xor_clauses ctx g a b;
    g
  end

let gate_iff ctx a b = -gate_xor ctx a b

(* [if -c then a else b] is [if c then b else a], and [if c then -a
   else -b] is its negation, so the table keys [c > 0] and [a > 0]. *)
let verdict_ite ctx c a b =
  let t = ctx.true_lit in
  if c = t then a
  else if c = -t then b
  else if a = -b then gate_iff ctx c a
  else if a = t || a = c then gate_or ctx c b
  else if a = -t || a = -c then gate_and ctx (-c) b
  else if b = t || b = -c then gate_or ctx (-c) a
  else if b = -t || b = c then gate_and ctx c a
  else begin
    let c, a, b = if c < 0 then (-c, b, a) else (c, a, b) in
    if a < 0 then -hashed ctx c (-a) (-b) else hashed ctx c a b
  end

(* g = if c then a else b *)
let gate_ite ctx c a b =
  if a = b then a
  else if ctx.verdict then verdict_ite ctx c a b
  else begin
    let g = fresh ctx in
    ite_clauses ctx g c a b;
    g
  end

(* Majority (carry-out of a full adder). *)
let gate_maj ctx a b c =
  gate_or ctx (gate_and ctx a b) (gate_or ctx (gate_and ctx a c) (gate_and ctx b c))

let full_adder ctx a b cin =
  let s = gate_xor ctx (gate_xor ctx a b) cin in
  let cout = gate_maj ctx a b cin in
  s, cout

let adder ctx ?(cin : int option) a b =
  let w = Array.length a in
  let s = Array.make w 0 in
  let carry = ref (match cin with Some c -> c | None -> lit_false ctx) in
  for i = 0 to w - 1 do
    let si, c = full_adder ctx a.(i) b.(i) !carry in
    s.(i) <- si;
    carry := c
  done;
  s, !carry

let negate_bits ctx a =
  (* two's complement: ~a + 1 *)
  let w = Array.length a in
  let nota = Array.map (fun l -> -l) a in
  let one = Array.init w (fun i -> lit_of_bool ctx (i = 0)) in
  fst (adder ctx nota one)

let subtract ctx a b =
  (* a - b = a + ~b + 1; borrow-out complement of carry *)
  let notb = Array.map (fun l -> -l) b in
  let s, carry = adder ctx ~cin:(lit_true ctx) a notb in
  s, carry (* carry = 1 means no borrow, i.e. a >= b (unsigned) *)

(* a < b (unsigned): borrow of a - b. *)
let ult_lit ctx a b =
  let _, carry = subtract ctx a b in
  -carry

let eq_lit ctx a b =
  let w = Array.length a in
  let acc = ref (lit_true ctx) in
  for i = 0 to w - 1 do
    acc := gate_and ctx !acc (gate_iff ctx a.(i) b.(i))
  done;
  !acc

let slt_lit ctx a b =
  (* Flip the sign bits, then compare unsigned. *)
  let w = Array.length a in
  let a' = Array.copy a and b' = Array.copy b in
  a'.(w - 1) <- -a.(w - 1);
  b'.(w - 1) <- -b.(w - 1);
  ult_lit ctx a' b'

let mux_bits ctx c a b = Array.init (Array.length a) (fun i -> gate_ite ctx c a.(i) b.(i))

(* Barrel shifter.  [shifted dir fill bits k] shifts by 2^k. *)
let shifted dir fill bits k =
  let w = Array.length bits in
  let n = 1 lsl k in
  Array.init w (fun i ->
      match dir with
      | `Left -> if i < n then fill else bits.(i - n)
      | `Right -> if i + n >= w then fill else bits.(i + n))

let barrel_shift ctx dir a amount ~fill =
  let w = Array.length a in
  let stages = ref a in
  let log2w =
    let rec go k = if 1 lsl k >= w then k else go (k + 1) in
    go 0
  in
  for k = 0 to log2w - 1 do
    let moved = shifted dir fill !stages k in
    stages := mux_bits ctx amount.(k) moved !stages
  done;
  (* If any amount bit >= log2w is set the result saturates to fill. *)
  let big = ref (lit_false ctx) in
  for i = log2w to Array.length amount - 1 do
    big := gate_or ctx !big amount.(i)
  done;
  (* Shift amounts between w and 2^log2w - 1 (when w is not a power of
     two) also saturate; check amount >= w explicitly. *)
  let exceeds =
    if 1 lsl log2w = w then !big
    else begin
      let wconst = Array.init (Array.length amount)
          (fun i -> lit_of_bool ctx ((w lsr i) land 1 = 1))
      in
      let ge_w = -(ult_lit ctx amount wconst) in
      gate_or ctx !big ge_w
    end
  in
  let fills = Array.make w fill in
  mux_bits ctx exceeds fills !stages

let multiply ctx a b =
  let w = Array.length a in
  let acc = ref (Array.make w (lit_false ctx)) in
  for i = 0 to w - 1 do
    (* partial = (a << i) AND b_i, added into acc *)
    let partial =
      Array.init w (fun j ->
          if j < i then lit_false ctx else gate_and ctx a.(j - i) b.(i))
    in
    acc := fst (adder ctx !acc partial)
  done;
  !acc

(* Restoring division: returns (quotient, remainder) with the SMT-LIB
   division-by-zero convention applied by the caller. *)
let divide ctx a b =
  let w = Array.length a in
  let q = Array.make w 0 in
  (* Remainder register, w+1 bits to absorb the shift. *)
  let r = ref (Array.make (w + 1) (lit_false ctx)) in
  let b_ext = Array.init (w + 1) (fun i -> if i < w then b.(i) else lit_false ctx) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i *)
    let shifted = Array.init (w + 1) (fun j -> if j = 0 then a.(i) else !r.(j - 1)) in
    let diff, no_borrow = subtract ctx shifted b_ext in
    q.(i) <- no_borrow;
    r := mux_bits ctx no_borrow diff shifted
  done;
  let rem = Array.sub !r 0 w in
  q, rem

let rec translate ctx (e : Expr.t) : repr =
  let id = e.Expr.id in
  let i = memo_probe ctx id (memo_home ctx id) in
  if ctx.stamps.(i) = ctx.gen then ctx.reprs.(i)
  else begin
    poll ctx;
    let r = translate_uncached ctx e in
    memo_add ctx id r;
    r
  end

and bool_lit ctx e =
  match translate ctx e with
  | Lit l -> l
  | Bits _ -> invalid_arg "Bitblast: expected boolean term"

and bv_bits ctx e =
  match translate ctx e with
  | Bits b -> b
  | Lit _ -> invalid_arg "Bitblast: expected bitvector term"

and translate_uncached ctx (e : Expr.t) : repr =
  match e.Expr.node with
  | Expr.Bool_const b -> Lit (lit_of_bool ctx b)
  | Expr.Bv_const v ->
    let w = Bv.width v in
    Bits (Array.init w (fun i -> lit_of_bool ctx (Bv.bit v i)))
  | Expr.Var v ->
    let bits =
      match Hashtbl.find_opt ctx.vars v.Expr.var_id with
      | Some bits -> bits
      | None ->
        let bits = Array.init v.Expr.var_width (fun _ -> fresh ctx) in
        Hashtbl.add ctx.vars v.Expr.var_id bits;
        bits
    in
    Bits bits
  | Expr.Not x -> Lit (-bool_lit ctx x)
  | Expr.Andb (a, b) -> Lit (gate_and ctx (bool_lit ctx a) (bool_lit ctx b))
  | Expr.Orb (a, b) -> Lit (gate_or ctx (bool_lit ctx a) (bool_lit ctx b))
  | Expr.Cmp (op, a, b) ->
    (match a.Expr.sort with
     | Expr.Bool ->
       (* Only Eq is constructed on booleans. *)
       Lit (gate_iff ctx (bool_lit ctx a) (bool_lit ctx b))
     | Expr.Bv _ ->
       let ba = bv_bits ctx a and bb = bv_bits ctx b in
       let l =
         match op with
         | Expr.Eq -> eq_lit ctx ba bb
         | Expr.Ult -> ult_lit ctx ba bb
         | Expr.Ule -> -ult_lit ctx bb ba
         | Expr.Slt -> slt_lit ctx ba bb
         | Expr.Sle -> -slt_lit ctx bb ba
       in
       Lit l)
  | Expr.Ite (c, a, b) ->
    let lc = bool_lit ctx c in
    (match a.Expr.sort with
     | Expr.Bool -> Lit (gate_ite ctx lc (bool_lit ctx a) (bool_lit ctx b))
     | Expr.Bv _ -> Bits (mux_bits ctx lc (bv_bits ctx a) (bv_bits ctx b)))
  | Expr.Bnot x -> Bits (Array.map (fun l -> -l) (bv_bits ctx x))
  | Expr.Bin (op, a, b) ->
    let ba = bv_bits ctx a and bb = bv_bits ctx b in
    let bits =
      match op with
      | Expr.Add -> fst (adder ctx ba bb)
      | Expr.Sub -> fst (subtract ctx ba bb)
      | Expr.Mul -> multiply ctx ba bb
      | Expr.And -> Array.init (Array.length ba) (fun i -> gate_and ctx ba.(i) bb.(i))
      | Expr.Or -> Array.init (Array.length ba) (fun i -> gate_or ctx ba.(i) bb.(i))
      | Expr.Xor -> Array.init (Array.length ba) (fun i -> gate_xor ctx ba.(i) bb.(i))
      | Expr.Shl -> barrel_shift ctx `Left ba bb ~fill:(lit_false ctx)
      | Expr.Lshr -> barrel_shift ctx `Right ba bb ~fill:(lit_false ctx)
      | Expr.Ashr ->
        let w = Array.length ba in
        barrel_shift ctx `Right ba bb ~fill:ba.(w - 1)
      | Expr.Udiv | Expr.Urem ->
        let q, r = divide ctx ba bb in
        let bzero =
          eq_lit ctx bb (Array.make (Array.length bb) (lit_false ctx))
        in
        (match op with
         | Expr.Udiv ->
           let ones = Array.make (Array.length ba) (lit_true ctx) in
           mux_bits ctx bzero ones q
         | Expr.Urem -> mux_bits ctx bzero ba r
         | _ -> assert false)
      | Expr.Sdiv | Expr.Srem ->
        let w = Array.length ba in
        let sa = ba.(w - 1) and sb = bb.(w - 1) in
        let ma = mux_bits ctx sa (negate_bits ctx ba) ba in
        let mb = mux_bits ctx sb (negate_bits ctx bb) bb in
        let q, r = divide ctx ma mb in
        let bzero = eq_lit ctx bb (Array.make w (lit_false ctx)) in
        (match op with
         | Expr.Sdiv ->
           let qsign = gate_xor ctx sa sb in
           let q' = mux_bits ctx qsign (negate_bits ctx q) q in
           (* Division by zero: 1 when dividend negative, ones otherwise. *)
           let ones = Array.make w (lit_true ctx) in
           let one = Array.init w (fun i -> lit_of_bool ctx (i = 0)) in
           let dz = mux_bits ctx sa one ones in
           mux_bits ctx bzero dz q'
         | Expr.Srem ->
           let r' = mux_bits ctx sa (negate_bits ctx r) r in
           mux_bits ctx bzero ba r'
         | _ -> assert false)
    in
    Bits bits
  | Expr.Extract (hi, lo, x) ->
    let bx = bv_bits ctx x in
    Bits (Array.sub bx lo (hi - lo + 1))
  | Expr.Concat (a, b) ->
    let ba = bv_bits ctx a and bb = bv_bits ctx b in
    Bits (Array.append bb ba)
  | Expr.Zext (w, x) ->
    let bx = bv_bits ctx x in
    Bits (Array.init w (fun i -> if i < Array.length bx then bx.(i) else lit_false ctx))
  | Expr.Sext (w, x) ->
    let bx = bv_bits ctx x in
    let n = Array.length bx in
    Bits (Array.init w (fun i -> if i < n then bx.(i) else bx.(n - 1)))

let assert_true ctx e = Sat.add_clause ctx.sat [ bool_lit ctx e ]

(* The Tseitin literal of a boolean term, without asserting it — used by
   Solver.Scope to tie a constraint to a guard variable so it can be
   enabled per-query via assumptions. *)
let literal ctx e = bool_lit ctx e

let var_bits ctx (v : Expr.var) = Hashtbl.find_opt ctx.vars v.Expr.var_id

let extract_model ctx vars =
  List.fold_left
    (fun m (v : Expr.var) ->
       match var_bits ctx v with
       | None -> Model.add v (Bv.zero v.Expr.var_width) m
       | Some bits ->
         let value = ref 0L in
         Array.iteri
           (fun i l ->
              if l <> 0 && Sat.value ctx.sat (abs l) = (l > 0) then
                value := Int64.logor !value (Int64.shift_left 1L i))
           bits;
         Model.add v (Bv.make ~width:v.Expr.var_width !value) m)
    Model.empty vars
