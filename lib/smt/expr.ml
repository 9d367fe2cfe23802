type sort = Bool | Bv of int

type binop =
  | Add | Sub | Mul | Udiv | Urem | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr

type cmpop = Eq | Ult | Ule | Slt | Sle

type t = { id : int; sort : sort; node : node }

and node =
  | Bool_const of bool
  | Bv_const of Bv.t
  | Var of var
  | Not of t
  | Andb of t * t
  | Orb of t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t
  | Bnot of t
  | Bin of binop * t * t
  | Extract of int * int * t
  | Concat of t * t
  | Zext of int * t
  | Sext of int * t

and var = { var_name : string; var_id : int; var_width : int }

let equal a b = a == b
let compare a b = Int.compare a.id b.id
let hash t = t.id
let sort_of t = t.sort

let width t =
  match t.sort with
  | Bv w -> w
  | Bool -> invalid_arg "Expr.width: boolean term"

let is_bool t = t.sort = Bool

(* Hash-consing.  Every bitvector constant and compound node lives in
   one open-addressing table: power-of-two capacity, linear probing,
   grown at half load, never shrunk (terms are never freed).  A node's
   key is a tag and three integer fields, children by id; ids identify
   children exactly because children are themselves hash-consed.  Each
   slot's key sits in a flat int array beside the term array, so a
   probe compares integers and reads the term only on a hit, and
   growing rehashes from the stored keys.  The smart constructors probe
   with the key before they build a node, and constant folds other than
   division and [sext] compute the result's bits without building a
   [Bv.t], so such a hit allocates nothing.  The table starts at 4,096
   slots, because every slot costs five words and a benchmark sample
   builds fewer than 900 terms.  Booleans and variables never enter the
   table: [tru] and [fls] are built once and every variable is fresh.
   Ids follow first-construction order, which [commute] relies on. *)

let binop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Udiv -> 3 | Urem -> 4 | Sdiv -> 5
  | Srem -> 6 | And -> 7 | Or -> 8 | Xor -> 9 | Shl -> 10 | Lshr -> 11
  | Ashr -> 12

let cmpop_code = function Eq -> 0 | Ult -> 1 | Ule -> 2 | Slt -> 3 | Sle -> 4

(* A multiply-add mix alone maps consecutive child ids to consecutive
   slots, and linear probing then walks long clusters; the final
   avalanche (murmur3's finalizer, constants cut to 63 bits) spreads
   every input bit over the slot index. *)
let[@inline] key_hash tag a b c =
  let m = 0x100000001b3 in
  let h = ((((((tag * m) + a) * m) + b) * m) + c) in
  let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

let next_id = ref 0

let fresh sort node =
  let t = { id = !next_id; sort; node } in
  incr next_id;
  t

(* Slot [i]'s key is [keys.(4i)] to [keys.(4i + 3)]: tag, a, b, c.
   Tags start at 1, so a zero tag marks an empty slot. *)
let initial_slots = 4_096

(* What [probe] returns on a miss; never returned by a constructor. *)
let vacant = { id = -1; sort = Bool; node = Bool_const false }
let slots = ref (Array.make initial_slots vacant)
let keys = ref (Array.make (4 * initial_slots) 0)
let occupied = ref 0

(* Where the last missed [probe] stopped; [insert] fills it. *)
let hole = ref 0

let rec probe_from k mask i tag a b c =
  let j = 4 * i in
  let tag' = k.(j) in
  if tag' = 0 then begin
    hole := i;
    vacant
  end
  else if tag' = tag && k.(j + 1) = a && k.(j + 2) = b && k.(j + 3) = c then
    !slots.(i)
  else probe_from k mask ((i + 1) land mask) tag a b c

(* The resident term with this key, or [vacant]. *)
let[@inline] probe tag a b c =
  let k = !keys in
  let mask = (Array.length k / 4) - 1 in
  probe_from k mask (key_hash tag a b c land mask) tag a b c

(* The same entries in twice the slots.  Slot [i] holds [w] ints from
   [k.(w * i)], the first four its key: [w] is 4 here and 5 in the
   derived-term table below. *)
let rehash w s k =
  let n = 2 * Array.length s in
  let s' = Array.make n vacant and k' = Array.make (w * n) 0 in
  let mask = n - 1 in
  for i = 0 to Array.length s - 1 do
    let j = w * i in
    if k.(j) <> 0 then begin
      let i' = ref (key_hash k.(j) k.(j + 1) k.(j + 2) k.(j + 3) land mask) in
      while k'.(w * !i') <> 0 do i' := (!i' + 1) land mask done;
      s'.(!i') <- s.(i);
      Array.blit k j k' (w * !i') w
    end
  done;
  (s', k')

let grow () =
  let s, k = rehash 4 !slots !keys in
  slots := s;
  keys := k

(* Only valid right after a [probe] of the same key that returned
   [vacant]. *)
let insert tag a b c sort node =
  let t = fresh sort node in
  let i = !hole and k = !keys in
  !slots.(i) <- t;
  k.(4 * i) <- tag;
  k.((4 * i) + 1) <- a;
  k.((4 * i) + 2) <- b;
  k.((4 * i) + 3) <- c;
  incr occupied;
  if 2 * !occupied > Array.length !slots then grow ();
  t

(* Term construction performed by the solving machinery (feasibility
   probes, negated query sides, scope assumptions) must not count as DUV
   instructions: whether those probes run depends on whether a decision
   is taken live or prescribed by a replayed prefix, and on solver
   caches and scope history, while instruction totals are required to
   be identical across strategies, worker counts and resumes. *)
let counting = ref true
let instructions = ref 0

let instruction_count () = !instructions
let reset_instruction_count () = instructions := 0
let add_instructions n = if !counting then instructions := !instructions + n

let without_counting f =
  if not !counting then f ()
  else begin
    counting := false;
    Fun.protect ~finally:(fun () -> counting := true) f
  end

(* Derived terms.  A second open-addressing table, shaped like the
   hash-cons table, maps (derivation, parameter, id of a, id of b) to
   the term a derivation built from those inputs and to the
   instructions its first counted run made.  Slot [i]'s key and count
   are [dkeys.(5i)] to [dkeys.(5i + 4)]; derivation tags start at 1, so
   a zero tag marks an empty slot.  Ids name terms exactly (terms are
   hash-consed and variables are fresh), and every table slot keeps its
   result alive, so a hit returns the very term the derivation would
   build again.  It starts at 1,024 slots: a benchmark sample holds
   fewer than 700 entries. *)
type derivation = int

let derivation_names = ref []

let derivation name =
  if List.mem name !derivation_names then
    invalid_arg ("Expr.derivation: duplicate name " ^ name);
  derivation_names := name :: !derivation_names;
  List.length !derivation_names

let initial_derived = 1_024
let dresults = ref (Array.make initial_derived vacant)
let dkeys = ref (Array.make (5 * initial_derived) 0)
let doccupied = ref 0

(* The slot holding this key, or [lnot] of the empty slot where a probe
   for it stops. *)
let rec dprobe_from k mask i d p a b =
  let j = 5 * i in
  let d' = k.(j) in
  if d' = 0 then lnot i
  else if d' = d && k.(j + 1) = p && k.(j + 2) = a && k.(j + 3) = b then i
  else dprobe_from k mask ((i + 1) land mask) d p a b

let[@inline] dprobe d p a b =
  let k = !dkeys in
  let mask = Array.length !dresults - 1 in
  dprobe_from k mask (key_hash d p a b land mask) d p a b

let dgrow () =
  let r, k = rehash 5 !dresults !dkeys in
  dresults := r;
  dkeys := k

let derive d param a b f =
  let i = dprobe d param a.id b.id in
  if i >= 0 then begin
    add_instructions !dkeys.((5 * i) + 4);
    !dresults.(i)
  end
  else if not !counting then f param a b
  else begin
    let before = !instructions in
    let t = f param a b in
    let cost = !instructions - before in
    (* [f] may have grown the table: probe again for the slot. *)
    let i = lnot (dprobe d param a.id b.id) in
    let k = !dkeys and j = 5 * i in
    !dresults.(i) <- t;
    k.(j) <- d;
    k.(j + 1) <- param;
    k.(j + 2) <- a.id;
    k.(j + 3) <- b.id;
    k.(j + 4) <- cost;
    incr doccupied;
    if 2 * !doccupied > Array.length !dresults then dgrow ();
    t
  end

let tru = fresh Bool (Bool_const true)
let fls = fresh Bool (Bool_const false)
let bool b = if b then tru else fls

(* A constant's key holds its width and all 64 value bits: the low 63
   as an int, bit 63 on its own.  [const_key] builds the [Bv.t] only on
   a miss, so folds that compute a result's bits as an [int64] (kept
   unboxed by inlining) allocate nothing when the constant is resident.
   An invalid width misses and raises in [Bv.make]. *)
let const_key w lo hi =
  let t = probe 1 w lo hi in
  if t != vacant then t
  else
    let x =
      Int64.logor
        (Int64.logand (Int64.of_int lo) Int64.max_int)
        (Int64.shift_left (Int64.of_int hi) 63)
    in
    insert 1 w lo hi (Bv w) (Bv_const (Bv.make ~width:w x))

let[@inline] low_bits x = Int64.to_int x
let[@inline] top_bit x = Int64.to_int (Int64.shift_right_logical x 63)
let[@inline] const_bits w x = const_key w (low_bits x) (top_bit x)
let zero w = const_key w 0 0

(* [x] cut to its low [w] bits, and sign-extended from bit [w - 1]. *)
let[@inline] mask w x =
  if w >= 64 then x else Int64.logand x (Int64.pred (Int64.shift_left 1L w))

let[@inline] signed w x =
  let s = 64 - w in
  Int64.shift_right (Int64.shift_left x s) s

let const v = const_bits (Bv.width v) (Bv.to_int64 v)

(* [Bv.of_int]'s bits: [v] sign-extended to 64 bits, then cut to
   [width]. *)
let int ~width v =
  if width >= 63 then const_key width v (if width = 64 && v < 0 then 1 else 0)
  else const_key width (v land ((1 lsl width) - 1)) 0

let next_var_id = ref 0

let fresh_var name w =
  let v = { var_name = name; var_id = !next_var_id; var_width = w } in
  incr next_var_id;
  fresh (Bv w) (Var v)

(* One hash-consing constructor per node shape; each probes before it
   builds the node. *)

let mk_not x =
  let t = probe 2 x.id 0 0 in
  if t != vacant then t else insert 2 x.id 0 0 Bool (Not x)

let mk_andb x y =
  let t = probe 3 x.id y.id 0 in
  if t != vacant then t else insert 3 x.id y.id 0 Bool (Andb (x, y))

let mk_orb x y =
  let t = probe 4 x.id y.id 0 in
  if t != vacant then t else insert 4 x.id y.id 0 Bool (Orb (x, y))

let mk_cmp_node op x y =
  let c = cmpop_code op in
  let t = probe 5 c x.id y.id in
  if t != vacant then t else insert 5 c x.id y.id Bool (Cmp (op, x, y))

let mk_ite c x y =
  let t = probe 6 c.id x.id y.id in
  if t != vacant then t else insert 6 c.id x.id y.id x.sort (Ite (c, x, y))

let mk_bnot x =
  let t = probe 7 x.id 0 0 in
  if t != vacant then t else insert 7 x.id 0 0 x.sort (Bnot x)

let mk_bin op x y =
  let c = binop_code op in
  let t = probe 8 c x.id y.id in
  if t != vacant then t else insert 8 c x.id y.id x.sort (Bin (op, x, y))

let mk_extract hi lo x =
  let t = probe 9 hi lo x.id in
  if t != vacant then t
  else insert 9 hi lo x.id (Bv (hi - lo + 1)) (Extract (hi, lo, x))

let mk_concat x y =
  let t = probe 10 x.id y.id 0 in
  if t != vacant then t
  else insert 10 x.id y.id 0 (Bv (width x + width y)) (Concat (x, y))

let mk_zext w x =
  let t = probe 11 w x.id 0 in
  if t != vacant then t else insert 11 w x.id 0 (Bv w) (Zext (w, x))

let mk_sext w x =
  let t = probe 12 w x.id 0 in
  if t != vacant then t else insert 12 w x.id 0 (Bv w) (Sext (w, x))

let to_bool t =
  match t.node with Bool_const b -> Some b | _ -> None

let to_bv t =
  match t.node with Bv_const v -> Some v | _ -> None

let is_const t =
  match t.node with Bool_const _ | Bv_const _ -> true | _ -> false

let count () = if !counting then incr instructions

(* Canonical operand order for commutative operations: constants first,
   then by id.  Improves hash-consing hits and puts the constant in a
   predictable position for rewrites. *)
let commute a b =
  match a.node, b.node with
  | (Bv_const _ | Bool_const _), _ -> a, b
  | _, (Bv_const _ | Bool_const _) -> b, a
  | _ -> if a.id <= b.id then a, b else b, a

let rec not_ t =
  count ();
  match t.node with
  | Bool_const b -> bool (not b)
  | Not x -> x
  | Cmp (Ult, a, b) -> mk_cmp Ule b a
  | Cmp (Ule, a, b) -> mk_cmp Ult b a
  | Cmp (Slt, a, b) -> mk_cmp Sle b a
  | Cmp (Sle, a, b) -> mk_cmp Slt b a
  | Bv_const _ | Var _ | Andb _ | Orb _ | Cmp (Eq, _, _)
  | Ite _ | Bnot _ | Bin _ | Extract _ | Concat _ | Zext _ | Sext _ ->
    mk_not t

and mk_cmp op a b =
  (* Internal: builds a comparison without instruction accounting;
     assumes operands already checked. *)
  match a.node, b.node with
  | Bv_const x, Bv_const y ->
    let r =
      match op with
      | Eq -> Bv.equal x y
      | Ult -> Bv.ult x y
      | Ule -> Bv.ule x y
      | Slt -> Bv.slt x y
      | Sle -> Bv.sle x y
    in
    bool r
  | _ ->
    if a == b then (
      match op with
      | Eq | Ule | Sle -> tru
      | Ult | Slt -> fls)
    else
      match op with
      | Eq ->
        let a, b = commute a b in
        mk_cmp_node Eq a b
      | Ult ->
        (* x < 0 is false; x < 1 is x = 0; ones < x is false; x < ones
           simplifications kept minimal. *)
        (match b.node with
         | Bv_const v when Bv.is_zero v -> fls
         | _ ->
           (match a.node with
            | Bv_const v when Bv.is_ones v -> fls
            | Bv_const v when Bv.is_zero v ->
              (* 0 < b  <=>  b <> 0 *)
              mk_not (mk_cmp Eq b (zero (width b)))
            | _ -> mk_cmp_node Ult a b))
      | Ule ->
        (match a.node with
         | Bv_const v when Bv.is_zero v -> tru
         | _ ->
           (match b.node with
            | Bv_const v when Bv.is_ones v -> tru
            | Bv_const v when Bv.is_zero v ->
              mk_cmp Eq a (zero (width a))
            | _ -> mk_cmp_node Ule a b))
      | Slt -> mk_cmp_node Slt a b
      | Sle -> mk_cmp_node Sle a b

let check_same_width name a b =
  match a.sort, b.sort with
  | Bv wa, Bv wb when wa = wb -> ()
  | _ -> invalid_arg ("Expr." ^ name ^ ": operand sorts differ")

let and_ a b =
  count ();
  match a.node, b.node with
  | Bool_const true, _ -> b
  | _, Bool_const true -> a
  | Bool_const false, _ | _, Bool_const false -> fls
  | _ ->
    if a == b then a
    else if (match a.node with Not x -> x == b | _ -> false) then fls
    else if (match b.node with Not x -> x == a | _ -> false) then fls
    else
      let a, b = commute a b in
      mk_andb a b

let or_ a b =
  count ();
  match a.node, b.node with
  | Bool_const false, _ -> b
  | _, Bool_const false -> a
  | Bool_const true, _ | _, Bool_const true -> tru
  | _ ->
    if a == b then a
    else if (match a.node with Not x -> x == b | _ -> false) then tru
    else if (match b.node with Not x -> x == a | _ -> false) then tru
    else
      let a, b = commute a b in
      mk_orb a b

let implies a b = or_ (not_ a) b
let conj l = List.fold_left and_ tru l
let disj l = List.fold_left or_ fls l

let eq a b =
  count ();
  (match a.sort, b.sort with
   | Bool, Bool -> ()
   | Bv wa, Bv wb when wa = wb -> ()
   | _ -> invalid_arg "Expr.eq: operand sorts differ");
  match a.node, b.node with
  | Bool_const x, Bool_const y -> bool (x = y)
  | Bool_const true, _ -> b
  | _, Bool_const true -> a
  | Bool_const false, _ -> not_ b
  | _, Bool_const false -> not_ a
  | _ -> mk_cmp Eq a b

let ne a b = not_ (eq a b)
let ult a b = count (); check_same_width "ult" a b; mk_cmp Ult a b
let ule a b = count (); check_same_width "ule" a b; mk_cmp Ule a b
let ugt a b = ult b a
let uge a b = ule b a
let slt a b = count (); check_same_width "slt" a b; mk_cmp Slt a b
let sle a b = count (); check_same_width "sle" a b; mk_cmp Sle a b
let sgt a b = slt b a
let sge a b = sle b a

let ite c a b =
  count ();
  if c.sort <> Bool then invalid_arg "Expr.ite: condition must be Bool";
  if a.sort <> b.sort then invalid_arg "Expr.ite: branch sorts differ";
  match c.node with
  | Bool_const true -> a
  | Bool_const false -> b
  | _ ->
    if a == b then a
    else
      match a.node, b.node with
      | Bool_const true, Bool_const false -> c
      | Bool_const false, Bool_const true -> not_ c
      | _ -> mk_ite c a b

let bin_fold op x y =
  match op with
  | Add -> Bv.add x y
  | Sub -> Bv.sub x y
  | Mul -> Bv.mul x y
  | Udiv -> Bv.udiv x y
  | Urem -> Bv.urem x y
  | Sdiv -> Bv.sdiv x y
  | Srem -> Bv.srem x y
  | And -> Bv.logand x y
  | Or -> Bv.logor x y
  | Xor -> Bv.logxor x y
  | Shl -> Bv.shl x y
  | Lshr -> Bv.lshr x y
  | Ashr -> Bv.ashr x y

(* Folds on constant operands compute the result's bits from the
   operands' [int64]s; [mask] cuts them to the result's width where the
   operation can set higher bits.  Division and [sext] fold through
   [Bv]. *)
let[@inline] bits v = Bv.to_int64 v

let add a b =
  count ();
  check_same_width "add" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y ->
    let w = width a in
    const_bits w (mask w (Int64.add (bits x) (bits y)))
  | Bv_const x, _ when Bv.is_zero x -> b
  | _, Bv_const y when Bv.is_zero y -> a
  | Bv_const x, Bin (Add, { node = Bv_const y; _ }, z) ->
    (* c1 + (c2 + z) --> (c1+c2) + z *)
    let w = width a in
    let s = mask w (Int64.add (bits x) (bits y)) in
    let c = const_bits w s in
    if s = 0L then z else mk_bin Add c z
  | _ ->
    let a, b = commute a b in
    mk_bin Add a b

let sub a b =
  count ();
  check_same_width "sub" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y ->
    let w = width a in
    const_bits w (mask w (Int64.sub (bits x) (bits y)))
  | _, Bv_const y when Bv.is_zero y -> a
  | _ ->
    if a == b then zero (width a) else mk_bin Sub a b

let mul a b =
  count ();
  check_same_width "mul" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y ->
    let w = width a in
    const_bits w (mask w (Int64.mul (bits x) (bits y)))
  | Bv_const x, _ when Bv.is_zero x -> a
  | _, Bv_const y when Bv.is_zero y -> b
  | Bv_const x, _ when Bv.equal x (Bv.one (Bv.width x)) -> b
  | _, Bv_const y when Bv.equal y (Bv.one (Bv.width y)) -> a
  | _ ->
    let a, b = commute a b in
    mk_bin Mul a b

let div_like name op a b =
  count ();
  check_same_width name a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const (bin_fold op x y)
  | _, Bv_const y when Bv.equal y (Bv.one (Bv.width y)) && (op = Udiv || op = Sdiv) -> a
  | _ -> mk_bin op a b

let udiv a b = div_like "udiv" Udiv a b
let urem a b = div_like "urem" Urem a b
let sdiv a b = div_like "sdiv" Sdiv a b
let srem a b = div_like "srem" Srem a b

let neg a =
  count ();
  let w = width a in
  match a.node with
  | Bv_const x -> const_bits w (mask w (Int64.neg (bits x)))
  | _ -> mk_bin Sub (zero w) a

let band a b =
  count ();
  check_same_width "band" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const_bits (width a) (Int64.logand (bits x) (bits y))
  | Bv_const x, _ when Bv.is_zero x -> a
  | _, Bv_const y when Bv.is_zero y -> b
  | Bv_const x, _ when Bv.is_ones x -> b
  | _, Bv_const y when Bv.is_ones y -> a
  | _ ->
    if a == b then a
    else
      let a, b = commute a b in
      mk_bin And a b

let bor a b =
  count ();
  check_same_width "bor" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const_bits (width a) (Int64.logor (bits x) (bits y))
  | Bv_const x, _ when Bv.is_zero x -> b
  | _, Bv_const y when Bv.is_zero y -> a
  | Bv_const x, _ when Bv.is_ones x -> a
  | _, Bv_const y when Bv.is_ones y -> b
  | _ ->
    if a == b then a
    else
      let a, b = commute a b in
      mk_bin Or a b

let bxor a b =
  count ();
  check_same_width "bxor" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const_bits (width a) (Int64.logxor (bits x) (bits y))
  | Bv_const x, _ when Bv.is_zero x -> b
  | _, Bv_const y when Bv.is_zero y -> a
  | _ ->
    if a == b then zero (width a)
    else
      let a, b = commute a b in
      mk_bin Xor a b

let bnot a =
  count ();
  match a.node with
  | Bv_const x ->
    let w = width a in
    const_bits w (mask w (Int64.lognot (bits x)))
  | Bnot x -> x
  | _ -> mk_bnot a

(* An amount at or above the width shifts every bit out: [shl] and
   [lshr] give zero, [ashr] copies of the sign bit, as shifting by
   [w - 1] does. *)
let[@inline] shift_bits op w x n =
  let out = n < 0L || n >= Int64.of_int w in
  match op with
  | Shl -> if out then 0L else mask w (Int64.shift_left x (Int64.to_int n))
  | Lshr -> if out then 0L else Int64.shift_right_logical x (Int64.to_int n)
  | _ ->
    let n = if out then w - 1 else Int64.to_int n in
    mask w (Int64.shift_right (signed w x) n)

let shift name op a b =
  count ();
  check_same_width name a b;
  let w = width a in
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const_bits w (shift_bits op w (bits x) (bits y))
  | _, Bv_const y when Bv.is_zero y -> a
  | _, Bv_const y
    when (op = Shl || op = Lshr)
         && Int64.unsigned_compare (Bv.to_int64 y) (Int64.of_int w) >= 0 ->
    zero w
  | _ -> mk_bin op a b

let shl a b = shift "shl" Shl a b
let lshr a b = shift "lshr" Lshr a b
let ashr a b = shift "ashr" Ashr a b

let rec extract ~hi ~lo t =
  count ();
  let w = width t in
  if lo < 0 || hi < lo || hi >= w then invalid_arg "Expr.extract: bad range";
  if lo = 0 && hi = w - 1 then t
  else
    match t.node with
    | Bv_const v ->
      let n = hi - lo + 1 in
      const_bits n (mask n (Int64.shift_right_logical (bits v) lo))
    | Extract (_, lo', x) -> extract ~hi:(hi + lo') ~lo:(lo + lo') x
    | Zext (_, x) when hi < width x -> extract ~hi ~lo x
    | Zext (_, x) when lo >= width x -> zero (hi - lo + 1)
    | Concat (_, l) when hi < width l -> extract ~hi ~lo l
    | Concat (h, l) when lo >= width l ->
      extract ~hi:(hi - width l) ~lo:(lo - width l) h
    | _ -> mk_extract hi lo t

let concat a b =
  count ();
  let wa = width a and wb = width b in
  if wa + wb > 64 then invalid_arg "Expr.concat: combined width exceeds 64";
  match a.node, b.node with
  | Bv_const x, Bv_const y ->
    const_bits (wa + wb) (Int64.logor (Int64.shift_left (bits x) wb) (bits y))
  | Bv_const x, _ when Bv.is_zero x -> mk_zext (wa + wb) b
  | _ -> mk_concat a b

let zext target t =
  count ();
  let w = width t in
  if target < w then invalid_arg "Expr.zext: target narrower than term";
  if target = w then t
  else
    match t.node with
    | Bv_const v -> const_bits target (bits v)
    | Zext (_, x) -> mk_zext target x
    | _ -> mk_zext target t

let sext target t =
  count ();
  let w = width t in
  if target < w then invalid_arg "Expr.sext: target narrower than term";
  if target = w then t
  else
    match t.node with
    | Bv_const v -> const (Bv.sext (target - w) v)
    | _ -> mk_sext target t

(* Two variable lists in increasing [var_id], merged without
   duplicates.  The merge shares the longest common tail it can and
   returns an input itself when that input already holds every variable
   of the other, so a term that adds no variable to its children stores
   no list of its own. *)
let rec union_vars a b =
  match a, b with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
    if x.var_id = y.var_id then begin
      let r = union_vars a' b' in
      if r == a' then a else if r == b' then b else x :: r
    end
    else if x.var_id < y.var_id then begin
      let r = union_vars a' b in
      if r == a' then a else x :: r
    end
    else begin
      let r = union_vars a b' in
      if r == b' then b else y :: r
    end

let rec disjoint_vars a b =
  match a, b with
  | [], _ | _, [] -> true
  | x :: a', y :: b' ->
    if x.var_id = y.var_id then false
    else if x.var_id < y.var_id then disjoint_vars a' b
    else disjoint_vars a b'

(* Each term's variable list, memoized by id.  Terms are immutable and
   hash-consed, so the list never changes once built: the union of the
   children's lists, each itself looked up here.  Ids are dense from 0,
   so the memo is an array over them, grown on demand: at most two words
   per term, against the ten or more each term holds in the hash-cons
   table.  [unknown_vars] (physically unique) marks an id not asked for
   yet. *)
let unknown_vars = [ { var_name = ""; var_id = -1; var_width = 0 } ]
let vars_memo = ref (Array.make 1_024 unknown_vars)

let rec vars t =
  let memo = !vars_memo in
  if t.id < Array.length memo && memo.(t.id) != unknown_vars then memo.(t.id)
  else begin
    let vs =
      match t.node with
      | Var v -> [ v ]
      | Bool_const _ | Bv_const _ -> []
      | Not x | Bnot x | Extract (_, _, x) | Zext (_, x) | Sext (_, x) -> vars x
      | Andb (a, b) | Orb (a, b) | Cmp (_, a, b) | Bin (_, a, b)
      | Concat (a, b) ->
        union_vars (vars a) (vars b)
      | Ite (c, a, b) -> union_vars (vars c) (union_vars (vars a) (vars b))
    in
    let memo = !vars_memo in
    let memo =
      if t.id < Array.length memo then memo
      else begin
        let n = max (t.id + 1) (2 * Array.length memo) in
        let bigger = Array.make n unknown_vars in
        Array.blit memo 0 bigger 0 (Array.length memo);
        vars_memo := bigger;
        bigger
      end
    in
    memo.(t.id) <- vs;
    vs
  end

(* The evaluation memo: one value per term id, valid while its stamp
   is the current generation.  Each [eval] and each [eval_all] opens a
   generation, so [eval_all] evaluates a subterm shared by several
   constraints (a reassembled word, say) once.  A term's children have
   smaller ids than it, so arrays longer than the largest root id cover
   a whole evaluation; they are allocated at the first evaluation and
   replaced, not copied, when a larger root comes, since a new
   generation needs none of the old values. *)
let bv_true = Bv.of_bool true
let bv_false = Bv.of_bool false
let eval_gen = ref 0
let eval_stamps = ref [||]
let eval_values = ref [||]

let eval_open top =
  incr eval_gen;
  let n = Array.length !eval_stamps in
  if top >= n then begin
    let n = max (top + 1) (2 * n) in
    eval_stamps := Array.make n 0;
    eval_values := Array.make n bv_false
  end

let[@inline] bv_of_bool b = if b then bv_true else bv_false

let eval_in lookup gen stamps values t =
  let rec go t =
    let i = t.id in
    if stamps.(i) = gen then values.(i)
    else begin
      let v =
        match t.node with
        | Bool_const b -> bv_of_bool b
        | Bv_const v -> v
        | Var v -> lookup v
        | Not x -> bv_of_bool (Bv.is_zero (go x))
        | Andb (a, b) ->
          bv_of_bool (not (Bv.is_zero (go a)) && not (Bv.is_zero (go b)))
        | Orb (a, b) ->
          bv_of_bool (not (Bv.is_zero (go a)) || not (Bv.is_zero (go b)))
        | Cmp (op, a, b) ->
          let x = go a and y = go b in
          bv_of_bool
            (match op with
             | Eq -> Bv.equal x y
             | Ult -> Bv.ult x y
             | Ule -> Bv.ule x y
             | Slt -> Bv.slt x y
             | Sle -> Bv.sle x y)
        | Ite (c, a, b) -> if Bv.is_zero (go c) then go b else go a
        | Bnot x -> Bv.lognot (go x)
        | Bin (op, a, b) -> bin_fold op (go a) (go b)
        | Extract (hi, lo, x) -> Bv.extract ~hi ~lo (go x)
        | Concat (a, b) -> Bv.concat (go a) (go b)
        | Zext (w, x) -> let v = go x in Bv.zext (w - Bv.width v) v
        | Sext (w, x) -> let v = go x in Bv.sext (w - Bv.width v) v
      in
      stamps.(i) <- gen;
      values.(i) <- v;
      v
    end
  in
  go t

let eval lookup t =
  eval_open t.id;
  eval_in lookup !eval_gen !eval_stamps !eval_values t

let eval_bool lookup t = not (Bv.is_zero (eval lookup t))

let eval_all lookup ts =
  eval_open (List.fold_left (fun top t -> max top t.id) 0 ts);
  let gen = !eval_gen and stamps = !eval_stamps and values = !eval_values in
  List.for_all
    (fun t -> not (Bv.is_zero (eval_in lookup gen stamps values t)))
    ts

let size t =
  let seen = Hashtbl.create 64 in
  let n = ref 0 in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      incr n;
      match t.node with
      | Bool_const _ | Bv_const _ | Var _ -> ()
      | Not x | Bnot x | Extract (_, _, x) | Zext (_, x) | Sext (_, x) -> go x
      | Andb (a, b) | Orb (a, b) | Cmp (_, a, b) | Bin (_, a, b)
      | Concat (a, b) ->
        go a; go b
      | Ite (c, a, b) -> go c; go a; go b
    end
  in
  go t;
  !n

let binop_name = function
  | Add -> "bvadd" | Sub -> "bvsub" | Mul -> "bvmul"
  | Udiv -> "bvudiv" | Urem -> "bvurem" | Sdiv -> "bvsdiv" | Srem -> "bvsrem"
  | And -> "bvand" | Or -> "bvor" | Xor -> "bvxor"
  | Shl -> "bvshl" | Lshr -> "bvlshr" | Ashr -> "bvashr"

let cmpop_name = function
  | Eq -> "=" | Ult -> "bvult" | Ule -> "bvule" | Slt -> "bvslt" | Sle -> "bvsle"

let rec pp ppf t =
  match t.node with
  | Bool_const b -> Format.pp_print_bool ppf b
  | Bv_const v -> Bv.pp ppf v
  | Var v -> Format.fprintf ppf "%s!%d" v.var_name v.var_id
  | Not x -> Format.fprintf ppf "@[<hov 1>(not@ %a)@]" pp x
  | Andb (a, b) -> Format.fprintf ppf "@[<hov 1>(and@ %a@ %a)@]" pp a pp b
  | Orb (a, b) -> Format.fprintf ppf "@[<hov 1>(or@ %a@ %a)@]" pp a pp b
  | Cmp (op, a, b) ->
    Format.fprintf ppf "@[<hov 1>(%s@ %a@ %a)@]" (cmpop_name op) pp a pp b
  | Ite (c, a, b) ->
    Format.fprintf ppf "@[<hov 1>(ite@ %a@ %a@ %a)@]" pp c pp a pp b
  | Bnot x -> Format.fprintf ppf "@[<hov 1>(bvnot@ %a)@]" pp x
  | Bin (op, a, b) ->
    Format.fprintf ppf "@[<hov 1>(%s@ %a@ %a)@]" (binop_name op) pp a pp b
  | Extract (hi, lo, x) ->
    Format.fprintf ppf "@[<hov 1>((extract %d %d)@ %a)@]" hi lo pp x
  | Concat (a, b) -> Format.fprintf ppf "@[<hov 1>(concat@ %a@ %a)@]" pp a pp b
  | Zext (w, x) ->
    Format.fprintf ppf "@[<hov 1>((zext %d)@ %a)@]" (w - width x) pp x
  | Sext (w, x) ->
    Format.fprintf ppf "@[<hov 1>((sext %d)@ %a)@]" (w - width x) pp x

let to_string t = Format.asprintf "%a" pp t
