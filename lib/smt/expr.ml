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
   children exactly because children are themselves hash-consed.  The
   smart constructors probe with the key before building a node, so a
   hit allocates nothing.  Booleans and variables never enter the table:
   [tru] and [fls] are built once and every variable is fresh.  Ids
   follow first-construction order, which [commute] relies on. *)

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

(* A constant's key holds its width and all 64 value bits: the low 63
   as an int, bit 63 on its own. *)
let[@inline] low_bits v = Int64.to_int v
let[@inline] top_bit v = Int64.to_int (Int64.shift_right_logical v 63)

let[@inline] key_matches node tag a b c =
  match node with
  | Bv_const v ->
    let x = Bv.to_int64 v in
    tag = 1 && a = Bv.width v && b = low_bits x && c = top_bit x
  | Not x -> tag = 2 && a = x.id
  | Andb (x, y) -> tag = 3 && a = x.id && b = y.id
  | Orb (x, y) -> tag = 4 && a = x.id && b = y.id
  | Cmp (op, x, y) -> tag = 5 && a = cmpop_code op && b = x.id && c = y.id
  | Ite (x, y, z) -> tag = 6 && a = x.id && b = y.id && c = z.id
  | Bnot x -> tag = 7 && a = x.id
  | Bin (op, x, y) -> tag = 8 && a = binop_code op && b = x.id && c = y.id
  | Extract (hi, lo, x) -> tag = 9 && a = hi && b = lo && c = x.id
  | Concat (x, y) -> tag = 10 && a = x.id && b = y.id
  | Zext (w, x) -> tag = 11 && a = w && b = x.id
  | Sext (w, x) -> tag = 12 && a = w && b = x.id
  | Bool_const _ | Var _ -> false

let node_hash = function
  | Bv_const v ->
    let x = Bv.to_int64 v in
    key_hash 1 (Bv.width v) (low_bits x) (top_bit x)
  | Not x -> key_hash 2 x.id 0 0
  | Andb (x, y) -> key_hash 3 x.id y.id 0
  | Orb (x, y) -> key_hash 4 x.id y.id 0
  | Cmp (op, x, y) -> key_hash 5 (cmpop_code op) x.id y.id
  | Ite (x, y, z) -> key_hash 6 x.id y.id z.id
  | Bnot x -> key_hash 7 x.id 0 0
  | Bin (op, x, y) -> key_hash 8 (binop_code op) x.id y.id
  | Extract (hi, lo, x) -> key_hash 9 hi lo x.id
  | Concat (x, y) -> key_hash 10 x.id y.id 0
  | Zext (w, x) -> key_hash 11 w x.id 0
  | Sext (w, x) -> key_hash 12 w x.id 0
  | Bool_const _ | Var _ -> invalid_arg "Expr.node_hash: not hash-consed"

let next_id = ref 0

let fresh sort node =
  let t = { id = !next_id; sort; node } in
  incr next_id;
  t

(* The empty-slot marker; never returned by a constructor. *)
let vacant = { id = -1; sort = Bool; node = Bool_const false }
let slots = ref (Array.make 65_536 vacant)
let occupied = ref 0

(* Where the last missed [probe] stopped; [insert] fills it. *)
let hole = ref 0

let rec probe_from s i tag a b c =
  let t = s.(i) in
  if t == vacant then begin
    hole := i;
    vacant
  end
  else if key_matches t.node tag a b c then t
  else probe_from s ((i + 1) land (Array.length s - 1)) tag a b c

(* The resident term with this key, or [vacant]. *)
let[@inline] probe tag a b c =
  let s = !slots in
  probe_from s (key_hash tag a b c land (Array.length s - 1)) tag a b c

let grow () =
  let s = Array.make (2 * Array.length !slots) vacant in
  let mask = Array.length s - 1 in
  Array.iter
    (fun t ->
       if t != vacant then begin
         let i = ref (node_hash t.node land mask) in
         while s.(!i) != vacant do i := (!i + 1) land mask done;
         s.(!i) <- t
       end)
    !slots;
  slots := s

(* Only valid right after a [probe] that returned [vacant]. *)
let insert sort node =
  let t = fresh sort node in
  !slots.(!hole) <- t;
  incr occupied;
  if 2 * !occupied > Array.length !slots then grow ();
  t

let instructions = ref 0

let instruction_count () = !instructions
let reset_instruction_count () = instructions := 0
let add_instructions n = instructions := !instructions + n

(* Term construction performed by the solving machinery (feasibility
   probes, negated query sides, scope mirroring) must not count as DUV
   instructions: whether those probes run depends on the exploration
   mode (live fork vs prescribed replay vs snapshot fast-forward), and
   instruction totals are required to be identical across modes. *)
let counting = ref true

let without_counting f =
  if not !counting then f ()
  else begin
    counting := false;
    Fun.protect ~finally:(fun () -> counting := true) f
  end

let tru = fresh Bool (Bool_const true)
let fls = fresh Bool (Bool_const false)
let bool b = if b then tru else fls

let const v =
  let w = Bv.width v and x = Bv.to_int64 v in
  let t = probe 1 w (low_bits x) (top_bit x) in
  if t != vacant then t else insert (Bv w) (Bv_const v)

let int ~width v = const (Bv.of_int ~width v)

let next_var_id = ref 0

let fresh_var name w =
  let v = { var_name = name; var_id = !next_var_id; var_width = w } in
  incr next_var_id;
  fresh (Bv w) (Var v)

(* One hash-consing constructor per node shape; each probes before it
   builds the node. *)

let mk_not x =
  let t = probe 2 x.id 0 0 in
  if t != vacant then t else insert Bool (Not x)

let mk_andb x y =
  let t = probe 3 x.id y.id 0 in
  if t != vacant then t else insert Bool (Andb (x, y))

let mk_orb x y =
  let t = probe 4 x.id y.id 0 in
  if t != vacant then t else insert Bool (Orb (x, y))

let mk_cmp_node op x y =
  let t = probe 5 (cmpop_code op) x.id y.id in
  if t != vacant then t else insert Bool (Cmp (op, x, y))

let mk_ite c x y =
  let t = probe 6 c.id x.id y.id in
  if t != vacant then t else insert x.sort (Ite (c, x, y))

let mk_bnot x =
  let t = probe 7 x.id 0 0 in
  if t != vacant then t else insert x.sort (Bnot x)

let mk_bin op x y =
  let t = probe 8 (binop_code op) x.id y.id in
  if t != vacant then t else insert x.sort (Bin (op, x, y))

let mk_extract hi lo x =
  let t = probe 9 hi lo x.id in
  if t != vacant then t else insert (Bv (hi - lo + 1)) (Extract (hi, lo, x))

let mk_concat x y =
  let t = probe 10 x.id y.id 0 in
  if t != vacant then t else insert (Bv (width x + width y)) (Concat (x, y))

let mk_zext w x =
  let t = probe 11 w x.id 0 in
  if t != vacant then t else insert (Bv w) (Zext (w, x))

let mk_sext w x =
  let t = probe 12 w x.id 0 in
  if t != vacant then t else insert (Bv w) (Sext (w, x))

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
              mk_not (mk_cmp Eq b (const (Bv.zero (width b))))
            | _ -> mk_cmp_node Ult a b))
      | Ule ->
        (match a.node with
         | Bv_const v when Bv.is_zero v -> tru
         | _ ->
           (match b.node with
            | Bv_const v when Bv.is_ones v -> tru
            | Bv_const v when Bv.is_zero v ->
              mk_cmp Eq a (const (Bv.zero (width a)))
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

let add a b =
  count ();
  check_same_width "add" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const (Bv.add x y)
  | Bv_const x, _ when Bv.is_zero x -> b
  | _, Bv_const y when Bv.is_zero y -> a
  | Bv_const x, Bin (Add, { node = Bv_const y; _ }, z) ->
    (* c1 + (c2 + z) --> (c1+c2) + z *)
    let c = const (Bv.add x y) in
    if Bv.is_zero (Bv.add x y) then z else mk_bin Add c z
  | _ ->
    let a, b = commute a b in
    mk_bin Add a b

let sub a b =
  count ();
  check_same_width "sub" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const (Bv.sub x y)
  | _, Bv_const y when Bv.is_zero y -> a
  | _ ->
    if a == b then const (Bv.zero (width a)) else mk_bin Sub a b

let mul a b =
  count ();
  check_same_width "mul" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const (Bv.mul x y)
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
  match a.node with
  | Bv_const x -> const (Bv.neg x)
  | _ -> mk_bin Sub (const (Bv.zero (width a))) a

let band a b =
  count ();
  check_same_width "band" a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const (Bv.logand x y)
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
  | Bv_const x, Bv_const y -> const (Bv.logor x y)
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
  | Bv_const x, Bv_const y -> const (Bv.logxor x y)
  | Bv_const x, _ when Bv.is_zero x -> b
  | _, Bv_const y when Bv.is_zero y -> a
  | _ ->
    if a == b then const (Bv.zero (width a))
    else
      let a, b = commute a b in
      mk_bin Xor a b

let bnot a =
  count ();
  match a.node with
  | Bv_const x -> const (Bv.lognot x)
  | Bnot x -> x
  | _ -> mk_bnot a

let shift name op a b =
  count ();
  check_same_width name a b;
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const (bin_fold op x y)
  | _, Bv_const y when Bv.is_zero y -> a
  | _, Bv_const y
    when (op = Shl || op = Lshr)
         && Int64.unsigned_compare (Bv.to_int64 y) (Int64.of_int (width a)) >= 0 ->
    const (Bv.zero (width a))
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
    | Bv_const v -> const (Bv.extract ~hi ~lo v)
    | Extract (_, lo', x) -> extract ~hi:(hi + lo') ~lo:(lo + lo') x
    | Zext (_, x) when hi < width x -> extract ~hi ~lo x
    | Zext (_, x) when lo >= width x ->
      const (Bv.zero (hi - lo + 1))
    | Concat (_, l) when hi < width l -> extract ~hi ~lo l
    | Concat (h, l) when lo >= width l ->
      extract ~hi:(hi - width l) ~lo:(lo - width l) h
    | _ -> mk_extract hi lo t

let concat a b =
  count ();
  let wa = width a and wb = width b in
  if wa + wb > 64 then invalid_arg "Expr.concat: combined width exceeds 64";
  match a.node, b.node with
  | Bv_const x, Bv_const y -> const (Bv.concat x y)
  | Bv_const x, _ when Bv.is_zero x -> mk_zext (wa + wb) b
  | _ -> mk_concat a b

let zext target t =
  count ();
  let w = width t in
  if target < w then invalid_arg "Expr.zext: target narrower than term";
  if target = w then t
  else
    match t.node with
    | Bv_const v -> const (Bv.zext (target - w) v)
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

let vars t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      match t.node with
      | Var v -> acc := v :: !acc
      | Bool_const _ | Bv_const _ -> ()
      | Not x | Bnot x | Extract (_, _, x) | Zext (_, x) | Sext (_, x) -> go x
      | Andb (a, b) | Orb (a, b) | Cmp (_, a, b) | Bin (_, a, b)
      | Concat (a, b) ->
        go a; go b
      | Ite (c, a, b) -> go c; go a; go b
    end
  in
  go t;
  List.sort (fun a b -> Int.compare a.var_id b.var_id) !acc

let eval_memo lookup t =
  let memo : (int, Bv.t) Hashtbl.t = Hashtbl.create 64 in
  let bv_of_bool b = Bv.of_bool b in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some v -> v
    | None ->
      let v =
        match t.node with
        | Bool_const b -> bv_of_bool b
        | Bv_const v -> v
        | Var v -> lookup v
        | Not x -> bv_of_bool (Bv.is_zero (go x))
        | Andb (a, b) -> bv_of_bool (not (Bv.is_zero (go a)) && not (Bv.is_zero (go b)))
        | Orb (a, b) -> bv_of_bool (not (Bv.is_zero (go a)) || not (Bv.is_zero (go b)))
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
      Hashtbl.add memo t.id v;
      v
  in
  go t

let eval lookup t = eval_memo lookup t
let eval_bool lookup t = not (Bv.is_zero (eval_memo lookup t))

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
