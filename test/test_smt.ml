(* Unit and property tests for the SMT substrate: bitvectors, terms,
   intervals, the SAT solver and the solver pipeline. *)

module Bv = Smt.Bv
module Expr = Smt.Expr
module Interval = Smt.Interval
module Sat = Smt.Sat
module Bitblast = Smt.Bitblast
module Solver = Smt.Solver
module Model = Smt.Model

let bv w v = Bv.make ~width:w v
let check_bv msg expected actual =
  Alcotest.(check string) msg (Bv.to_string expected) (Bv.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bv unit tests                                                       *)

let test_bv_make_masks () =
  check_bv "truncated to width" (bv 8 0x34L) (bv 8 0x1234L);
  Alcotest.(check int) "width" 8 (Bv.width (bv 8 0xFFL));
  Alcotest.(check int64) "value" 0xFFL (Bv.to_int64 (Bv.ones 8))

let test_bv_signed () =
  Alcotest.(check int64) "sign extend" (-1L) (Bv.to_signed_int64 (Bv.ones 8));
  Alcotest.(check int64) "positive" 0x7FL (Bv.to_signed_int64 (bv 8 0x7FL));
  Alcotest.(check int64) "64-bit identity" (-1L) (Bv.to_signed_int64 (Bv.ones 64))

let test_bv_wrap_arithmetic () =
  check_bv "add wraps" (bv 8 1L) (Bv.add (bv 8 0xFFL) (bv 8 2L));
  check_bv "sub wraps" (bv 8 0xFFL) (Bv.sub (bv 8 1L) (bv 8 2L));
  check_bv "mul wraps" (bv 8 0xB5L) (Bv.mul (bv 8 0x15L) (bv 8 0x21L));
  check_bv "neg" (bv 8 0xFFL) (Bv.neg (bv 8 1L))

let test_bv_div_conventions () =
  (* SMT-LIB: x udiv 0 = ones, x urem 0 = x. *)
  check_bv "udiv by zero" (Bv.ones 8) (Bv.udiv (bv 8 7L) (Bv.zero 8));
  check_bv "urem by zero" (bv 8 7L) (Bv.urem (bv 8 7L) (Bv.zero 8));
  check_bv "udiv" (bv 8 3L) (Bv.udiv (bv 8 13L) (bv 8 4L));
  check_bv "urem" (bv 8 1L) (Bv.urem (bv 8 13L) (bv 8 4L));
  (* Signed: -7 / 2 = -3 (truncating), -7 rem 2 = -1. *)
  check_bv "sdiv trunc" (bv 8 0xFDL) (Bv.sdiv (bv 8 0xF9L) (bv 8 2L));
  check_bv "srem sign" (bv 8 0xFFL) (Bv.srem (bv 8 0xF9L) (bv 8 2L));
  (* min_int / -1 wraps to min_int; rem 0. *)
  check_bv "sdiv overflow" (bv 8 0x80L) (Bv.sdiv (bv 8 0x80L) (bv 8 0xFFL));
  check_bv "srem overflow" (Bv.zero 8) (Bv.srem (bv 8 0x80L) (bv 8 0xFFL));
  check_bv "sdiv by zero, positive" (Bv.ones 8) (Bv.sdiv (bv 8 7L) (Bv.zero 8));
  check_bv "sdiv by zero, negative" (Bv.one 8) (Bv.sdiv (bv 8 0xF9L) (Bv.zero 8))

let test_bv_shifts () =
  check_bv "shl" (bv 8 0xF0L) (Bv.shl (bv 8 0x0FL) (bv 8 4L));
  check_bv "shl overflow" (Bv.zero 8) (Bv.shl (bv 8 0xFFL) (bv 8 8L));
  check_bv "lshr" (bv 8 0x0FL) (Bv.lshr (bv 8 0xF0L) (bv 8 4L));
  check_bv "ashr negative" (Bv.ones 8) (Bv.ashr (bv 8 0x80L) (bv 8 7L));
  check_bv "ashr saturates" (Bv.ones 8) (Bv.ashr (bv 8 0x80L) (bv 8 100L));
  check_bv "lshr saturates" (Bv.zero 8) (Bv.lshr (bv 8 0xFFL) (bv 8 100L))

let test_bv_structure () =
  check_bv "extract" (bv 4 0xAL) (Bv.extract ~hi:7 ~lo:4 (bv 8 0xA5L));
  check_bv "concat" (bv 16 0xA5B6L) (Bv.concat (bv 8 0xA5L) (bv 8 0xB6L));
  check_bv "zext" (bv 16 0xFFL) (Bv.zext 8 (Bv.ones 8));
  check_bv "sext" (bv 16 0xFFFFL) (Bv.sext 8 (Bv.ones 8));
  Alcotest.(check bool) "bit set" true (Bv.bit (bv 8 0x10L) 4);
  Alcotest.(check bool) "bit clear" false (Bv.bit (bv 8 0x10L) 3)

let test_bv_compare () =
  Alcotest.(check bool) "ult unsigned" true (Bv.ult (bv 8 1L) (bv 8 0xFFL));
  Alcotest.(check bool) "slt signed" true (Bv.slt (bv 8 0xFFL) (bv 8 1L));
  Alcotest.(check bool) "ule refl" true (Bv.ule (bv 8 9L) (bv 8 9L));
  Alcotest.(check bool) "sle" true (Bv.sle (bv 8 0x80L) (bv 8 0x7FL))

let test_bv_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bv: width must be in 1..64")
    (fun () -> ignore (Bv.zero 0));
  Alcotest.check_raises "width 65" (Invalid_argument "Bv: width must be in 1..64")
    (fun () -> ignore (Bv.zero 65));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bv.add: width mismatch (8 vs 16)") (fun () ->
        ignore (Bv.add (Bv.zero 8) (Bv.zero 16)))

(* ------------------------------------------------------------------ *)
(* Bv properties                                                       *)

let arb_bv w =
  QCheck.map
    (fun v -> Bv.make ~width:w (Int64.of_int v))
    QCheck.(int_bound 0xFFFF)

let prop name ?(count = 300) arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let bv_props =
  let w = 13 in
  [
    prop "add commutative" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.equal (Bv.add a b) (Bv.add b a));
    prop "add associative"
      (QCheck.triple (arb_bv w) (arb_bv w) (arb_bv w))
      (fun (a, b, c) ->
         Bv.equal (Bv.add (Bv.add a b) c) (Bv.add a (Bv.add b c)));
    prop "sub is add neg" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.equal (Bv.sub a b) (Bv.add a (Bv.neg b)));
    prop "udiv/urem reconstruct" (QCheck.pair (arb_bv w) (arb_bv w))
      (fun (a, b) ->
         QCheck.assume (not (Bv.is_zero b));
         Bv.equal a (Bv.add (Bv.mul (Bv.udiv a b) b) (Bv.urem a b)));
    prop "concat/extract roundtrip" (QCheck.pair (arb_bv w) (arb_bv w))
      (fun (a, b) ->
         let c = Bv.concat a b in
         Bv.equal a (Bv.extract ~hi:(2 * w - 1) ~lo:w c)
         && Bv.equal b (Bv.extract ~hi:(w - 1) ~lo:0 c));
    prop "lognot involutive" (arb_bv w) (fun a ->
        Bv.equal a (Bv.lognot (Bv.lognot a)));
    prop "de morgan" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.equal
          (Bv.lognot (Bv.logand a b))
          (Bv.logor (Bv.lognot a) (Bv.lognot b)));
    prop "ult total" (QCheck.pair (arb_bv w) (arb_bv w)) (fun (a, b) ->
        Bv.ult a b || Bv.ult b a || Bv.equal a b);
    prop "sext preserves signed value" (arb_bv w) (fun a ->
        Int64.equal (Bv.to_signed_int64 a) (Bv.to_signed_int64 (Bv.sext 7 a)));
  ]

(* ------------------------------------------------------------------ *)
(* Expr: smart constructors and evaluation                             *)

let e_int v = Expr.int ~width:32 v

let test_expr_hash_consing () =
  let x = Expr.fresh_var "x" 32 in
  let a = Expr.add x (e_int 5) in
  let b = Expr.add x (e_int 5) in
  Alcotest.(check bool) "physically equal" true (Expr.equal a b);
  let c = Expr.add (e_int 5) x in
  Alcotest.(check bool) "commuted shares" true (Expr.equal a c)

let test_expr_folding () =
  Alcotest.(check bool) "const add" true
    (Expr.equal (Expr.add (e_int 2) (e_int 3)) (e_int 5));
  let x = Expr.fresh_var "x" 32 in
  Alcotest.(check bool) "x+0 = x" true (Expr.equal (Expr.add x (e_int 0)) x);
  Alcotest.(check bool) "x*1 = x" true (Expr.equal (Expr.mul x (e_int 1)) x);
  Alcotest.(check bool) "x*0 = 0" true
    (Expr.equal (Expr.mul x (e_int 0)) (e_int 0));
  Alcotest.(check bool) "x-x = 0" true
    (Expr.equal (Expr.sub x x) (e_int 0));
  Alcotest.(check bool) "x&x = x" true (Expr.equal (Expr.band x x) x);
  Alcotest.(check bool) "x^x = 0" true
    (Expr.equal (Expr.bxor x x) (e_int 0));
  Alcotest.(check bool) "eq refl" true (Expr.equal (Expr.eq x x) Expr.tru);
  Alcotest.(check bool) "x < x false" true (Expr.equal (Expr.ult x x) Expr.fls);
  Alcotest.(check bool) "x <= ones" true
    (Expr.equal (Expr.ule x (e_int (-1))) Expr.tru);
  Alcotest.(check bool) "not not" true (Expr.equal (Expr.not_ (Expr.not_ (Expr.eq x (e_int 1)))) (Expr.eq x (e_int 1)));
  Alcotest.(check bool) "ite same" true (Expr.equal (Expr.ite (Expr.eq x x) x x) x);
  Alcotest.(check bool) "zext id" true (Expr.equal (Expr.zext 32 x) x)

let test_expr_extract_rewrites () =
  let x = Expr.fresh_var "x" 32 in
  let ext = Expr.extract ~hi:15 ~lo:8 (Expr.extract ~hi:23 ~lo:0 x) in
  Alcotest.(check bool) "nested extract" true
    (Expr.equal ext (Expr.extract ~hi:15 ~lo:8 x));
  let z = Expr.zext 64 x in
  Alcotest.(check bool) "extract of zext low part" true
    (Expr.equal (Expr.extract ~hi:7 ~lo:0 z) (Expr.extract ~hi:7 ~lo:0 x));
  Alcotest.(check bool) "extract of zext high part is zero" true
    (Expr.equal (Expr.extract ~hi:63 ~lo:32 z) (Expr.int ~width:32 0))

let test_expr_vars () =
  let x = Expr.fresh_var "x" 8 and y = Expr.fresh_var "y" 8 in
  let e = Expr.add (Expr.mul x y) x in
  let names = List.map (fun (v : Expr.var) -> v.Expr.var_name) (Expr.vars e) in
  Alcotest.(check (list string)) "distinct vars in order" [ "x"; "y" ] names

let test_expr_eval () =
  let x = Expr.fresh_var "x" 8 in
  let lookup _ = Bv.make ~width:8 10L in
  let e = Expr.add (Expr.mul x x) (Expr.int ~width:8 1) in
  check_bv "eval 10*10+1 mod 256" (bv 8 101L) (Expr.eval lookup e);
  Alcotest.(check bool) "eval_bool" true
    (Expr.eval_bool lookup (Expr.ult x (Expr.int ~width:8 11)))

(* Random expression ASTs: build both a semantic closure and a term, and
   compare under random assignments — the simplifier must be sound. *)
type ast =
  | Leaf of int (* var index *)
  | Const of int64
  | Node of int * ast * ast

let rec gen_ast depth st =
  if depth = 0 || Random.State.int st 3 = 0 then
    if Random.State.bool st then Leaf (Random.State.int st 3)
    else Const (Random.State.int64 st 256L)
  else
    Node
      ( Random.State.int st 9,
        gen_ast (depth - 1) st,
        gen_ast (depth - 1) st )

let ops =
  [|
    (Expr.add, Bv.add); (Expr.sub, Bv.sub); (Expr.mul, Bv.mul);
    (Expr.band, Bv.logand); (Expr.bor, Bv.logor); (Expr.bxor, Bv.logxor);
    (Expr.shl, Bv.shl); (Expr.lshr, Bv.lshr); (Expr.ashr, Bv.ashr);
  |]

let rec ast_to_expr vars = function
  | Leaf i -> vars.(i)
  | Const v -> Expr.const (Bv.make ~width:8 v)
  | Node (op, a, b) ->
    (fst ops.(op)) (ast_to_expr vars a) (ast_to_expr vars b)

let rec ast_eval env = function
  | Leaf i -> env.(i)
  | Const v -> Bv.make ~width:8 v
  | Node (op, a, b) -> (snd ops.(op)) (ast_eval env a) (ast_eval env b)

(* [Expr.vars] against a walk of the whole DAG.  Every case draws its
   variables from one pool, so a case meets subterms, built by earlier
   cases, whose lists are already memoized.  The merged list of all
   terms ([Slice.vars]) and the disjointness test are checked too. *)
let vars_pool = Array.init 6 (fun i -> Expr.fresh_var (Printf.sprintf "mv%d" i) 8)

let reference_vars t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go (t : Expr.t) =
    if not (Hashtbl.mem seen t.Expr.id) then begin
      Hashtbl.add seen t.Expr.id ();
      match t.Expr.node with
      | Expr.Var v -> acc := v :: !acc
      | Expr.Bool_const _ | Expr.Bv_const _ -> ()
      | Expr.Not x | Expr.Bnot x | Expr.Extract (_, _, x) | Expr.Zext (_, x)
      | Expr.Sext (_, x) ->
        go x
      | Expr.Andb (a, b) | Expr.Orb (a, b) | Expr.Cmp (_, a, b)
      | Expr.Bin (_, a, b) | Expr.Concat (a, b) ->
        go a;
        go b
      | Expr.Ite (c, a, b) ->
        go c;
        go a;
        go b
    end
  in
  go t;
  List.sort_uniq
    (fun (a : Expr.var) b -> Int.compare a.Expr.var_id b.Expr.var_id)
    !acc

let prop_vars_memo_equals_walk =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"expr: memoized vars equal a DAG walk"
       (QCheck.make
          QCheck.Gen.(
            triple (array_repeat 3 (int_bound 5)) (gen_ast 3) (gen_ast 3)))
       (fun (pick, a, b) ->
          let vs = Array.map (fun i -> vars_pool.(i)) pick in
          let a = ast_to_expr vs a and b = ast_to_expr vs b in
          let terms =
            [ a; b; Expr.ult a b;
              Expr.zext 16
                (Expr.ite (Expr.eq a b)
                   (Expr.concat (Expr.extract ~hi:3 ~lo:0 a)
                      (Expr.extract ~hi:7 ~lo:4 b))
                   (Expr.bnot a));
              Expr.or_ (Expr.not_ (Expr.ule a b))
                (Expr.and_ (Expr.slt a b) (Expr.ne b a)) ]
          in
          let bools = List.filter Expr.is_bool terms in
          let all =
            List.sort_uniq
              (fun (v : Expr.var) w -> Int.compare v.Expr.var_id w.Expr.var_id)
              (List.concat_map reference_vars bools)
          in
          let ids t =
            List.map (fun (v : Expr.var) -> v.Expr.var_id) (reference_vars t)
          in
          List.for_all (fun t -> Expr.vars t = reference_vars t) terms
          && Smt.Slice.vars bools = all
          && Expr.disjoint_vars (Expr.vars a) (Expr.vars b)
             = not (List.exists (fun i -> List.mem i (ids b)) (ids a))))

let test_simplifier_soundness () =
  let st = Random.State.make [| 7 |] in
  let vars = Array.init 3 (fun i -> Expr.fresh_var (Printf.sprintf "v%d" i) 8) in
  for _ = 1 to 500 do
    let ast = gen_ast 4 st in
    let term = ast_to_expr vars ast in
    let env = Array.init 3 (fun _ -> Bv.make ~width:8 (Random.State.int64 st 256L)) in
    let lookup (v : Expr.var) =
      (* var names are v0..v2 *)
      env.(int_of_string (String.sub v.Expr.var_name 1 1))
    in
    let expected = ast_eval env ast in
    let actual = Expr.eval lookup term in
    if not (Bv.equal expected actual) then
      Alcotest.failf "simplifier unsound on %s: %s <> %s"
        (Expr.to_string term) (Bv.to_string expected) (Bv.to_string actual)
  done

(* Hash-consing across table growth.  Random scripts over one fresh
   width-40 variable and width-40 constants run after [prefill] has
   added 100,000 distinct constants, which doubles the table (4,096
   slots at start, grown at half load) five or six times, so lookups
   cross entries rehashed from their stored keys.  Between them the
   steps build every node shape the table holds, and [prefill] checks
   that 50 such scripts built before the growth find all their terms
   after it. *)

type hc_step =
  | Var_leaf
  | Const_leaf of int
  | Add of int * int
  | Xor of int * int
  | Slice of int * int * int  (** [zext 40 (extract ~hi ~lo operand)] *)
  | Ite of int * int * int  (** [ite (ult a b) b c] *)
  | Not of int
  | Binop of int * int * int  (** [hc_binops.(k) a b] *)
  | Glue of int * int * int
      (** [concat] of the low [k] bits of [a] and the low [40 - k] of [b] *)
  | Widen of int * int  (** [sext 40] of the low [k + 1] bits of [a] *)
  | Test of int * int * int * int
      (** [ite] of two [hc_cmps.(k mod 5)] comparisons joined by
          [hc_joins.(k / 5)], over [a], [b], [c] *)

let hc_width = 40

let hc_binops =
  Expr.[| add; sub; mul; udiv; urem; sdiv; srem; band; bor; bxor; shl; lshr;
          ashr |]

let hc_cmps = Expr.[| eq; ult; ule; slt; sle |]

(* The joins that negate build [Not] nodes: [not_] of an equality stays
   a [Not], while [not_] of an order flips the comparison. *)
let hc_joins =
  Expr.[| and_; or_; (fun p q -> and_ (not_ p) q); (fun p q -> or_ p (not_ q)) |]

(* A fresh variable takes the next id without entering the table, so
   its id marks how many ids were handed out before it. *)
let next_id () = (Expr.fresh_var "mark" 1).Expr.id

let string_of_hc_step = function
  | Var_leaf -> "x"
  | Const_leaf v -> string_of_int v
  | Add (a, b) -> Printf.sprintf "add %d %d" a b
  | Xor (a, b) -> Printf.sprintf "xor %d %d" a b
  | Slice (a, hi, lo) -> Printf.sprintf "slice %d %d %d" a hi lo
  | Ite (a, b, c) -> Printf.sprintf "ite %d %d %d" a b c
  | Not a -> Printf.sprintf "not %d" a
  | Binop (k, a, b) -> Printf.sprintf "binop %d %d %d" k a b
  | Glue (k, a, b) -> Printf.sprintf "glue %d %d %d" k a b
  | Widen (k, a) -> Printf.sprintf "widen %d %d" k a
  | Test (k, a, b, c) -> Printf.sprintf "test %d %d %d %d" k a b c

let arb_hc_script =
  let open QCheck in
  let idx = Gen.int_bound 63 and bit = Gen.int_bound (hc_width - 1) in
  let wide =
    Gen.map2 (fun hi lo -> (hi lsl 20) lor lo) (Gen.int_bound 0xFFFFF)
      (Gen.int_bound 0xFFFFF)
  in
  let step =
    Gen.frequency
      [ (1, Gen.return Var_leaf);
        (3, Gen.map (fun v -> Const_leaf v) (Gen.int_bound 150_000));
        (1, Gen.map (fun v -> Const_leaf v) wide);
        (2, Gen.map2 (fun a b -> Add (a, b)) idx idx);
        (2, Gen.map2 (fun a b -> Xor (a, b)) idx idx);
        (2, Gen.map3 (fun a hi lo -> Slice (a, hi, lo)) idx bit bit);
        (1, Gen.map3 (fun a b c -> Ite (a, b, c)) idx idx idx);
        (1, Gen.map (fun a -> Not a) idx);
        (2, Gen.map3 (fun k a b -> Binop (k, a, b))
              (Gen.int_bound (Array.length hc_binops - 1)) idx idx);
        (1, Gen.map3 (fun k a b -> Glue (k, a, b))
              (Gen.int_range 1 (hc_width - 1)) idx idx);
        (1, Gen.map2 (fun k a -> Widen (k, a)) (Gen.int_bound (hc_width - 2)) idx);
        (2, Gen.map4 (fun k a b c -> Test (k, a, b, c))
              (Gen.int_bound ((5 * Array.length hc_joins) - 1)) idx idx idx) ]
  in
  make
    ~print:(fun steps -> String.concat "; " (List.map string_of_hc_step steps))
    Gen.(list_size (int_range 1 30) step)

(* Term [i + 1] is step [i]'s, whose operands are among the terms
   before it; term 0 is [x].  [after i] runs after step [i]. *)
let run_hc_script ?(after = ignore) x steps =
  let r = Array.make (List.length steps + 1) x in
  List.iteri
    (fun i step ->
       let arg j = r.(j mod (i + 1)) in
       r.(i + 1) <-
         (match step with
          | Var_leaf -> x
          | Const_leaf v -> Expr.int ~width:hc_width v
          | Add (a, b) -> Expr.add (arg a) (arg b)
          | Xor (a, b) -> Expr.bxor (arg a) (arg b)
          | Slice (a, hi, lo) ->
            Expr.zext hc_width
              (Expr.extract ~hi:(max hi lo) ~lo:(min hi lo) (arg a))
          | Ite (a, b, c) -> Expr.ite (Expr.ult (arg a) (arg b)) (arg b) (arg c)
          | Not a -> Expr.bnot (arg a)
          | Binop (k, a, b) -> hc_binops.(k) (arg a) (arg b)
          | Glue (k, a, b) ->
            Expr.concat
              (Expr.extract ~hi:(k - 1) ~lo:0 (arg a))
              (Expr.extract ~hi:(hc_width - k - 1) ~lo:0 (arg b))
          | Widen (k, a) -> Expr.sext hc_width (Expr.extract ~hi:k ~lo:0 (arg a))
          | Test (k, a, b, c) ->
            let cmp = hc_cmps.(k mod 5) in
            Expr.ite
              (hc_joins.(k / 5) (cmp (arg a) (arg b)) (cmp (arg b) (arg c)))
              (arg a) (arg c));
       after i)
    steps;
  r

(* The constants 0..99,999; whether those it built have ids in
   construction order; and whether 50 scripts run before it rebuild the
   same terms after it without a new id. *)
let prefill =
  lazy
    (let x = Expr.fresh_var "x" hc_width in
     let scripts =
       QCheck.Gen.generate ~rand:(Random.State.make [| 5 |]) ~n:50
         (QCheck.gen arb_hc_script)
     in
     let before = List.map (run_hc_script x) scripts in
     let start = next_id () in
     let consts = Array.init 100_000 (fun v -> Expr.int ~width:hc_width v) in
     let last = ref start and ordered = ref true in
     Array.iter
       (fun t ->
          if t.Expr.id > start then begin
            ordered := !ordered && t.Expr.id > !last;
            last := t.Expr.id
          end)
       consts;
     let mark = next_id () in
     let after = List.map (run_hc_script x) scripts in
     let survived =
       List.for_all2 (Array.for_all2 ( == )) before after && next_id () = mark + 1
     in
     (consts, !ordered && survived))

let rec bit_length v = if v = 0 then 0 else 1 + bit_length (v lsr 1)

(* Every way of reaching the width-40 constant [v]: directly, from a
   fresh [Bv.t], and by folding through add, extract and zext. *)
let constant_routes v =
  let w = hc_width and consts, _ = Lazy.force prefill in
  [ Expr.int ~width:w v;
    Expr.const (Bv.of_int ~width:w v);
    Expr.add (Expr.int ~width:w (v / 3)) (Expr.int ~width:w (v - (v / 3)));
    Expr.extract ~hi:(w - 1) ~lo:0 (Expr.int ~width:(w + 8) (v lor (0xA5 lsl w)));
    Expr.zext w (Expr.int ~width:(max 1 (bit_length v)) v) ]
  @ if v < Array.length consts then [ consts.(v) ] else []

let children t =
  match t.Expr.node with
  | Expr.Bool_const _ | Expr.Bv_const _ | Expr.Var _ -> []
  | Expr.Not x | Expr.Bnot x | Expr.Extract (_, _, x) | Expr.Zext (_, x)
  | Expr.Sext (_, x) ->
    [ x ]
  | Expr.Andb (a, b) | Expr.Orb (a, b) | Expr.Cmp (_, a, b)
  | Expr.Bin (_, a, b) | Expr.Concat (a, b) ->
    [ a; b ]
  | Expr.Ite (c, a, b) -> [ c; a; b ]

(* A term's id exceeds its children's, all the way down. *)
let rec built_after_children t =
  List.for_all
    (fun c -> c.Expr.id < t.Expr.id && built_after_children c)
    (children t)

let prop_hash_consing_contract =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"expr: hash-consing contract across table growth" arb_hc_script
       (fun steps ->
          let _, prefill_ordered = Lazy.force prefill in
          let x = Expr.fresh_var "x" hc_width in
          let marks = Array.make (List.length steps) 0 in
          let first =
            run_hc_script ~after:(fun i -> marks.(i) <- next_id ()) x steps
          in
          (* Ids follow construction order: a step's term was built
             before the mark taken after the step, and after its
             children. *)
          let ordered =
            List.for_all
              (fun i ->
                 let t = first.(i + 1) in
                 t.Expr.id < marks.(i) && built_after_children t)
              (List.init (List.length steps) Fun.id)
          in
          (* Rebuilding finds every term: equal results, no new id. *)
          let mark = next_id () in
          let again = run_hc_script x steps in
          let nothing_new = next_id () = mark + 1 in
          let routes_agree =
            Array.for_all
              (fun t ->
                 match Expr.to_bv t with
                 | None -> true
                 | Some v ->
                   List.for_all (fun u -> u == t) (constant_routes (Bv.to_int v)))
              first
          in
          prefill_ordered && ordered && Array.for_all2 ( == ) first again
          && nothing_new && routes_agree))

(* Constant folding against [Bv] at every width.  Widths lean on the
   edges a fold can get wrong by masking (1, 8, 32, 63, 64); values on
   zero, all-ones and the top bit; shift amounts on the width and
   above.  Every fold must land on the very term [Expr.const] gives for
   [Bv]'s result. *)

type fold_case = {
  fw : int;
  fx : Bv.t;
  fy : Bv.t;
  famt : Bv.t;  (** shift amount *)
  fz : Bv.t;  (** low part of a [concat], width [fw2] *)
  fw2 : int;
  fhi : int;
  flo : int;
  ftarget : int;  (** [zext]/[sext] target *)
  fint : int;  (** argument of [Expr.int] *)
}

let gen_fold_case =
  let open QCheck.Gen in
  let width = frequency [ (3, oneofl [ 1; 8; 32; 63; 64 ]); (2, int_range 1 64) ] in
  let value w =
    let top = Int64.shift_left 1L (w - 1) in
    map (Bv.make ~width:w)
      (frequency
         [ (1, return 0L); (1, return (-1L)); (1, return top);
           (1, map (Int64.logor top) ui64); (1, map Int64.of_int small_nat);
           (3, ui64) ])
  in
  let amount w =
    map (Bv.make ~width:w)
      (frequency
         [ (2, map Int64.of_int (int_bound (w - 1))); (1, return (Int64.of_int w));
           (1, map (fun d -> Int64.of_int (w + d)) (int_range 1 70));
           (1, return (-1L)); (1, ui64) ])
  in
  let fint =
    frequency
      [ (3, neg_int); (1, return (-1)); (1, return min_int); (1, return max_int);
        (1, int) ]
  in
  width >>= fun fw ->
  value fw >>= fun fx ->
  value fw >>= fun fy ->
  amount fw >>= fun famt ->
  int_range 1 (max 1 (64 - fw)) >>= fun fw2 ->
  value fw2 >>= fun fz ->
  int_bound (fw - 1) >>= fun a ->
  int_bound (fw - 1) >>= fun b ->
  int_range fw 64 >>= fun ftarget ->
  fint >>= fun fint ->
  return
    { fw; fx; fy; famt; fz; fw2; fhi = max a b; flo = min a b; ftarget; fint }

let print_fold_case c =
  Printf.sprintf "w=%d x=%s y=%s amt=%s z=%s hi=%d lo=%d target=%d int=%d" c.fw
    (Bv.to_string c.fx) (Bv.to_string c.fy) (Bv.to_string c.famt)
    (Bv.to_string c.fz) c.fhi c.flo c.ftarget c.fint

(* One variable per width, for the [c1 + (c2 + z)] rewrite. *)
let fold_vars = Array.init 65 (fun w -> lazy (Expr.fresh_var "z" (max w 1)))

let prop_folding_equals_bv =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"expr: constant folding equals Bv at every width"
       (QCheck.make ~print:print_fold_case gen_fold_case)
       (fun c ->
          let k = Expr.const c.fx and l = Expr.const c.fy in
          let s = Expr.const c.famt and z = Lazy.force fold_vars.(c.fw) in
          let folds =
            [ ("add", Expr.add k l, Bv.add c.fx c.fy);
              ("sub", Expr.sub k l, Bv.sub c.fx c.fy);
              ("mul", Expr.mul k l, Bv.mul c.fx c.fy);
              ("udiv", Expr.udiv k l, Bv.udiv c.fx c.fy);
              ("urem", Expr.urem k l, Bv.urem c.fx c.fy);
              ("sdiv", Expr.sdiv k l, Bv.sdiv c.fx c.fy);
              ("srem", Expr.srem k l, Bv.srem c.fx c.fy);
              ("neg", Expr.neg k, Bv.neg c.fx);
              ("band", Expr.band k l, Bv.logand c.fx c.fy);
              ("bor", Expr.bor k l, Bv.logor c.fx c.fy);
              ("bxor", Expr.bxor k l, Bv.logxor c.fx c.fy);
              ("bnot", Expr.bnot k, Bv.lognot c.fx);
              ("shl", Expr.shl k s, Bv.shl c.fx c.famt);
              ("lshr", Expr.lshr k s, Bv.lshr c.fx c.famt);
              ("ashr", Expr.ashr k s, Bv.ashr c.fx c.famt);
              ("extract", Expr.extract ~hi:c.fhi ~lo:c.flo k,
               Bv.extract ~hi:c.fhi ~lo:c.flo c.fx);
              ("zext", Expr.zext c.ftarget k, Bv.zext (c.ftarget - c.fw) c.fx);
              ("sext", Expr.sext c.ftarget k, Bv.sext (c.ftarget - c.fw) c.fx);
              ("int", Expr.int ~width:c.fw c.fint, Bv.of_int ~width:c.fw c.fint) ]
            @ (if c.fw = 64 then []
               else
                 [ ("concat", Expr.concat k (Expr.const c.fz), Bv.concat c.fx c.fz) ])
          in
          let nested =
            (* c1 + (c2 + z) folds the two constants *)
            ( "add c1 (add c2 z)", Expr.add k (Expr.add l z),
              Expr.add (Expr.const (Bv.add c.fx c.fy)) z )
          in
          let wrong =
            List.filter
              (fun (_, got, want) -> got != want)
              (nested :: List.map (fun (name, t, v) -> (name, t, Expr.const v)) folds)
          in
          match wrong with
          | [] -> true
          | _ ->
            QCheck.Test.fail_reportf "%s"
              (String.concat "; "
                 (List.map
                    (fun (name, got, want) ->
                       Printf.sprintf "%s gave %s, not %s" name (Expr.to_string got)
                         (Expr.to_string want))
                    wrong))))

(* After a warm-up every result below is resident, so each call finds
   its constant by key and builds nothing.  Building the [Bv.t] before
   the probe would take at least 12 words a call. *)
let test_resident_fold_allocates_nothing () =
  let a = Expr.int ~width:32 0x1200 and b = Expr.int ~width:32 0x34 in
  let byte = Expr.int ~width:8 0xA5 and wide = Expr.int ~width:64 0x1234_5678_9ABC in
  let run () =
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Expr.int ~width:32 0x1234));
      ignore (Sys.opaque_identity (Expr.bor a b));
      ignore (Sys.opaque_identity (Expr.zext 32 byte));
      ignore (Sys.opaque_identity (Expr.extract ~hi:23 ~lo:8 wide))
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "4,000 resident folds took %.0f minor words (< 100)" words)
    true (words < 100.)

(* Derived terms.  Three derivations over operands of one width: two
   leaves and one that nests the first.  Each parameter carries a
   nonce above its low byte, so every script's first call is a miss;
   [derived_calls] counts the derivations' runs, which a hit must not
   add to. *)
let derived_calls = ref 0

let dv_mix param a b =
  incr derived_calls;
  let k = Expr.int ~width:(Expr.width a) (param land 0xFF) in
  Expr.ite (Expr.ult a b) (Expr.add a k) (Expr.bxor b k)

let dv_bit param a b =
  incr derived_calls;
  let i = (param land 0xFF) mod Expr.width a in
  Expr.ite
    (Expr.and_ (Expr.ule a b) (Expr.eq (Expr.extract ~hi:i ~lo:i a) (Expr.int ~width:1 1)))
    b a

let dv_mix_d = Expr.derivation "test:mix"
let dv_bit_d = Expr.derivation "test:bit"

(* One level above [dv_mix]: [bnot] counts one instruction. *)
let dv_nested param a b =
  incr derived_calls;
  Expr.bnot (Expr.derive dv_mix_d param a b dv_mix)

let dv_nested_d = Expr.derivation "test:nested"

let derivations =
  [| (dv_mix_d, dv_mix); (dv_bit_d, dv_bit); (dv_nested_d, dv_nested) |]

let derived_nonce = ref 0

let fresh_param low =
  incr derived_nonce;
  (!derived_nonce lsl 8) lor low

(* A term of width [w]: a constant, one of two variables, or a sum of
   a variable and a constant. *)
type dv_operand = Dv_const of int64 | Dv_var of int | Dv_sum of int * int64

let dv_vars = Array.init 65 (fun w -> lazy (Array.init 2 (fun _ -> Expr.fresh_var "d" w)))

let dv_term w = function
  | Dv_const v -> Expr.const (Bv.make ~width:w v)
  | Dv_var i -> (Lazy.force dv_vars.(w)).(i)
  | Dv_sum (i, v) -> Expr.add (Lazy.force dv_vars.(w)).(i) (Expr.const (Bv.make ~width:w v))

type dv_step = { dv_kind : int; dv_low : int; dv_a : dv_operand; dv_b : dv_operand }

let gen_dv_script =
  let open QCheck.Gen in
  let operand =
    frequency
      [ (3, map (fun v -> Dv_const v) (oneof [ map Int64.of_int small_nat; ui64 ]));
        (2, map (fun i -> Dv_var i) (int_bound 1));
        (1, map2 (fun i v -> Dv_sum (i, Int64.of_int v)) (int_bound 1) small_nat) ]
  in
  let step =
    map4 (fun k low a b -> { dv_kind = k; dv_low = low; dv_a = a; dv_b = b })
      (int_bound 2) (int_bound 0xFF) operand operand
  in
  pair (oneofl [ 1; 8; 32; 64 ]) (list_size (int_range 1 12) step)

let print_dv_operand = function
  | Dv_const v -> Int64.to_string v
  | Dv_var i -> Printf.sprintf "v%d" i
  | Dv_sum (i, v) -> Printf.sprintf "v%d+%Ld" i v

let print_dv_script (w, steps) =
  Printf.sprintf "w=%d: %s" w
    (String.concat "; "
       (List.map
          (fun s ->
             Printf.sprintf "%d/%d %s %s" s.dv_kind s.dv_low (print_dv_operand s.dv_a)
               (print_dv_operand s.dv_b))
          steps))

(* [f ()]'s result, the instructions it counted and the derivations it
   ran. *)
let measured f =
  let i = Expr.instruction_count () and c = !derived_calls in
  let t = f () in
  (t, Expr.instruction_count () - i, !derived_calls - c)

(* 2,000 entries made before any script and looked up after each, so
   every script runs after the table has grown past its 1,024 initial
   slots and checks that growth kept them. *)
let derived_prefill =
  lazy
    (let x = Expr.fresh_var "p" 32 in
     List.init 2000 (fun k ->
         let param = fresh_param (k land 0xFF) and c = Expr.int ~width:32 k in
         let t, cost, _ = measured (fun () -> Expr.derive dv_mix_d param x c dv_mix) in
         (param, x, c, t, cost)))

let prefill_kept () =
  List.for_all
    (fun (param, x, c, t, cost) ->
       let t', cost', runs = measured (fun () -> Expr.derive dv_mix_d param x c dv_mix) in
       t' == t && cost' = cost && runs = 0)
    (Lazy.force derived_prefill)

let prop_derived_equals_derivation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"expr: a derived term equals its derivation"
       (QCheck.make ~print:print_dv_script gen_dv_script)
       (fun (w, steps) ->
          let kept = ref [] in
          List.iteri
            (fun i s ->
               let d, f = derivations.(s.dv_kind) in
               let a = dv_term w s.dv_a and b = dv_term w s.dv_b in
               let fail what =
                 QCheck.Test.fail_reportf "step %d (%s): %s" i
                   (print_dv_script (w, [ s ])) what
               in
               (* Cold, warm, and direct. *)
               let p = fresh_param s.dv_low in
               let cold, cost, runs = measured (fun () -> Expr.derive d p a b f) in
               let warm, warm_cost, warm_runs =
                 measured (fun () -> Expr.derive d p a b f)
               in
               let direct, direct_cost, _ = measured (fun () -> f p a b) in
               if runs = 0 then fail "a cold call ran nothing";
               if warm_runs <> 0 then fail "a hit ran its derivation";
               if not (cold == direct && warm == direct) then
                 fail "the result is not the direct call's term";
               if warm_cost <> cost || direct_cost <> cost then
                 fail
                   (Printf.sprintf "counted %d cold, %d on a hit, %d direct" cost
                      warm_cost direct_cost);
               (* Nesting counts once per level: one [bnot] above the
                  inner derivation's count. *)
               (if s.dv_kind = 2 then
                  let _, inner, _ =
                    measured (fun () -> Expr.derive dv_mix_d p a b dv_mix)
                  in
                  if cost <> inner + 1 then
                    fail (Printf.sprintf "nested counted %d over %d" cost inner));
               (* A miss without counting records nothing, so the next
                  counted call counts the full cost. *)
               let q = fresh_param s.dv_low in
               let _, full, _ = measured (fun () -> f q a b) in
               let quiet, quiet_cost, quiet_runs =
                 measured (fun () ->
                     Expr.without_counting (fun () -> Expr.derive d q a b f))
               in
               let counted, counted_cost, counted_runs =
                 measured (fun () -> Expr.derive d q a b f)
               in
               if quiet_cost <> 0 || quiet_runs = 0 then
                 fail "an uncounted miss counted or ran nothing";
               if counted_runs = 0 || counted_cost <> full || counted != quiet then
                 fail
                   (Printf.sprintf "a counted call after an uncounted miss counted %d of %d"
                      counted_cost full);
               kept := (d, f, p, a, b, cold, cost) :: (d, f, q, a, b, counted, full) :: !kept)
            steps;
          (* Every entry is still there, whatever grew the table. *)
          List.for_all
            (fun (d, f, p, a, b, t, cost) ->
               let t', cost', runs = measured (fun () -> Expr.derive d p a b f) in
               t' == t && cost' = cost && runs = 0)
            !kept
          && prefill_kept ()))

let test_derived_hit_allocates_nothing () =
  let x = Expr.fresh_var "h" 32 and c = Expr.int ~width:32 0x7F in
  let p = Array.init 4 (fun k -> fresh_param k) in
  let run () =
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Expr.derive dv_mix_d p.(0) x c dv_mix));
      ignore (Sys.opaque_identity (Expr.derive dv_bit_d p.(1) c x dv_bit));
      ignore (Sys.opaque_identity (Expr.derive dv_nested_d p.(2) x c dv_nested));
      ignore (Sys.opaque_identity (Expr.derive dv_mix_d p.(3) c c dv_mix))
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "4,000 derived hits took %.0f minor words (< 100)" words)
    true (words < 100.)

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)

let test_interval_unsat () =
  let x = Expr.fresh_var "x" 32 in
  let env = Interval.make_env () in
  let verdict =
    Interval.propagate env
      [ Expr.ult x (e_int 51); Expr.ugt x (e_int 100) ]
  in
  Alcotest.(check bool) "range conflict" true
    (verdict = Interval.Definitely_unsat)

let test_interval_refine () =
  let x = Expr.fresh_var "x" 32 in
  let env = Interval.make_env () in
  let verdict =
    Interval.propagate env [ Expr.ult x (e_int 10); Expr.ugt x (e_int 2) ]
  in
  Alcotest.(check bool) "feasible" true (verdict = Interval.Unknown);
  (match Expr.vars (Expr.add x (e_int 0)) with
   | [ v ] ->
     let itv = Interval.env_interval env v in
     Alcotest.(check int64) "lo" 3L itv.Interval.lo;
     Alcotest.(check int64) "hi" 9L itv.Interval.hi
   | _ -> Alcotest.fail "expected one var")

let test_interval_bounds_sound () =
  let st = Random.State.make [| 11 |] in
  let x = Expr.fresh_var "bx" 8 and y = Expr.fresh_var "by" 8 in
  for _ = 1 to 300 do
    let ast = gen_ast 3 st in
    let term = ast_to_expr [| x; y; x |] ast in
    let vx = Bv.make ~width:8 (Random.State.int64 st 256L) in
    let vy = Bv.make ~width:8 (Random.State.int64 st 256L) in
    let lookup (v : Expr.var) = if v.Expr.var_name = "bx" then vx else vy in
    let value = Expr.eval lookup term in
    let env = Interval.make_env () in
    let itv = Interval.bounds env term in
    if not (Interval.mem value itv) then
      Alcotest.failf "interval unsound: %s not in %s for %s"
        (Bv.to_string value)
        (Format.asprintf "%a" Interval.pp itv)
        (Expr.to_string term)
  done

(* ------------------------------------------------------------------ *)
(* SAT solver                                                          *)

let test_sat_simple () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ a; -b ];
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ -a; -b ];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_empty_clause () =
  let s = Sat.create () in
  ignore (Sat.new_var s);
  Sat.add_clause s [];
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

let test_sat_tautology_dropped () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a; -a ];
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat)

(* Random 3-SAT cross-checked against brute force. *)
let brute_force_sat nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (fun clause ->
           List.exists
             (fun l ->
                let value = List.nth assignment (abs l - 1) in
                if l > 0 then value else not value)
             clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

let test_sat_random_vs_brute () =
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 150 do
    let nvars = 2 + Random.State.int st 8 in
    let nclauses = 1 + Random.State.int st 30 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = 1 + Random.State.int st nvars in
              if Random.State.bool st then v else -v))
    in
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    let got = Sat.solve s = Sat.Sat in
    let expected = brute_force_sat nvars clauses in
    if got <> expected then
      Alcotest.failf "sat mismatch on %d vars, %d clauses: got %b want %b"
        nvars nclauses got expected;
    (* When SAT, the model must satisfy every clause. *)
    if got then
      List.iter
        (fun clause ->
           let ok =
             List.exists
               (fun l ->
                  let value = Sat.value s (abs l) in
                  if l > 0 then value else not value)
               clause
           in
           if not ok then Alcotest.fail "model does not satisfy clause")
        clauses
  done

(* ------------------------------------------------------------------ *)
(* Solver pipeline                                                     *)

let test_solver_basic () =
  let x = Expr.fresh_var "sx" 32 and y = Expr.fresh_var "sy" 32 in
  let constraints =
    [
      Expr.ult x (e_int 51);
      Expr.ugt x (e_int 0);
      Expr.eq (Expr.add x y) (e_int 100);
    ]
  in
  (match Solver.check constraints with
   | Solver.Sat m ->
     Alcotest.(check bool) "model satisfies" true (Model.satisfies m constraints)
   | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "unsat" false
    (Solver.is_sat [ Expr.ult x (e_int 5); Expr.ugt x (e_int 10) ])

let test_solver_empty_and_const () =
  Alcotest.(check bool) "empty is sat" true (Solver.is_sat []);
  Alcotest.(check bool) "true is sat" true (Solver.is_sat [ Expr.tru ]);
  Alcotest.(check bool) "false is unsat" false (Solver.is_sat [ Expr.fls ])

let test_solver_nonlinear () =
  let x = Expr.fresh_var "nx" 32 in
  (* x * x == 225 has solutions (15, ...); check via multiplication. *)
  match Solver.check [ Expr.eq (Expr.mul x x) (e_int 225) ] with
  | Solver.Sat m ->
    let v = Model.eval m x in
    let sq = Bv.mul v v in
    check_bv "model squares to 225" (Bv.of_int ~width:32 225) sq
  | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat"

(* Small-width random queries against brute-force enumeration. *)
let test_solver_random_vs_brute () =
  let st = Random.State.make [| 23 |] in
  let width = 4 in
  for _ = 1 to 60 do
    let x = Expr.fresh_var "rx" width and y = Expr.fresh_var "ry" width in
    let rand_const () = Expr.const (Bv.make ~width (Random.State.int64 st 16L)) in
    let rand_term () =
      match Random.State.int st 4 with
      | 0 -> x
      | 1 -> y
      | 2 -> Expr.add x y
      | _ -> Expr.band x (rand_const ())
    in
    let rand_cmp () =
      let a = rand_term () and b = rand_const () in
      match Random.State.int st 3 with
      | 0 -> Expr.eq a b
      | 1 -> Expr.ult a b
      | _ -> Expr.ugt a b
    in
    let constraints = List.init (1 + Random.State.int st 3) (fun _ -> rand_cmp ()) in
    let expected =
      let found = ref false in
      for vx = 0 to 15 do
        for vy = 0 to 15 do
          let lookup (v : Expr.var) =
            if v.Expr.var_name = "rx" then Bv.of_int ~width vx
            else Bv.of_int ~width vy
          in
          if List.for_all (Expr.eval_bool lookup) constraints then found := true
        done
      done;
      !found
    in
    let got =
      match Solver.check constraints with
      | Solver.Sat m ->
        Alcotest.(check bool) "model valid" true (Model.satisfies m constraints);
        true
      | Solver.Unsat -> false
      | Solver.Unknown msg -> Alcotest.failf "unknown: %s" msg
    in
    if got <> expected then
      Alcotest.failf "solver mismatch (got %b, want %b) on %s" got expected
        (String.concat " & " (List.map Expr.to_string constraints))
  done

let test_solver_cache () =
  Solver.clear_caches ();
  Solver.Stats.reset ();
  let x = Expr.fresh_var "cx" 32 in
  let q = [ Expr.ugt x (e_int 5); Expr.ult x (e_int 9) ] in
  ignore (Solver.check q);
  ignore (Solver.check q);
  let stats = Solver.Stats.get () in
  Alcotest.(check bool) "second query cached" true
    (stats.Solver.Stats.cache_hits >= 1)

let test_solver_shifts_and_division () =
  let x = Expr.fresh_var "dx" 32 in
  (match Solver.check [ Expr.eq (Expr.shl (e_int 1) x) (e_int 1024) ] with
   | Solver.Sat m -> check_bv "1 << x = 1024" (Bv.of_int ~width:32 10) (Model.eval m x)
   | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat");
  (match Solver.check [ Expr.eq (Expr.udiv (e_int 100) x) (e_int 25) ] with
   | Solver.Sat m ->
     check_bv "100 / x = 25" (Bv.of_int ~width:32 4) (Model.eval m x)
   | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat");
  (* division by zero convention is solver-visible: x udiv 0 = ones *)
  Alcotest.(check bool) "udiv by zero = ones" true
    (Solver.is_sat [ Expr.eq (Expr.udiv x (e_int 0)) (e_int (-1)) ])

(* ------------------------------------------------------------------ *)
(* Constraint-independence slicing                                     *)

let test_slice_partition () =
  let x = Expr.fresh_var "px" 32
  and y = Expr.fresh_var "py" 32
  and z = Expr.fresh_var "pz" 32 in
  let a = Expr.ult x (e_int 10)
  and b = Expr.ugt y (e_int 3)
  and c = Expr.eq (Expr.add x z) (e_int 7)
  and d = Expr.ult y (e_int 9) in
  (* a and c share x (transitively pulling in z); b and d share y. *)
  (match Smt.Slice.partition [ a; b; c; d ] with
   | [ s1; s2 ] ->
     Alcotest.(check (list string)) "slice of x,z keeps input order"
       (List.map Expr.to_string [ a; c ])
       (List.map Expr.to_string s1);
     Alcotest.(check (list string)) "slice of y keeps input order"
       (List.map Expr.to_string [ b; d ])
       (List.map Expr.to_string s2)
   | slices -> Alcotest.failf "expected 2 slices, got %d" (List.length slices));
  (* Transitive chaining: x~y and y~z must merge into one slice. *)
  let chain =
    [ Expr.ult x y; Expr.ult y z; Expr.ugt (Expr.fresh_var "pw" 32) (e_int 1) ]
  in
  Alcotest.(check (list int)) "chained sharing merges"
    [ 2; 1 ]
    (List.map List.length (Smt.Slice.partition chain))

let test_slice_partition_is_a_partition () =
  (* Random constraint sets: the slices must be a permutation-free
     partition (concatenation preserves multiset; variable sets of
     distinct slices are disjoint). *)
  let st = Random.State.make [| 31 |] in
  let vars = Array.init 6 (fun i -> Expr.fresh_var (Printf.sprintf "pp%d" i) 8) in
  for _ = 1 to 100 do
    let n = 1 + Random.State.int st 8 in
    let constraints =
      List.init n (fun _ ->
          let v = vars.(Random.State.int st 6) in
          let w = vars.(Random.State.int st 6) in
          Expr.ult (Expr.add v w)
            (Expr.const (Bv.make ~width:8 (Int64.of_int (1 + Random.State.int st 255)))))
    in
    let slices = Smt.Slice.partition constraints in
    let flat = List.concat slices in
    Alcotest.(check int) "no constraint lost or duplicated"
      (List.length constraints) (List.length flat);
    List.iter
      (fun c ->
         Alcotest.(check bool) "every constraint present" true
           (List.exists (Expr.equal c) flat))
      constraints;
    let var_sets = List.map (fun s -> Smt.Slice.vars s) slices in
    let rec disjoint = function
      | [] -> true
      | vs :: rest ->
        List.for_all
          (fun vs' ->
             not
               (List.exists
                  (fun (v : Expr.var) ->
                     List.exists (fun (v' : Expr.var) -> v.Expr.var_id = v'.Expr.var_id) vs')
                  vs))
          rest
        && disjoint rest
    in
    Alcotest.(check bool) "slice variable sets disjoint" true (disjoint var_sets)
  done

let test_solver_merge_soundness () =
  (* Many mutually independent slices: the merged model must satisfy the
     whole set, not just each slice in isolation. *)
  let constraints =
    List.concat_map
      (fun i ->
         let v = Expr.fresh_var (Printf.sprintf "mg%d" i) 32 in
         [ Expr.ugt v (e_int i); Expr.ult v (e_int (i + 10)) ])
      [ 1; 20; 300; 4000 ]
  in
  match Solver.check constraints with
  | Solver.Sat m ->
    Alcotest.(check bool) "merged model satisfies every slice" true
      (Model.satisfies m constraints)
  | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "expected sat"

let test_solver_slice_cache_accounting () =
  (* Appending a constraint over fresh variables must not invalidate
     the cached slices of the unchanged prefix. *)
  Solver.clear_caches ();
  Solver.Stats.reset ();
  let x = Expr.fresh_var "ha" 32 in
  let y = Expr.fresh_var "hb" 32 in
  let z = Expr.fresh_var "hc" 32 in
  let a = Expr.ult x (e_int 10) and b = Expr.ugt y (e_int 5) in
  ignore (Solver.check [ a; b ]);
  ignore (Solver.check [ a; b; Expr.eq z (e_int 3) ]);
  let stats = Solver.Stats.get () in
  Alcotest.(check bool)
    (Printf.sprintf "prefix slices hit the cache (%d hits)"
       stats.Solver.Stats.cache_hits)
    true
    (stats.Solver.Stats.cache_hits >= 2);
  Alcotest.(check bool) "slices were counted" true
    (stats.Solver.Stats.slices >= 5)

let test_independence_on_off_equivalent () =
  (* The slicing layer is an optimization: verdicts must be identical
     with and without it on random multi-variable queries. *)
  let st = Random.State.make [| 47 |] in
  let width = 4 in
  Fun.protect
    ~finally:(fun () ->
        Solver.set_independence true;
        Solver.clear_caches ())
    (fun () ->
       for _ = 1 to 40 do
         let x = Expr.fresh_var "ia" width in
         let y = Expr.fresh_var "ib" width in
         let rand_const () =
           Expr.const (Bv.make ~width (Random.State.int64 st 16L))
         in
         let rand_cmp v =
           match Random.State.int st 3 with
           | 0 -> Expr.eq v (rand_const ())
           | 1 -> Expr.ult v (rand_const ())
           | _ -> Expr.ugt v (rand_const ())
         in
         let constraints =
           List.init
             (1 + Random.State.int st 4)
             (fun _ -> rand_cmp (if Random.State.bool st then x else y))
         in
         Solver.set_independence true;
         Solver.clear_caches ();
         let on = Solver.is_sat constraints in
         Solver.set_independence false;
         Solver.clear_caches ();
         let off = Solver.is_sat constraints in
         if on <> off then
           Alcotest.failf "independence changed verdict (%b vs %b) on %s" on
             off
             (String.concat " & " (List.map Expr.to_string constraints))
       done)

(* ------------------------------------------------------------------ *)
(* SMT-LIB export                                                      *)

let test_smtlib_terms () =
  let x = Expr.fresh_var "q" 8 in
  let xname = Printf.sprintf "|q!%d|" (List.hd (Expr.vars x)).Expr.var_id in
  Alcotest.(check string) "bv literal" "(_ bv10 8)"
    (Smt.Smtlib.term (Expr.int ~width:8 10));
  (* commutative operands are canonicalized with the constant first *)
  Alcotest.(check string) "add"
    (Printf.sprintf "(bvadd (_ bv1 8) %s)" xname)
    (Smt.Smtlib.term (Expr.add x (Expr.int ~width:8 1)));
  Alcotest.(check string) "ult"
    (Printf.sprintf "(bvult %s (_ bv5 8))" xname)
    (Smt.Smtlib.term (Expr.ult x (Expr.int ~width:8 5)));
  Alcotest.(check string) "extract"
    (Printf.sprintf "((_ extract 3 0) %s)" xname)
    (Smt.Smtlib.term (Expr.extract ~hi:3 ~lo:0 x));
  Alcotest.(check string) "zext"
    (Printf.sprintf "((_ zero_extend 8) %s)" xname)
    (Smt.Smtlib.term (Expr.zext 16 x))

let test_smtlib_query_well_formed () =
  let x = Expr.fresh_var "qq" 32 and y = Expr.fresh_var "qr" 32 in
  let q =
    Smt.Smtlib.query
      [ Expr.ult x y; Expr.eq (Expr.add x y) (e_int 99) ]
  in
  (* balanced parentheses and the expected skeleton *)
  let depth = ref 0 and min_depth = ref 0 in
  String.iter
    (fun c ->
       if c = '(' then incr depth else if c = ')' then decr depth;
       if !depth < !min_depth then min_depth := !depth)
    q;
  Alcotest.(check int) "balanced" 0 !depth;
  Alcotest.(check int) "never negative" 0 !min_depth;
  let has s =
    let n = String.length s and m = String.length q in
    let rec go i = i + n <= m && (String.sub q i n = s || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "logic" true (has "(set-logic QF_BV)");
  Alcotest.(check bool) "declares x" true (has "(declare-const |qq!");
  Alcotest.(check bool) "declares y" true (has "(declare-const |qr!");
  Alcotest.(check bool) "asserts" true (has "(assert (bvult ");
  Alcotest.(check bool) "check-sat" true (has "(check-sat)")

let test_smtlib_model_values () =
  let x = Expr.fresh_var "qm" 16 in
  match Expr.vars x with
  | [ v ] ->
    let m = Model.add v (Bv.of_int ~width:16 300) Model.empty in
    (match Smt.Smtlib.model_values m with
     | [ line ] ->
       Alcotest.(check string) "define-fun"
         (Printf.sprintf "(define-fun |qm!%d| () (_ BitVec 16) (_ bv300 16))"
            v.Expr.var_id)
         line
     | _ -> Alcotest.fail "expected one binding")
  | _ -> Alcotest.fail "expected one var"

let test_model_defaults () =
  let x = Expr.fresh_var "mx" 16 in
  match Expr.vars x with
  | [ v ] ->
    check_bv "unbound var reads zero" (Bv.zero 16) (Model.find Model.empty v)
  | _ -> Alcotest.fail "expected one var"

(* ------------------------------------------------------------------ *)
(* LRU cache, per-query budgets and stats serialization                *)

let test_lru_eviction_order () =
  let l = Smt.Lru.create ~cap:2 () in
  Smt.Lru.put l 1 "a";
  Smt.Lru.put l 2 "b";
  (* Touch 1 so 2 becomes least-recently used. *)
  Alcotest.(check (option string)) "hit bumps" (Some "a") (Smt.Lru.find l 1);
  Smt.Lru.put l 3 "c";
  Alcotest.(check (option string)) "recent kept" (Some "a") (Smt.Lru.find l 1);
  Alcotest.(check (option string)) "lru evicted" None (Smt.Lru.find l 2);
  Alcotest.(check (option string)) "new kept" (Some "c") (Smt.Lru.find l 3);
  Alcotest.(check int) "one eviction" 1 (Smt.Lru.evictions l);
  Alcotest.(check int) "at capacity" 2 (Smt.Lru.length l)

let test_lru_replace_and_resize () =
  let l = Smt.Lru.create ~cap:3 () in
  List.iter (fun k -> Smt.Lru.put l k (string_of_int k)) [ 1; 2; 3 ];
  Smt.Lru.put l 2 "two";  (* replace, no eviction *)
  Alcotest.(check int) "replace keeps length" 3 (Smt.Lru.length l);
  Alcotest.(check int) "replace is not eviction" 0 (Smt.Lru.evictions l);
  Smt.Lru.set_capacity l 1;
  Alcotest.(check int) "shrink evicts" 1 (Smt.Lru.length l);
  Alcotest.(check int) "shrink counted" 2 (Smt.Lru.evictions l);
  Alcotest.(check (option string)) "mru survives shrink" (Some "two")
    (Smt.Lru.find l 2);
  Smt.Lru.clear l;
  Alcotest.(check int) "clear empties" 0 (Smt.Lru.length l);
  Alcotest.(check int) "clear not counted" 2 (Smt.Lru.evictions l)

let test_lru_unbounded () =
  let l = Smt.Lru.create ~cap:0 () in
  for k = 1 to 1000 do Smt.Lru.put l k k done;
  Alcotest.(check int) "nothing evicted" 0 (Smt.Lru.evictions l);
  Alcotest.(check int) "all kept" 1000 (Smt.Lru.length l)

let test_solver_cache_capacity_evictions () =
  Solver.clear_caches ();
  let before = (Solver.Stats.get ()).Solver.Stats.query_evictions in
  Solver.set_cache_capacity ~query:1 ();
  let q i =
    let x = Expr.fresh_var (Printf.sprintf "ev%d" i) 8 in
    ignore (Solver.check [ Expr.ult x (Expr.int ~width:8 5) ])
  in
  q 0; q 1; q 2;
  let after = (Solver.Stats.get ()).Solver.Stats.query_evictions in
  Solver.set_cache_capacity ~query:65536 ();
  Solver.clear_caches ();
  Alcotest.(check bool) "evictions counted in stats" true (after - before >= 2);
  let qsz, _ = Solver.cache_sizes () in
  Alcotest.(check int) "cache emptied" 0 qsz

(* x*x = 3 is unsat mod 2^16 (squares are 0, 1 or 4 mod 8) but neither
   constant folding nor interval propagation can see it, so the query
   reaches CDCL — large enough to hit the propagation-boundary polls. *)
let hard_query () =
  let x = Expr.fresh_var "hardq" 16 in
  [ Expr.eq (Expr.mul x x) (Expr.int ~width:16 3) ]

let test_solver_timeout_returns_unknown () =
  Solver.clear_caches ();
  let before = (Solver.Stats.get ()).Solver.Stats.sat_timeouts in
  (match Solver.check ~timeout_ms:0 (hard_query ()) with
   | Solver.Unknown _ -> ()
   | Solver.Sat _ -> Alcotest.fail "expected Unknown, got Sat"
   | Solver.Unsat -> Alcotest.fail "expected Unknown, got Unsat");
  let after = (Solver.Stats.get ()).Solver.Stats.sat_timeouts in
  Alcotest.(check bool) "timeout counted" true (after > before);
  (* Without the budget the same query settles. *)
  (match Solver.check (hard_query ()) with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "x*x = 3 should be unsat");
  Solver.clear_caches ()

let test_solver_interrupt_returns_unknown () =
  Solver.clear_caches ();
  Solver.set_interrupt_check (fun () -> true);
  let r = Solver.check (hard_query ()) in
  Solver.set_interrupt_check (fun () -> false);
  Solver.clear_caches ();
  match r with
  | Solver.Unknown _ -> ()
  | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "expected Unknown"

let test_solver_stats_json_roundtrip () =
  let s =
    { Solver.Stats.queries = 7; slices = 9; slice_hits = 4; cache_hits = 3;
      cex_hits = 1; query_evictions = 2; cex_evictions = 5;
      interval_unsat = 6; interval_sat = 8; sat_calls = 10;
      sat_conflicts = 11; sat_decisions = 12; sat_propagations = 13;
      sat_timeouts = 14; sat_retries = 15; scope_reused = 18;
      scope_rebuilds = 19; time = 1.5; interval_time = 0.25;
      bitblast_time = 0.5; sat_time = 0.75 }
  in
  let s' = Solver.Stats.of_json (Solver.Stats.to_json s) in
  Alcotest.(check bool) "roundtrip" true (s = s');
  (* Reports and checkpoints written before the scope frame counters
     were dropped carry them between [sat_retries] and [scope_reused];
     every other field must still read back. *)
  let old_fields =
    match Solver.Stats.to_json s with
    | Obs.Json.Obj fields ->
      List.concat_map
        (fun ((k, _) as f) ->
           if k = "scope_reused" then
             [ ("scope_pushes", Obs.Json.Int 16);
               ("scope_pops", Obs.Json.Int 17); f ]
           else [ f ])
        fields
    | _ -> Alcotest.fail "stats JSON is not an object"
  in
  Alcotest.(check bool) "an old checkpoint's stats load" true
    (Solver.Stats.of_json (Obs.Json.Obj old_fields) = s);
  (* Missing fields default to zero (forward compatibility). *)
  let z = Solver.Stats.of_json (Obs.Json.Obj [ ("queries", Obs.Json.Int 3) ]) in
  Alcotest.(check int) "present field" 3 z.Solver.Stats.queries;
  Alcotest.(check int) "missing field" 0 z.Solver.Stats.sat_timeouts

(* ------------------------------------------------------------------ *)
(* Incremental solving: assumptions, scopes, the shared retry budget   *)

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.(check bool) "sat under [a]" true
    (Sat.solve ~assumptions:[ a ] s = Sat.Sat);
  Alcotest.(check bool) "a honoured in model" true (Sat.value s a);
  Alcotest.(check bool) "sat under [-a]" true
    (Sat.solve ~assumptions:[ -a ] s = Sat.Sat);
  Alcotest.(check bool) "b carries the clause" true (Sat.value s b);
  Alcotest.(check bool) "contradictory assumptions" true
    (Sat.solve ~assumptions:[ a; -a ] s = Sat.Unsat);
  (* Make a <-> b, then refute a /\ -b under assumptions: the Unsat
     answer must not poison the instance for later calls. *)
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ -b; a ];
  Alcotest.(check bool) "unsat under [a; -b]" true
    (Sat.solve ~assumptions:[ a; -b ] s = Sat.Unsat);
  Alcotest.(check bool) "still sat without assumptions" true
    (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "still sat under [a; b]" true
    (Sat.solve ~assumptions:[ a; b ] s = Sat.Sat)

let test_sat_perturb_after_growth () =
  (* Activity rescaling and the perturbation walk must stay bounded to
     live variables on an instance that grew between solves — the shape
     a Solver.Scope produces (encode, solve, encode more, solve). *)
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.(check bool) "sat small" true (Sat.solve ~assumptions:[ a ] s = Sat.Sat);
  let more = List.init 64 (fun _ -> Sat.new_var s) in
  List.iter (fun v -> Sat.add_clause s [ v; a ]) more;
  Alcotest.(check bool) "sat grown" true (Sat.solve s = Sat.Sat);
  Sat.perturb s 42L;
  Alcotest.(check bool) "sat after perturb" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "assumption unsat on grown instance" true
    (Sat.solve ~assumptions:[ -a; -(List.hd more) ] s = Sat.Unsat);
  Sat.perturb s 7L;
  Alcotest.(check bool) "reusable after unsat + perturb" true
    (Sat.solve s = Sat.Sat)

let test_scope_reuse () =
  Solver.clear_caches ();
  let scope = Solver.Scope.create () in
  let x = Expr.fresh_var "scope_x" 16 in
  let sq = Expr.mul x x in
  (* x*x = 5776 has solutions (+-76 and friends mod 2^16) that neither
     folding nor interval candidates find, so these queries genuinely
     exercise the retained CDCL instance. *)
  let c1 = Expr.eq sq (Expr.int ~width:16 5776) in
  (match Solver.check ~scope [ c1 ] with
   | Solver.Sat m ->
     Alcotest.(check bool) "model satisfies" true (Model.satisfies m [ c1 ])
   | _ -> Alcotest.fail "expected Sat");
  (* A deeper query re-encodes nothing for c1. *)
  let c2 = Expr.ugt x (Expr.int ~width:16 1000) in
  let before = (Solver.Stats.get ()).Solver.Stats.scope_reused in
  Solver.clear_caches ();
  (match Solver.check ~scope [ c2; c1 ] with
   | Solver.Sat m ->
     Alcotest.(check bool) "deeper model satisfies" true
       (Model.satisfies m [ c1; c2 ])
   | _ -> Alcotest.fail "expected Sat at depth 2");
  let after = (Solver.Stats.get ()).Solver.Stats.scope_reused in
  Alcotest.(check bool) "encoding reused" true (after > before);
  (* A sibling whose refutation runs under assumptions: the Unsat must
     leave the retained instance reusable. *)
  let c3 = Expr.eq sq (Expr.int ~width:16 3) in
  Solver.clear_caches ();
  (match Solver.check ~scope [ c3; c1 ] with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "expected Unsat sibling");
  Solver.clear_caches ();
  (match Solver.check ~scope [ c2; c1 ] with
   | Solver.Sat _ -> ()
   | _ -> Alcotest.fail "instance poisoned by sibling Unsat");
  Solver.Scope.release scope;
  Solver.clear_caches ()

let test_scoped_verdicts_equal_scratch () =
  (* A retained scope is an optimization: on random queries its
     verdicts must match the scratch pipeline's, on a fresh scope and
     on one whose instances were recycled from a released scope. *)
  let st = Random.State.make [| 48 |] in
  let width = 4 in
  Fun.protect ~finally:Solver.clear_caches
    (fun () ->
       for _ = 1 to 40 do
         let x = Expr.fresh_var "inca" width in
         let y = Expr.fresh_var "incb" width in
         let rand_const () =
           Expr.const (Bv.make ~width (Random.State.int64 st 16L))
         in
         let rand_cmp v =
           match Random.State.int st 3 with
           | 0 -> Expr.eq v (rand_const ())
           | 1 -> Expr.ult v (rand_const ())
           | _ -> Expr.ugt v (rand_const ())
         in
         let constraints =
           List.init
             (1 + Random.State.int st 4)
             (fun _ ->
                rand_cmp
                  (let v = if Random.State.bool st then x else y in
                   if Random.State.bool st then v else Expr.mul v v))
         in
         let verdict what scope =
           Solver.clear_caches ();
           match Solver.check ?scope constraints with
           | Solver.Sat _ -> true
           | Solver.Unsat -> false
           | Solver.Unknown m -> Alcotest.failf "unknown (%s): %s" what m
         in
         let scope = Solver.Scope.create () in
         let fresh = verdict "fresh scope" (Some scope) in
         Solver.Scope.release scope;
         let recycled = Solver.Scope.create () in
         let again = verdict "recycled scope" (Some recycled) in
         Solver.Scope.release recycled;
         let scratch = verdict "scratch" None in
         if fresh <> scratch || again <> scratch then
           Alcotest.failf
             "scoped verdict %b (recycled %b) against scratch %b on %s" fresh
             again scratch
             (String.concat " & " (List.map Expr.to_string constraints))
       done)

(* DESIGN's determinism rule: a query passes a scope if and only if
   nobody reads its model, because a retained instance's model depends
   on its history.  So a scoped Sat answer reaches neither cache, and
   the same constraints asked without a scope solve scratch; a scoped
   Unsat is a pure verdict and is cached for everyone. *)
let test_scoped_sat_stays_out_of_caches () =
  Solver.clear_caches ();
  let x = Expr.fresh_var "det_x" 16 in
  let sq = Expr.mul x x in
  let scope = Solver.Scope.create () in
  let stats () = Solver.Stats.get () in
  let sat_q = [ Expr.eq sq (Expr.int ~width:16 5776) ] in
  let sizes = Solver.cache_sizes () in
  (match Solver.check ~scope sat_q with
   | Solver.Sat _ -> ()
   | _ -> Alcotest.fail "expected Sat");
  Alcotest.(check (pair int int)) "a scoped Sat leaves both caches as they were"
    sizes (Solver.cache_sizes ());
  let s0 = stats () in
  (match Solver.check sat_q with
   | Solver.Sat _ -> ()
   | _ -> Alcotest.fail "expected Sat without a scope");
  let d = Solver.Stats.sub (stats ()) s0 in
  Alcotest.(check (list int)) "without a scope it runs SAT (calls, cache and cex hits)"
    [ 1; 0; 0 ]
    [ d.Solver.Stats.sat_calls; d.Solver.Stats.cache_hits;
      d.Solver.Stats.cex_hits ];
  let unsat_q = [ Expr.eq sq (Expr.int ~width:16 3) ] in
  let s1 = stats () in
  (match Solver.check ~scope unsat_q with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "expected Unsat");
  Alcotest.(check int) "the scoped Unsat ran SAT" 1
    (Solver.Stats.sub (stats ()) s1).Solver.Stats.sat_calls;
  let s2 = stats () in
  (match Solver.check unsat_q with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "expected Unsat without a scope");
  let d = Solver.Stats.sub (stats ()) s2 in
  Alcotest.(check (pair int int)) "without a scope it hits the query cache"
    (0, 1) (d.Solver.Stats.sat_calls, d.Solver.Stats.cache_hits);
  Solver.Scope.release scope;
  Solver.clear_caches ()

let test_solver_timeout_budget_shared () =
  (* Regression for the per-query timeout contract: with a permanently
     stalling solver (each attempt burns up to 50ms) and 3 retries, a
     100ms budget must bound the whole retry loop at ~1x the budget —
     per-attempt deadlines would take ~200ms.  Deterministic: the chaos
     point fires at rate 1. *)
  Solver.clear_caches ();
  Fun.protect
    ~finally:(fun () ->
        Chaos.disable ();
        Solver.set_retries 0)
    (fun () ->
       Chaos.configure ~seed:0 [ (Chaos.Solver_stall, 1.0) ];
       Solver.set_retries 3;
       let before = Solver.Stats.get () in
       let t0 = Unix.gettimeofday () in
       let r = Solver.check ~timeout_ms:100 (hard_query ()) in
       let wall = Unix.gettimeofday () -. t0 in
       let after = Solver.Stats.get () in
       (match r with
        | Solver.Unknown _ -> ()
        | Solver.Sat _ | Solver.Unsat ->
          Alcotest.fail "expected Unknown under a permanent stall");
       Alcotest.(check bool)
         (Printf.sprintf "wall %.3fs stays within ~1x the 100ms budget" wall)
         true (wall < 0.18);
       Alcotest.(check bool) "denied retry still counted" true
         (after.Solver.Stats.sat_retries > before.Solver.Stats.sat_retries);
       Alcotest.(check bool) "stalls counted as timeouts" true
         (after.Solver.Stats.sat_timeouts > before.Solver.Stats.sat_timeouts))

(* ------------------------------------------------------------------ *)
(* SAT core: clause normalization and watch order                      *)

(* The list-based [Sat.add_clause] normalizer that the in-place array
   version replaced, kept as the reference: literals ordered by
   [List.sort_uniq] on internal literals (2v, 2v+1), tautologies
   dropped, literals fixed at level 0 filtered, units enqueued, an
   empty result latching unsat.  Its state is what [add_clause]
   touches while no search has run: the stored clauses, the trail of
   level-0 units and the unsat flag. *)
module Ref_clauses = struct
  type t = {
    mutable assign : (int * bool) list;  (* var -> value, level 0 *)
    mutable trail : int list;            (* DIMACS, newest first *)
    mutable stored : int array list;     (* DIMACS, newest first *)
    mutable unsat : bool;
  }

  let create () = { assign = []; trail = []; stored = []; unsat = false }
  let ilit d = if d > 0 then 2 * d else (2 * -d) + 1
  let dimacs l = if l land 1 = 0 then l lsr 1 else -(l lsr 1)

  let value st l =
    match List.assoc_opt (l lsr 1) st.assign with
    | None -> -1
    | Some b -> if b = (l land 1 = 0) then 1 else 0

  let add st lits =
    if not st.unsat then begin
      let lits = List.sort_uniq Int.compare (List.map ilit lits) in
      let taut = List.exists (fun l -> List.mem (l lxor 1) lits) lits in
      if (not taut) && not (List.exists (fun l -> value st l = 1) lits) then
        match List.filter (fun l -> value st l <> 0) lits with
        | [] -> st.unsat <- true
        | [ l ] ->
          st.assign <- (l lsr 1, l land 1 = 0) :: st.assign;
          st.trail <- dimacs l :: st.trail
        | lits ->
          st.stored <- Array.of_list (List.map dimacs lits) :: st.stored
    end
end

(* Few variables and short clauses, so duplicates, complementary pairs
   and literals fixed by earlier units are common. *)
let arb_clause_script =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 6 >>= fun nvars ->
      let lit =
        map2 (fun v s -> if s then v else -v) (int_range 1 nvars) bool
      in
      let size =
        frequency [ (1, return 0); (3, return 1); (12, int_range 2 6) ]
      in
      list_size (int_range 1 40) (list_size size lit) >|= fun cls ->
      (nvars, cls))
  in
  let print (nvars, cls) =
    Printf.sprintf "%d vars: %s" nvars
      (String.concat " "
         (List.map
            (fun c -> "[" ^ String.concat ";" (List.map string_of_int c) ^ "]")
            cls))
  in
  make ~print gen

let prop_add_clause_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"sat: add_clause matches the list-based reference"
       arb_clause_script
       (fun (nvars, clauses) ->
          let s = Sat.create () in
          for _ = 1 to nvars do
            ignore (Sat.new_var s)
          done;
          let r = Ref_clauses.create () in
          List.for_all
            (fun c ->
               Sat.add_clause s c;
               Ref_clauses.add r c;
               Sat.clauses s = List.rev r.Ref_clauses.stored
               && Sat.trail s = List.rev r.Ref_clauses.trail
               && Sat.is_unsat s = r.Ref_clauses.unsat)
            clauses
          && (Sat.solve s = Sat.Sat) = brute_force_sat nvars clauses))

(* [Sat.add_clause2] and [Sat.add_clause3] are [Sat.add_clause] on the
   two- or three-element list.  One instance takes every 2- and
   3-literal clause of the script through them, a second takes every
   clause through [add_clause]; after each add both must hold the same
   clauses, trail, unsat flag and watch lists.  A solve halfway through
   leaves decisions standing, so the adds after it must drop them as
   [add_clause] does. *)
let prop_fixed_arity_adds_match_add_clause =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"sat: add_clause2/3 equal add_clause on the list"
       arb_clause_script
       (fun (nvars, clauses) ->
          let fixed = Sat.create () and listed = Sat.create () in
          for _ = 1 to nvars do
            ignore (Sat.new_var fixed);
            ignore (Sat.new_var listed)
          done;
          let state s =
            ( Sat.clauses s,
              Sat.trail s,
              Sat.is_unsat s,
              List.init nvars (fun i ->
                  (Sat.watch_list s (i + 1), Sat.watch_list s (-(i + 1)))) )
          in
          let values s = List.init nvars (fun i -> Sat.value s (i + 1)) in
          let half = List.length clauses / 2 in
          List.for_all
            (fun (i, c) ->
               (i <> half || Sat.solve fixed = Sat.solve listed)
               && begin
                 (match c with
                  | [ a; b ] -> Sat.add_clause2 fixed a b
                  | [ a; b; c ] -> Sat.add_clause3 fixed a b c
                  | c -> Sat.add_clause fixed c);
                 Sat.add_clause listed c;
                 state fixed = state listed
               end)
            (List.mapi (fun i c -> (i, c)) clauses)
          && Sat.solve fixed = Sat.solve listed
          && state fixed = state listed
          && values fixed = values listed))

(* [Sat.reset] leaves nothing of the earlier script.  Script A runs and
   is sometimes solved, perturbed as a retried scratch query is, under a
   tiny conflict limit, so that [Resource_exhausted] strands decisions
   on the trail (a [Sat] answer keeps its assignment too) and
   activities and phases are dirty.  After the reset, script B must
   leave the instance exactly where a fresh one that ran only B is,
   before and after solving. *)
let prop_reset_equals_fresh =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"sat: a reset instance equals a fresh one"
       QCheck.(triple arb_clause_script (option (int_bound 2)) arb_clause_script)
       (fun ((nvars_a, script_a), limit, (nvars_b, script_b)) ->
          let run s nvars clauses =
            for _ = 1 to nvars do
              ignore (Sat.new_var s)
            done;
            List.iter (Sat.add_clause s) clauses
          in
          let state s =
            ( Sat.clauses s,
              Sat.trail s,
              List.init nvars_b (fun i ->
                  (Sat.watch_list s (i + 1), Sat.watch_list s (-(i + 1)))),
              (Sat.stats_conflicts s, Sat.stats_decisions s,
               Sat.stats_propagations s) )
          in
          let values s = List.init nvars_b (fun i -> Sat.value s (i + 1)) in
          let reused = Sat.create () in
          run reused nvars_a script_a;
          Option.iter
            (fun conflict_limit ->
               Sat.perturb reused (Int64.of_int conflict_limit);
               match Sat.solve ~conflict_limit reused with
               | _ -> ()
               | exception Sat.Resource_exhausted -> ())
            limit;
          Sat.reset reused;
          run reused nvars_b script_b;
          let fresh = Sat.create () in
          run fresh nvars_b script_b;
          state reused = state fresh
          && Sat.solve reused = Sat.solve fresh
          && state reused = state fresh
          && values reused = values fresh))

(* [Bitblast.reset] on a [Sat.reset] instance encodes like a fresh
   pair, for scratch and verdict contexts alike.  Terms A are encoded
   and solved first: random width-8 terms compared against constants,
   padded with a comparison [p_k < p_(k+1)] on each neighbouring pair of
   301 width-1 variables.  That is over 600 translated nodes, which grow
   the memo past its first 1,024 slots, and in a verdict context about
   1,200 gates, which grow the gate table past its first 1,024.  After
   both resets, terms B over the same variables and constants must give
   the clauses, variable count, answer and model of a fresh pair of the
   same kind that encoded only B.  A memo or gate-table slot left live
   by the reset would hand B a literal of A. *)
let prop_bitblast_reset_equals_fresh =
  let vars = Array.init 3 (fun i -> Expr.fresh_var (Printf.sprintf "r%d" i) 8) in
  let padding =
    let p = Array.init 301 (fun k -> Expr.fresh_var (Printf.sprintf "p%d" k) 1) in
    List.init 300 (fun k -> Expr.ult p.(k) p.(k + 1))
  in
  let cmps = [| Expr.eq; Expr.ult; Expr.ule; Expr.slt; Expr.ne |] in
  let gen_terms =
    QCheck.Gen.(
      list_size (int_range 1 6)
        (triple (gen_ast 3) (int_bound 4) (int_bound 255)))
  in
  let terms =
    List.map (fun (ast, cmp, c) ->
        cmps.(cmp) (ast_to_expr vars ast) (Expr.int ~width:8 c))
  in
  let print (a, b) =
    let show ts = String.concat " & " (List.map Expr.to_string (terms ts)) in
    Printf.sprintf "A: %s\nB: %s" (show a) (show b)
  in
  let outcome sat ctx =
    let answer = Sat.solve sat in
    ( Sat.num_vars sat,
      answer,
      Model.to_string
        (Bitblast.extract_model ctx
           (List.concat_map Expr.vars (Array.to_list vars))) )
  in
  let reset_equals_fresh create (a, b) =
    let sat = Sat.create () in
    let ctx = create sat in
    List.iter (Bitblast.assert_true ctx) (padding @ terms a);
    (match Sat.solve ~conflict_limit:20 sat with
     | _ -> ()
     | exception Sat.Resource_exhausted -> ());
    Sat.reset sat;
    Bitblast.reset ctx;
    List.iter (Bitblast.assert_true ctx) (terms b);
    let fresh_sat = Sat.create () in
    let fresh_ctx = create fresh_sat in
    List.iter (Bitblast.assert_true fresh_ctx) (terms b);
    Sat.clauses sat = Sat.clauses fresh_sat
    && outcome sat ctx = outcome fresh_sat fresh_ctx
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"bitblast: a reset context encodes like a fresh one"
       (QCheck.make ~print (QCheck.Gen.pair gen_terms gen_terms))
       (fun case ->
          reset_equals_fresh Bitblast.create case
          && reset_equals_fresh Bitblast.create_verdict case))

(* Verdict contexts against plain contexts and brute force, in the
   manner of VSAT's [solver_is_correct].  A script is a pool of up to
   five random constraints over two variables of one width in 1..6,
   and a run of guarded queries on one retained verdict context, as
   [Solver.Scope] runs them: each constraint is encoded once behind a
   guard, each query assumes the guards of a subset of the pool, and
   some queries first recycle the context ([Sat.reset] and
   [Bitblast.reset]).  Terms mix arithmetic, constant and symbolic
   shifts, [ite], [extract]/[concat], [zext], and a word rebuilt from
   zero-extended pieces shifted by constants and joined by [or], the
   shape of [Symex.Mem.assemble32].  Each query's verdict must equal a
   plain context's and brute-force enumeration's, and a Sat model must
   satisfy the subset by evaluation. *)
let verdict_vars =
  Array.init 7 (fun w ->
      if w = 0 then [||]
      else Array.init 2 (fun i -> Expr.fresh_var (Printf.sprintf "d%d_%d" w i) w))

let verdict_arith = Expr.[| add; sub; mul; band; bor; bxor |]
let verdict_shifts = Expr.[| shl; lshr; ashr |]
let verdict_cmps = Expr.[| eq; ne; ult; ule; slt; sle |]

let rec gen_verdict_term st vars w depth =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let sub () = gen_verdict_term st vars w (depth - 1) in
  if depth = 0 || Random.State.int st 4 = 0 then
    if Random.State.bool st then pick vars
    else Expr.int ~width:w (Random.State.int st (1 lsl w))
  else
    match Random.State.int st 8 with
    | 0 | 1 -> (pick verdict_arith) (sub ()) (sub ())
    | 2 ->
      (pick verdict_shifts) (sub ())
        (Expr.int ~width:w (Random.State.int st (w + 1)))
    | 3 -> (pick verdict_shifts) (sub ()) (sub ())
    | 4 -> Expr.ite ((pick verdict_cmps) (sub ()) (sub ())) (sub ()) (sub ())
    | 5 when w >= 2 ->
      let k = 1 + Random.State.int st (w - 1) in
      Expr.concat
        (Expr.extract ~hi:(k - 1) ~lo:0 (sub ()))
        (Expr.extract ~hi:(w - 1) ~lo:k (sub ()))
    | 6 when w >= 2 ->
      let k = 1 + Random.State.int st (w - 1) in
      let x = sub () in
      Expr.bor
        (Expr.zext w (Expr.extract ~hi:(k - 1) ~lo:0 x))
        (Expr.shl
           (Expr.zext w (Expr.extract ~hi:(w - 1) ~lo:k x))
           (Expr.int ~width:w k))
    | _ -> Expr.bnot (sub ())

let gen_verdict_constraint st vars w =
  let term () = gen_verdict_term st vars w 3 in
  let cmp () = verdict_cmps.(Random.State.int st 6) (term ()) (term ()) in
  match Random.State.int st 5 with
  | 0 -> Expr.not_ (cmp ())
  | 1 -> Expr.or_ (cmp ()) (cmp ())
  | 2 ->
    Expr.ult (Expr.zext (w + 2) (term ()))
      (Expr.int ~width:(w + 2) (Random.State.int st (1 lsl (w + 2))))
  | _ -> cmp ()

let gen_verdict_script st =
  let w = 1 + Random.State.int st 6 in
  let pool =
    Array.init (1 + Random.State.int st 5) (fun _ ->
        gen_verdict_constraint st verdict_vars.(w) w)
  in
  let queries =
    List.init (2 + Random.State.int st 4) (fun _ ->
        (Random.State.int st 32, Random.State.int st 3 = 0))
  in
  (w, pool, queries)

let print_verdict_script (w, pool, queries) =
  Printf.sprintf "width %d\n%s\nqueries %s" w
    (String.concat "\n"
       (Array.to_list
          (Array.mapi (fun i c -> Printf.sprintf "c%d: %s" i (Expr.to_string c))
             pool)))
    (String.concat " "
       (List.map
          (fun (mask, recycle) ->
             Printf.sprintf "%s%x" (if recycle then "recycle," else "") mask)
          queries))

let verdict_script_correct (w, pool, queries) =
  let vars =
    Array.map
      (fun (v : Expr.t) ->
         match v.Expr.node with Expr.Var v -> v | _ -> assert false)
      verdict_vars.(w)
  in
  let n = 1 lsl w in
  let truth =
    Array.map
      (fun c ->
         Array.init (n * n) (fun i ->
             Expr.eval_bool
               (fun (v : Expr.var) ->
                  Bv.of_int ~width:w
                    (if v.Expr.var_id = vars.(0).Expr.var_id then i / n
                     else i mod n))
               c))
      pool
  in
  let sat = Sat.create () in
  let ctx = Bitblast.create_verdict sat in
  let guards = Hashtbl.create 8 in
  let guard i =
    match Hashtbl.find_opt guards i with
    | Some g -> g
    | None ->
      let l = Bitblast.literal ctx pool.(i) in
      let g = Sat.new_var sat in
      Sat.add_clause2 sat (-g) l;
      Hashtbl.add guards i g;
      g
  in
  List.for_all
    (fun (mask, recycle) ->
       if recycle then begin
         Sat.reset sat;
         Bitblast.reset ctx;
         Hashtbl.reset guards
       end;
       let picked =
         match
           List.filter
             (fun i -> mask land (1 lsl i) <> 0)
             (List.init (Array.length pool) Fun.id)
         with
         | [] -> List.init (Array.length pool) Fun.id
         | picked -> picked
       in
       let subset = List.map (fun i -> pool.(i)) picked in
       let expected =
         List.exists
           (fun a -> List.for_all (fun i -> truth.(i).(a)) picked)
           (List.init (n * n) Fun.id)
       in
       let plain =
         let sat = Sat.create () in
         let ctx = Bitblast.create sat in
         List.iter (Bitblast.assert_true ctx) subset;
         Sat.solve sat = Sat.Sat
       in
       let verdict = Sat.solve ~assumptions:(List.map guard picked) sat in
       let model_holds =
         match verdict with
         | Sat.Unsat -> true
         | Sat.Sat ->
           Model.satisfies
             (Bitblast.extract_model ctx (Array.to_list vars))
             subset
       in
       plain = expected && (verdict = Sat.Sat) = expected && model_holds)
    queries

let prop_verdict_context_correct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"bitblast: verdict contexts agree with plain ones and brute force"
       (QCheck.make ~print:print_verdict_script gen_verdict_script)
       verdict_script_correct)

(* The priority-word shape: a 32-bit word reassembled from the bytes of
   [p] as [Symex.Mem.assemble32] builds it, compared with [q].  A
   scratch context builds a barrel shifter per constant byte shift, and
   [ult p q] then costs a second comparator and another literal.  A
   verdict context folds the shifts to rewiring and the [or]s with zero
   bits away, so the word's bits are [p]'s own, and the gate table
   hands [ult p q] the literal it already built. *)
let test_verdict_shares_reassembled_word () =
  let p = Expr.fresh_var "wp" 32 and q = Expr.fresh_var "wq" 32 in
  let byte i = Expr.zext 32 (Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) p) in
  let shifted i = Expr.shl (byte i) (Expr.int ~width:32 (8 * i)) in
  let word =
    Expr.bor (byte 0) (Expr.bor (shifted 1) (Expr.bor (shifted 2) (shifted 3)))
  in
  let encode create =
    let sat = Sat.create () in
    let ctx = create sat in
    let l = Bitblast.literal ctx (Expr.ult word q) in
    let n = Sat.num_vars sat in
    let l' = Bitblast.literal ctx (Expr.ult p q) in
    (n, Sat.num_vars sat - n, l = l')
  in
  let outcome = Alcotest.(triple int int bool) in
  Alcotest.check outcome "scratch: variables, more for ult p q, same literal"
    (751, 224, false) (encode Bitblast.create);
  Alcotest.check outcome "verdict: variables, more for ult p q, same literal"
    (286, 0, true) (encode Bitblast.create_verdict)

(* The complementary prescreen.  A slice whose first constraint is the
   structural negation of another of its constraints is Unsat with no
   interval or SAT work, and counts as a prescreen Unsat.  Products of
   variables are beyond the interval stage, so without the prescreen
   each of these slices would reach SAT. *)
let prescreened name c =
  ( "solver: complementary prescreen, " ^ name,
    `Quick,
    fun () ->
      let x = Expr.fresh_var "nx" 8 and y = Expr.fresh_var "ny" 8 in
      let c = c (Expr.mul x y) (Expr.add x y) in
      let other = Expr.ne x (Expr.int ~width:8 3) in
      List.iter
        (fun (order, cs) ->
           Solver.clear_caches ();
           let before = Solver.Stats.get () in
           let r = Solver.check cs in
           let d = Solver.Stats.sub (Solver.Stats.get ()) before in
           Alcotest.(check string) (order ^ ": answer") "unsat"
             (Solver.outcome_to_string r);
           Alcotest.(check (pair int int)) (order ^ ": SAT calls, prescreen Unsats")
             (0, 1) (d.Solver.Stats.sat_calls, d.Solver.Stats.interval_unsat))
        [ ("negation first", [ Expr.not_ c; other; c ]);
          ("negation last", [ c; other; Expr.not_ c ]) ] )

let test_prescreen_not = prescreened "not x / x" Expr.eq
let test_prescreen_unsigned = prescreened "ult a b / ule b a" Expr.ult
let test_prescreen_signed = prescreened "slt a b / sle b a" Expr.slt

(* The same constraint twice is no contradiction. *)
let test_prescreen_repeat () =
  let x = Expr.fresh_var "rx" 8 and y = Expr.fresh_var "ry" 8 in
  List.iter
    (fun c ->
       Solver.clear_caches ();
       Alcotest.(check string) (Expr.to_string c) "sat"
         (Solver.outcome_to_string (Solver.check [ c; c ])))
    [ Expr.ne (Expr.mul x y) (Expr.add x y);
      Expr.ult (Expr.mul x y) (Expr.add x y);
      Expr.sle (Expr.mul x y) (Expr.add x y) ]

(* A branch on a condition the path already assumed: [check_pair]'s
   false child is [not cond] followed by the slice holding [cond]. *)
let test_prescreen_pair_false_child () =
  let x = Expr.fresh_var "px" 8 and y = Expr.fresh_var "py" 8 in
  let cond = Expr.ult (Expr.mul x y) (Expr.add x y) in
  Solver.clear_caches ();
  let before = Solver.Stats.get () in
  let rt, rf =
    Solver.check_pair ~cond [ cond; Expr.ne x (Expr.int ~width:8 3) ]
  in
  let d = Solver.Stats.sub (Solver.Stats.get ()) before in
  Alcotest.(check (pair string string)) "children" ("sat", "unsat")
    (Solver.outcome_to_string rt, Solver.outcome_to_string rf);
  Alcotest.(check int) "prescreen Unsats" 1 d.Solver.Stats.interval_unsat

(* [Expr.eval_all] shares one memo across the list and stops at the
   first constraint that fails, as [List.for_all] over [eval_bool]
   does: a variable read only after that constraint is never looked
   up. *)
let test_eval_all_short_circuits () =
  let x = Expr.fresh_var "ex" 8 and unread = Expr.fresh_var "eu" 8 in
  let w = Expr.mul x (Expr.add x (Expr.int ~width:8 7)) in
  let lookup (v : Expr.var) =
    if v.Expr.var_name = "eu" then failwith "read past the first failure"
    else Bv.of_int ~width:8 5
  in
  let holds = Expr.ult w (Expr.int ~width:8 100) in
  let fails = Expr.eq w (Expr.int ~width:8 1) in
  Alcotest.(check bool) "holds" true (Expr.eval_all lookup [ holds; holds ]);
  Alcotest.(check bool) "stops at the failure" false
    (Expr.eval_all lookup [ holds; fails; Expr.eq unread w ]);
  Alcotest.(check bool) "agrees with eval_bool" true
    (Expr.eval_all lookup [ holds ] = Expr.eval_bool lookup holds
     && Expr.eval_all lookup [] = true)

(* Watch-list order after search, pinned.  [propagate] rewrites each
   watch list it walks, and the order it leaves decides which clause
   the next propagation visits first — so it steers every later
   conflict and model.  The digest covers the watch lists, trail and
   counters after each of three assumption solves on 30 random 3-SAT
   instances; it was recorded with the propagator that copied each
   watch list before walking it, which the in-place walk replaced. *)
let test_sat_watch_order_pinned () =
  let st = Random.State.make [| 17 |] in
  let b = Buffer.create 65536 in
  for _ = 1 to 30 do
    let nvars = 8 + Random.State.int st 8 in
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    let lit () =
      let v = 1 + Random.State.int st nvars in
      if Random.State.bool st then v else -v
    in
    for _ = 1 to 4 * nvars do
      Sat.add_clause s (List.init 3 (fun _ -> lit ()))
    done;
    for _ = 1 to 3 do
      let r = Sat.solve ~assumptions:[ lit () ] s in
      Buffer.add_string b (if r = Sat.Sat then "S" else "U");
      for v = 1 to nvars do
        List.iter
          (fun l ->
             Buffer.add_string b
               (Printf.sprintf " %d:%s" l
                  (String.concat ","
                     (List.map string_of_int (Sat.watch_list s l)))))
          [ v; -v ]
      done;
      Buffer.add_string b
        (Printf.sprintf " trail %s c%d d%d p%d\n"
           (String.concat "," (List.map string_of_int (Sat.trail s)))
           (Sat.stats_conflicts s) (Sat.stats_decisions s)
           (Sat.stats_propagations s))
    done
  done;
  Alcotest.(check string) "watch lists, trail and counters"
    "f96ea188c6a5b2ddbd6a3598cec521ef" (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The search pinned across VSIDS rescaling.  [var_inc] grows by
   1/0.95 per conflict, so an instance rescales every activity by 1e-100
   after about 4,490 conflicts, and a rescale can underflow activities
   into ties — where a decision rule other than "highest activity,
   lowest index among equals" would show.  Random 3-SAT at clause ratio
   4.26, each instance solved three times under one assumption with a
   perturb before the third; the digest covers answers, counters and
   trails and was recorded with the decision rule that scanned every
   variable in index order. *)
let test_sat_rescale_pinned () =
  let b = Buffer.create 65536 in
  let most = ref 0 in
  List.iter
    (fun (nvars, seed) ->
       let st = Random.State.make [| seed |] in
       let s = Sat.create () in
       for _ = 1 to nvars do
         ignore (Sat.new_var s)
       done;
       let lit () =
         let v = 1 + Random.State.int st nvars in
         if Random.State.bool st then v else -v
       in
       for _ = 1 to nvars * 426 / 100 do
         Sat.add_clause s (List.init 3 (fun _ -> lit ()))
       done;
       let a = lit () in
       for round = 1 to 3 do
         if round = 3 then Sat.perturb s (Int64.of_int seed);
         let r = Sat.solve ~assumptions:[ a ] s in
         Buffer.add_string b
           (Printf.sprintf "%s c%d d%d p%d trail %s\n"
              (if r = Sat.Sat then "S" else "U")
              (Sat.stats_conflicts s) (Sat.stats_decisions s)
              (Sat.stats_propagations s)
              (String.concat "," (List.map string_of_int (Sat.trail s))))
       done;
       most := max !most (Sat.stats_conflicts s))
    [ (170, 3); (180, 7); (185, 3); (190, 3) ];
  Alcotest.(check bool)
    (Printf.sprintf "an instance rescales (%d conflicts > 4,490)" !most)
    true (!most > 4490);
  Alcotest.(check string) "answers, counters and trails"
    "2827b6889adfd1ce1005a467b0ead366"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    ("bv: make masks", `Quick, test_bv_make_masks);
    ("bv: signed view", `Quick, test_bv_signed);
    ("bv: wrapping arithmetic", `Quick, test_bv_wrap_arithmetic);
    ("bv: division conventions", `Quick, test_bv_div_conventions);
    ("bv: shifts", `Quick, test_bv_shifts);
    ("bv: extract/concat/extend", `Quick, test_bv_structure);
    ("bv: comparisons", `Quick, test_bv_compare);
    ("bv: invalid arguments", `Quick, test_bv_invalid);
    ("expr: hash consing", `Quick, test_expr_hash_consing);
    ("expr: constant folding", `Quick, test_expr_folding);
    ("expr: extract rewrites", `Quick, test_expr_extract_rewrites);
    ("expr: vars", `Quick, test_expr_vars);
    ("expr: eval", `Quick, test_expr_eval);
    ("expr: simplifier soundness (random)", `Quick, test_simplifier_soundness);
    ("interval: unsat detection", `Quick, test_interval_unsat);
    ("interval: refinement", `Quick, test_interval_refine);
    ("interval: bounds soundness (random)", `Quick, test_interval_bounds_sound);
    ("sat: simple", `Quick, test_sat_simple);
    ("sat: unsat", `Quick, test_sat_unsat);
    ("sat: empty clause", `Quick, test_sat_empty_clause);
    ("sat: tautology", `Quick, test_sat_tautology_dropped);
    ("sat: random vs brute force", `Quick, test_sat_random_vs_brute);
    ("solver: basic", `Quick, test_solver_basic);
    ("solver: empty and const", `Quick, test_solver_empty_and_const);
    ("solver: nonlinear", `Quick, test_solver_nonlinear);
    ("solver: random vs brute force", `Quick, test_solver_random_vs_brute);
    ("solver: query cache", `Quick, test_solver_cache);
    ("slice: partition crafted sets", `Quick, test_slice_partition);
    ("slice: partition is a partition (random)", `Quick,
     test_slice_partition_is_a_partition);
    ("solver: merged model soundness", `Quick, test_solver_merge_soundness);
    ("solver: per-slice cache accounting", `Quick,
     test_solver_slice_cache_accounting);
    ("solver: independence on/off equivalence", `Quick,
     test_independence_on_off_equivalent);
    ("solver: shifts and division", `Quick, test_solver_shifts_and_division);
    ("model: defaults", `Quick, test_model_defaults);
    ("smtlib: terms", `Quick, test_smtlib_terms);
    ("smtlib: query well-formed", `Quick, test_smtlib_query_well_formed);
    ("smtlib: model values", `Quick, test_smtlib_model_values);
    ("lru: eviction order", `Quick, test_lru_eviction_order);
    ("lru: replace and resize", `Quick, test_lru_replace_and_resize);
    ("lru: unbounded", `Quick, test_lru_unbounded);
    ("solver: cache capacity and evictions", `Quick,
     test_solver_cache_capacity_evictions);
    ("solver: per-query timeout", `Quick, test_solver_timeout_returns_unknown);
    ("solver: interrupt hook", `Quick, test_solver_interrupt_returns_unknown);
    ("solver: stats JSON roundtrip", `Quick, test_solver_stats_json_roundtrip);
    ("sat: assumptions", `Quick, test_sat_assumptions);
    ("sat: perturb after growth", `Quick, test_sat_perturb_after_growth);
    ("scope: encoding reuse and sibling unsat", `Quick, test_scope_reuse);
    ("solver: scoped verdicts equal scratch verdicts", `Quick,
     test_scoped_verdicts_equal_scratch);
    ("solver: a scoped Sat stays out of the caches", `Quick,
     test_scoped_sat_stays_out_of_caches);
    ("solver: retry budget is per-query", `Quick,
     test_solver_timeout_budget_shared);
    prop_add_clause_matches_reference;
    ("sat: watch-list order pinned", `Quick, test_sat_watch_order_pinned);
  ]
  @ bv_props
  @ [ prop_reset_equals_fresh; prop_hash_consing_contract;
      prop_fixed_arity_adds_match_add_clause;
      prop_bitblast_reset_equals_fresh;
      prop_verdict_context_correct;
      ("bitblast: a verdict context shares a reassembled word's comparator",
       `Quick, test_verdict_shares_reassembled_word);
      test_prescreen_not; test_prescreen_unsigned; test_prescreen_signed;
      ("solver: a repeated constraint is not complementary", `Quick,
       test_prescreen_repeat);
      ("solver: a branch on an assumed condition skips its false child",
       `Quick, test_prescreen_pair_false_child);
      ("expr: eval_all shares a memo and stops at the first failure",
       `Quick, test_eval_all_short_circuits);
      ("sat: search pinned across activity rescaling", `Quick,
       test_sat_rescale_pinned);
      prop_folding_equals_bv;
      ("expr: folding onto a resident constant allocates nothing", `Quick,
       test_resident_fold_allocates_nothing);
      prop_derived_equals_derivation;
      prop_vars_memo_equals_walk;
      ("expr: a derived hit allocates nothing", `Quick,
       test_derived_hit_allocates_nothing) ]
