let var_name (v : Expr.var) =
  Printf.sprintf "|%s!%d|" v.Expr.var_name v.Expr.var_id

let bv_literal v =
  Printf.sprintf "(_ bv%Lu %d)" (Bv.to_int64 v) (Bv.width v)

let binop_name = function
  | Expr.Add -> "bvadd" | Expr.Sub -> "bvsub" | Expr.Mul -> "bvmul"
  | Expr.Udiv -> "bvudiv" | Expr.Urem -> "bvurem"
  | Expr.Sdiv -> "bvsdiv" | Expr.Srem -> "bvsrem"
  | Expr.And -> "bvand" | Expr.Or -> "bvor" | Expr.Xor -> "bvxor"
  | Expr.Shl -> "bvshl" | Expr.Lshr -> "bvlshr" | Expr.Ashr -> "bvashr"

let cmpop_name = function
  | Expr.Eq -> "=" | Expr.Ult -> "bvult" | Expr.Ule -> "bvule"
  | Expr.Slt -> "bvslt" | Expr.Sle -> "bvsle"

let term e =
  let buf = Buffer.create 256 in
  let rec go (e : Expr.t) =
    match e.Expr.node with
    | Expr.Bool_const b -> Buffer.add_string buf (if b then "true" else "false")
    | Expr.Bv_const v -> Buffer.add_string buf (bv_literal v)
    | Expr.Var v -> Buffer.add_string buf (var_name v)
    | Expr.Not x -> app "not" [ x ]
    | Expr.Andb (a, b) -> app "and" [ a; b ]
    | Expr.Orb (a, b) -> app "or" [ a; b ]
    | Expr.Cmp (op, a, b) -> app (cmpop_name op) [ a; b ]
    | Expr.Ite (c, a, b) -> app "ite" [ c; a; b ]
    | Expr.Bnot x -> app "bvnot" [ x ]
    | Expr.Bin (op, a, b) -> app (binop_name op) [ a; b ]
    | Expr.Extract (hi, lo, x) ->
      app (Printf.sprintf "(_ extract %d %d)" hi lo) [ x ]
    | Expr.Concat (a, b) -> app "concat" [ a; b ]
    | Expr.Zext (w, x) ->
      app (Printf.sprintf "(_ zero_extend %d)" (w - Expr.width x)) [ x ]
    | Expr.Sext (w, x) ->
      app (Printf.sprintf "(_ sign_extend %d)" (w - Expr.width x)) [ x ]
  and app name args =
    Buffer.add_char buf '(';
    Buffer.add_string buf name;
    List.iter (fun a -> Buffer.add_char buf ' '; go a) args;
    Buffer.add_char buf ')'
  in
  go e;
  Buffer.contents buf

let declarations constraints =
  List.map
    (fun (v : Expr.var) ->
       Printf.sprintf "(declare-const %s (_ BitVec %d))" (var_name v)
         v.Expr.var_width)
    (Slice.vars constraints)

let query ?(logic = "QF_BV") constraints =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "(set-logic %s)\n" logic);
  List.iter
    (fun d -> Buffer.add_string buf d; Buffer.add_char buf '\n')
    (declarations constraints);
  List.iter
    (fun c ->
       Buffer.add_string buf (Printf.sprintf "(assert %s)\n" (term c)))
    constraints;
  Buffer.add_string buf "(check-sat)\n(get-model)\n";
  Buffer.contents buf

let model_values model =
  List.map
    (fun ((v : Expr.var), value) ->
       Printf.sprintf "(define-fun %s () (_ BitVec %d) %s)" (var_name v)
         v.Expr.var_width (bv_literal value))
    (Model.bindings model)
