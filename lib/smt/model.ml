module Int_map = Map.Make (Int)

type t = (Expr.var * Bv.t) Int_map.t

let empty = Int_map.empty
let add (v : Expr.var) bv t = Int_map.add v.Expr.var_id (v, bv) t

let find t (v : Expr.var) =
  match Int_map.find_opt v.Expr.var_id t with
  | Some (_, bv) -> bv
  | None -> Bv.zero v.Expr.var_width

let find_opt t (v : Expr.var) =
  Option.map snd (Int_map.find_opt v.Expr.var_id t)

let bindings t = List.map snd (Int_map.bindings t)

let of_fun vars f =
  List.fold_left (fun m v -> add v (f v) m) empty vars

let union a b = Int_map.union (fun _ binding _ -> Some binding) a b

let eval t e = Expr.eval (find t) e
let eval_bool t e = Expr.eval_bool (find t) e
let satisfies t constraints = Expr.eval_all (find t) constraints

let pp ppf t =
  let pp_binding ppf ((v : Expr.var), bv) =
    Format.fprintf ppf "%s!%d = %a" v.Expr.var_name v.Expr.var_id Bv.pp bv
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_binding)
    (bindings t)

let to_string t = Format.asprintf "%a" pp t
