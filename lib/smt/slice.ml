(* Union-find over variable ids; constraints are then grouped by the
   representative of their first variable.  Everything is a single pass
   over the constraints plus near-constant-time set operations, so
   partitioning is negligible next to even one cache lookup.  Each
   constraint's variables come from [Expr.vars], which builds a term's
   list once and keeps it, so no query walks a term DAG. *)

let vars constraints =
  List.fold_left (fun acc c -> Expr.union_vars acc (Expr.vars c)) [] constraints

let partition constraints =
  match constraints with
  | [] -> []
  | [ _ ] -> [ constraints ]
  | _ ->
    let parent : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let rec find v =
      match Hashtbl.find_opt parent v with
      | None ->
        Hashtbl.add parent v v;
        v
      | Some p when p = v -> v
      | Some p ->
        let r = find p in
        Hashtbl.replace parent v r;  (* path compression *)
        r
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    List.iter
      (fun c ->
         match Expr.vars c with
         | [] -> ()
         | (v0 : Expr.var) :: rest ->
           List.iter
             (fun (v : Expr.var) -> union v0.Expr.var_id v.Expr.var_id)
             rest)
      constraints;
    (* Group by final representative, preserving first-occurrence order
       of the groups and input order within each group. *)
    let groups : (int, Expr.t list ref) Hashtbl.t = Hashtbl.create 16 in
    let roots_rev = ref [] in
    let ground_rev = ref [] in
    List.iter
      (fun c ->
         match Expr.vars c with
         | [] -> ground_rev := c :: !ground_rev
         | (v0 : Expr.var) :: _ ->
           let r = find v0.Expr.var_id in
           (match Hashtbl.find_opt groups r with
            | Some slot -> slot := c :: !slot
            | None ->
              Hashtbl.add groups r (ref [ c ]);
              roots_rev := r :: !roots_rev))
      constraints;
    let slices =
      List.rev_map (fun r -> List.rev !(Hashtbl.find groups r)) !roots_rev
    in
    match !ground_rev with
    | [] -> slices
    | ground -> slices @ [ List.rev ground ]
