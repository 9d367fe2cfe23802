(* Solver-time attribution.  The solver reports wall-time slices via
   [record ~stage dt]; the engine tags each query with its origin (the
   decision or check site that caused it) via [set_origin].  Buckets are
   keyed by (origin, stage) so a report can answer "which sites at which
   pipeline stages dominate solver time". *)

type bucket = { b_count : int; b_time : float }

type t = ((string * string) * bucket) list

let zero = []

let tbl : (string * string, bucket ref) Hashtbl.t = Hashtbl.create 64
let cur_origin = ref "init"

(* Cumulative recorded stage time; lets the solver's top-level [check]
   attribute the wall time not covered by any inner stage to "other"
   without double-counting. *)
let stage_acc = ref 0.0

let reset () =
  Hashtbl.reset tbl;
  cur_origin := "init";
  stage_acc := 0.0

let set_origin site = cur_origin := site
let origin () = !cur_origin
let stage_clock () = !stage_acc

let record_as ~origin ~stage dt =
  (match Hashtbl.find_opt tbl (origin, stage) with
   | Some b -> b := { b_count = !b.b_count + 1; b_time = !b.b_time +. dt }
   | None -> Hashtbl.add tbl (origin, stage) (ref { b_count = 1; b_time = dt }));
  stage_acc := !stage_acc +. dt

let record ~stage dt = record_as ~origin:!cur_origin ~stage dt

let get () =
  Hashtbl.fold (fun k b acc -> (k, !b) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- delta arithmetic over sorted assoc lists ---- *)

let merge2 both only a b =
  let rec go a b =
    match a, b with
    | [], [] -> []
    | (ka, va) :: ta, [] -> cons ka (only va) (go ta [])
    | [], (kb, vb) :: tb -> cons kb (only vb) (go [] tb)
    | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = compare ka kb in
      if c < 0 then cons ka (only va) (go ta b)
      else if c > 0 then cons kb (only vb) (go a tb)
      else cons ka (both va vb) (go ta tb)
  and cons k v tl = match v with None -> tl | Some v -> (k, v) :: tl in
  go a b

let keep b = if b.b_count = 0 && Float.abs b.b_time < 1e-12 then None else Some b

(* [b] is negated up front so the merge is a single pointwise sum —
   negating inside [both] as well would turn common keys into x + y. *)
let sub a b =
  merge2
    (fun x y -> keep { b_count = x.b_count + y.b_count; b_time = x.b_time +. y.b_time })
    keep a
    (List.map (fun (k, v) -> (k, { b_count = -v.b_count; b_time = -.v.b_time })) b)

let add a b =
  merge2
    (fun x y -> Some { b_count = x.b_count + y.b_count; b_time = x.b_time +. y.b_time })
    (fun v -> Some v)
    a b

let total_time t = List.fold_left (fun acc (_, b) -> acc +. b.b_time) 0.0 t
let total_count t = List.fold_left (fun acc (_, b) -> acc + b.b_count) 0 t

let top ?(k = 10) t =
  let sorted =
    List.stable_sort
      (fun (ka, a) (kb, b) ->
         let c = compare b.b_time a.b_time in
         if c <> 0 then c else compare ka kb)
      t
  in
  List.filteri (fun i _ -> i < k) sorted

(* ---- JSON ---- *)

let to_json t =
  Json.List
    (List.map
       (fun ((origin, stage), b) ->
          Json.Obj
            [ ("origin", Json.Str origin);
              ("stage", Json.Str stage);
              ("count", Json.Int b.b_count);
              ("time", Json.Float b.b_time) ])
       t)

let of_json j =
  match Json.to_list_opt j with
  | None -> []
  | Some l ->
    List.map
      (fun o ->
         let str k =
           Option.value ~default:""
             (Option.bind (Json.member k o) Json.to_string_opt)
         in
         let origin = str "origin" and stage = str "stage" in
         let count =
           Option.value ~default:0
             (Option.bind (Json.member "count" o) Json.to_int_opt)
         in
         let time =
           Option.value ~default:0.0
             (Option.bind (Json.member "time" o) Json.to_float_opt)
         in
         ((origin, stage), { b_count = count; b_time = time }))
      l
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp_top ?(k = 10) ~queries ppf t =
  let total = total_time t in
  Format.fprintf ppf "%-28s %-12s %8s %10s %6s@." "origin" "stage" "records"
    "self(s)" "%";
  List.iter
    (fun ((origin, stage), b) ->
       Format.fprintf ppf "%-28s %-12s %8d %10.3f %5.1f%%@." origin stage
         b.b_count b.b_time
         (if total > 0.0 then 100.0 *. b.b_time /. total else 0.0))
    (top ~k t);
  Format.fprintf ppf "total: %d queries, %.3fs solver time@." queries total
