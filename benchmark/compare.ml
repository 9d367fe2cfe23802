(* [symbench compare OLD NEW]: judge every (workload, end-to-end metric)
   pair of two records against the bounds in BENCHMARK.json.

   A metric is [Worse] when the new median is worse than the old one by
   more than the bound, [Better] when it is better by more, and [Same]
   otherwise — except that when the old samples' IQR is itself wider
   than the bound the medians cannot tell a change from noise, and the
   verdict is [Unresolved] unless every new sample beats every old
   one. *)

module Json = Obs.Json

type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type bound = { metric : string; better : Catalog.better; bound : float }

let ( let* ) = Result.bind

let field key conv j =
  Option.to_result ~none:("missing or malformed field " ^ key) (Option.bind (Json.member key j) conv)

(* The [end_to_end] bounds of a BENCHMARK.json document. *)
let bounds_of_json j =
  let* rows = field "end_to_end" Json.to_list_opt j in
  List.fold_right
    (fun row acc ->
       let* acc = acc in
       let* metric = field "name" Json.to_string_opt row in
       let* better = field "better" (fun v -> Option.bind (Json.to_string_opt v) Catalog.better_of_string) row in
       let* bound = field "bound" Json.to_float_opt row in
       Ok ({ metric; better; bound } :: acc))
    rows (Ok [])

(* How much worse [b] is than [a] (negative when better). *)
let worsening better a b = match better with Catalog.Lower -> b -. a | Catalog.Higher -> a -. b

type judgement = {
  old_median : float;
  old_iqr : float;
  new_median : float;
  new_iqr : float;
  verdict : verdict;
}

let iqr values =
  let q1, q3 = Quartiles.quartiles values in
  q3 -. q1

let judge ({ metric; better; bound } : bound) ~old_values ~new_values =
  let old_median = Quartiles.median old_values and new_median = Quartiles.median new_values in
  let old_iqr = iqr old_values in
  let allowed = Float.max (bound *. Float.abs old_median) (Catalog.abs_floor metric) in
  let best_old =
    List.fold_left
      (fun best v -> if worsening better best v < 0.0 then v else best)
      (List.hd old_values) old_values
  in
  let all_better = List.for_all (fun v -> worsening better best_old v < 0.0) new_values in
  let d = worsening better old_median new_median in
  let verdict =
    if old_iqr > allowed then if all_better then Better else Unresolved
    else if d > allowed then Worse
    else if d < -.allowed then Better
    else Same
  in
  { old_median; old_iqr; new_median; new_iqr = iqr new_values; verdict }

(* ---- records ---- *)

let workloads record =
  match Json.member "workloads" record with Some (Json.Obj l) -> l | _ -> []

let samples w metric =
  Option.bind (Json.member "end_to_end" w) (Json.member metric)
  |> Fun.flip Option.bind (Json.member "values")
  |> Fun.flip Option.bind Json.to_list_opt
  |> Option.map (List.filter_map Json.to_float_opt)
  |> Option.value ~default:[]

let fail_ratio w = Option.bind (Json.member "fail_ratio" w) Json.to_float_opt

type row = {
  workload : string;
  metric : string;
  judgement : (judgement, string) result;  (** [Error] when samples are missing *)
}

(* One row per (workload of NEW, bound), and the workloads whose
   fail_ratio rose.  A workload or metric missing from either record
   is an error row. *)
let compare_records ~bounds ~old_record ~new_record =
  let olds = workloads old_record in
  let rows =
    List.concat_map
      (fun (name, nw) ->
         List.map
           (fun (b : bound) ->
              let judgement =
                match List.assoc_opt name olds with
                | None -> Error "workload missing from OLD"
                | Some ow -> (
                    match (samples ow b.metric, samples nw b.metric) with
                    | [], _ -> Error "no samples in OLD"
                    | _, [] -> Error "no samples in NEW"
                    | old_values, new_values -> Ok (judge b ~old_values ~new_values))
              in
              { workload = name; metric = b.metric; judgement })
           bounds)
      (workloads new_record)
  in
  let missing =
    List.filter_map
      (fun (name, _) ->
         if List.mem_assoc name (workloads new_record) then None
         else Some { workload = name; metric = "*"; judgement = Error "workload missing from NEW" })
      olds
  in
  let fail_rises =
    List.filter_map
      (fun (name, nw) ->
         match (Option.bind (List.assoc_opt name olds) fail_ratio, fail_ratio nw) with
         | Some o, Some n when n <= o -> None
         | o, n -> Some (name, o, n))
      (workloads new_record)
  in
  (rows @ missing, fail_rises)

(* Whether the change must be rejected. *)
let gate_fails (rows, fail_rises) =
  fail_rises <> []
  || List.exists
       (fun r -> match r.judgement with Ok j -> j.verdict = Worse | Error _ -> true)
       rows

let print (rows, fail_rises) =
  Printf.printf "%-14s %-12s %14s %8s %14s %8s %8s  %s\n" "workload" "metric" "old median"
    "old IQR" "new median" "new IQR" "change" "verdict";
  List.iter
    (fun r ->
       match r.judgement with
       | Error msg -> Printf.printf "%-14s %-12s %s\n" r.workload r.metric msg
       | Ok j ->
         let pct x m = 100.0 *. x /. Float.abs m in
         Printf.printf "%-14s %-12s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%%  %s\n" r.workload
           r.metric j.old_median (pct j.old_iqr j.old_median) j.new_median
           (pct j.new_iqr j.new_median)
           (pct (j.new_median -. j.old_median) j.old_median)
           (verdict_to_string j.verdict))
    rows;
  let show = function Some v -> Printf.sprintf "%g" v | None -> "missing" in
  List.iter
    (fun (name, o, n) -> Printf.printf "%-14s fail_ratio rose: %s -> %s\n" name (show o) (show n))
    fail_rises
