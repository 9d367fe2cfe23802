(* Unit tests of [symbench compare] on synthetic records. *)

open Symbench_lib
module Json = Obs.Json

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let lower bound = { Compare.metric = "work_s"; better = Catalog.Lower; bound }
let higher bound = { Compare.metric = "ops"; better = Catalog.Higher; bound }

let verdict b old_values new_values =
  (Compare.judge b ~old_values ~new_values).Compare.verdict

let test_judge () =
  let steady = [ 10.0; 10.1; 9.9; 10.0; 10.05 ] in
  check "same within bound" (verdict (lower 0.1) steady [ 10.5; 10.4; 10.6 ] = Compare.Same);
  check "worse past bound" (verdict (lower 0.1) steady [ 11.5; 11.6; 11.4 ] = Compare.Worse);
  check "better past bound" (verdict (lower 0.1) steady [ 8.5; 8.6; 8.4 ] = Compare.Better);
  check "higher is better: drop is worse"
    (verdict (higher 0.1) steady [ 8.5; 8.6; 8.4 ] = Compare.Worse);
  check "higher is better: rise is better"
    (verdict (higher 0.1) steady [ 11.5; 11.6; 11.4 ] = Compare.Better);
  let noisy = [ 8.0; 12.0; 9.0; 11.0; 10.0 ] in
  check "wide parent IQR is unresolved"
    (verdict (lower 0.1) noisy [ 12.0; 13.0; 12.5 ] = Compare.Unresolved);
  check "wide parent IQR, every new sample better"
    (verdict (lower 0.1) noisy [ 7.0; 7.5; 7.9 ] = Compare.Better);
  check "wide parent IQR, one new sample not better"
    (verdict (lower 0.1) noisy [ 7.0; 7.5; 8.5 ] = Compare.Unresolved);
  let setup = { Compare.metric = "setup_s"; better = Catalog.Lower; bound = 0.1 } in
  check "setup_s has an absolute floor"
    (verdict setup [ 0.010; 0.010; 0.010 ] [ 0.014; 0.014; 0.014 ] = Compare.Same);
  check "setup_s past the floor is worse"
    (verdict setup [ 0.010; 0.010; 0.010 ] [ 0.016; 0.016; 0.016 ] = Compare.Worse)

let record workloads =
  let floats l = Json.List (List.map (fun v -> Json.Float v) l) in
  Json.Obj
    [
      ("schema", Json.Str Record.schema);
      ( "workloads",
        Json.Obj
          (List.map
             (fun (name, fail_ratio, work) ->
                ( name,
                  Json.Obj
                    [
                      ("fail_ratio", Json.Float fail_ratio);
                      ("end_to_end", Json.Obj [ ("work_s", Json.Obj [ ("values", floats work) ]) ]);
                    ] ))
             workloads) );
    ]

let test_records () =
  let bounds = [ lower 0.1 ] in
  let base = record [ ("a", 0.0, [ 1.0; 1.0; 1.0 ]); ("b", 0.0, [ 2.0; 2.0; 2.0 ]) ] in
  let gate new_record = Compare.gate_fails (Compare.compare_records ~bounds ~old_record:base ~new_record) in
  check "identical records pass" (not (gate base));
  check "a worse workload fails"
    (gate (record [ ("a", 0.0, [ 1.0; 1.0; 1.0 ]); ("b", 0.0, [ 3.0; 3.0; 3.0 ]) ]));
  check "a fail_ratio increase fails"
    (gate (record [ ("a", 0.0, [ 1.0; 1.0; 1.0 ]); ("b", 0.2, [ 2.0; 2.0; 2.0 ]) ]));
  check "a missing workload fails" (gate (record [ ("a", 0.0, [ 1.0; 1.0; 1.0 ]) ]));
  check "a faster workload passes"
    (not (gate (record [ ("a", 0.0, [ 0.5; 0.5; 0.5 ]); ("b", 0.0, [ 2.0; 2.0; 2.0 ]) ])));
  let rows, _ =
    Compare.compare_records ~bounds ~old_record:base
      ~new_record:(record [ ("a", 0.0, [ 0.5; 0.5; 0.5 ]); ("b", 0.0, [ 2.05; 2.0; 2.1 ]) ])
  in
  let verdict_of w =
    match List.find_opt (fun r -> r.Compare.workload = w) rows with
    | Some { Compare.judgement = Ok j; _ } -> Some j.Compare.verdict
    | _ -> None
  in
  check "row verdicts" (verdict_of "a" = Some Compare.Better && verdict_of "b" = Some Compare.Same)

let test_bounds () =
  let doc =
    Json.Obj
      [
        ( "end_to_end",
          Json.List
            [
              Json.Obj
                [ ("name", Json.Str "work_s"); ("unit", Json.Str "s"); ("better", Json.Str "lower");
                  ("bound", Json.Float 0.1) ];
            ] );
      ]
  in
  check "bounds parse" (Compare.bounds_of_json doc = Ok [ lower 0.1 ]);
  check "bounds reject a missing list" (Result.is_error (Compare.bounds_of_json (Json.Obj [])))

let test_quartiles () =
  (* Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) *)
  let q1, q3 = Quartiles.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles match Python's" (q1 = 2.75 && q3 = 8.25);
  check "median of an even count" (Quartiles.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let () =
  test_judge ();
  test_records ();
  test_bounds ();
  test_quartiles ();
  if !failures > 0 then exit 1;
  print_endline "test_compare: ok"
