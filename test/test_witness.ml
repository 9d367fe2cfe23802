(* Witness golden: every model the engine consumes, pinned.

   Error counterexamples and concretization values come from scratch
   solves (DESIGN "Incremental solving", determinism rule).  A change
   to the scratch CNF, to the SAT core's search order, or to which
   queries reach the scratch pipeline and in what order can move them
   while verdicts and bug sets stay put — and with them the path ids
   at which Table 2's faults are first found.  This suite runs Table 1
   (T1-T5 on the original PLIC at 4 sources) and the 8 populated
   injected-fault cells of Table 2 (fixed PLIC at 24 sources, each
   stopping at its first error) and compares, line by line, with
   [witness.golden]:
   - per error: its site, kind, path id and counterexample;
   - per explored path: the constant equalities of its final path
     condition, in order.  A concretization extends the path with
     [v = e] (or its negation on the excluded side), so every
     concretized value is among them, next to equality branches.

   After an intended change to the models, regenerate with
     WITNESS_GOLDEN_OUT=$PWD/test/witness.golden \
       dune exec test/test_main.exe -- test witness

   A second case pins each cell's search counters.  Models from the
   retained scopes (Solver.Scope) are never consumed, so no witness
   line shows a change to their search; the counters do. *)

module Engine = Symex.Engine
module Error = Symex.Error
module Expr = Smt.Expr
module Bv = Smt.Bv
module Tests = Symsysc.Tests
module Fault = Plic.Fault

let picks pc =
  List.filter_map
    (fun (c : Expr.t) ->
       match c.Expr.node with
       | Expr.Cmp (Expr.Eq, { Expr.node = Expr.Bv_const v; _ }, _) ->
         Some ("=" ^ Bv.to_string v)
       | Expr.Not
           { Expr.node = Expr.Cmp (Expr.Eq, { Expr.node = Expr.Bv_const v; _ }, _);
             _ } ->
         Some ("!=" ^ Bv.to_string v)
       | _ -> None)
    pc

(* One session, reading each explored path's condition as the path
   ends, however it ends.  Returns the witness lines and the run's
   solver counters. *)
let run_cell ~label session test =
  Smt.Solver.clear_caches ();
  let paths = ref [] in
  let record () =
    if Engine.exploring () then
      paths := picks (Engine.path_condition ()) :: !paths
  in
  let body () =
    match test () with
    | () -> record ()
    | exception e ->
      record ();
      raise e
  in
  let report = Engine.Session.run ~label session body in
  ( label,
    report.Engine.solver_stats,
    List.map
      (fun (e : Error.t) ->
         Printf.sprintf "%s error %s %s path %d cex %s" label e.Error.site
           (Error.kind_to_string e.Error.kind) e.Error.path_id
           (String.concat " "
              (List.map
                 (fun (name, v) -> name ^ "=" ^ Bv.to_string v)
                 e.Error.counterexample)))
      report.Engine.errors
    @ List.mapi
        (fun i p -> String.concat " " (Printf.sprintf "%s path %d picks" label i :: p))
        (List.rev !paths) )

let table1_cells () =
  let params =
    Tests.with_faults []
      (Tests.with_variant Plic.Config.Original
         (Tests.scaled_params ~num_sources:4 ~t5_max_len:16))
  in
  List.map
    (fun (name, test) ->
       run_cell ~label:name (Engine.Session.make ()) (test params))
    Tests.all

(* The populated Table 2 cells, as the first-error benchmark runs them. *)
let cells =
  [ (Fault.IF1, "T1"); (Fault.IF2, "T1"); (Fault.IF4, "T1"); (Fault.IF5, "T1");
    (Fault.IF2, "T2"); (Fault.IF3, "T2"); (Fault.IF5, "T2"); (Fault.IF6, "T3") ]

let table2_cells () =
  let base =
    Tests.with_variant Plic.Config.Fixed
      (Tests.scaled_params ~num_sources:24 ~t5_max_len:16)
  in
  List.map
    (fun (fault, name) ->
       let test = Option.get (Tests.by_name name) in
       run_cell
         ~label:(Fault.to_string fault ^ "x" ^ name)
         (Engine.Session.make ~stop_after_errors:1 ())
         (test (Tests.with_faults [ fault ] base)))
    cells

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Both cases read the same runs. *)
let cells_run = lazy (table1_cells () @ table2_cells ())

let test_witnesses () =
  let got = List.concat_map (fun (_, _, lines) -> lines) (Lazy.force cells_run) in
  match Sys.getenv_opt "WITNESS_GOLDEN_OUT" with
  | Some out ->
    Out_channel.with_open_text out (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got)
  | None ->
    let golden =
      read_lines
        (if Sys.file_exists "witness.golden" then "witness.golden"
         else "test/witness.golden")
    in
    let rec first_diff i = function
      | [], [] -> ()
      | g :: gs, w :: ws when g = w -> first_diff (i + 1) (gs, ws)
      | g, w ->
        let show = function [] -> "<end>" | l :: _ -> l in
        Alcotest.failf "witness line %d moved:\n  golden: %s\n  got:    %s" i
          (show w) (show g)
    in
    first_diff 1 (got, golden)

(* Per cell: sat_calls, sat_conflicts, sat_decisions, sat_propagations
   and scope_reused.  Recorded with each concretization's excluded side
   solved on the scratch pipeline, whose cached model the fork's first
   live step then reads, with scope instances encoding through the
   verdict encoder (folded, structurally hashed gates), and with the
   complementary-constraint prescreen answering before the interval
   stage.  Scope instances recycled from an earlier cell's released
   scope repeat them exactly, as fresh ones do. *)
let pinned_counters =
  [ ("T1", (3, 6, 6, 4696, 0));
    ("T2", (55, 84, 601, 91489, 1009));
    ("T3", (4, 7, 8, 2486, 0));
    ("T4", (37, 66, 138, 120054, 19));
    ("T5", (205, 810, 1092, 909695, 0));
    ("IF1xT1", (0, 0, 0, 0, 0));
    ("IF2xT1", (14, 61, 101, 29934, 0));
    ("IF4xT1", (1, 0, 4, 1438, 0));
    ("IF5xT1", (19, 109, 158, 46315, 0));
    ("IF2xT2", (79, 161, 1106, 220718, 1619));
    ("IF3xT2", (1, 9, 39, 3683, 5));
    ("IF5xT2", (85, 177, 1246, 250029, 1787));
    ("IF6xT3", (0, 0, 0, 0, 0)) ]

let test_search_counters () =
  let show (label, (calls, conflicts, decisions, propagations, reused)) =
    Printf.sprintf
      "%s calls %d conflicts %d decisions %d propagations %d reused %d" label
      calls conflicts decisions propagations reused
  in
  let got =
    List.map
      (fun (label, (s : Smt.Solver.Stats.t), _) ->
         ( label,
           (s.sat_calls, s.sat_conflicts, s.sat_decisions, s.sat_propagations,
            s.scope_reused) ))
      (Lazy.force cells_run)
  in
  Alcotest.(check (list string)) "search counters per cell"
    (List.map show pinned_counters) (List.map show got)

let suite =
  [ ("Table 1 and Table 2 witnesses match the golden", `Quick, test_witnesses);
    ("Table 1 and Table 2 search counters pinned", `Quick, test_search_counters) ]
