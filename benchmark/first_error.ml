(* Workload [first-error]: the populated injected-fault cells of the
   paper's Table 2 — each fault planted alone in the fixed PLIC, each
   cell its own session that stops at the first error, with
   counterexample validation on.  Time to first bug is what a
   verification engineer waits for; short sessions give set-up,
   cold-cache queries and validation more weight than [table1] does,
   and a change to search order shows here first. *)

open Sampler

module Fault = Plic.Fault

(* Fault, test, and the pinned [path_id] of the first detecting error. *)
let cells : scale -> (Fault.t * string * int) list = function
  | Full ->
    [
      (Fault.IF1, "T1", 0); (Fault.IF2, "T1", 14); (Fault.IF4, "T1", 1);
      (Fault.IF5, "T1", 19); (Fault.IF2, "T2", 32); (Fault.IF3, "T2", 0);
      (Fault.IF5, "T2", 34); (Fault.IF6, "T3", 0);
    ]
  | Smoke -> [ (Fault.IF1, "T1", 0); (Fault.IF6, "T3", 0) ]

let num_sources = function Full -> 24 | Smoke -> 4

let run scale ~seed:_ ~dir:_ ~mark =
  let base =
    Symsysc.Tests.with_variant Plic.Config.Fixed
      (Symsysc.Tests.scaled_params ~num_sources:(num_sources scale) ~t5_max_len:16)
  in
  let before = Smt.Solver.Stats.get () in
  let c = Outcome.checks () in
  let first_paths = ref 0 and session_s = ref 0.0 and reports = ref [] in
  mark ();
  List.iter
    (fun (fault, name, want_path) ->
       let test = Option.get (Symsysc.Tests.by_name name) in
       let params = Symsysc.Tests.with_faults [ fault ] base in
       let session = Symex.Engine.Session.make ~stop_after_errors:1 () in
       let r, dt =
         Outcome.timed (fun () ->
             Outcome.span "symex.session" (fun () ->
                 Symex.Engine.Session.run ~label:name session (test params)))
       in
       session_s := !session_s +. dt;
       reports := r :: !reports;
       let first =
         List.fold_left
           (fun acc (e : Symex.Error.t) ->
              if Symsysc.Verify.bug_matches (Symsysc.Verify.Injected fault) e then
                min acc e.Symex.Error.path_id
              else acc)
           max_int r.Symex.Engine.errors
       in
       let what = Fault.to_string fault ^ "x" ^ name in
       Outcome.operation c ~what
         (if first = max_int then [ "not detected" ]
          else begin
            first_paths := !first_paths + first;
            Outcome.expect string_of_int "first path" ~got:first ~want:want_path
            @ Outcome.sound_run r
          end))
    (cells scale);
  let stats = Smt.Solver.Stats.sub (Smt.Solver.Stats.get ()) before in
  let sv, st = Outcome.solver stats and ev, et = Outcome.exploration !reports in
  Outcome.finish c ~work_s:!session_s
    ~values:(sv @ ev @ [ ("symex.first_paths", float_of_int !first_paths) ])
    ~times:(st @ et) ()

let workload =
  {
    name = "first-error";
    operations = (fun s -> List.length (cells s));
    deterministic = true;
    run;
  }
