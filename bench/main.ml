(* Micro-benchmarks for the two paper claims that the fresh-process
   benchmark (benchmark/symbench.exe) does not measure:

   - Section 5.2: the peripheral kernel (PK) against a heavyweight
     SystemC-style kernel with float time and string-keyed events;
   - Section 4.3: integer picosecond sc_time against float seconds.

   Each row is a Bechamel OLS estimate of the time per run.  The Table 1
   and Table 2 workloads are measured by symbench; `symsysc table1` and
   `symsysc table2` print the tables themselves.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Kernel ablation: PK vs heavyweight SystemC-style kernel             *)

let pk_workload () =
  let sched = Pk.Scheduler.create () in
  let ev = Pk.Event.make "e" in
  let n = ref 0 in
  Pk.Scheduler.spawn sched
    (Pk.Process.make "w" (fun () ->
         incr n;
         Pk.Process.Wait_event ev));
  Pk.Scheduler.run_ready sched;
  for _ = 1 to 500 do
    Pk.Scheduler.notify_at sched ev (Pk.Sc_time.ns 10);
    ignore (Pk.Scheduler.step sched)
  done;
  assert (!n = 501)

let heavy_workload () =
  let k = Pk.Heavy_kernel.create () in
  let ev = Pk.Heavy_kernel.new_event k in
  let n = ref 0 in
  Pk.Heavy_kernel.spawn k "w" (fun () ->
      incr n;
      Pk.Heavy_kernel.Wait_event ev);
  for _ = 1 to 500 do
    Pk.Heavy_kernel.notify_after k ev 1e-8;
    ignore (Pk.Heavy_kernel.step k)
  done;
  assert (!n = 501)

let kernel_tests =
  [
    Test.make ~name:"peripheral-kernel" (Staged.stage pk_workload);
    Test.make ~name:"systemc-style-heavy" (Staged.stage heavy_workload);
  ]

(* ------------------------------------------------------------------ *)
(* sc_time ablation: integer vs float arithmetic                       *)

let int_time_workload () =
  let t = ref Pk.Sc_time.zero in
  for i = 1 to 10_000 do
    t := Pk.Sc_time.add !t (Pk.Sc_time.ns i);
    if Pk.Sc_time.(!t > Pk.Sc_time.us 1) then t := Pk.Sc_time.zero
  done

let float_time_workload () =
  let t = ref 0.0 in
  for i = 1 to 10_000 do
    t := !t +. (float_of_int i *. 1e-9);
    if !t > 1e-6 then t := 0.0
  done;
  ignore !t

let time_tests =
  [
    Test.make ~name:"integer-ps" (Staged.stage int_time_workload);
    Test.make ~name:"float-seconds" (Staged.stage float_time_workload);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)

let benchmark_group name tests =
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (test_name, ols_result) ->
       match Analyze.OLS.estimates ols_result with
       | Some [ ns ] ->
         Format.printf "  %-40s %12.3f ms/run@." test_name (ns /. 1e6)
       | Some _ | None -> Format.printf "  %-40s (no estimate)@." test_name)
    rows

let () =
  Format.printf "-- Section 5.2: PK vs heavyweight kernel (501 activations) --@.";
  benchmark_group "kernel" kernel_tests;
  Format.printf "@.-- Section 4.3: integer vs float simulation time (10k ops) --@.";
  benchmark_group "sc_time" time_tests
