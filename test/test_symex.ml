(* Tests for the symbolic-execution engine: forking, assumptions,
   checks, error semantics, limits, search strategies, concretization,
   checked memory and counterexample replay. *)

module Expr = Smt.Expr
module Bv = Smt.Bv
module Engine = Symex.Engine
module Error = Symex.Error
module Search = Symex.Search
module Value = Symex.Value
module Mem = Symex.Mem

let e_int v = Expr.int ~width:32 v

let run ?strategy ?limits ?stop_after_errors body =
  Engine.Session.run
    (Engine.Session.make ?strategy ?limits ?stop_after_errors ())
    body

(* ------------------------------------------------------------------ *)
(* Exploration basics                                                  *)

let test_no_branch_single_path () =
  let r = run (fun () -> ()) in
  Alcotest.(check int) "one path" 1 r.Engine.paths;
  Alcotest.(check int) "completed" 1 r.Engine.paths_completed;
  Alcotest.(check bool) "exhausted" true r.Engine.exhausted

let test_fork_covers_both_sides () =
  let seen = ref [] in
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        if Engine.branch (Expr.ult x (e_int 10)) then seen := `Lo :: !seen
        else seen := `Hi :: !seen)
  in
  Alcotest.(check int) "two paths" 2 r.Engine.paths;
  Alcotest.(check bool) "both outcomes" true
    (List.mem `Lo !seen && List.mem `Hi !seen)

let test_nested_forks () =
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        ignore (Engine.branch (Expr.ult x (e_int 10)));
        ignore (Engine.branch (Expr.eq (Expr.band x (e_int 1)) (e_int 0))))
  in
  Alcotest.(check int) "four paths" 4 r.Engine.paths

let test_infeasible_branch_not_forked () =
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        Engine.assume (Expr.ult x (e_int 10));
        (* x < 100 is implied: no fork *)
        if Engine.branch (Expr.ult x (e_int 100)) then () else Alcotest.fail "unreachable")
  in
  Alcotest.(check int) "one path" 1 r.Engine.paths

let test_assume_kills_path () =
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        Engine.assume (Expr.ult x (e_int 10));
        Engine.assume (Expr.ugt x (e_int 20));
        Alcotest.fail "unreachable")
  in
  Alcotest.(check int) "infeasible" 1 r.Engine.paths_infeasible;
  Alcotest.(check int) "no errors" 0 (List.length r.Engine.errors)

(* ------------------------------------------------------------------ *)
(* Checks and errors                                                   *)

let test_check_records_and_continues () =
  let passed = ref 0 in
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        Engine.assume (Expr.ult x (e_int 10));
        Engine.check ~site:"x-not-7" (Expr.ne x (e_int 7));
        (* passing side continues with x != 7 *)
        incr passed)
  in
  Alcotest.(check int) "one error" 1 (List.length r.Engine.errors);
  Alcotest.(check int) "pass side continued" 1 !passed;
  match r.Engine.errors with
  | [ e ] ->
    Alcotest.(check string) "site" "x-not-7" e.Error.site;
    Alcotest.(check bool) "kind" true (e.Error.kind = Error.Assertion_failure);
    (match e.Error.counterexample with
     | [ ("x", v) ] ->
       Alcotest.(check int64) "counterexample is 7" 7L (Bv.to_int64 v)
     | _ -> Alcotest.fail "expected one input")
  | _ -> Alcotest.fail "expected one error"

let test_error_dedup () =
  (* The same failing site on many paths is reported once. *)
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        ignore (Engine.branch (Expr.ult x (e_int 100)));
        Engine.check ~site:"always" Expr.fls)
  in
  Alcotest.(check int) "deduplicated" 1 (List.length r.Engine.errors);
  Alcotest.(check int) "both paths errored" 2 r.Engine.paths_errored

let test_fatal_check_kind () =
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        Engine.fatal_check ~site:"guard" (Expr.ult x (e_int 10)))
  in
  match r.Engine.errors with
  | [ e ] -> Alcotest.(check bool) "abort kind" true (e.Error.kind = Error.Abort)
  | _ -> Alcotest.fail "expected one error"

let test_unhandled_exception () =
  let r = run (fun () -> failwith "device blew up") in
  match r.Engine.errors with
  | [ e ] ->
    Alcotest.(check bool) "kind" true (e.Error.kind = Error.Unhandled_exception)
  | _ -> Alcotest.fail "expected one error"

let test_division_by_zero_detector () =
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        ignore (Value.udiv ~site:"div" (e_int 100) x))
  in
  match r.Engine.errors with
  | [ e ] ->
    Alcotest.(check bool) "kind" true (e.Error.kind = Error.Division_by_zero)
  | _ -> Alcotest.fail "expected one division error"

let test_stop_after_errors () =
  let r =
    run ~stop_after_errors:1 (fun () ->
        let x = Engine.fresh32 "x" in
        if Engine.branch (Expr.ult x (e_int 10)) then
          Engine.check ~site:"first" Expr.fls
        else Engine.check ~site:"second" Expr.fls)
  in
  Alcotest.(check int) "stopped at one" 1 (List.length r.Engine.errors);
  Alcotest.(check bool) "not exhausted" false r.Engine.exhausted

(* ------------------------------------------------------------------ *)
(* Limits                                                              *)

let test_max_paths () =
  let r =
    run ~limits:{ Engine.no_limits with Engine.max_paths = Some 3 }
      (fun () ->
        let x = Engine.fresh32 "x" in
        (* 16 feasible paths *)
        ignore (Engine.branch (Expr.ult x (e_int 2)));
        ignore (Engine.branch (Expr.ult x (e_int 4)));
        ignore (Engine.branch (Expr.ult x (e_int 8)));
        ignore (Engine.branch (Expr.ult x (e_int 16))))
  in
  Alcotest.(check int) "capped" 3 r.Engine.paths;
  Alcotest.(check bool) "not exhausted" false r.Engine.exhausted

let test_max_instructions () =
  let r =
    run ~limits:{ Engine.no_limits with Engine.max_instructions = Some 50 }
      (fun () ->
        let x = Engine.fresh32 "x" in
        let acc = ref x in
        for _ = 1 to 10_000 do
          acc := Expr.add !acc x
        done)
  in
  Alcotest.(check bool) "not exhausted" false r.Engine.exhausted

(* ------------------------------------------------------------------ *)
(* Search strategies                                                   *)

let explore_order strategy =
  let order = ref [] in
  let r =
    run ~strategy (fun () ->
        let x = Engine.fresh32 "x" in
        let b1 = Engine.branch ~site:"b1" (Expr.ult x (e_int 100)) in
        let b2 = Engine.branch ~site:"b2" (Expr.ult x (e_int 200)) in
        order := (b1, b2) :: !order)
  in
  (r, List.rev !order)

let test_strategies_cover_same_paths () =
  List.iter
    (fun strategy ->
       let r, order = explore_order strategy in
       Alcotest.(check int)
         (Search.strategy_to_string strategy ^ " paths")
         3 r.Engine.paths;
       (* x<100 → x<200 implied: 3 feasible outcomes *)
       let sorted = List.sort_uniq compare order in
       Alcotest.(check int)
         (Search.strategy_to_string strategy ^ " outcomes")
         3 (List.length sorted))
    Search.all_strategies

let test_dfs_explores_depth_first () =
  let r, order = explore_order Search.Dfs in
  Alcotest.(check bool) "exhausted" true r.Engine.exhausted;
  (* DFS continues the true side first, then pops the most recent fork. *)
  match order with
  | (true, true) :: _ -> ()
  | _ -> Alcotest.fail "DFS should finish the all-true path first"

(* ------------------------------------------------------------------ *)
(* Concretization                                                      *)

let test_concretize_enumerates () =
  let seen = ref [] in
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        Engine.assume
          (Expr.and_ (Expr.uge x (e_int 5)) (Expr.ule x (e_int 8)));
        let v = Engine.concretize x in
        seen := Bv.to_int64 v :: !seen)
  in
  Alcotest.(check int) "four paths" 4 r.Engine.paths;
  Alcotest.(check (list int64)) "all values"
    [ 5L; 6L; 7L; 8L ]
    (List.sort Int64.compare !seen)

let test_concretize_concrete_is_free () =
  let r =
    run (fun () ->
        let v = Engine.concretize (e_int 42) in
        Alcotest.(check int64) "value" 42L (Bv.to_int64 v))
  in
  Alcotest.(check int) "one path" 1 r.Engine.paths

(* ------------------------------------------------------------------ *)
(* Checked memory                                                      *)

let test_mem_concrete_rw () =
  let m = Mem.create ~name:"m" ~size:8 in
  Mem.write32 m 0 (e_int 0xDEADBEEF);
  (match Expr.to_bv (Mem.read32 m 0) with
   | Some v -> Alcotest.(check int64) "roundtrip" 0xDEADBEEFL (Bv.to_int64 v)
   | None -> Alcotest.fail "expected concrete");
  (* little endian *)
  match Expr.to_bv (Mem.read_byte m 0) with
  | Some v -> Alcotest.(check int64) "LSB first" 0xEFL (Bv.to_int64 v)
  | None -> Alcotest.fail "expected concrete"

(* Access [buf] (4 bytes) by reading or writing [len] bytes at [offset]
   through the checked API; the write's source holds 8 bytes. *)
let access_buf what ~offset ~len =
  let m = Mem.create ~name:"buf" ~size:4 in
  match what with
  | "read" -> ignore (Mem.read_bytes m ~offset ~len)
  | _ -> Mem.write_bytes m ~offset ~len (Array.make 8 (Expr.int ~width:8 0))

(* The run reported exactly one out-of-bounds error, under the default
   site and message of a [what] access to [buf]. *)
let check_one_oob label what (r : Engine.report) =
  match
    List.filter (fun (e : Error.t) -> e.Error.kind = Error.Out_of_bounds)
      r.Engine.errors
  with
  | [ e ] ->
    Alcotest.(check string) (what ^ " site") ("mem:buf:" ^ what) e.Error.site;
    Alcotest.(check string) (what ^ " message")
      (what ^ " access exceeds buf (4 bytes)") e.Error.message
  | oob -> Alcotest.failf "%s: %d OOB errors, expected 1" label (List.length oob)

let test_mem_oob_detected () =
  List.iter
    (fun what ->
       let r =
         run (fun () ->
             let len = Engine.fresh32 "len" in
             Engine.assume
               (Expr.and_ (Expr.uge len (e_int 1)) (Expr.ule len (e_int 8)));
             access_buf what ~offset:(e_int 0) ~len)
       in
       check_one_oob "one OOB error" what r;
       (* the in-bounds side continues and enumerates len in 1..4 *)
       Alcotest.(check bool) "paths continued" true
         (r.Engine.paths_completed >= 4))
    [ "read"; "write" ]

let test_mem_oob_wraparound () =
  (* offset + len wrapping 32 bits must not bypass the check *)
  List.iter
    (fun what ->
       check_one_oob "wrap caught" what
         (run (fun () ->
              access_buf what ~offset:(e_int 0xFFFFFFFF) ~len:(e_int 2))))
    [ "read"; "write" ]

let test_mem_symbolic_data () =
  let r =
    run (fun () ->
        let m = Mem.create ~name:"m" ~size:4 in
        let x = Engine.fresh32 "x" in
        Mem.write32 m 0 x;
        let back = Mem.read32 m 0 in
        Engine.check ~site:"roundtrip" (Expr.eq back x))
  in
  Alcotest.(check int) "no errors" 0 (List.length r.Engine.errors)

let test_mem_write32_width_checked () =
  (* write64 has always rejected mis-sized values; write32 must too. *)
  let m = Mem.create ~name:"m" ~size:8 in
  Alcotest.check_raises "narrow value rejected"
    (Invalid_argument "Mem.write32: 32-bit value expected") (fun () ->
        Mem.write32 m 0 (Expr.int ~width:16 7));
  Alcotest.check_raises "wide value rejected"
    (Invalid_argument "Mem.write32: 32-bit value expected") (fun () ->
        Mem.write32 m 0 (Expr.int ~width:64 7))

(* [Mem.read32]'s word cache is never stale and counts like a miss.
   Random scripts over one 16-byte memory write constant and symbolic
   bytes and words, save states and load earlier ones, and read aligned
   words, some with counting suspended.  Each read must be the very
   term the test's own assembly of the current bytes gives, and must
   count the assembly's ten operations, or none inside
   [without_counting]. *)

type mem_step =
  | Put_byte of int * int  (** offset, [mem_bytes] index *)
  | Put_word of int * int  (** word index, [mem_words] index *)
  | Save
  | Load of int  (** an earlier [Save], counted back from the latest *)
  | Get of int * bool  (** word index, counted *)

let mem_bytes =
  lazy
    (Array.append
       (Array.map (Expr.int ~width:8) [| 0; 1; 0x80; 0xFF |])
       (Array.init 3 (fun i -> Expr.fresh_var (Printf.sprintf "b%d" i) 8)))

let mem_words =
  lazy
    (Array.append
       (Array.map e_int [| 0; 1; 0x8000_0000; 0xFFFF_FFFF; 0x0102_0304 |])
       (Array.init 2 (fun i -> Expr.fresh_var (Printf.sprintf "w%d" i) 32)))

let string_of_mem_step = function
  | Put_byte (o, b) -> Printf.sprintf "byte %d := %d" o b
  | Put_word (k, w) -> Printf.sprintf "word %d := %d" k w
  | Save -> "save"
  | Load j -> Printf.sprintf "load %d" j
  | Get (k, counted) -> Printf.sprintf "get %d%s" k (if counted then "" else " uncounted")

let arb_mem_script =
  let open QCheck in
  let step =
    Gen.frequency
      [ (3, Gen.map2 (fun o b -> Put_byte (o, b)) (Gen.int_bound 15) (Gen.int_bound 6));
        (1, Gen.map2 (fun k w -> Put_word (k, w)) (Gen.int_bound 3) (Gen.int_bound 6));
        (1, Gen.return Save);
        (1, Gen.map (fun j -> Load j) (Gen.int_bound 7));
        (5, Gen.map2 (fun k c -> Get (k, c)) (Gen.int_bound 3)
              (Gen.frequency [ (3, Gen.return true); (1, Gen.return false) ])) ]
  in
  make
    ~print:(fun steps -> String.concat "; " (List.map string_of_mem_step steps))
    Gen.(list_size (int_range 1 40) step)

let prop_mem_cached_read32 =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"mem: cached read32 equals a fresh assembly"
       arb_mem_script
       (fun steps ->
          let bytes = Lazy.force mem_bytes and words = Lazy.force mem_words in
          let m = Mem.create ~name:"m" ~size:16 in
          let saved = ref [] in
          let assembled off =
            let b i = Expr.zext 32 (Mem.read_byte m (off + i)) in
            Expr.bor (b 0)
              (Expr.bor
                 (Expr.shl (b 1) (e_int 8))
                 (Expr.bor (Expr.shl (b 2) (e_int 16)) (Expr.shl (b 3) (e_int 24))))
          in
          List.iter
            (function
              | Put_byte (o, b) -> Mem.write_byte m o bytes.(b)
              | Put_word (k, w) -> Mem.write32 m (4 * k) words.(w)
              | Save -> saved := Mem.save m :: !saved
              | Load j ->
                if !saved <> [] then
                  Mem.load m (List.nth !saved (j mod List.length !saved))
              | Get (k, counted) ->
                let before = Expr.instruction_count () in
                let w =
                  if counted then Mem.read32 m (4 * k)
                  else Expr.without_counting (fun () -> Mem.read32 m (4 * k))
                in
                let ops = Expr.instruction_count () - before in
                let fresh = Expr.without_counting (fun () -> assembled (4 * k)) in
                if w != fresh then
                  QCheck.Test.fail_reportf "word %d read %s, bytes assemble to %s" k
                    (Expr.to_string w) (Expr.to_string fresh);
                if ops <> (if counted then 10 else 0) then
                  QCheck.Test.fail_reportf "word %d counted %d operations" k ops)
            steps;
          true))

(* ------------------------------------------------------------------ *)
(* Solver resource limits                                              *)

let test_solver_unknown_kills_path_only () =
  (* A query blowing the conflict budget must kill only the current
     path (KLEE-style), not the whole exploration. *)
  Smt.Solver.clear_caches ();
  let easy_paths = ref 0 in
  let r =
    run
      ~limits:{ Engine.no_limits with Engine.max_solver_conflicts = Some 0 }
      (fun () ->
        let x = Engine.fresh32 "ux" in
        (* With x < 16 the interval prescreen answers x*x = 225 by
           candidate evaluation (x = 15); with x >= 16 it needs real
           SAT search, so conflict budget 0 kills that path only. *)
        ignore (Engine.branch ~site:"easy" (Expr.ult x (e_int 16)));
        ignore (Engine.branch ~site:"hard" (Expr.eq (Expr.mul x x) (e_int 225)));
        incr easy_paths)
  in
  Alcotest.(check bool) "some path killed as unknown" true
    (r.Engine.paths_unknown >= 1);
  Alcotest.(check bool) "other paths still completed" true (!easy_paths >= 1);
  Alcotest.(check bool) "run not reported exhausted" false r.Engine.exhausted;
  Smt.Solver.clear_caches ()

let test_solver_conflict_limit_composes () =
  (* --max-paths and --max-solver-conflicts together: the path budget
     still caps the run even when every query stays cheap. *)
  Smt.Solver.clear_caches ();
  let r =
    run
      ~limits:
        {
          Engine.no_limits with
          Engine.max_paths = Some 2;
          Engine.max_solver_conflicts = Some 10_000;
        }
      (fun () ->
        let x = Engine.fresh32 "cx" in
        ignore (Engine.branch (Expr.ult x (e_int 2)));
        ignore (Engine.branch (Expr.ult x (e_int 4))))
  in
  Alcotest.(check int) "path cap respected" 2 r.Engine.paths;
  Alcotest.(check int) "no unknowns at this budget" 0 r.Engine.paths_unknown;
  Smt.Solver.clear_caches ()

(* ------------------------------------------------------------------ *)
(* Search pop-order golden tests                                       *)

(* The frontier backing store was swapped from a list to an array
   deque; these orders pin the externally observable pop sequence of
   every strategy on a 3-branch testbench (8 paths). *)
let golden_order strategy =
  let acc = ref [] in
  let _ =
    run ~strategy (fun () ->
        let x = Engine.fresh32 "gx" in
        let b1 = Engine.branch ~site:"b1" (Expr.ult x (e_int 64)) in
        let b2 =
          Engine.branch ~site:"b2" (Expr.eq (Expr.band x (e_int 1)) (e_int 0))
        in
        let b3 =
          Engine.branch ~site:"b3" (Expr.eq (Expr.band x (e_int 2)) (e_int 0))
        in
        acc := (b1, b2, b3) :: !acc)
  in
  List.rev_map
    (fun (a, b, c) ->
       let t v = if v then "T" else "F" in
       t a ^ t b ^ t c)
    !acc

let check_golden name strategy expected =
  Alcotest.(check (list string)) name expected (golden_order strategy)

let test_search_order_dfs () =
  check_golden "dfs order" Search.Dfs
    [ "TTT"; "TTF"; "TFT"; "TFF"; "FTT"; "FTF"; "FFT"; "FFF" ]

let test_search_order_bfs () =
  check_golden "bfs order" Search.Bfs
    [ "TTT"; "FTT"; "TFT"; "TTF"; "FFT"; "FTF"; "TFF"; "FFF" ]

(* Pinned against the splitmix64 PRNG (state is one serializable
   int64, so checkpoints can restore the draw sequence exactly). *)
let test_search_order_random () =
  check_golden "random:42 order" (Search.Random_path 42)
    [ "TTT"; "TFT"; "TFF"; "TTF"; "FTT"; "FTF"; "FFT"; "FFF" ];
  check_golden "random:7 order" (Search.Random_path 7)
    [ "TTT"; "TTF"; "TFT"; "FTT"; "FFT"; "FFF"; "FTF"; "TFF" ]

let test_search_order_cover_new () =
  check_golden "cover-new order" Search.Cover_new
    [ "TTT"; "TTF"; "TFT"; "TFF"; "FTT"; "FTF"; "FFT"; "FFF" ]

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let toy_testbench () =
  let x = Engine.fresh32 "x" in
  Engine.assume (Expr.ult x (e_int 100));
  if Engine.branch (Expr.ugt x (e_int 50)) then
    Engine.check ~site:"toy" (Expr.ne x (e_int 77))

let test_replay_reproduces () =
  let r = run toy_testbench in
  match r.Engine.errors with
  | [ err ] ->
    (match Engine.replay err.Error.counterexample toy_testbench with
     | Some (Ok replayed) ->
       Alcotest.(check string) "same site" "toy" replayed.Error.site
     | Some (Error msg) -> Alcotest.failf "diverged: %s" msg
     | None -> Alcotest.fail "no failure on replay")
  | _ -> Alcotest.fail "expected exactly one error"

let test_replay_clean_input () =
  match
    Engine.replay [ ("x", Bv.of_int ~width:32 10) ] toy_testbench
  with
  | None -> ()
  | Some _ -> Alcotest.fail "x=10 should not fail"

let test_replay_divergence_detected () =
  (* An assumption-violating input is flagged, not silently accepted. *)
  match
    Engine.replay [ ("x", Bv.of_int ~width:32 1000) ] toy_testbench
  with
  | Some (Error _) -> ()
  | Some (Ok _) | None -> Alcotest.fail "expected divergence"

(* ------------------------------------------------------------------ *)
(* Engine misc                                                         *)

let test_instructions_counted () =
  let r =
    run (fun () ->
        let x = Engine.fresh32 "x" in
        ignore (Expr.add x x))
  in
  Alcotest.(check bool) "instructions > 0" true (r.Engine.instructions > 0)

let test_concrete_mode_check_raises () =
  Alcotest.check_raises "Check_failed" (Engine.Check_failed "here") (fun () ->
      Engine.check ~site:"here" Expr.fls)

let test_nested_run_rejected () =
  let r =
    run (fun () ->
        match run (fun () -> ()) with
        | _ -> Alcotest.fail "nested run must be rejected")
  in
  (* the Failure surfaces as an unhandled-exception error *)
  Alcotest.(check int) "error recorded" 1 (List.length r.Engine.errors)

let test_error_counterexample_order () =
  let r =
    run (fun () ->
        let a = Engine.fresh32 "a" in
        let b = Engine.fresh32 "b" in
        Engine.assume (Expr.eq a (e_int 1));
        Engine.assume (Expr.eq b (e_int 2));
        Engine.check ~site:"boom" Expr.fls)
  in
  match r.Engine.errors with
  | [ e ] ->
    Alcotest.(check (list string)) "inputs in creation order" [ "a"; "b" ]
      (List.map fst e.Error.counterexample)
  | _ -> Alcotest.fail "expected one error"

(* ------------------------------------------------------------------ *)
(* Random-testing baseline                                             *)

let random_body () =
  (* fails iff x mod 8 = 3: random testing needs ~8 trials *)
  let x = Engine.fresh32 "x" in
  let m = Expr.urem x (e_int 8) in
  Engine.check ~site:"mod8" (Expr.ne m (e_int 3))

let test_random_finds_bug () =
  let r = Engine.random_test ~seed:1 random_body in
  match r.Engine.failure with
  | Some (err, trial) ->
    Alcotest.(check string) "site" "mod8" err.Error.site;
    Alcotest.(check bool) "found within a few trials" true (trial <= 64);
    (* the recorded inputs reproduce the failure *)
    (match err.Error.counterexample with
     | [ ("x", v) ] ->
       Alcotest.(check int64) "counterexample mod 8 = 3" 3L
         (Int64.rem (Bv.to_int64 v) 8L)
     | _ -> Alcotest.fail "expected one input")
  | None -> Alcotest.fail "random testing should find the bug"

let test_random_deterministic_seed () =
  let a = Engine.random_test ~seed:7 random_body in
  let b = Engine.random_test ~seed:7 random_body in
  Alcotest.(check bool) "same trial count" true
    (match a.Engine.failure, b.Engine.failure with
     | Some (_, ta), Some (_, tb) -> ta = tb
     | None, None -> true
     | _ -> false)

let test_random_rejection () =
  let r =
    Engine.random_test ~seed:3 ~max_trials:50 (fun () ->
        let x = Engine.fresh32 "x" in
        (* essentially always rejected *)
        Engine.assume (Expr.ult x (e_int 4)))
  in
  Alcotest.(check int) "all trials ran" 50 r.Engine.trials;
  Alcotest.(check bool) "most rejected" true (r.Engine.rejected >= 45);
  Alcotest.(check bool) "no failure" true (r.Engine.failure = None)

let test_random_trial_limit () =
  let r = Engine.random_test ~seed:5 ~max_trials:10 (fun () -> ()) in
  Alcotest.(check int) "stops at limit" 10 r.Engine.trials

(* ------------------------------------------------------------------ *)
(* Budgets, graceful stops and checkpoint serialization                *)

let forking_tb () =
  let x = Engine.fresh32 "x" in
  ignore (Engine.branch (Expr.ult x (e_int 10)));
  ignore (Engine.branch (Expr.ult x (e_int 100)))

let test_deadline_stop () =
  let r =
    run ~limits:{ Engine.no_limits with max_seconds = Some 0.0 } forking_tb
  in
  Alcotest.(check bool) "deadline reason" true
    (r.Engine.stop_reason = Some Symex.Budget.Deadline);
  Alcotest.(check bool) "not exhausted" false r.Engine.exhausted

let test_memory_stop () =
  (* A zero watermark is always exceeded — the run stops at the first
     poll with a Memory reason instead of crashing. *)
  let r =
    run ~limits:{ Engine.no_limits with max_memory_mb = Some 0 } forking_tb
  in
  Alcotest.(check bool) "memory reason" true
    (r.Engine.stop_reason = Some Symex.Budget.Memory);
  Alcotest.(check bool) "not exhausted" false r.Engine.exhausted

let test_paths_stop_reason () =
  let r =
    run ~limits:{ Engine.no_limits with max_paths = Some 1 } forking_tb
  in
  Alcotest.(check int) "one path" 1 r.Engine.paths;
  Alcotest.(check bool) "paths reason" true
    (r.Engine.stop_reason = Some Symex.Budget.Paths)

let test_interrupt_stop () =
  Symex.Budget.interrupt_now ();
  let r =
    Fun.protect ~finally:Symex.Budget.clear_interrupt (fun () ->
        run forking_tb)
  in
  Alcotest.(check bool) "interrupt reason" true
    (r.Engine.stop_reason = Some Symex.Budget.Interrupt);
  Alcotest.(check bool) "not exhausted" false r.Engine.exhausted

let test_solver_timeout_degrades () =
  (* x*x = 3 has no solution mod 2^32 but needs real CDCL work; a zero
     per-query budget makes it Unknown, which kills only that path. *)
  let r =
    run ~limits:{ Engine.no_limits with solver_timeout_ms = Some 0 }
      (fun () ->
        let x = Engine.fresh32 "x" in
        ignore (Engine.branch (Expr.eq (Expr.mul x x) (e_int 3))))
  in
  Alcotest.(check int) "path lost to the budget" 1 r.Engine.paths_unknown;
  Alcotest.(check bool) "degraded, not stopped" true
    (r.Engine.stop_reason = None);
  Alcotest.(check bool) "not exhaustive" false r.Engine.exhausted

let test_budget_reason_strings () =
  List.iter
    (fun reason ->
       let s = Symex.Budget.reason_to_string reason in
       Alcotest.(check bool) ("roundtrip " ^ s) true
         (Symex.Budget.reason_of_string s = Some reason))
    Symex.Budget.[ Paths; Instructions; Deadline; Memory; Errors; Interrupt ];
  Alcotest.(check bool) "unknown rejected" true
    (Symex.Budget.reason_of_string "bogus" = None)

let test_decision_string_roundtrip () =
  let open Symex.Decision in
  List.iter
    (fun d ->
       match of_string (to_string d) with
       | Ok d' ->
         Alcotest.(check bool) ("roundtrip " ^ to_string d) true (d = d')
       | Error e -> Alcotest.fail e)
    [ Dir true; Dir false;
      Pick { value = Bv.make ~width:32 0xdeadbeefL; dir = true };
      Pick { value = Bv.make ~width:7 0x2aL; dir = false };
      Pick { value = Bv.zero 1; dir = true } ];
  Alcotest.(check bool) "garbage rejected" true
    (match of_string "Q" with Error _ -> true | Ok _ -> false)

let sample_error =
  {
    Error.kind = Error.Abort;
    site = "reg:align";
    message = "unaligned access";
    counterexample =
      [ ("addr", Bv.make ~width:32 0x2L); ("len", Bv.make ~width:32 1L) ];
    path_id = 3;
    instructions = 120;
    found_after = 0.25;
    validated = true;
  }

let test_error_json_roundtrip () =
  match Error.of_json (Error.to_json sample_error) with
  | Ok e -> Alcotest.(check bool) "roundtrip" true (e = sample_error)
  | Error msg -> Alcotest.fail msg

let test_checkpoint_json_roundtrip () =
  let ck =
    {
      Symex.Checkpoint.label = "t4";
      strategy = "random:42";
      frontier =
        [ ("site-a", [| Symex.Decision.Dir true; Symex.Decision.Dir false |]);
          ("site-b",
           [| Symex.Decision.Pick
                { value = Bv.make ~width:32 5L; dir = false } |]) ];
      leases = [ ("site-c", [| Symex.Decision.Dir false |], 2) ];
      visits = [ ("site-a", 2); ("site-b", 1) ];
      coverage =
        { Obs.Coverage.regs =
            [ ( ("plic", "enable"),
                { Obs.Coverage.rc_size = 4; rc_declares = 1; rc_reads = 2;
                  rc_writes = 1; rc_read_bytes = [| 2; 2; 2; 2 |];
                  rc_write_bytes = [| 1; 1; 0; 0 |] } ) ];
          arms = [ ("site-a", { Obs.Coverage.ac_true = 3; ac_false = 1 }) ] };
      rng = 0x123456789abcdef0L;
      paths = 7;
      completed = 4;
      errored = 1;
      infeasible = 1;
      unknown = 1;
      instructions = 321;
      wall_time = 1.25;
      solver = { Smt.Solver.Stats.zero with Smt.Solver.Stats.queries = 17 };
      errors = [ sample_error ];
      degraded = true;
      stop_reason = Some "deadline";
    }
  in
  match Symex.Checkpoint.of_json (Symex.Checkpoint.to_json ck) with
  | Ok ck' -> Alcotest.(check bool) "roundtrip" true (ck = ck')
  | Error msg -> Alcotest.fail msg

let test_checkpoint_file_roundtrip () =
  let path = Filename.temp_file "symsysc-ck" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let ck =
         {
           Symex.Checkpoint.label = "t1";
           strategy = "dfs";
           frontier = [];
           leases = [];
           visits = [];
           coverage = Obs.Coverage.zero;
           rng = 1L;
           paths = 0;
           completed = 0;
           errored = 0;
           infeasible = 0;
           unknown = 0;
           instructions = 0;
           wall_time = 0.0;
           solver = Smt.Solver.Stats.zero;
           errors = [];
           degraded = false;
           stop_reason = None;
         }
       in
       Symex.Checkpoint.save path ck;
       match Symex.Checkpoint.load path with
       | Ok ck' -> Alcotest.(check bool) "file roundtrip" true (ck = ck')
       | Error msg -> Alcotest.fail msg);
  match Symex.Checkpoint.load "/nonexistent/ck.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file should fail"

(* The bounds term is derived per memory size: the same window checked
   on a larger memory first must not pass on a smaller one. *)
let test_mem_bounds_follow_size () =
  let big = Mem.create ~name:"big" ~size:8 and small = Mem.create ~name:"small" ~size:4 in
  let read m = Mem.read_bytes m ~offset:(Value.of_int 4) ~len:(Value.of_int 4) in
  Alcotest.(check int) "in bounds of 8 bytes" 4 (Array.length (read big));
  Alcotest.check_raises "out of bounds of 4 bytes"
    (Engine.Check_failed "mem:small:read") (fun () -> ignore (read small))

let suite =
  [
    ("engine: straight-line is one path", `Quick, test_no_branch_single_path);
    ("engine: fork covers both sides", `Quick, test_fork_covers_both_sides);
    ("engine: nested forks", `Quick, test_nested_forks);
    ("engine: implied branch does not fork", `Quick,
     test_infeasible_branch_not_forked);
    ("engine: infeasible assume kills path", `Quick, test_assume_kills_path);
    ("engine: check records and continues", `Quick,
     test_check_records_and_continues);
    ("engine: errors deduplicated by site", `Quick, test_error_dedup);
    ("engine: fatal check is an abort", `Quick, test_fatal_check_kind);
    ("engine: unhandled exception reported", `Quick, test_unhandled_exception);
    ("engine: division by zero detector", `Quick,
     test_division_by_zero_detector);
    ("engine: stop after N errors", `Quick, test_stop_after_errors);
    ("engine: max paths limit", `Quick, test_max_paths);
    ("engine: max instructions limit", `Quick, test_max_instructions);
    ("search: all strategies cover the space", `Quick,
     test_strategies_cover_same_paths);
    ("search: dfs order", `Quick, test_dfs_explores_depth_first);
    ("concretize: enumerates feasible values", `Quick,
     test_concretize_enumerates);
    ("concretize: concrete value is free", `Quick,
     test_concretize_concrete_is_free);
    ("mem: concrete read/write", `Quick, test_mem_concrete_rw);
    ("mem: out-of-bounds detected", `Quick, test_mem_oob_detected);
    ("mem: 32-bit wrap cannot bypass bounds", `Quick, test_mem_oob_wraparound);
    ("mem: symbolic data roundtrip", `Quick, test_mem_symbolic_data);
    ("mem: write32 width checked", `Quick, test_mem_write32_width_checked);
    ("engine: solver unknown kills one path", `Quick,
     test_solver_unknown_kills_path_only);
    ("engine: conflict limit composes with max-paths", `Quick,
     test_solver_conflict_limit_composes);
    ("search: golden pop order, dfs", `Quick, test_search_order_dfs);
    ("search: golden pop order, bfs", `Quick, test_search_order_bfs);
    ("search: golden pop order, random", `Quick, test_search_order_random);
    ("search: golden pop order, cover-new", `Quick,
     test_search_order_cover_new);
    ("replay: reproduces the failure", `Quick, test_replay_reproduces);
    ("replay: clean input passes", `Quick, test_replay_clean_input);
    ("replay: divergence detected", `Quick, test_replay_divergence_detected);
    ("engine: instruction accounting", `Quick, test_instructions_counted);
    ("engine: concrete-mode check raises", `Quick,
     test_concrete_mode_check_raises);
    ("engine: nested run rejected", `Quick, test_nested_run_rejected);
    ("engine: counterexample input order", `Quick,
     test_error_counterexample_order);
    ("random baseline: finds a planted bug", `Quick, test_random_finds_bug);
    ("random baseline: deterministic seed", `Quick,
     test_random_deterministic_seed);
    ("random baseline: rejection sampling", `Quick, test_random_rejection);
    ("random baseline: trial limit", `Quick, test_random_trial_limit);
    ("budget: deadline stops gracefully", `Quick, test_deadline_stop);
    ("budget: memory watermark stops gracefully", `Quick, test_memory_stop);
    ("budget: max-paths records its reason", `Quick, test_paths_stop_reason);
    ("budget: interrupt stops gracefully", `Quick, test_interrupt_stop);
    ("budget: solver timeout degrades one path", `Quick,
     test_solver_timeout_degrades);
    ("budget: reason strings roundtrip", `Quick, test_budget_reason_strings);
    ("decision: string roundtrip", `Quick, test_decision_string_roundtrip);
    ("error: JSON roundtrip", `Quick, test_error_json_roundtrip);
    ("checkpoint: JSON roundtrip", `Quick, test_checkpoint_json_roundtrip);
    ("checkpoint: file roundtrip", `Quick, test_checkpoint_file_roundtrip);
    ("engine: branch coverage reported", `Quick, fun () ->
        let r =
          run (fun () ->
              let x = Engine.fresh32 "x" in
              ignore (Engine.branch ~site:"site-a" (Expr.ult x (e_int 5)));
              ignore (Engine.branch ~site:"site-b" (Expr.ult x (e_int 9))))
        in
        let count site =
          match List.assoc_opt site r.Engine.branch_coverage with
          | Some n -> n
          | None -> 0
        in
        Alcotest.(check bool) "site-a covered" true (count "site-a" >= 2);
        Alcotest.(check bool) "site-b covered" true (count "site-b" >= 2));
    prop_mem_cached_read32;
    ("mem: a bounds term follows the memory's size", `Quick,
     test_mem_bounds_follow_size);
  ]
