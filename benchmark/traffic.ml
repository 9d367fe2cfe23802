(* Workload [plic-traffic]: seeded register traffic against fresh
   fixed-variant PLICs — no solver at all.  Each device is built with
   [Testbench.setup], runs inside one [Engine.random_test] trial and
   takes [ops_per_device] operations, each followed by a kernel step.
   The PK scheduler, TLM register dispatch and the PLIC model do all
   the work, so kernel or TLM changes show here while [table1] should
   not move.  Reads sit beside writes so a dispatch change that favours
   one of them shows.

   The operations are generated from the seed before timing starts; a
   reference model of the register file checks every response. *)

open Sampler

module Config = Plic.Config
module Payload = Tlm.Payload
module Testbench = Symsysc.Testbench
module Value = Symex.Value

type op =
  | Priority of int * int  (** source, level *)
  | Threshold of int
  | Read of int  (** offset of a mapped register *)
  | Unmapped of int  (** offset no register maps: a TLM error response *)
  | Trigger of int
  | Claim  (** claim, then complete with the claimed id *)

let ops_per_device = 100
let devices = function Full -> 4000 | Smoke -> 20
let num_sources = function Full -> 8 | Smoke -> 4
let max_priority = Config.fe310.Config.max_priority
let priority_offset id = Config.priority_base + (4 * (id - 1))
let unmapped = [| 0x0; 0x800; 0x3000; 0x10_0000 |]

(* Mix: 35% priority writes, 10% threshold writes, 15% reads, 5% reads
   outside the map, 20% triggers, 15% claim/complete. *)
let generate ~seed ~sources ~count =
  let readable =
    Array.append
      (Array.init sources (fun i -> priority_offset (i + 1)))
      [| Config.pending_base; Config.enable_base; Config.threshold_base |]
  in
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let source () = 1 + Random.State.int rng sources in
  let level () = Random.State.int rng (max_priority + 1) in
  Array.init count (fun _ ->
      let r = Random.State.int rng 100 in
      if r < 35 then
        let id = source () in
        Priority (id, level ())
      else if r < 45 then Threshold (level ())
      else if r < 60 then Read (pick readable)
      else if r < 65 then Unmapped (pick unmapped)
      else if r < 85 then Trigger (source ())
      else Claim)

(* What the fixed PLIC must answer: the last value written to each
   register, the pending latches, and claims that pick the pending
   source of highest priority above zero (lowest id on ties). *)
type model = { prio : int array; pending : bool array; mutable threshold : int }

let expected_claim m =
  let best = ref 0 in
  for id = 1 to Array.length m.prio - 1 do
    if m.pending.(id) && m.prio.(id) > (if !best = 0 then 0 else m.prio.(!best))
    then best := id
  done;
  !best

let expected_read m off =
  if off = Config.pending_base then
    let w = ref 0 in
    Array.iteri (fun id p -> if p then w := !w lor (1 lsl id)) m.pending;
    !w
  else if off = Config.enable_base then 0xFFFF_FFFF
  else if off = Config.threshold_base then m.threshold
  else m.prio.(((off - Config.priority_base) / 4) + 1)

let word v =
  Option.fold ~none:(-1) ~some:(fun b -> Smt.Bv.to_int b land 0xFFFF_FFFF)
    (Value.to_bv_opt v)

type counters = {
  mutable writes : int;
  mutable reads : int;
  mutable claims : int;
  mutable error_responses : int;
  mutable triggers : int;
  mutable steps : int;
  mutable setups : int;
  mutable activations : int;
  mutable delta_cycles : int;
  mutable events_fired : int;
  mutable time_advances : int;
}

let run scale ~seed ~dir:_ ~mark =
  let sources = num_sources scale and n = devices scale in
  let cfg = Config.scaled ~num_sources:sources in
  let ops = generate ~seed ~sources ~count:(n * ops_per_device) in
  let k =
    { writes = 0; reads = 0; claims = 0; error_responses = 0;
      triggers = 0; steps = 0; setups = 0; activations = 0; delta_cycles = 0;
      events_fired = 0; time_advances = 0 }
  in
  let c = Outcome.checks () in
  let transport duv p = ignore (Testbench.transport duv p) in
  let write duv off v =
    let p = Payload.make_write32 ~addr:(Value.of_int off) ~value:(Value.of_int v) in
    Outcome.span "tlm.write" (fun () -> transport duv p);
    k.writes <- k.writes + 1;
    p
  in
  let read duv off =
    let p = Payload.make_read ~addr:(Value.of_int off) ~len:(Value.of_int 4) in
    Outcome.span "tlm.read" (fun () -> transport duv p);
    k.reads <- k.reads + 1;
    p
  in
  let device d () =
    let duv =
      Outcome.span "plic.setup" (fun () ->
          let duv = Testbench.setup ~variant:Config.Fixed cfg in
          Testbench.enable_all_interrupts duv;
          duv)
    in
    k.setups <- k.setups + 1;
    let m =
      { prio = Array.make (sources + 1) 0; pending = Array.make (sources + 1) false;
        threshold = 0 }
    in
    let errors = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let ok i p =
      if p.Payload.response <> Payload.Ok_response then
        fail "op %d: %s" i (Payload.response_to_string p.Payload.response)
    in
    for i = d * ops_per_device to ((d + 1) * ops_per_device) - 1 do
      (match ops.(i) with
       | Priority (id, v) ->
         ok i (write duv (priority_offset id) v);
         m.prio.(id) <- v
       | Threshold v ->
         ok i (write duv Config.threshold_base v);
         m.threshold <- v
       | Read off ->
         let p = read duv off in
         ok i p;
         if p.Payload.response = Payload.Ok_response then begin
           let got = word (Payload.data32 p) and want = expected_read m off in
           if got <> want then fail "op %d: read 0x%x = %d, expected %d" i off got want
         end
       | Unmapped off ->
         let p = read duv off in
         if p.Payload.response = Payload.Address_error then
           k.error_responses <- k.error_responses + 1
         else
           fail "op %d: read 0x%x answered %s" i off
             (Payload.response_to_string p.Payload.response)
       | Trigger id ->
         Outcome.span "plic.trigger" (fun () ->
             Plic.trigger_interrupt duv.Testbench.dut (Value.of_int id));
         k.triggers <- k.triggers + 1;
         m.pending.(id) <- true
       | Claim ->
         let got =
           word (Outcome.span "tlm.claim" (fun () -> Testbench.claim_interrupt duv))
         in
         let want = expected_claim m in
         k.claims <- k.claims + 1;
         if got <> want then fail "op %d: claimed %d, expected %d" i got want;
         if want <> 0 then m.pending.(want) <- false);
      ignore (Outcome.span "pk.step" (fun () -> Testbench.pkernel_step duv));
      k.steps <- k.steps + 1
    done;
    let s = Pk.Scheduler.stats duv.Testbench.sched in
    k.activations <- k.activations + s.Pk.Scheduler.activations;
    k.delta_cycles <- k.delta_cycles + s.Pk.Scheduler.delta_cycles;
    k.events_fired <- k.events_fired + s.Pk.Scheduler.events_fired;
    k.time_advances <- k.time_advances + s.Pk.Scheduler.time_advances;
    Outcome.operation c ~what:(Printf.sprintf "device %d" d) (List.rev !errors)
  in
  let next = ref 0 in
  let before = Smt.Solver.Stats.get () in
  mark ();
  let rr, work_s =
    Outcome.timed (fun () ->
        Outcome.span "symex.random_test" (fun () ->
            Symex.Engine.random_test ~seed ~max_trials:n (fun () ->
                let d = !next in
                incr next;
                device d ())))
  in
  let stats = Smt.Solver.Stats.sub (Smt.Solver.Stats.get ()) before in
  (match rr.Symex.Engine.failure with
   | None -> ()
   | Some (e, trial) ->
     Outcome.note c (Printf.sprintf "trial %d raised %s" trial e.Symex.Error.message));
  for d = c.Outcome.c_attempted to n - 1 do
    Outcome.operation c ~what:(Printf.sprintf "device %d" d) [ "not run" ]
  done;
  (* Whole-sample checks: a failure fails every device.  The claim and
     error-response counts are pinned by the seed's op stream. *)
  let count p = Array.fold_left (fun a op -> if p op then a + 1 else a) 0 ops in
  List.iter
    (fun (what, got, want) ->
       if got <> want then begin
         Outcome.note c (Printf.sprintf "%s: %d, expected %d" what got want);
         c.Outcome.c_failed <- c.Outcome.c_attempted
       end)
    [
      ("solver queries", stats.Smt.Solver.Stats.queries, 0);
      ("claims", k.claims, count (function Claim -> true | _ -> false));
      ("error responses", k.error_responses, count (function Unmapped _ -> true | _ -> false));
      ("kernel steps", k.steps, Array.length ops);
    ];
  let f = float_of_int in
  let sv, _ = Outcome.solver stats in
  Outcome.finish c ~work_s
    ~values:
      (sv
       @ [
         ("pk.steps", f k.steps);
         ("pk.activations", f k.activations);
         ("pk.delta_cycles", f k.delta_cycles);
         ("pk.events_fired", f k.events_fired);
         ("pk.time_advances", f k.time_advances);
         ("tlm.writes", f k.writes);
         ("tlm.reads", f k.reads);
         ("tlm.claims", f k.claims);
         ("tlm.error_responses", f k.error_responses);
         ("plic.triggers", f k.triggers);
         ("plic.setups", f k.setups);
       ])
    ()

let workload =
  { name = "plic-traffic"; operations = devices; deterministic = true; run }
