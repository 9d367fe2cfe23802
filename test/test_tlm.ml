(* Tests for the TLM layer: payload, register-file dispatch under both
   policies, router and global quantum. *)

module Expr = Smt.Expr
module Bv = Smt.Bv
module Value = Symex.Value
module Engine = Symex.Engine
module Mem = Symex.Mem
module Payload = Tlm.Payload
module Register = Tlm.Register
module Router = Tlm.Router
module Sc_time = Pk.Sc_time

let e_int v = Expr.int ~width:32 v

(* ------------------------------------------------------------------ *)
(* Payload                                                             *)

let test_payload_write32_layout () =
  let p = Payload.make_write32 ~addr:(e_int 0) ~value:(e_int 0x11223344) in
  let byte i =
    match Expr.to_bv p.Payload.data.(i) with
    | Some v -> Bv.to_int64 v
    | None -> Alcotest.fail "expected concrete byte"
  in
  Alcotest.(check int64) "LSB first" 0x44L (byte 0);
  Alcotest.(check int64) "MSB last" 0x11L (byte 3)

let test_payload_data32_roundtrip () =
  let p = Payload.make_write32 ~addr:(e_int 0) ~value:(e_int 0xCAFE1234) in
  match Expr.to_bv (Payload.data32 p) with
  | Some v -> Alcotest.(check int64) "roundtrip" 0xCAFE1234L (Bv.to_int64 v)
  | None -> Alcotest.fail "expected concrete"

let test_payload_data32_short () =
  let p = Payload.make_read ~addr:(e_int 0) ~len:(e_int 4) in
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Payload.data32: fewer than 4 bytes") (fun () ->
        ignore (Payload.data32 p))

(* ------------------------------------------------------------------ *)
(* Register file                                                       *)

let make_regfile policy =
  let rf = Register.create ~policy ~name:"dev" () in
  let ctrl = Mem.create ~name:"ctrl" ~size:8 in
  let status = Mem.create ~name:"status" ~size:4 in
  let cmd = Mem.create ~name:"cmd" ~size:4 in
  ignore (Register.add_range rf ~name:"ctrl" ~base:0x0
            ~access:Register.Read_write ctrl);
  ignore (Register.add_range rf ~name:"status" ~base:0x10
            ~access:Register.Read_only status);
  ignore (Register.add_range rf ~name:"cmd" ~base:0x20
            ~access:Register.Write_only cmd);
  (rf, ctrl, status, cmd)

let do_read rf ~addr ~len =
  let p = Payload.make_read ~addr:(e_int addr) ~len:(e_int len) in
  ignore (Register.transport rf p Sc_time.zero);
  p

let do_write32 rf ~addr ~value =
  let p = Payload.make_write32 ~addr:(e_int addr) ~value:(e_int value) in
  ignore (Register.transport rf p Sc_time.zero);
  p

let test_regfile_concrete_rw () =
  let rf, ctrl, _, _ = make_regfile Register.Fixed in
  let p = do_write32 rf ~addr:0x4 ~value:0xAB54 in
  Alcotest.(check bool) "write ok" true (Payload.is_ok p);
  (match Expr.to_bv (Mem.read32 ctrl 4) with
   | Some v -> Alcotest.(check int64) "stored" 0xAB54L (Bv.to_int64 v)
   | None -> Alcotest.fail "expected concrete");
  let p = do_read rf ~addr:0x4 ~len:4 in
  Alcotest.(check bool) "read ok" true (Payload.is_ok p);
  match Expr.to_bv (Payload.data32 p) with
  | Some v -> Alcotest.(check int64) "read back" 0xAB54L (Bv.to_int64 v)
  | None -> Alcotest.fail "expected concrete"

let test_regfile_fixed_misaligned () =
  let rf, _, _, _ = make_regfile Register.Fixed in
  let p = do_read rf ~addr:0x2 ~len:4 in
  Alcotest.(check bool) "address error" true
    (p.Payload.response = Payload.Address_error)

let test_regfile_fixed_unmapped () =
  let rf, _, _, _ = make_regfile Register.Fixed in
  let p = do_read rf ~addr:0x100 ~len:4 in
  Alcotest.(check bool) "address error" true
    (p.Payload.response = Payload.Address_error)

let test_regfile_fixed_access_type () =
  let rf, _, _, _ = make_regfile Register.Fixed in
  let p = do_write32 rf ~addr:0x10 ~value:1 in
  Alcotest.(check bool) "RO write rejected" true
    (p.Payload.response = Payload.Command_error);
  let p = do_read rf ~addr:0x20 ~len:4 in
  Alcotest.(check bool) "WO read rejected" true
    (p.Payload.response = Payload.Command_error)

let test_regfile_fixed_burst () =
  let rf, _, _, _ = make_regfile Register.Fixed in
  (* 8-byte read starting inside the 4-byte status register *)
  let p = do_read rf ~addr:0x10 ~len:8 in
  Alcotest.(check bool) "burst error" true
    (p.Payload.response = Payload.Burst_error)

(* Original policy: asserts abort instead of error responses (in
   concrete mode they raise Check_failed). *)
let test_regfile_original_asserts () =
  let rf, _, _, _ = make_regfile Register.Original in
  Alcotest.check_raises "misaligned aborts" (Engine.Check_failed "reg:align")
    (fun () -> ignore (do_read rf ~addr:0x2 ~len:4));
  Alcotest.check_raises "unmapped aborts" (Engine.Check_failed "reg:mapping")
    (fun () -> ignore (do_read rf ~addr:0x100 ~len:4));
  Alcotest.check_raises "access type aborts" (Engine.Check_failed "reg:access")
    (fun () -> ignore (do_write32 rf ~addr:0x10 ~value:1))

let test_regfile_original_boundary_crossing () =
  (* The original matches by start address only (F5's root cause): a
     crossing read reaches the checked memcpy, which reports OOB. *)
  let rf, _, _, _ = make_regfile Register.Original in
  let r =
    Engine.Session.run (Engine.Session.make ()) (fun () -> ignore (do_read rf ~addr:0x10 ~len:8))
  in
  match r.Symex.Engine.errors with
  | [ e ] ->
    Alcotest.(check string) "memcpy site" "reg:memcpy:read" e.Symex.Error.site
  | errors ->
    Alcotest.failf "expected one OOB error, got %d" (List.length errors)

let test_regfile_callbacks () =
  let rf = Register.create ~policy:Register.Fixed ~name:"cb" () in
  let reg = Mem.create ~name:"reg" ~size:4 in
  let log = ref [] in
  ignore
    (Register.add_range rf ~name:"reg" ~base:0 ~access:Register.Read_write
       ~pre_read:(fun () -> log := `Read :: !log)
       ~post_write:(fun () -> log := `Write :: !log)
       reg);
  ignore (do_read rf ~addr:0 ~len:4);
  ignore (do_write32 rf ~addr:0 ~value:5);
  Alcotest.(check int) "both callbacks" 2 (List.length !log);
  Alcotest.(check bool) "order" true (!log = [ `Write; `Read ])

let test_regfile_overlap_rejected () =
  let rf = Register.create ~name:"ov" () in
  let a = Mem.create ~name:"a" ~size:8 in
  let b = Mem.create ~name:"b" ~size:8 in
  ignore (Register.add_range rf ~name:"a" ~base:0 ~access:Register.Read_write a);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Register.add_range: b overlaps a") (fun () ->
        ignore
          (Register.add_range rf ~name:"b" ~base:4 ~access:Register.Read_write b))

(* A range's match term is keyed on its base and size packed into one
   int, which holds for a base below 2^32 and a size below 2^30. *)
let test_regfile_outside_map_rejected () =
  let rf = Register.create ~name:"far" () in
  Alcotest.check_raises "base at 2^32"
    (Invalid_argument "Register.add_range: a lies outside the 32-bit map")
    (fun () ->
       ignore
         (Register.add_range rf ~name:"a" ~base:(1 lsl 32)
            ~access:Register.Read_write (Mem.create ~name:"a" ~size:4)))

(* A repeated name would share one coverage row and one [reg:match:]
   branch site with the first range. *)
let test_regfile_duplicate_rejected () =
  let rf = Register.create ~name:"dup" () in
  let a = Mem.create ~name:"a" ~size:4 in
  let b = Mem.create ~name:"b" ~size:4 in
  ignore (Register.add_range rf ~name:"a" ~base:0 ~access:Register.Read_write a);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Register.add_range: duplicate name a") (fun () ->
        ignore
          (Register.add_range rf ~name:"a" ~base:8 ~access:Register.Read_write b))

(* Every range's dispatch sites are visited, under the strings formatted
   once at [add_range]: an unmapped read under the fixed policy tries
   each range's match and then its burst check. *)
let test_regfile_dispatch_sites () =
  let rf, _, _, _ = make_regfile Register.Fixed in
  let r =
    Engine.Session.run (Engine.Session.make ()) (fun () ->
        ignore (do_read rf ~addr:0x100 ~len:4))
  in
  List.iter
    (fun name ->
       List.iter
         (fun site ->
            Alcotest.(check bool) site true
              (List.mem_assoc site r.Symex.Engine.branch_coverage))
         [ "reg:match:" ^ name; "reg:burst:" ^ name ])
    [ "ctrl"; "status"; "cmd" ]

let test_regfile_access_message () =
  let rf, _, _, _ = make_regfile Register.Original in
  let r =
    Engine.Session.run (Engine.Session.make ()) (fun () ->
        ignore (do_write32 rf ~addr:0x10 ~value:1))
  in
  match r.Symex.Engine.errors with
  | [ e ] ->
    Alcotest.(check string) "site" "reg:access" e.Symex.Error.site;
    Alcotest.(check string) "message"
      "write of status not registered for this access type"
      e.Symex.Error.message
  | errors ->
    Alcotest.failf "expected one access-type error, got %d"
      (List.length errors)

let test_regfile_latency () =
  let rf, _, _, _ = make_regfile Register.Fixed in
  let p = Payload.make_read ~addr:(e_int 0) ~len:(e_int 4) in
  let d = Register.transport rf p (Sc_time.ns 3) in
  Alcotest.(check int64) "delay accumulates"
    (Sc_time.to_ps (Sc_time.add (Sc_time.ns 3) Register.access_latency))
    (Sc_time.to_ps d)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)

let test_router_routes_and_rebases () =
  let rf, ctrl, _, _ = make_regfile Register.Fixed in
  let router = Router.create ~name:"bus" () in
  Router.add_target router ~name:"dev" ~base:0x1000_0000 ~size:0x100
    (Register.transport rf);
  let p =
    Payload.make_write32 ~addr:(e_int 0x1000_0004) ~value:(e_int 99)
  in
  ignore (Router.transport router p Sc_time.zero);
  Alcotest.(check bool) "ok" true (Payload.is_ok p);
  match Expr.to_bv (Mem.read32 ctrl 4) with
  | Some v -> Alcotest.(check int64) "rebased write landed" 99L (Bv.to_int64 v)
  | None -> Alcotest.fail "expected concrete"

let test_router_miss () =
  let router = Router.create ~name:"bus" () in
  let p = Payload.make_read ~addr:(e_int 0x4000) ~len:(e_int 4) in
  ignore (Router.transport router p Sc_time.zero);
  Alcotest.(check bool) "address error" true
    (p.Payload.response = Payload.Address_error)

let test_router_overlap_rejected () =
  let router = Router.create ~name:"bus" () in
  Router.add_target router ~name:"a" ~base:0 ~size:16 (fun _ d -> d);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Router.add_target: b overlaps a (router bus)")
    (fun () -> Router.add_target router ~name:"b" ~base:8 ~size:16 (fun _ d -> d))

let test_router_duplicate_rejected () =
  let router = Router.create ~name:"bus" () in
  Router.add_target router ~name:"a" ~base:0 ~size:16 (fun _ d -> d);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Router.add_target: duplicate name a (router bus)")
    (fun () -> Router.add_target router ~name:"a" ~base:32 ~size:16 (fun _ d -> d))

(* ------------------------------------------------------------------ *)
(* Quantum                                                             *)

let test_quantum_sync () =
  let sched = Pk.Scheduler.create () in
  let ev = Pk.Event.make "tick" in
  let ticks = ref 0 in
  Pk.Scheduler.spawn sched
    (Pk.Process.make "ticker" (fun () ->
         incr ticks;
         Pk.Process.Wait_event ev));
  Pk.Scheduler.run_ready sched;
  Pk.Scheduler.notify_at sched ev (Sc_time.ns 100);
  let q = Tlm.Quantum.create ~max_quantum:(Sc_time.ns 500) sched in
  (* Accumulate below the quantum: no sync. *)
  Tlm.Quantum.add q (Sc_time.ns 200);
  Tlm.Quantum.sync_if_needed q;
  Alcotest.(check int) "no sync yet" 0 (Tlm.Quantum.syncs q);
  (* Cross the quantum: kernel catches up, firing the 100ns event. *)
  Tlm.Quantum.add q (Sc_time.ns 400);
  Tlm.Quantum.sync_if_needed q;
  Alcotest.(check int) "synced" 1 (Tlm.Quantum.syncs q);
  Alcotest.(check int) "ticker ran" 2 !ticks;
  Alcotest.(check int64) "local reset" 0L
    (Sc_time.to_ps (Tlm.Quantum.local_time q))

(* ------------------------------------------------------------------ *)
(* Protocol monitor                                                    *)

let test_monitor_clean_target () =
  let rf, _, _, _ = make_regfile Register.Fixed in
  let mon = Tlm.Monitor.create ~name:"mon" (Register.transport rf) in
  let p = Payload.make_read ~addr:(e_int 0) ~len:(e_int 4) in
  ignore (Tlm.Monitor.transport mon p Sc_time.zero);
  let w = Payload.make_write32 ~addr:(e_int 0) ~value:(e_int 1) in
  ignore (Tlm.Monitor.transport mon w Sc_time.zero);
  Alcotest.(check int) "transactions" 2 (Tlm.Monitor.transactions mon);
  Alcotest.(check int) "reads" 1 (Tlm.Monitor.reads mon);
  Alcotest.(check int) "writes" 1 (Tlm.Monitor.writes mon)

let test_monitor_catches_incomplete_response () =
  (* A broken target that never sets a response status. *)
  let mon = Tlm.Monitor.create ~name:"mon" (fun _ d -> d) in
  let p = Payload.make_read ~addr:(e_int 0) ~len:(e_int 4) in
  Alcotest.check_raises "flagged" (Engine.Check_failed "tlm:response-set")
    (fun () -> ignore (Tlm.Monitor.transport mon p Sc_time.zero))

let test_monitor_catches_decreasing_delay () =
  let mon =
    Tlm.Monitor.create ~name:"mon" (fun p _ ->
        p.Payload.response <- Payload.Ok_response;
        Sc_time.zero)
  in
  let p = Payload.make_write32 ~addr:(e_int 0) ~value:(e_int 1) in
  Alcotest.check_raises "flagged" (Engine.Check_failed "tlm:delay-monotonic")
    (fun () -> ignore (Tlm.Monitor.transport mon p (Sc_time.ns 5)))

let test_monitor_catches_short_read () =
  let mon =
    Tlm.Monitor.create ~name:"mon" (fun p d ->
        p.Payload.response <- Payload.Ok_response;
        p.Payload.data <- [| Expr.int ~width:8 0 |];
        d)
  in
  let p = Payload.make_read ~addr:(e_int 0) ~len:(e_int 4) in
  Alcotest.check_raises "flagged" (Engine.Check_failed "tlm:read-length")
    (fun () -> ignore (Tlm.Monitor.transport mon p Sc_time.zero))

let suite =
  [
    ("payload: write32 layout", `Quick, test_payload_write32_layout);
    ("payload: data32 roundtrip", `Quick, test_payload_data32_roundtrip);
    ("payload: data32 short buffer", `Quick, test_payload_data32_short);
    ("regfile: concrete read/write", `Quick, test_regfile_concrete_rw);
    ("regfile: fixed policy misaligned", `Quick, test_regfile_fixed_misaligned);
    ("regfile: fixed policy unmapped", `Quick, test_regfile_fixed_unmapped);
    ("regfile: fixed policy access type", `Quick, test_regfile_fixed_access_type);
    ("regfile: fixed policy burst crossing", `Quick, test_regfile_fixed_burst);
    ("regfile: original policy asserts", `Quick, test_regfile_original_asserts);
    ("regfile: original boundary crossing = OOB", `Quick,
     test_regfile_original_boundary_crossing);
    ("regfile: callbacks fire", `Quick, test_regfile_callbacks);
    ("regfile: overlaps rejected", `Quick, test_regfile_overlap_rejected);
    ("regfile: latency accumulates", `Quick, test_regfile_latency);
    ("router: routes and rebases", `Quick, test_router_routes_and_rebases);
    ("router: miss gives address error", `Quick, test_router_miss);
    ("router: overlaps rejected", `Quick, test_router_overlap_rejected);
    ("quantum: sync semantics", `Quick, test_quantum_sync);
    ("monitor: clean target passes", `Quick, test_monitor_clean_target);
    ("monitor: incomplete response flagged", `Quick,
     test_monitor_catches_incomplete_response);
    ("monitor: decreasing delay flagged", `Quick,
     test_monitor_catches_decreasing_delay);
    ("monitor: short read flagged", `Quick, test_monitor_catches_short_read);
    ("regfile: duplicate names rejected", `Quick,
     test_regfile_duplicate_rejected);
    ("router: duplicate names rejected", `Quick, test_router_duplicate_rejected);
    ("regfile: dispatch sites per range", `Quick, test_regfile_dispatch_sites);
    ("regfile: access-type message", `Quick, test_regfile_access_message);
    ("regfile: range outside the 32-bit map rejected", `Quick,
     test_regfile_outside_map_rejected);
  ]
