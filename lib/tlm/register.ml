module Expr = Smt.Expr
module Bv = Smt.Bv
module Value = Symex.Value
module Engine = Symex.Engine
module Mem = Symex.Mem

type policy = Original | Fixed

type access = Read_only | Write_only | Read_write

type range = {
  rg_name : string;
  base : int;
  rg_size : int;
  access : access;
  backing : Mem.t;
  pre_read : (unit -> unit) option;
  post_write : (unit -> unit) option;
  match_site : string;
  burst_site : string;
  read_denied : string;
  write_denied : string;
}

type t = {
  rf_name : string;
  rf_policy : policy;
  mutable rev_ranges : range list;
}

let create ?(policy = Original) ~name () =
  { rf_name = name; rf_policy = policy; rev_ranges = [] }

let policy t = t.rf_policy
let name t = t.rf_name
let ranges t = List.rev t.rev_ranges

let overlaps a b =
  a.base < b.base + b.rg_size && b.base < a.base + a.rg_size

(* Snapshot plumbing: every mapped backing store is tracked as an
   engine component, so a fast-forwarded path restores register-file
   contents without re-executing the transports that produced them. *)
type Engine.component_state += Mem_state of Mem.state

(* F4's assertion message for a [cmd] the range does not allow. *)
let denied cmd name =
  Printf.sprintf "%s of %s not registered for this access type"
    (Payload.command_to_string cmd) name

let add_range t ~name ~base ~access ?pre_read ?post_write backing =
  let range =
    {
      rg_name = name;
      base;
      rg_size = Mem.size backing;
      access;
      backing;
      pre_read;
      post_write;
      match_site = "reg:match:" ^ name;
      burst_site = "reg:burst:" ^ name;
      read_denied = denied Payload.Read name;
      write_denied = denied Payload.Write name;
    }
  in
  (match List.find_opt (overlaps range) t.rev_ranges with
   | Some other ->
     invalid_arg
       (Printf.sprintf "Register.add_range: %s overlaps %s" name other.rg_name)
   | None -> ());
  if List.exists (fun r -> r.rg_name = name) t.rev_ranges then
    invalid_arg ("Register.add_range: duplicate name " ^ name);
  t.rev_ranges <- range :: t.rev_ranges;
  Engine.register_component
    ~save:(fun () -> Mem_state (Mem.save backing))
    ~restore:(function
      | Mem_state s -> Mem.load backing s
      | _ -> assert false);
  if Engine.exploring () then
    Obs.Coverage.declare ~peripheral:t.rf_name ~register:name
      ~size:range.rg_size;
  range

let find_range t name =
  match List.find_opt (fun r -> r.rg_name = name) t.rev_ranges with
  | Some r -> r
  | None -> raise Not_found

let access_latency = Pk.Sc_time.ns 10

exception Done

(* Range-match predicate.  The original implementation matches on the
   start address only — the root cause of F5; the fixed one requires the
   whole [addr, addr+len) window to fit.  Computed in 64 bits to avoid
   32-bit wrap-around on [addr + len]. *)
let range_match policy r ~addr ~len =
  let addr64 = Expr.zext 64 addr in
  let base64 = Expr.int ~width:64 r.base in
  let end64 = Expr.int ~width:64 (r.base + r.rg_size) in
  let starts_inside =
    Expr.and_ (Expr.ule base64 addr64) (Expr.ult addr64 end64)
  in
  match policy with
  | Original -> starts_inside
  | Fixed ->
    let upper = Expr.add addr64 (Expr.zext 64 len) in
    Expr.and_ (Expr.ule base64 addr64) (Expr.ule upper end64)

let allowed cmd access =
  match cmd, access with
  | Payload.Read, (Read_only | Read_write) -> true
  | Payload.Write, (Write_only | Read_write) -> true
  | Payload.Read, Write_only | Payload.Write, Read_only -> false

let serve t (p : Payload.t) r =
  (* F4: access-type check. *)
  (match t.rf_policy with
   | Original ->
     let message =
       match p.Payload.cmd with
       | Payload.Read -> r.read_denied
       | Payload.Write -> r.write_denied
     in
     Engine.fatal_check ~site:"reg:access" ~message
       (Expr.bool (allowed p.Payload.cmd r.access))
   | Fixed ->
     if not (allowed p.Payload.cmd r.access) then begin
       p.Payload.response <- Payload.Command_error;
       raise Done
     end);
  let offset = Value.sub p.Payload.addr (Value.of_int r.base) in
  (* Coverage: concrete (or constant-folded) accesses mark their exact
     byte window; accesses still symbolic here mark the whole register.
     Constant folding is deterministic across re-executions, so the
     recorded windows are identical for identical paths. *)
  if Engine.exploring () then begin
    let concrete v = Option.map Bv.to_int (Expr.to_bv v) in
    let off = concrete offset and len = concrete p.Payload.len in
    let record =
      match p.Payload.cmd with
      | Payload.Read -> Obs.Coverage.record_read
      | Payload.Write -> Obs.Coverage.record_write
    in
    record ~peripheral:t.rf_name ~register:r.rg_name ~size:r.rg_size ?off
      ?len ()
  end;
  match p.Payload.cmd with
  | Payload.Read ->
    Option.iter (fun f -> f ()) r.pre_read;
    (* F5 detection point: under the Original policy the length was
       never checked against the range, so this copy can run out of
       bounds — the engine's checked memory reports it. *)
    let bytes =
      Mem.read_bytes ~site:"reg:memcpy:read" r.backing ~offset
        ~len:p.Payload.len
    in
    p.Payload.data <- bytes;
    p.Payload.response <- Payload.Ok_response
  | Payload.Write ->
    Mem.write_bytes ~site:"reg:memcpy:write" r.backing ~offset
      ~len:p.Payload.len p.Payload.data;
    Option.iter (fun f -> f ()) r.post_write;
    p.Payload.response <- Payload.Ok_response

let transport_body t (p : Payload.t) =
  (try
     (* F2: alignment.  The original read path asserts word alignment;
        the write path stores byte lanes and never checks (which is why
        the paper's write test does not encounter F2). *)
     let aligned =
       Expr.eq (Value.band p.Payload.addr (Value.of_int 3)) Value.zero
     in
     (match p.Payload.cmd, t.rf_policy with
      | Payload.Read, Original ->
        Engine.fatal_check ~site:"reg:align"
          ~message:"unaligned register read" aligned
      | Payload.Read, Fixed ->
        if Value.truth ~site:"reg:align-check" (Expr.not_ aligned) then begin
          p.Payload.response <- Payload.Address_error;
          raise Done
        end
      | Payload.Write, (Original | Fixed) -> ());
     (* Range lookup, forking over which register the (symbolic)
        address hits. *)
     let rec dispatch = function
       | [] ->
         (* F3: no register mapping handles the address. *)
         (match t.rf_policy with
          | Original ->
            Engine.fatal_check ~site:"reg:mapping"
              ~message:"no register mapping for address" Expr.fls;
            (* fatal_check on a violated constant kills the path; keep
               the type checker happy *)
            raise Done
          | Fixed ->
            p.Payload.response <- Payload.Address_error;
            raise Done)
       | r :: rest ->
         let matches = range_match t.rf_policy r ~addr:p.Payload.addr ~len:p.Payload.len in
         if Value.truth ~site:r.match_site matches then serve t p r
         else begin
           (* Under the fixed policy, distinguish a boundary crossing
              (burst error) from a plain unmapped address. *)
           (match t.rf_policy with
            | Fixed ->
              let starts_inside =
                range_match Original r ~addr:p.Payload.addr ~len:p.Payload.len
              in
              if Value.truth ~site:r.burst_site starts_inside
              then begin
                p.Payload.response <- Payload.Burst_error;
                raise Done
              end
            | Original -> ());
           dispatch rest
         end
     in
     dispatch (ranges t)
   with Done -> ())

(* The payload's observable effect.  Both capture and apply copy the
   data array: several forked children can consume the same physically
   shared log entry, and caller glue is free to mutate [p.data] in
   place afterwards. *)
type Engine.effect_data +=
  | Transport_effect of { t_data : Expr.t array; t_response : Payload.response }

let transport t (p : Payload.t) delay =
  Engine.syscall
    ~capture:(fun () ->
      Transport_effect
        { t_data = Array.copy p.Payload.data; t_response = p.Payload.response })
    ~apply:(function
      | Transport_effect { t_data; t_response } ->
        p.Payload.data <- Array.copy t_data;
        p.Payload.response <- t_response
      | _ -> ())
    (fun () -> transport_body t p);
  Pk.Sc_time.add delay access_latency
