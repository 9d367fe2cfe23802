module Expr = Smt.Expr
module Value = Symex.Value
module Engine = Symex.Engine
module Payload = Tlm.Payload

type operand =
  | Const of int
  | Sym of string
  | Reg of string

type instr =
  | Write32 of { addr : int; value : operand }
  | Read32 of { addr : int; into : string }
  | Assume of string * (env -> Smt.Expr.t)
  | Check of string * (env -> Smt.Expr.t)
  | Step
  | Repeat of int * instr list

and env = { mutable bindings : (string * Value.t) list }

let get env name =
  match List.assoc_opt name env.bindings with
  | Some v -> v
  | None -> raise Not_found

let bind env name v = env.bindings <- (name, v) :: env.bindings

let operand_value env = function
  | Const n -> Value.of_int n
  | Reg name -> get env name
  | Sym name ->
    (match List.assoc_opt name env.bindings with
     | Some v -> v
     | None ->
       let v = Value.symbolic name in
       bind env name v;
       v)

let check_response (p : Payload.t) =
  Engine.check ~site:"driver:response"
    ~message:
      (Printf.sprintf "driver access failed: %s"
         (Payload.response_to_string p.Payload.response))
    (Expr.bool (Payload.is_ok p))

let rec exec ~sched ~bus env instr =
  match instr with
  | Write32 { addr; value } ->
    let p =
      Payload.make_write32 ~addr:(Value.of_int addr)
        ~value:(operand_value env value)
    in
    ignore (bus p Pk.Sc_time.zero);
    check_response p
  | Read32 { addr; into } ->
    let p =
      Payload.make_read ~addr:(Value.of_int addr) ~len:(Value.of_int 4)
    in
    ignore (bus p Pk.Sc_time.zero);
    check_response p;
    bind env into (Payload.data32 p)
  | Assume (_, f) -> Engine.assume (f env)
  | Check (site, f) -> Engine.check ~site (f env)
  | Step -> ignore (Pk.Scheduler.step sched)
  | Repeat (n, body) ->
    for _ = 1 to n do
      List.iter (exec ~sched ~bus env) body
    done

let empty_env () = { bindings = [] }

let run ?env ~sched ~bus program =
  let env = match env with Some e -> e | None -> empty_env () in
  List.iter (exec ~sched ~bus env) program;
  env

(* A driver program is itself a testbench: exploring it under a
   session turns "firmware access sequence" into a verification
   campaign without hand-writing the engine plumbing.  [system] builds
   a fresh scheduler/bus per path — the engine re-executes the thunk,
   so the DUV must be constructed inside it. *)
let explore ?(label = "driver") ~session ~system program =
  Engine.Session.run ~label session (fun () ->
      let sched, bus = system () in
      ignore (run ~sched ~bus program))

let pp_operand ppf = function
  | Const n -> Format.fprintf ppf "0x%x" n
  | Sym name -> Format.fprintf ppf "sym:%s" name
  | Reg name -> Format.fprintf ppf "%%%s" name

let rec pp_instr ppf = function
  | Write32 { addr; value } ->
    Format.fprintf ppf "w32 [0x%x] <- %a" addr pp_operand value
  | Read32 { addr; into } -> Format.fprintf ppf "r32 [0x%x] -> %%%s" addr into
  | Assume (name, _) -> Format.fprintf ppf "assume %s" name
  | Check (site, _) -> Format.fprintf ppf "check %s" site
  | Step -> Format.pp_print_string ppf "step"
  | Repeat (n, body) ->
    Format.fprintf ppf "@[<v 2>repeat %d {@,%a@]@,}" n pp_program body

and pp_program ppf program =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_instr ppf program
