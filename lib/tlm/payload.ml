module Expr = Smt.Expr

type command = Read | Write

type response =
  | Incomplete
  | Ok_response
  | Address_error
  | Command_error
  | Burst_error
  | Generic_error

type t = {
  cmd : command;
  addr : Symex.Value.t;
  mutable data : Smt.Expr.t array;
  len : Symex.Value.t;
  mutable response : response;
}

let make_read ~addr ~len = { cmd = Read; addr; data = [||]; len; response = Incomplete }

let make_write ~addr ~len ~data =
  { cmd = Write; addr; data; len; response = Incomplete }

let make_write32 ~addr ~value =
  let byte i = Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) value in
  make_write ~addr ~len:(Symex.Value.of_int 4) ~data:(Array.init 4 byte)

let data32 t =
  if Array.length t.data < 4 then invalid_arg "Payload.data32: fewer than 4 bytes";
  Symex.Mem.assemble32 t.data 0

let is_ok t = t.response = Ok_response

let command_to_string = function Read -> "read" | Write -> "write"

let response_to_string = function
  | Incomplete -> "incomplete"
  | Ok_response -> "ok"
  | Address_error -> "address error"
  | Command_error -> "command error"
  | Burst_error -> "burst error"
  | Generic_error -> "generic error"

let pp ppf t =
  Format.fprintf ppf "%s@%a len=%a [%s]" (command_to_string t.cmd)
    Symex.Value.pp t.addr Symex.Value.pp t.len
    (response_to_string t.response)
