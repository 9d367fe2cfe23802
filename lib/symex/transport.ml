module Json = Obs.Json

(* A peer that went away mid-conversation.  Both framing directions map
   the "other side is gone" errno family (and EOF) onto this exception,
   so the pool can route every lost-connection shape — dead worker,
   TCP reset, half-closed socket — through one lost-link path instead
   of dying on an unhandled EPIPE. *)
exception Disconnected of string

let disconnected where = raise (Disconnected where)

let init () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

type conn = {
  c_fd : Unix.file_descr;   (* one stream socket, both directions *)
  c_addr : string;          (* human-readable peer address *)
}

let close c = try Unix.close c.c_fd with _ -> ()

(* ------------------------------------------------------------------ *)
(* Framing: ASCII decimal payload length, a newline, then one JSON
   document.  Both directions of every transport speak this format; it
   reuses the existing Obs.Json printer/parser rather than inventing a
   binary protocol, and a frame is trivially inspectable with strace or
   by dumping the stream. *)

let gone_errno = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.ESHUTDOWN
  | Unix.EBADF ->
    true
  | _ -> false

let rec write_all fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error (e, _, _) when gone_errno e ->
        disconnected ("write: " ^ Unix.error_message e)
    in
    write_all fd buf (off + n) (len - n)
  end

let frame_string j =
  let payload = Json.to_string j in
  string_of_int (String.length payload) ^ "\n" ^ payload

let write_frame_fd fd j =
  let s = frame_string j in
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

let rec read_byte fd =
  let b = Bytes.create 1 in
  match Unix.read fd b 0 1 with
  | 0 -> disconnected "read: EOF"
  | _ -> Bytes.get b 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_byte fd
  | exception Unix.Unix_error (e, _, _) when gone_errno e ->
    disconnected ("read: " ^ Unix.error_message e)

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then
      match Unix.read fd b off (n - off) with
      | 0 -> disconnected "read: EOF mid-frame"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) when gone_errno e ->
        disconnected ("read: " ^ Unix.error_message e)
  in
  go 0;
  Bytes.unsafe_to_string b

(* The largest allowed length, [1 lsl 30], has 10 digits; a longer
   header is rejected as soon as it is seen, not read to its end. *)
let max_frame_len = 1 lsl 30
let max_header_len = String.length (string_of_int max_frame_len)

let read_frame_fd fd =
  let malformed () = failwith "transport: malformed frame header" in
  let hdr = Buffer.create 8 in
  let rec header () =
    match read_byte fd with
    | '\n' -> ()
    | _ when Buffer.length hdr >= max_header_len -> malformed ()
    | c -> Buffer.add_char hdr c; header ()
  in
  header ();
  let len =
    match int_of_string_opt (Buffer.contents hdr) with
    | Some n when n >= 0 && n <= max_frame_len -> n
    | _ -> malformed ()
  in
  match Json.of_string (read_exact fd len) with
  | Ok j -> j
  | Error e -> failwith ("transport: malformed frame: " ^ e)

let write_frame c j = write_frame_fd c.c_fd j
let read_frame c = read_frame_fd c.c_fd

(* ------------------------------------------------------------------ *)
(* TCP listener / dialer *)

type listener = {
  l_fd : Unix.file_descr;
  l_host : string;
  l_port : int;  (* the bound port — resolved when asked for port 0 *)
}

let resolve host =
  try (Unix.gethostbyname host).Unix.h_addr_list.(0)
  with _ ->
    (try Unix.inet_addr_of_string host
     with _ -> failwith (Printf.sprintf "transport: cannot resolve %S" host))

let addr_string sockaddr =
  match sockaddr with
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let listen ?(backlog = 16) ~host ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (resolve host, port));
     Unix.listen fd backlog
   with exn ->
     (try Unix.close fd with _ -> ());
     raise exn);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { l_fd = fd; l_host = host; l_port = bound_port }

let listener_addr l = (l.l_host, l.l_port)
let listener_fd l = l.l_fd

let close_listener l = try Unix.close l.l_fd with _ -> ()

let accept l =
  let fd, peer = Unix.accept l.l_fd in
  Unix.set_close_on_exec fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
  { c_fd = fd; c_addr = addr_string peer }

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.set_close_on_exec fd;
     (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
     Unix.connect fd (Unix.ADDR_INET (resolve host, port))
   with
   | Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with _ -> ());
     disconnected ("connect: " ^ Unix.error_message e)
   | exn ->
     (try Unix.close fd with _ -> ());
     raise exn);
  { c_fd = fd; c_addr = Printf.sprintf "%s:%d" host port }

(* ------------------------------------------------------------------ *)
(* Reconnect backoff *)

(* splitmix64 (same generator the search and chaos layers use), here
   keyed on (seed, attempt) so the whole reconnect schedule is a pure
   function of the pair: tests can enumerate it, and two workers given
   different seeds never thunder in lockstep. *)
let splitmix64 st =
  let st = Int64.add st 0x9E3779B97F4A7C15L in
  let z = st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let backoff_base_s = 0.05
let backoff_cap_s = 5.0

let backoff_delay ~seed ~attempt =
  let attempt = max 1 attempt in
  (* Exponential growth capped well before the jitter draw, so the
     deterministic ceiling holds for every (seed, attempt). *)
  let expo =
    backoff_base_s *. (2.0 ** float_of_int (min 16 (attempt - 1)))
  in
  let ceiling = Float.min expo backoff_cap_s in
  let h =
    splitmix64
      (Int64.logxor
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.of_int attempt))
  in
  let unit_f =
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
  in
  (* Full jitter over (0, ceiling]: mean ceiling/2, never 0 (a zero
     sleep would busy-spin on a refused connect). *)
  Float.max (ceiling *. unit_f) 0.001
