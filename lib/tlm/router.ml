module Expr = Smt.Expr
module Value = Symex.Value

type transport_fn = Payload.t -> Pk.Sc_time.t -> Pk.Sc_time.t

type target = { tg_name : string; base : int; size : int; fn : transport_fn }

type t = {
  rt_name : string;
  latency : Pk.Sc_time.t;
  mutable rev_targets : target list;
}

let create ?(latency = Pk.Sc_time.ns 5) ~name () =
  { rt_name = name; latency; rev_targets = [] }

let overlaps a b = a.base < b.base + b.size && b.base < a.base + a.size

let add_target t ~name ~base ~size fn =
  let target = { tg_name = name; base; size; fn } in
  (match List.find_opt (overlaps target) t.rev_targets with
   | Some other ->
     invalid_arg
       (Printf.sprintf "Router.add_target: %s overlaps %s (router %s)" name
          other.tg_name t.rt_name)
   | None -> ());
  if List.exists (fun tg -> tg.tg_name = name) t.rev_targets then
    invalid_arg
      (Printf.sprintf "Router.add_target: duplicate name %s (router %s)" name
         t.rt_name);
  t.rev_targets <- target :: t.rev_targets

let targets t =
  List.rev_map (fun tg -> (tg.tg_name, tg.base, tg.size)) t.rev_targets

let hits tg addr =
  let addr64 = Expr.zext 64 addr in
  Expr.and_
    (Expr.ule (Expr.int ~width:64 tg.base) addr64)
    (Expr.ult addr64 (Expr.int ~width:64 (tg.base + tg.size)))

let transport t (p : Payload.t) delay =
  let delay = Pk.Sc_time.add delay t.latency in
  let matched = ref "<unmapped>" in
  let rec route = function
    | [] ->
      p.Payload.response <- Payload.Address_error;
      delay
    | tg :: rest ->
      if Value.truth ~site:("router:" ^ tg.tg_name) (hits tg p.Payload.addr)
      then begin
        matched := tg.tg_name;
        let local =
          {
            p with
            Payload.addr = Value.sub p.Payload.addr (Value.of_int tg.base);
          }
        in
        let delay = tg.fn local delay in
        p.Payload.data <- local.Payload.data;
        p.Payload.response <- local.Payload.response;
        delay
      end
      else route rest
  in
  if not !Obs.Sink.enabled then route (List.rev t.rev_targets)
  else begin
    Obs.Sink.span_begin ~cat:"tlm" "txn"
      ~args:
        [ ("router", Obs.Event.Str t.rt_name);
          ("cmd", Obs.Event.Str (Payload.command_to_string p.Payload.cmd)) ];
    (* The span is closed even when routing forks a path and the engine
       unwinds this frame with an exception. *)
    Fun.protect
      ~finally:(fun () ->
          Obs.Sink.span_end ~cat:"tlm" "txn"
            ~args:
              [ ("target", Obs.Event.Str !matched);
                ("response",
                 Obs.Event.Str
                   (Payload.response_to_string p.Payload.response)) ])
      (fun () -> route (List.rev t.rev_targets))
  end
