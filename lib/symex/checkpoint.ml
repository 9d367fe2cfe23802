module Json = Obs.Json

type t = {
  label : string;
  strategy : string;
  frontier : (string * Decision.t array) list;
  leases : (string * Decision.t array * int) list;
  visits : (string * int) list;
  coverage : Obs.Coverage.t;
  rng : int64;
  paths : int;
  completed : int;
  errored : int;
  infeasible : int;
  unknown : int;
  instructions : int;
  wall_time : float;
  solver : Smt.Solver.Stats.t;
  errors : Error.t list;
  degraded : bool;
  stop_reason : string option;
}

type policy = {
  write : t -> unit;
  every_s : float;
}

let version = 1

let to_json t =
  Json.Obj
    [ ("version", Json.Int version);
      ("label", Json.Str t.label);
      ("strategy", Json.Str t.strategy);
      ("rng", Json.Str (Printf.sprintf "0x%Lx" t.rng));
      ("frontier",
       Json.List
         (List.map
            (fun (site, prefix) ->
               Json.Obj
                 [ ("site", Json.Str site);
                   ("prefix",
                    Json.List
                      (Array.to_list
                         (Array.map
                            (fun d -> Json.Str (Decision.to_string d))
                            prefix))) ])
            t.frontier));
      (* In-flight and pending leases at snapshot time: work that was
         granted but not yet settled.  Kept separate from the frontier
         so a resume can restore the attempt counts (quarantine
         accounting survives the restart).  Absent in pre-lease
         checkpoints, where the writer folded in-flight units back
         into the frontier — of_json defaults to []. *)
      ("leases",
       Json.List
         (List.map
            (fun (site, prefix, attempts) ->
               Json.Obj
                 [ ("site", Json.Str site);
                   ("attempts", Json.Int attempts);
                   ("prefix",
                    Json.List
                      (Array.to_list
                         (Array.map
                            (fun d -> Json.Str (Decision.to_string d))
                            prefix))) ])
            t.leases));
      ("visits",
       Json.List
         (List.map
            (fun (site, n) ->
               Json.Obj [ ("site", Json.Str site); ("count", Json.Int n) ])
            t.visits));
      ("coverage", Obs.Coverage.to_json t.coverage);
      ("paths", Json.Int t.paths);
      ("completed", Json.Int t.completed);
      ("errored", Json.Int t.errored);
      ("infeasible", Json.Int t.infeasible);
      ("unknown", Json.Int t.unknown);
      ("instructions", Json.Int t.instructions);
      ("wall_time", Json.Float t.wall_time);
      ("solver", Smt.Solver.Stats.to_json t.solver);
      ("errors", Json.List (List.map Error.to_json t.errors));
      ("degraded", Json.Bool t.degraded);
      ("stop_reason",
       match t.stop_reason with None -> Json.Null | Some r -> Json.Str r) ]

(* Fold a list of decoders into a list result, keeping order and the
   first failure. *)
let map_result f l =
  List.fold_right
    (fun x acc ->
       match acc with
       | Error _ -> acc
       | Ok tl -> (match f x with Ok y -> Ok (y :: tl) | Error e -> Error e))
    l (Ok [])

let of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  let int k = Option.bind (Json.member k j) Json.to_int_opt in
  let ( let* ) = Result.bind in
  let require name = function
    | Some v -> Ok v
    | None -> Error ("checkpoint: missing " ^ name)
  in
  let* () =
    match int "version" with
    | Some v when v = version -> Ok ()
    | Some v -> Error (Printf.sprintf "checkpoint: unsupported version %d" v)
    | None -> Error "checkpoint: missing version"
  in
  let* label = require "label" (str "label") in
  let* strategy = require "strategy" (str "strategy") in
  let* rng_s = require "rng" (str "rng") in
  let* rng =
    match Int64.of_string_opt rng_s with
    | Some v -> Ok v
    | None -> Error "checkpoint: malformed rng state"
  in
  let* frontier_l =
    require "frontier" (Option.bind (Json.member "frontier" j) Json.to_list_opt)
  in
  let* frontier =
    map_result
      (fun ej ->
         let* site =
           require "frontier site"
             (Option.bind (Json.member "site" ej) Json.to_string_opt)
         in
         let* prefix_l =
           require "frontier prefix"
             (Option.bind (Json.member "prefix" ej) Json.to_list_opt)
         in
         let* decisions =
           map_result
             (fun dj ->
                match Json.to_string_opt dj with
                | Some s -> Decision.of_string s
                | None -> Error "checkpoint: malformed decision")
             prefix_l
         in
         Ok (site, Array.of_list decisions))
      frontier_l
  in
  let* leases =
    match Option.bind (Json.member "leases" j) Json.to_list_opt with
    | None -> Ok []
    | Some l ->
      map_result
        (fun ej ->
           let* site =
             require "lease site"
               (Option.bind (Json.member "site" ej) Json.to_string_opt)
           in
           let* prefix_l =
             require "lease prefix"
               (Option.bind (Json.member "prefix" ej) Json.to_list_opt)
           in
           let* decisions =
             map_result
               (fun dj ->
                  match Json.to_string_opt dj with
                  | Some s -> Decision.of_string s
                  | None -> Error "checkpoint: malformed decision")
               prefix_l
           in
           let attempts =
             Option.value ~default:1
               (Option.bind (Json.member "attempts" ej) Json.to_int_opt)
           in
           Ok (site, Array.of_list decisions, attempts))
        l
  in
  let* visits =
    match Option.bind (Json.member "visits" j) Json.to_list_opt with
    | None -> Ok []
    | Some l ->
      map_result
        (fun vj ->
           match
             ( Option.bind (Json.member "site" vj) Json.to_string_opt,
               Option.bind (Json.member "count" vj) Json.to_int_opt )
           with
           | Some site, Some n -> Ok (site, n)
           | _ -> Error "checkpoint: malformed visit entry")
        l
  in
  let* errors =
    match Option.bind (Json.member "errors" j) Json.to_list_opt with
    | None -> Ok []
    | Some l -> map_result Error.of_json l
  in
  let solver =
    match Json.member "solver" j with
    | Some sj -> Smt.Solver.Stats.of_json sj
    | None -> Smt.Solver.Stats.zero
  in
  let coverage =
    match Json.member "coverage" j with
    | Some cj -> Obs.Coverage.of_json cj
    | None -> Obs.Coverage.zero
  in
  Ok
    { label;
      strategy;
      frontier;
      leases;
      visits;
      coverage;
      rng;
      paths = Option.value ~default:0 (int "paths");
      completed = Option.value ~default:0 (int "completed");
      errored = Option.value ~default:0 (int "errored");
      infeasible = Option.value ~default:0 (int "infeasible");
      unknown = Option.value ~default:0 (int "unknown");
      instructions = Option.value ~default:0 (int "instructions");
      wall_time =
        Option.value ~default:0.0
          (Option.bind (Json.member "wall_time" j) Json.to_float_opt);
      solver;
      errors;
      degraded =
        Option.value ~default:false
          (Option.bind (Json.member "degraded" j) Json.to_bool_opt);
      stop_reason = str "stop_reason" }

(* ------------------------------------------------------------------ *)
(* On-disk integrity                                                   *)

(* The file format is an envelope around the version-1 payload object:
   {"format":2,"crc":"0x...","payload":{...}}.  The CRC is CRC-32
   (IEEE) of the serialized payload text; the printer is deterministic
   (ints, %.17g floats and escaped strings all round-trip), so the
   loader re-serializes the parsed payload and compares.  Bare
   version-1 files (no envelope) are still accepted. *)

let format_version = 2

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
       let i =
         Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
       in
       c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let backup_path path = path ^ ".bak"

let fallback_count = ref 0
let fallbacks () = !fallback_count

let fallback_metric =
  lazy
    (Obs.Metrics.counter
       ~help:"checkpoint loads that fell back to the .bak rotation"
       "symsysc_checkpoint_fallbacks_total")

let save path t =
  let payload = Json.to_string (to_json t) in
  let doc =
    Printf.sprintf "{\"format\":%d,\"crc\":\"0x%08lx\",\"payload\":%s}"
      format_version (crc32 payload) payload
  in
  (* The chaos point simulates a write torn by a crash or a bad disk:
     the new file is damaged, but the .bak rotation below still holds
     the previous good snapshot for [load] to fall back to. *)
  let doc =
    if Chaos.fire Chaos.Checkpoint_corrupt then
      String.sub doc 0 (String.length doc / 2)
    else doc
  in
  if Sys.file_exists path then Sys.rename path (backup_path path);
  Obs.Json.write_atomic path (doc ^ "\n")

let decode j =
  match Json.member "payload" j with
  | None -> of_json j (* bare version-1 file *)
  | Some payload ->
    let ( let* ) = Result.bind in
    let* () =
      match Option.bind (Json.member "format" j) Json.to_int_opt with
      | Some v when v = format_version -> Ok ()
      | Some v ->
        Error (Printf.sprintf "checkpoint: unsupported format %d" v)
      | None -> Error "checkpoint: missing format version"
    in
    let* crc =
      match Option.bind (Json.member "crc" j) Json.to_string_opt with
      | Some s ->
        (match Int64.of_string_opt s with
         | Some v -> Ok (Int64.to_int32 v)
         | None -> Error "checkpoint: malformed crc")
      | None -> Error "checkpoint: missing crc"
    in
    let* () =
      let actual = crc32 (Json.to_string payload) in
      if Int32.equal actual crc then Ok ()
      else
        Error
          (Printf.sprintf "checkpoint: crc mismatch (stored 0x%08lx, computed 0x%08lx)"
             crc actual)
    in
    of_json payload

let load_file path =
  match Json.load path with Error e -> Error e | Ok j -> decode j

let load path =
  match load_file path with
  | Ok t -> Ok t
  | Error primary_err ->
    (match load_file (backup_path path) with
     | Ok t ->
       incr fallback_count;
       Obs.Metrics.inc (Lazy.force fallback_metric);
       if !Obs.Sink.enabled then
         Obs.Sink.instant ~cat:"checkpoint"
           ~args:[ ("error", Obs.Event.Str primary_err) ]
           "fallback";
       Ok t
     | Error _ -> Error primary_err)
