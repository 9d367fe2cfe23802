(* symbench: the fresh-process benchmark of symsysc.  See README.md.

     symbench run [--seed S] [--samples N] [--out FILE] [--dir DIR]
     symbench bench --workload W --seed S --seconds T --trace 0|1 [--dir DIR] [--out FILE]
     symbench compare OLD NEW [--benchmark BENCHMARK.json]
     symbench smoke [--benchmark BENCHMARK.json] [--dir DIR]

   [run] samples every workload round-robin and writes one
   [symsysc-bench-v2] record; [bench] samples one workload for a time
   budget and ends its output with a one-line JSON result; [compare]
   judges two records; [smoke] runs every workload once at a tiny scale.
   Every command except [compare] exits 1 when an output is wrong. *)

open Symbench_lib
module Json = Obs.Json

let workloads =
  [ Campaign.workload; First_error.workload; Traffic.workload; Service_loop.workload ]

let usage () =
  prerr_endline
    "usage: symbench run [--seed S] [--samples N] [--out FILE] [--dir DIR]\n\
    \       symbench bench --workload W --seed S --seconds T --trace 0|1 [--dir DIR] [--out FILE]\n\
    \       symbench compare OLD NEW [--benchmark BENCHMARK.json]\n\
    \       symbench smoke [--benchmark BENCHMARK.json] [--dir DIR]";
  exit 2

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("symbench: " ^ msg); exit 2) fmt

(* [--key value] options and positional arguments. *)
let parse args =
  let rec go opts pos = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      go ((String.sub key 2 (String.length key - 2), value) :: opts) pos rest
    | [ key ] when String.starts_with ~prefix:"--" key -> die "%s needs a value" key
    | p :: rest -> go opts (p :: pos) rest
    | [] -> (List.rev opts, List.rev pos)
  in
  go [] [] args

let opt opts key ~default = Option.value ~default (List.assoc_opt key opts)

let int_opt opts key ~default =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "--%s: not a number: %s" key v)

let find_workload name =
  match List.find_opt (fun w -> w.Sampler.name = name) workloads with
  | Some w -> w
  | None ->
    die "unknown workload %s (known: %s)" name
      (String.concat ", " (List.map (fun w -> w.Sampler.name) workloads))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let load path =
  match Json.load path with Ok j -> j | Error msg -> die "%s: %s" path msg

(* Sample [ws], print each workload's metrics (only its failures unless
   [verbose]), and return the record. *)
let measure ?(verbose = true) ~budget ~trace ~scale ~seed ~dir ws =
  mkdir_p dir;
  Sampler.install_stop_handlers ();
  let before = Record.calibrate () in
  let sampled = Sampler.sample_all ~budget ~trace ~scale ~seed ~dir ws in
  let after = Record.calibrate () in
  let results = List.map (fun (w, samples) -> Record.aggregate ~dir w samples) sampled in
  List.iter (Record.print ~verbose) results;
  let context = { Record.seed; scale; budget; calibration_s = (before, after) } in
  (results, Record.to_json context results)

let all_correct results = List.for_all (fun r -> r.Record.failed = 0 && r.Record.attempted > 0) results

let cmd_run args =
  let opts, _ = parse args in
  let out = opt opts "out" ~default:"symbench.json" in
  let results, record =
    measure
      ~budget:(Sampler.Samples (int_opt opts "samples" ~default:5))
      ~trace:true ~scale:Sampler.Full ~seed:(int_opt opts "seed" ~default:1)
      ~dir:(opt opts "dir" ~default:".symbench") workloads
  in
  Json.save out record;
  Printf.printf "record: %s\n" out;
  exit (if all_correct results then 0 else 1)

let cmd_bench args =
  let opts, _ = parse args in
  let w =
    find_workload (Option.value ~default:"" (List.assoc_opt "workload" opts))
  in
  let trace =
    match opt opts "trace" ~default:"0" with "0" -> false | "1" -> true | v -> die "--trace: %s" v
  in
  let results, record =
    measure
      ~budget:(Sampler.Seconds (float_of_int (int_opt opts "seconds" ~default:25)))
      ~trace ~scale:Sampler.Full ~seed:(int_opt opts "seed" ~default:1)
      ~dir:(opt opts "dir" ~default:".symbench") [ w ]
  in
  Option.iter (fun out -> Json.save out record) (List.assoc_opt "out" opts);
  let r = List.hd results in
  print_endline (Record.result_line ~per_layer:trace r);
  exit (if all_correct results then 0 else 1)

let cmd_compare args =
  let opts, pos = parse args in
  match pos with
  | [ old_path; new_path ] ->
    let bounds =
      match Compare.bounds_of_json (load (opt opts "benchmark" ~default:"BENCHMARK.json")) with
      | Ok b -> b
      | Error msg -> die "BENCHMARK.json: %s" msg
    in
    let old_record = load old_path and new_record = load new_path in
    List.iter
      (fun (path, r) ->
         if Option.bind (Json.member "schema" r) Json.to_string_opt <> Some Record.schema then
           die "%s is not a %s record" path Record.schema)
      [ (old_path, old_record); (new_path, new_record) ];
    let result = Compare.compare_records ~bounds ~old_record ~new_record in
    Compare.print result;
    let calibration r =
      Option.bind (Json.member "context" r) (Json.member "calibration_s")
      |> Option.fold ~none:"none" ~some:Json.to_string
    in
    Printf.printf "host calibration loop (context only): OLD %s, NEW %s\n"
      (calibration old_record) (calibration new_record);
    exit (if Compare.gate_fails result then 1 else 0)
  | _ -> usage ()

(* The names BENCHMARK.json gives under [key], with their units and
   directions. *)
let declared benchmark key =
  match Option.bind (Json.member key benchmark) Json.to_list_opt with
  | None -> die "BENCHMARK.json has no %s list" key
  | Some rows ->
    List.map
      (fun row ->
         let s k = Option.value ~default:"" (Option.bind (Json.member k row) Json.to_string_opt) in
         (s "name", s "unit", s "better"))
      rows

let cmd_smoke args =
  let opts, _ = parse args in
  let benchmark = load (opt opts "benchmark" ~default:"BENCHMARK.json") in
  let results, record =
    measure ~verbose:false ~budget:(Sampler.Samples 1) ~trace:true ~scale:Sampler.Smoke ~seed:1
      ~dir:(opt opts "dir" ~default:".symbench") workloads
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let catalog l = List.map (fun (n, u, b) -> (n, u, Catalog.better_to_string b)) l in
  let same_set what declared known =
    let sort = List.sort compare in
    if sort declared <> sort known then problem "BENCHMARK.json %s do not match symbench's" what
  in
  same_set "workloads"
    (List.map (fun (n, _, _) -> n) (declared benchmark "workloads"))
    (List.map (fun w -> w.Sampler.name) workloads);
  same_set "end_to_end metrics" (declared benchmark "end_to_end") (catalog Catalog.end_to_end);
  same_set "per_layer metrics" (declared benchmark "per_layer") (catalog Catalog.per_layer);
  let recorded = Compare.workloads record in
  List.iter
    (fun (name, _, _) ->
       match List.assoc_opt name recorded with
       | None -> problem "workload %s missing from the record" name
       | Some w ->
         List.iter
           (fun (key, (metric, _, _)) ->
              if Option.bind (Json.member key w) (Json.member metric) = None then
                problem "%s: %s missing from the record" name metric)
           (List.map (fun m -> ("end_to_end", m)) (declared benchmark "end_to_end")
            @ List.map (fun m -> ("per_layer", m)) (declared benchmark "per_layer")))
    (declared benchmark "workloads");
  List.iter (fun r -> if r.Record.trace = None then problem "%s: no trace" r.Record.name) results;
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) (List.rev !problems);
  let ok = all_correct results && !problems = [] in
  print_endline (if ok then "smoke: ok" else "smoke: FAILED");
  exit (if ok then 0 else 1)

(* The sample process spawned by {!Sampler.run_sample}. *)
let cmd_sample = function
  | [ name; kind; scale; seed; dir; t_spawn ] -> (
      match
        ( Sampler.kind_of_string kind,
          Sampler.scale_of_string scale,
          int_of_string_opt seed,
          float_of_string_opt t_spawn )
      with
      | Some kind, Some scale, Some seed, Some t_spawn ->
        Sampler.child (find_workload name) ~kind ~scale ~seed ~dir ~t_spawn;
        exit 0
      | _ -> usage ())
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> cmd_run args
  | "bench" :: args -> cmd_bench args
  | "compare" :: args -> cmd_compare args
  | "smoke" :: args -> cmd_smoke args
  | "sample" :: args -> cmd_sample args
  | _ -> usage ()
