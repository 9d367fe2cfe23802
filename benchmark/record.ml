(* The [symsysc-bench-v2] record: one schema for every workload.  It
   keeps each untraced sample's end-to-end values (so medians and
   quartiles can be recomputed), the per-layer metrics, the pooled
   per-operation latencies, the traced sample's summary, and the run
   context. *)

module Json = Obs.Json

let schema = "symsysc-bench-v2"

type workload = {
  name : string;
  attempted : int;
  failed : int;
  problems : string list;
  end_to_end : (string * float list) list;  (** per untraced sample *)
  per_layer : (string * float) list;  (** {!Catalog.per_layer} order *)
  latencies : (string * float list) list;
  trace : (string * int * int * float) option;
      (** Chrome trace file, events kept, events dropped, work_s *)
}

let finite l = List.filter Float.is_finite l

(* ---- aggregation ---- *)

let aggregate ~dir (w : Sampler.workload) (samples : Sampler.sample list) =
  let of_kind k = List.filter (fun s -> s.Sampler.kind = k) samples in
  let untraced = of_kind Sampler.Plain in
  let traced = List.find_opt (fun s -> s.Sampler.kind = Sampler.Traced) samples in
  let full = List.filter (fun s -> s.Sampler.kind <> Sampler.Setup_only) samples in
  let outcome s = s.Sampler.outcome in
  (* A deterministic workload whose counts differ between samples has
     a nondeterminism bug: that sample's operations count as failed. *)
  let reference =
    List.find_opt (fun s -> (outcome s).Outcome.failed = 0) full
    |> Option.map (fun s -> (outcome s).Outcome.values)
  in
  let diverged s =
    w.Sampler.deterministic
    && s.Sampler.kind <> Sampler.Setup_only
    && (outcome s).Outcome.failed = 0
    && Some (outcome s).Outcome.values <> reference
  in
  let failed =
    List.fold_left
      (fun a s ->
         a + if diverged s then (outcome s).Outcome.attempted else (outcome s).Outcome.failed)
      0 samples
  in
  let problems =
    List.concat_map (fun s -> (outcome s).Outcome.problems) samples
    @ List.filter_map
        (fun s ->
           if diverged s then
             Some
               (Printf.sprintf "counts of a %s sample differ from the first sample's"
                  (Sampler.kind_to_string s.Sampler.kind))
           else None)
        samples
  in
  let e2e =
    let per f = finite (List.map f untraced) in
    [
      ("work_s", per (fun s -> (outcome s).Outcome.work_s));
      ("setup_s", finite (List.map (fun s -> s.Sampler.setup_s) (untraced @ of_kind Sampler.Setup_only)));
      ("cpu_s", per (fun s -> s.Sampler.cpu_s));
      ("peak_rss_mb", per (fun s -> s.Sampler.peak_rss_mb));
    ]
  in
  let work_median = Quartiles.median (List.assoc "work_s" e2e) in
  let or_zero v = if Float.is_finite v then v else 0.0 in
  let value_of name =
    match Catalog.share_source name with
    | Some layer ->
      let share s =
        Option.map (fun t -> t /. (outcome s).Outcome.work_s)
          (List.assoc_opt layer (outcome s).Outcome.times)
      in
      (match finite (List.filter_map share untraced) with
       | [] -> Option.bind traced share |> Option.value ~default:0.0
       | l -> Quartiles.median l)
    | None -> (
        match (name, traced) with
        | "trace.overhead_ratio", Some s -> ((outcome s).Outcome.work_s /. work_median) -. 1.0
        | "trace.events", Some s -> float_of_int s.Sampler.trace_events
        | "trace.dropped", Some s -> float_of_int s.Sampler.trace_dropped
        | _ ->
          Quartiles.median
            (List.filter_map (fun s -> List.assoc_opt name (outcome s).Outcome.values) full))
  in
  {
    name = w.Sampler.name;
    attempted = List.fold_left (fun a s -> a + (outcome s).Outcome.attempted) 0 samples;
    failed;
    problems;
    end_to_end = e2e;
    per_layer = List.map (fun (name, _, _) -> (name, or_zero (value_of name))) Catalog.per_layer;
    latencies =
      List.map
        (fun key ->
           ( key,
             List.concat_map
               (fun s ->
                  Option.value ~default:[] (List.assoc_opt key (outcome s).Outcome.latencies))
               untraced ))
        (List.filter
           (fun key ->
              List.exists (fun s -> List.mem_assoc key (outcome s).Outcome.latencies) samples)
           Catalog.latencies);
    trace =
      Option.map
        (fun s ->
           ( Sampler.trace_file ~dir w.Sampler.name,
             s.Sampler.trace_events,
             s.Sampler.trace_dropped,
             (outcome s).Outcome.work_s ))
        traced;
  }

let fail_ratio w =
  if w.attempted = 0 then 1.0 else float_of_int w.failed /. float_of_int w.attempted

(* ---- run context ---- *)

let read_file path =
  try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
  with Sys_error _ -> None

(* The checked-out commit, read from [.git] without running git. *)
let git_revision () =
  match read_file ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let name = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" name) with
      | Some rev -> rev
      | None ->
        Option.bind (read_file ".git/packed-refs") (fun packed ->
            List.find_map
              (fun line ->
                 match String.split_on_char ' ' line with
                 | [ rev; r ] when r = name -> Some rev
                 | _ -> None)
              (String.split_on_char '\n' packed))
        |> Option.value ~default:"unknown")
  | Some rev when rev <> "" -> rev
  | _ -> "unknown"

(* Seconds for a fixed integer loop: how fast the host ran around the
   samples.  Context only; it never rescales a metric. *)
let calibrate () =
  let t0 = Outcome.now () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := ((!x * 1103515245) + i) land 0x3FFF_FFFF
  done;
  ignore (Sys.opaque_identity !x);
  Outcome.now () -. t0

type context = {
  seed : int;
  scale : Sampler.scale;
  budget : Sampler.budget;
  calibration_s : float * float;  (** before and after the samples *)
}

let context_json c =
  Json.Obj
    [
      ("git_revision", Json.Str (git_revision ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("seed", Json.Int c.seed);
      ("scale", Json.Str (Sampler.scale_to_string c.scale));
      ( "samples",
        match c.budget with Sampler.Samples n -> Json.Int n | Sampler.Seconds _ -> Json.Null );
      ( "seconds",
        match c.budget with Sampler.Seconds s -> Json.Float s | Sampler.Samples _ -> Json.Null );
      ( "calibration_s",
        Json.Obj
          [ ("before", Json.Float (fst c.calibration_s));
            ("after", Json.Float (snd c.calibration_s)) ] );
    ]

(* ---- JSON ---- *)

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) Catalog.end_to_end with
  | Some (_, u, b) -> (u, b)
  | None -> ("", Catalog.Lower)

let summary values =
  let q1, q3 = Quartiles.quartiles values in
  [
    ("median", Json.Float (Quartiles.median values));
    ("q1", Json.Float q1);
    ("q3", Json.Float q3);
    ("n", Json.Int (List.length values));
  ]

let workload_json w =
  let floats l = Json.List (List.map (fun v -> Json.Float v) l) in
  Json.Obj
    [
      ("attempted", Json.Int w.attempted);
      ("failed", Json.Int w.failed);
      ("fail_ratio", Json.Float (fail_ratio w));
      ("problems", Json.List (List.map (fun p -> Json.Str p) w.problems));
      ( "end_to_end",
        Json.Obj
          (List.map
             (fun (name, values) ->
                let u, b = unit_of name in
                ( name,
                  Json.Obj
                    ([ ("unit", Json.Str u);
                       ("better", Json.Str (Catalog.better_to_string b));
                       ("values", floats values) ]
                     @ summary values) ))
             w.end_to_end) );
      ( "per_layer",
        Json.Obj
          (List.map
             (fun (name, v) ->
                ( name,
                  Json.Obj
                    [ ("unit", Json.Str (Catalog.per_layer_unit name));
                      ("value", Json.Float v) ] ))
             w.per_layer) );
      ( "latencies",
        Json.Obj
          (List.map
             (fun (name, values) ->
                ( name,
                  Json.Obj
                    [ ("p50", Json.Float (Quartiles.percentile 0.5 values));
                      ("p90", Json.Float (Quartiles.percentile 0.9 values));
                      ("n", Json.Int (List.length values)) ] ))
             w.latencies) );
      ( "trace",
        match w.trace with
        | None -> Json.Null
        | Some (file, events, dropped, work_s) ->
          Json.Obj
            [ ("file", Json.Str file); ("events", Json.Int events);
              ("dropped", Json.Int dropped); ("work_s", Json.Float work_s) ] );
    ]

let to_json context workloads =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("context", context_json context);
      ("workloads", Json.Obj (List.map (fun w -> (w.name, workload_json w)) workloads));
    ]

(* ---- printing ---- *)

let print_metrics w =
  List.iter
    (fun (name, values) ->
       let u, _ = unit_of name in
       let m = Quartiles.median values and q1, q3 = Quartiles.quartiles values in
       Printf.printf "  %-24s %12.6g %-5s median of %d, IQR %.1f%%\n" name m u
         (List.length values) (100.0 *. (q3 -. q1) /. m))
    w.end_to_end;
  List.iter
    (fun (name, values) ->
       Printf.printf "  %-24s p50 %.6g s, p90 %.6g s (n=%d)\n" name
         (Quartiles.percentile 0.5 values) (Quartiles.percentile 0.9 values)
         (List.length values))
    w.latencies;
  List.iter
    (fun (name, v) ->
       Printf.printf "  %-24s %12.6g %s\n" name v (Catalog.per_layer_unit name))
    w.per_layer;
  Option.iter
    (fun (file, events, dropped, _) ->
       Printf.printf "  trace: %s (%d events kept, %d dropped)\n" file events dropped)
    w.trace

(* Every metric of [w], or only its failures unless [verbose]. *)
let print ~verbose w =
  if verbose || w.failed > 0 then
    Printf.printf "%s: %d operation(s), %d failed\n" w.name w.attempted w.failed;
  List.iter (fun p -> Printf.printf "  FAILED %s\n" p) w.problems;
  if verbose then print_metrics w

(* The one-line result for a single workload: its end-to-end medians,
   or with [per_layer] its per-layer metrics. *)
let result_line ~per_layer w =
  let metric name value u = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str u) ]) in
  let metrics =
    if per_layer then
      List.map (fun (name, v) -> metric name v (Catalog.per_layer_unit name)) w.per_layer
    else
      List.map
        (fun (name, values) ->
           let v = Quartiles.median values in
           metric name (if Float.is_finite v then v else 0.0) (fst (unit_of name)))
        w.end_to_end
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (w.failed = 0 && w.attempted > 0));
         ("attempted", Json.Int (max 1 w.attempted));
         ("failed", Json.Int w.failed);
         ("metrics", Json.Obj metrics);
       ])
