(* Every metric symbench reports, by name, unit and direction.
   BENCHMARK.json must name exactly these (the smoke run checks it);
   README.md says which workload and which end-to-end metric each
   per-layer metric is expected to move.

   Every workload reports every metric.  A layer a workload does not
   drive reads 0, so per-layer time is reported as a share of the
   sample's timed work ([*_share]) rather than in seconds: a share is
   comparable across workloads and an unused layer's 0 is exact. *)

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* Host time and memory of untraced samples. *)
let end_to_end =
  [
    ("work_s", "s", Lower);
    ("setup_s", "s", Lower);
    ("cpu_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
  ]

(* Absolute slack [compare] allows on top of the relative bound: a
   set-up of a few milliseconds moves by more than its bound from
   scheduling alone. *)
let abs_floor = function "setup_s" -> 0.005 | _ -> 0.0

let metrics unit better names = List.map (fun n -> (n, unit, better)) names
let shares = metrics "ratio" Lower
let counts = metrics "count" Lower

let per_layer =
  List.concat
    [
      shares
        [ "smt.time_share"; "smt.interval_share"; "smt.bitblast_share"; "smt.sat_share";
          "smt.other_share" ];
      counts [ "smt.queries"; "smt.slices" ];
      metrics "ratio" Higher [ "smt.slice_hit_ratio" ];
      metrics "count" Higher [ "smt.cex_hits"; "smt.interval_unsat" ];
      counts [ "smt.sat_calls"; "smt.sat_conflicts"; "smt.sat_propagations" ];
      metrics "count" Higher [ "smt.scope_reused" ];
      counts [ "smt.scope_rebuilds"; "smt.sat_timeouts" ];
      shares [ "symex.self_share" ];
      counts [ "symex.paths"; "symex.instructions"; "symex.executed" ];
      metrics "count" Higher [ "symex.snapshot_restores" ];
      counts [ "symex.replay_fallbacks"; "symex.paths_unknown"; "symex.first_paths" ];
      shares [ "pk.step_share" ];
      counts [ "pk.steps"; "pk.activations"; "pk.delta_cycles"; "pk.events_fired"; "pk.time_advances" ];
      shares [ "tlm.write_share"; "tlm.read_share"; "tlm.claim_share" ];
      counts [ "tlm.writes"; "tlm.reads"; "tlm.claims"; "tlm.error_responses" ];
      shares [ "plic.trigger_share"; "plic.setup_share" ];
      counts [ "plic.triggers"; "plic.setups" ];
      shares [ "pool.job_share" ];
      counts
        [ "pool.paths"; "pool.requeued"; "pool.worker_deaths"; "pool.lease_expired";
          "pool.duplicates" ];
      shares
        [ "service.submit_share"; "service.status_share"; "service.overhead_share";
          "service.job_share" ];
      metrics "bytes" Lower [ "service.journal_bytes" ];
      counts [ "service.retries"; "service.quarantined" ];
      metrics "ratio" Lower [ "trace.overhead_ratio" ];
      metrics "count" Higher [ "trace.events" ];
      counts [ "trace.dropped" ];
    ]

let per_layer_unit name =
  match List.find_opt (fun (n, _, _) -> n = name) per_layer with
  | Some (_, u, _) -> u
  | None -> ""

(* [x_share] is the layer time [x] divided by the sample's work_s. *)
let share_suffix = "_share"

let share_source name =
  if String.ends_with ~suffix:share_suffix name then
    Some (String.sub name 0 (String.length name - String.length share_suffix))
  else None

(* Per-operation latencies the daemon workload pools across samples;
   the record gives their p50 and p90. *)
let latencies =
  [ "service.verdict_s"; "service.submit_s"; "service.status_s"; "service.overhead_s" ]
