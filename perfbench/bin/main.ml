(* The repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a metric table, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.
   Exits 1 when a correctness check failed, 2 on a usage or run error
   (without the JSON line).  Writes the full record (host facts, checks,
   metrics) and, traced, a Chrome trace under perfbench/_out/. *)

open Perfbench

let workloads =
  [ ("two-channel", fun ctx -> Solver_wl.run ctx Solver_wl.two_channel);
    ("sac-sod", fun ctx -> Solver_wl.run ctx Solver_wl.sac_sod);
    ("fleet-mix", Fleet_wl.run) ]

let out_dir = Filename.concat "perfbench" "_out"

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some v; go rest
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some ("0" | "1" as t) when List.mem_assoc w workloads && s > 0. ->
    (w, seed, s, t = "1")
  | _ -> usage ()

let () =
  let workload, seed, seconds, traced = parse_args () in
  Persist.Checkpoint.mkdir_p out_dir;
  let run_dir =
    Filename.concat out_dir (Printf.sprintf "run-%s-%d-%d" workload seed (Unix.getpid ()))
  in
  Wl.rm_rf run_dir;
  Persist.Checkpoint.mkdir_p run_dir;
  let ctx =
    { Wl.seed; seconds; traced; trace = Trace.create ~enabled:traced;
      checks = Check.create (); run_dir }
  in
  let report =
    match (List.assoc workload workloads) ctx with
    | r -> Wl.rm_rf run_dir; r
    | exception e ->
      Wl.rm_rf run_dir;
      Printf.eprintf "perfbench %s: %s\n" workload (Printexc.to_string e);
      exit 2
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int traced) in
  let metrics =
    if traced then begin
      Trace.write_chrome ctx.Wl.trace ~path:(Filename.concat out_dir ("trace-" ^ tag ^ ".json"))
        ~process:workload;
      let self = Trace.self_ms_by_layer ctx.Wl.trace in
      Metrics.select Metrics.per_layer ~default:true
        (report.Wl.layers
        @ List.filter_map
            (fun l -> Option.map (fun v -> (Printf.sprintf "self.%s_ms" l, v)) (List.assoc_opt l self))
            Metrics.span_layers)
    end
    else
      Metrics.select Metrics.end_to_end ~default:false (report.Wl.e2e (fun t -> t.Calib.cal))
  in
  let checks = ctx.Wl.checks in
  let sample_json t = Json.Obj [ ("wall", Json.Num t.Calib.wall); ("cal", Json.Num t.Calib.cal) ] in
  let metric_json =
    Json.Obj
      (List.map
         (fun (k, u, v) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
         metrics)
  in
  let host =
    Host.facts ~workload ~seed ~lanes:report.Wl.lanes
      ~working_set_bytes:report.Wl.working_set_bytes
  in
  let record =
    Json.Obj
      [ ("host", host);
        ("seconds", Json.Num seconds);
        ("calibration_nominal_s",
         Json.Obj
           [ ("flux", Json.Num Calib.nominal_flux_s); ("tree", Json.Num Calib.nominal_tree_s) ]);
        ("samples",
         Json.Obj
           (List.map
              (fun (k, l) -> (k, Json.Arr (List.map sample_json l)))
              report.Wl.samples));
        ("traced", Json.Bool traced);
        ("sections", Json.Arr (List.map sample_json report.Wl.sections));
        ("failed_frac", Json.Num (Check.failed_frac checks));
        ("checks",
         Json.Arr
           (List.map
              (fun o ->
                Json.Obj
                  [ ("name", Json.Str o.Check.name); ("ok", Json.Bool o.Check.ok);
                    ("detail", Json.Str o.Check.detail) ])
              (Check.outcomes checks)));
        ("metrics", metric_json);
        ("end_to_end",
         Json.Obj
           (List.map
              (fun (name, clock) ->
                (name, Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (report.Wl.e2e clock))))
              [ ("calibrated", fun t -> t.Calib.cal); ("wall", fun t -> t.Calib.wall) ])) ]
  in
  Persist.Atomic_write.write_string (Filename.concat out_dir ("result-" ^ tag ^ ".json"))
    (Json.to_string record ^ "\n");
  List.iter
    (fun o -> if not o.Check.ok then Printf.printf "FAILED check %s: %s\n" o.Check.name o.Check.detail)
    (Check.outcomes checks);
  Printf.printf "host %s\n" (Json.to_string host);
  Printf.printf "%s  failed_frac %d/%d\n" tag (Check.failed checks) (Check.attempted checks);
  List.iter (fun (k, u, v) -> Printf.printf "  %-30s %16.6g %s\n" k v u) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (Check.correct checks));
            ("attempted", Json.Int (Check.attempted checks));
            ("failed", Json.Int (Check.failed checks));
            ("metrics", metric_json) ]));
  exit (if Check.correct checks then 0 else 1)
