(* The benchmark's metric vocabulary: names and units, in the order
   BENCHMARK.json lists them.  The wrapper script checks every result
   against that file, so the two cannot drift apart. *)

let end_to_end =
  [ ("setup_s", "s");
    ("cell_updates_per_s", "1/s");
    ("compile_s", "s");
    ("jobs_per_s", "1/s");
    ("job_turnaround_p50_s", "s");
    ("job_turnaround_p90_s", "s");
    ("peak_rss_mb", "MB") ]

(* Layers a span can belong to; each reports its self time. *)
let span_layers = [ "bench"; "engine"; "euler"; "vm"; "sac"; "persist"; "fleet"; "inbox" ]

let per_layer =
  [ ("exec.rhs_ms_per_step", "ms");
    ("exec.bc_ms_per_step", "ms");
    ("exec.rk_combine_ms_per_step", "ms");
    ("exec.reduce_ms_per_step", "ms");
    ("exec.halo_ms_per_step", "ms");
    ("exec.residual_ms_per_step", "ms");
    ("exec.regions_per_step", "count");
    ("gc.minor_words_per_step", "words");
    ("gc.promoted_words_per_step", "words");
    ("engine.step_ms_p50", "ms");
    ("engine.step_ms_p90", "ms");
    ("sac.parse_ms", "ms");
    ("sac.optimize_ms", "ms");
    ("sac.lower_ms", "ms");
    ("sac.opt_cycles", "count");
    ("sac.bytecode_instrs", "count");
    ("vm.dt_ms_per_call", "ms");
    ("vm.step_ms_per_call", "ms");
    ("vm.fold_kernel_ratio", "ratio");
    ("vm.with_loops_per_step", "count");
    ("persist.capture_ms", "ms");
    ("persist.encode_ms", "ms");
    ("persist.write_ms", "ms");
    ("persist.read_ms", "ms");
    ("persist.restore_ms", "ms");
    ("persist.snapshot_bytes", "bytes");
    ("fleet.lane_busy_frac", "ratio");
    ("fleet.fresh_ms", "ms");
    ("fleet.resume_ms", "ms");
    ("fleet.settle_ms", "ms");
    ("fleet.batches", "count");
    ("fleet.preemptions", "count");
    ("fleet.resumes", "count");
    ("inbox.submit_ms", "ms");
    ("trace.overhead_frac", "ratio") ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_ms" l, "ms")) span_layers

(* Order [measured] by [table].  A layer the workload does not exercise
   reports 0 (no time spent there); a measured name missing from the
   table is a benchmark bug and fails loudly. *)
let select table ~default measured =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k table) then
        invalid_arg (Printf.sprintf "metric %S is not in the benchmark's table" k))
    measured;
  List.map
    (fun (k, unit_) ->
      match List.assoc_opt k measured with
      | Some v -> (k, unit_, v)
      | None when default -> (k, unit_, 0.)
      | None -> invalid_arg (Printf.sprintf "metric %S was not measured" k))
    table
