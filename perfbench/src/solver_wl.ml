(* The solver workloads: one backend instance on a sequential exec,
   marched step by step for the timed window, then checked against an
   independent implementation. *)

type spec = {
  scenario : string;
  nx : int;
  backend : string;
  config : Engine.Scenario.t -> Euler.Solver.config;
  check_backend : string;  (** independent implementation, sequential *)
  tolerance : float;  (** max interior |difference| allowed *)
  layer : string;  (** trace layer of the backend's dt/step_dt calls *)
}

(* §3.2 two-channel shock interaction, Ms = 2.2, on the fused reference
   solver: WENO3 + HLLC + TVD-RK3.  The Fortran baseline reproduces it
   bitwise. *)
let two_channel =
  { scenario = "two-channel";
    nx = 128;
    backend = "reference";
    config =
      (fun sc ->
        { Euler.Solver.default_config with
          Euler.Solver.cfl = sc.Engine.Scenario.cfl;
          fused = true });
    check_backend = "fortran";
    tolerance = 0.;
    layer = "euler" }

(* euler_1d compiled with the paper's default options and marched on
   the bytecode VM, in the benchmark scheme it is written in. *)
let sac_sod =
  { scenario = "sod";
    nx = 20000;
    backend = "sacprog";
    config = Engine.Scenario.config;
    check_backend = "reference";
    tolerance = 1e-12;
    layer = "vm" }

let setup_reps = 7
let warmup_steps = 5

(* A tail percentile needs ten samples beyond it: p90 needs 100 steps,
   so a window ends only after this many, even past [seconds]. *)
let min_window_steps = 110

(* The traced window takes a fixed number of steps, so the span totals
   behind the self times measure the same work on every version. *)
let traced_steps = 150

(* Problem construction, backend create (for sacprog: the SaC compile
   and VM context) and a fixed warm-up, timed as one unit and
   calibrated after the create and after every warm-up step. *)
let setup_once (ctx : Wl.ctx) spec sc =
  let tr = ctx.Wl.trace in
  Calib.section (fun tl ->
      Trace.span tr ~layer:"bench" "bench.setup" (fun () ->
          let problem = Engine.Scenario.problem ~nx:spec.nx sc in
          let inst =
            Trace.span tr ~layer:"engine" "engine.registry.create" (fun () ->
                Engine.Registry.create ~config:(spec.config sc)
                  spec.backend problem)
          in
          Calib.mark tl;
          Trace.span tr ~layer:"engine" "engine.run_steps" (fun () ->
              ignore
                (Engine.Run.run_steps ~on_step:(fun _ _ -> Calib.mark tl) inst warmup_steps));
          inst))

(* Throughput as the median over consecutive blocks of [block] steps: a
   burst of interference on the shared host spoils a few blocks, not the
   figure.  [lat] holds per-step times; the result is [per_step] units
   per second. *)
let block = 10

let block_rate lat ~per_step =
  let rec go acc n sum = function
    | [] -> acc
    | t :: rest ->
      if n + 1 = block then go ((per_step *. float_of_int block /. (sum +. t)) :: acc) 0 0. rest
      else go acc (n + 1) (sum +. t) rest
  in
  Stats.median (go [] 0 0. lat)

let note inst key =
  Option.value ~default:0. (List.assoc_opt key (Engine.Backend.notes inst))

type window = {
  steps : int;
  time : Calib.sample;
  lat : Calib.sample list;  (** per-step latency, oldest first *)
  layers : (string * float) list;
}

(* The timed window: each step is one Backend.dt and one
   Backend.step_dt call, exactly what Engine.Run.run_steps does per
   step, each in a span of [tr] (a direct call when [tr] is off), and
   timed on its own between two runs of the calibration kernel.
   Nothing else runs between the steps.  The window lasts [until] (a
   step count, or [seconds] of wall time and at least
   [min_window_steps]); the exec's region buckets, region count, GC
   counters and backend notes are read around it, and become per-layer
   metrics when [tr] is on. *)
let window spec inst ~tr ~until =
  let exec = Engine.Backend.exec inst in
  let b0 = Wl.bucket_ns exec in
  let r0 = Parallel.Exec.regions exec in
  let wl0 = note inst "with-loops" and f0 = note inst "folds"
  and fk0 = note inst "fold-kernels" in
  let m0, p0, _ = Gc.counters () in
  let w0 = Parallel.Clock.now_s () in
  let tl = Calib.start () in
  let more n =
    match until with
    | `Steps k -> n < k
    | `Seconds s -> Parallel.Clock.now_s () -. w0 < s || n < min_window_steps
  in
  let lat = ref [] and steps = ref 0 in
  Trace.span tr ~layer:"bench" "bench.window" (fun () ->
      while more !steps do
        let (), piece =
          Calib.piece tl (fun () ->
              Trace.span tr ~layer:"engine" "engine.step" (fun () ->
                  let d =
                    Trace.span tr ~layer:spec.layer "backend.dt" (fun () ->
                        Engine.Backend.dt inst)
                  in
                  Trace.span tr ~layer:spec.layer "backend.step_dt" (fun () ->
                      Engine.Backend.step_dt inst d)))
        in
        lat := piece :: !lat;
        incr steps
      done);
  let time = Calib.total tl in
  let lat = List.rev_map (fun (r0, r1) -> Calib.between tl ~r0 ~r1) !lat in
  let m1, p1, _ = Gc.counters () in
  let b1 = Wl.bucket_ns exec in
  let n = float_of_int !steps in
  let per_step region = Wl.bucket_delta_ms ~before:b0 ~after:b1 region /. n in
  let step_ms = List.map (fun t -> t.Calib.wall *. 1e3) lat in
  let dt_ms = Trace.durations_ms tr "backend.dt" in
  let step_dt_ms = Trace.durations_ms tr "backend.step_dt" in
  (* Time inside parallel regions.  The sacprog backend charges each
     whole dt call to the reduce bucket and each step_dt call to the
     rhs bucket (so it reports the native backends' shape); the VM's
     own with-loop fills (other) and folds (also reduce) run nested in
     those calls.  Its region time is therefore the fills plus the
     reduce bucket less the dt calls themselves. *)
  let region_ms =
    let all =
      List.fold_left
        (fun acc r -> acc +. Wl.bucket_delta_ms ~before:b0 ~after:b1 r)
        0. Parallel.Exec.all_regions
    in
    if spec.backend = "sacprog" then
      all
      -. Wl.bucket_delta_ms ~before:b0 ~after:b1 Parallel.Exec.Rhs
      -. Stats.sum dt_ms
    else all
  in
  let vm = spec.backend = "sacprog" in
  let vm_metric f = if vm then f () else 0. in
  let folds = note inst "folds" -. f0 in
  let layers =
    if not (Trace.enabled tr) then []
    else
    [ ("exec.rhs_ms_per_step", per_step Parallel.Exec.Rhs);
      ("exec.bc_ms_per_step", per_step Parallel.Exec.Bc);
      ("exec.rk_combine_ms_per_step", per_step Parallel.Exec.Rk_combine);
      ("exec.reduce_ms_per_step", per_step Parallel.Exec.Reduce);
      ("exec.halo_ms_per_step", per_step Parallel.Exec.Halo);
      ("exec.residual_ms_per_step", (Stats.sum step_ms -. region_ms) /. n);
      ("exec.regions_per_step",
       float_of_int (Parallel.Exec.regions exec - r0) /. n);
      ("gc.minor_words_per_step", (m1 -. m0) /. n);
      ("gc.promoted_words_per_step", (p1 -. p0) /. n);
      ("engine.step_ms_p50", Stats.percentile 50. step_ms);
      ("engine.step_ms_p90", Stats.percentile 90. step_ms);
      ("vm.dt_ms_per_call", vm_metric (fun () -> Stats.median dt_ms));
      ("vm.step_ms_per_call", vm_metric (fun () -> Stats.median step_dt_ms));
      ("vm.fold_kernel_ratio",
       vm_metric (fun () ->
           if folds > 0. then (note inst "fold-kernels" -. fk0) /. folds else 0.));
      ("vm.with_loops_per_step",
       vm_metric (fun () -> (note inst "with-loops" -. wl0) /. n)) ]
  in
  { steps = !steps; time; lat; layers }

(* After its windows the backend takes [check_steps] more steps, and
   the independent implementation, started from a snapshot of the state
   they began from, must take the same steps (same dt sequence) to the
   same state.  Comparing the stepping rather than the whole run keeps
   the check to [check_steps] steps of the slower Fortran baseline. *)
let check_steps = 20

let march inst n =
  let dts = ref [] in
  ignore (Engine.Run.run_steps ~on_step:(fun _ d -> dts := d :: !dts) inst n);
  List.rev !dts

let verify (ctx : Wl.ctx) spec sc ~start ~got ~dts =
  let problem = Engine.Scenario.problem ~nx:spec.nx sc in
  let st = Euler.State.copy problem.Euler.Setup.state in
  Engine.Snap.restore_state start ~into:st;
  let reference =
    Engine.Registry.create ~config:(spec.config sc) spec.check_backend
      { problem with Euler.Setup.state = st }
  in
  let want_dts = march reference (List.length dts) in
  let diff = Check.max_abs_diff got (Engine.Backend.state reference) in
  let cks = ctx.Wl.checks in
  Check.record cks ~name:"state"
    (diff <= spec.tolerance)
    (Printf.sprintf "max |%s - %s| = %g over steps %d..%d (tolerance %g)"
       spec.backend spec.check_backend diff start.Persist.Snapshot.steps
       (start.Persist.Snapshot.steps + List.length dts) spec.tolerance);
  let dt_ok =
    List.length want_dts = List.length dts
    && List.for_all2
         (fun a b -> Float.abs (a -. b) <= spec.tolerance *. Float.abs b)
         dts want_dts
  in
  Check.record cks ~name:"dt" dt_ok "the same CFL step sequence";
  Check.record cks ~name:"physical" (Check.physical got)
    "finite, positive density and energy in every cell"

let check ctx spec sc inst =
  let start = Engine.Backend.snapshot inst in
  let dts = march inst check_steps in
  verify ctx spec sc ~start ~got:(Engine.Backend.state inst) ~dts

let run (ctx : Wl.ctx) spec =
  let sc = Engine.Scenario.find_exn spec.scenario in
  let tr = ctx.Wl.trace in
  (* Set up several times for a median set-up time.  Only one instance
     is alive at a time, the last one is kept, so the peak RSS is that
     of the one instance the window uses. *)
  let inst = ref None in
  let setup_times =
    List.init setup_reps (fun _ ->
        inst := None;
        Gc.compact ();
        let i, t = setup_once ctx spec sc in
        inst := Some i;
        t)
  in
  let inst = Option.get !inst in
  Gc.compact ();
  let untraced =
    window spec inst ~tr:(Trace.create ~enabled:false) ~until:(`Seconds ctx.Wl.seconds)
  in
  let peak_rss_mb = Host.peak_rss_mb () in
  let cells =
    let g = (Engine.Backend.state inst).Euler.State.grid in
    g.Euler.Grid.nx * g.Euler.Grid.ny
  in
  let traced =
    if ctx.Wl.traced then begin
      Gc.compact ();
      Some (window spec inst ~tr ~until:(`Steps traced_steps))
    end
    else None
  in
  Trace.span tr ~layer:"bench" "bench.check" (fun () -> check ctx spec sc inst);
  let layers =
    match traced with
    | None -> []
    | Some w ->
      let resume snap = Engine.Registry.resume snap (Engine.Scenario.problem ~nx:spec.nx sc) in
      let per_step_ms win = Wl.median_on (fun t -> t.Calib.cal) win.lat in
      w.layers @ Probes.persist ctx inst ~resume @ Probes.compile_stages ctx
      @ [ ("trace.overhead_frac", per_step_ms w /. per_step_ms untraced -. 1.) ]
  in
  let compile_times = Probes.compile_times () in
  let lat = untraced.lat in
  { Wl.e2e =
      (fun clock ->
        let lat = List.map clock lat in
        [ ("setup_s", Wl.median_on clock setup_times);
          ("cell_updates_per_s", block_rate lat ~per_step:(float_of_int cells));
          ("compile_s", Wl.median_on clock compile_times);
          ("jobs_per_s", block_rate lat ~per_step:1.);
          ("job_turnaround_p50_s", Stats.percentile 50. lat);
          ("job_turnaround_p90_s", Stats.percentile 90. lat);
          ("peak_rss_mb", peak_rss_mb) ]);
    layers;
    lanes = 1;
    samples = [ ("setup_s", setup_times); ("compile_s", compile_times) ];
    sections = [ untraced.time ];
    working_set_bytes = Wl.state_bytes (Engine.Backend.state inst) }
