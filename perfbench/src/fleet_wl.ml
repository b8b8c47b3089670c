(* fleet-mix: a closed burst of seeded jobs drained by one in-process
   Fleet.Serve.run on a 2-lane SPMD shared exec. *)

let lanes = 2
let slice_steps = 40
let small_cells = 4096
let batch_max = 16

(* Every tube class runs the same resolutions, and every tube the same
   target: three slices (40 + 40 + 10 steps), so it checkpoints, is
   preempted twice and resumes twice. *)
let tube_nx = [ 48; 64; 80; 96; 120; 160 ]
let tube_steps = 90
let tube_scenarios = [ "sod"; "lax"; "123"; "shu-osher" ]

(* (backend, WENO3+HLLC override) classes with every shape.  Roe is
   left out on purpose: it fails near vacuum on 123, which is a solver
   robustness question, not a load. *)
let tube_kinds =
  [ ("reference", false); ("reference", true); ("fortran", false); ("fortran", true) ]

(* sacprog runs only the benchmark scheme it is written in, and
   recompiles euler_1d at every create and resume, so it gets one fixed
   two-slice shape per scenario. *)
let sac_shapes = [ (120, 64) ]

(* 2D fields above [small_cells]: the large-job path, alone on the
   shared exec; the first is tiled 2x2 (halo exchange). *)
let quad_shapes = [ (72, 48, (2, 2)); (72, 48, (1, 1)); (80, 44, (1, 1)); (68, 56, (1, 1)) ]
let submitters = [ "ana"; "ben"; "chen"; "dara" ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* What the fleet computes: 96 tubes (4 scenarios x 4 backend/scheme
   kinds x 6 resolutions), 4 sacprog tubes and 4 quadrant fields. *)
let specs =
  let tube scenario (backend, weno) (nx, steps) =
    (scenario, backend, weno, nx, steps, (1, 1))
  in
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun kind -> List.map (fun nx -> tube scenario kind (nx, tube_steps)) tube_nx)
        tube_kinds
      @ List.map (tube scenario ("sacprog", false)) sac_shapes)
    tube_scenarios
  @ List.map
      (fun (nx, steps, tiles) -> ("quadrant", "reference", false, nx, steps, tiles))
      quad_shapes

(* Who asks for what: every submitter the same number of jobs at each
   priority, so each one's share of the work is alike in every draw. *)
let asks n =
  List.init n (fun i -> (List.nth submitters (i mod 4), i / 4 mod 4))

(* Repetition [rep] of a run with [seed] drains [specs] under a fresh
   seeded draw of who asks for each job and in which order the jobs
   arrive (the ids).  Fair share completes jobs in batch-sized
   clusters and the draw decides where they fall, so a run pools the
   turnaround of several draws rather than resting a percentile on one
   schedule's accidents. *)
let jobs ~seed ~rep =
  let rng = Random.State.make [| seed; rep |] in
  let asked = List.combine specs (shuffle rng (asks (List.length specs))) in
  List.mapi
    (fun i ((scenario, backend, weno, nx, steps, tiles), (submitter, priority)) ->
      let recon, riemann =
        if weno then (Some Euler.Recon.Weno3, Some Euler.Riemann.Hllc) else (None, None)
      in
      Fleet.Job.make
        ~id:(Printf.sprintf "job-%03d" i)
        ~submitter ~priority ~backend ~nx ?recon ?riemann ~tiles ~scenario
        (Fleet.Job.Steps steps))
    (shuffle rng asked)

(* A job's physics: its descriptor without who asked for it. *)
let physics (j : Fleet.Job.t) =
  List.filter (fun (k, _) -> k <> "submitter" && k <> "priority") (Fleet.Job.to_kv j)

(* A fixed warm-up, the same for every seed: one short tube of each
   kind and one tiled field, each over two slices of [warmup_slice]
   steps, so every path the drain takes (batched tubes, the SaC
   compile, the tiled large-job path, checkpoint, preemption and
   resume) has run once on the fresh exec.  Slices are short because
   the tiled field's fine-grained 2-lane regions are the part of the
   fleet most slowed by a busy neighbour on the host: at 45 steps it
   was a third of the set-up and took 1.5-4x the CPU time next to one
   competing busy process, while the sequential SaC compile did not
   move. *)
let warmup_slice = 5

let warmup_jobs =
  let steps = Fleet.Job.Steps (warmup_slice + 3) in
  List.mapi
    (fun i (backend, weno) ->
      Fleet.Job.make ~id:(Printf.sprintf "warm-%d" i) ~backend ~nx:64
        ?recon:(if weno then Some Euler.Recon.Weno3 else None)
        ?riemann:(if weno then Some Euler.Riemann.Hllc else None)
        ~scenario:"sod" steps)
    (("sacprog", false) :: tube_kinds)
  @ [ Fleet.Job.make ~id:"warm-quad" ~nx:72 ~tiles:(2, 2) ~scenario:"quadrant" steps ]

let target (j : Fleet.Job.t) =
  match j.Fleet.Job.target with Fleet.Job.Steps n -> n | Fleet.Job.Until _ -> -1

(* Fleet work is calibrated from inside: at a scheduler event at least
   [calib_every_s] after the last kernel run the orchestrating domain
   runs the kernel again, on both lanes (between slices, so no lane is
   computing). *)
let calib_every_s = 0.05

(* The kernel's tubes, one per lane, made before anything is timed. *)
let lane_tubes = lazy (Array.init lanes (fun _ -> Calib.make_tube ()))
let lane_kernel exec = Calib.kernel_lanes exec (Lazy.force lane_tubes)

let serve_config ?(slice_steps = slice_steps) ~exec inbox =
  Fleet.Serve.config ~drain:true ~poll_s:0.05 ~log:ignore
    (Fleet.Scheduler.config ~exec ~slice_steps ~small_cells ~batch_max
       ~ckpt_root:(Fleet.Inbox.ckpt_root inbox) ())

let submit_all (ctx : Wl.ctx) inbox jobs =
  List.iter
    (fun j ->
      Trace.span ctx.Wl.trace ~layer:"inbox" "inbox.submit" (fun () ->
          ignore (Fleet.Inbox.submit inbox j)))
    jobs

type drain = {
  root : string;
  time : Calib.sample;  (** drain time *)
  turnaround : Calib.sample list;  (** from t0 to each Completed event *)
  outcomes : Fleet.Scheduler.outcome list;
  layers : (string * float) list;  (** exec and GC numbers, traced only *)
}

(* Derived spans between consecutive scheduler events (all on the
   orchestrating domain): a dispatch closes the materialisation of a
   fresh or resumed job, a preemption or completion that follows
   another one closes that job's settle (checkpoint, requeue or result
   file); the first settle after a dispatch also holds the slice's
   compute and is recorded as [fleet.slice].  A run of dispatches is one
   batch.  Returns the event hook and the batch counter. *)
let event_spans (ctx : Wl.ctx) ~t0_ns =
  let prev_ns = ref t0_ns and prev_settle = ref true and batches = ref 0 in
  let on t_ns ev =
    let span name =
      Trace.record ctx.Wl.trace ~layer:"fleet" name ~start_ns:!prev_ns ~stop_ns:t_ns
    in
    (match ev with
     | Fleet.Scheduler.Dispatched (_, how) ->
       if !prev_settle then incr batches;
       span (match how with `Fresh -> "fleet.fresh" | `Resumed _ -> "fleet.resume");
       prev_settle := false
     | Fleet.Scheduler.Preempted _ | Fleet.Scheduler.Completed _ ->
       span (if !prev_settle then "fleet.settle" else "fleet.slice");
       prev_settle := true);
    prev_ns := t_ns
  in
  (on, (fun () -> prev_ns := Trace.now_ns ()), batches)

let run_drain (ctx : Wl.ctx) ~exec ~root ~traced =
  let inbox = Fleet.Inbox.make root in
  let events = ref [] in
  let tl = Calib.start ~kernel:(lane_kernel exec) () in
  let b0 = Wl.bucket_ns exec and r0 = Parallel.Exec.regions exec in
  let m0, p0, _ = Gc.counters () in
  let spans, resync, batches = event_spans ctx ~t0_ns:(Trace.now_ns ()) in
  let on_event ev =
    let r = Calib.now tl in
    events := (r, ev) :: !events;
    if traced then spans (Trace.now_ns ()) ev;
    if Calib.mark_every tl calib_every_s then resync ()
  in
  let run () = ignore (Fleet.Serve.run ~on_event inbox (serve_config ~exec inbox)) in
  if traced then Trace.span ctx.Wl.trace ~layer:"fleet" "fleet.serve.run" run else run ();
  Calib.mark tl;
  let time = Calib.total tl in
  let wall = time.Calib.wall in
  let m1, p1, _ = Gc.counters () in
  let events = List.rev !events in
  let outcomes =
    List.filter_map
      (function _, Fleet.Scheduler.Completed o -> Some o | _ -> None)
      events
  in
  let turnaround =
    List.filter_map
      (function
        | r1, Fleet.Scheduler.Completed _ -> Some (Calib.between tl ~r0:0. ~r1)
        | _ -> None)
      events
  in
  let layers =
    if not traced then []
    else begin
      let b1 = Wl.bucket_ns exec in
      let steps =
        float_of_int
          (List.fold_left (fun a o -> a + o.Fleet.Scheduler.steps_run) 0 outcomes)
      in
      let per_step r = Wl.bucket_delta_ms ~before:b0 ~after:b1 r /. steps in
      (* Less the kernel runs: one region each, charged to [Other]. *)
      let region_ms =
        List.fold_left
          (fun a r -> a +. Wl.bucket_delta_ms ~before:b0 ~after:b1 r)
          0. Parallel.Exec.all_regions
        -. (tl.Calib.paused *. 1e3)
      in
      let count f = float_of_int (List.length (List.filter f events)) in
      [ ("exec.rhs_ms_per_step", per_step Parallel.Exec.Rhs);
        ("exec.bc_ms_per_step", per_step Parallel.Exec.Bc);
        ("exec.rk_combine_ms_per_step", per_step Parallel.Exec.Rk_combine);
        ("exec.reduce_ms_per_step", per_step Parallel.Exec.Reduce);
        ("exec.halo_ms_per_step", per_step Parallel.Exec.Halo);
        ("exec.residual_ms_per_step", ((wall *. 1e3) -. region_ms) /. steps);
        ("exec.regions_per_step",
         float_of_int (Parallel.Exec.regions exec - r0 - Calib.marks tl) /. steps);
        ("gc.minor_words_per_step", (m1 -. m0) /. steps);
        ("gc.promoted_words_per_step", (p1 -. p0) /. steps);
        ("fleet.lane_busy_frac",
         Stats.sum (List.map (fun o -> o.Fleet.Scheduler.wall_s) outcomes)
         /. (wall *. float_of_int lanes));
        ("fleet.batches", float_of_int !batches);
        ("fleet.preemptions",
         count (function _, Fleet.Scheduler.Preempted _ -> true | _ -> false));
        ("fleet.resumes",
         count (function
           | _, Fleet.Scheduler.Dispatched (_, `Resumed _) -> true
           | _ -> false)) ]
    end
  in
  { root; time; turnaround; outcomes; layers }

(* Every job must be done at its target step, and a seeded sample's
   final checkpoint must be byte-identical to an uninterrupted run of
   the same descriptor. *)
let check_drain (ctx : Wl.ctx) jobs d ~uninterrupted =
  let inbox = Fleet.Inbox.make d.root in
  let bad =
    List.filter
      (fun j ->
        match Fleet.Inbox.result inbox ~id:j.Fleet.Job.id with
        | Some kv ->
          List.assoc_opt "status" kv <> Some "done"
          || List.assoc_opt "steps" kv <> Some (string_of_int (target j))
        | None -> true)
      jobs
  in
  Check.count ctx.Wl.checks ~attempted:(List.length jobs) ~failed:(List.length bad);
  List.iter
    (fun j ->
      prerr_endline
        (Printf.sprintf "fleet-mix: %s not done at step %d" j.Fleet.Job.id (target j)))
    bad;
  List.iter
    (fun (key, bytes) ->
      let id = (List.find (fun j -> physics j = key) jobs).Fleet.Job.id in
      let file =
        Option.bind (Fleet.Inbox.result inbox ~id) (List.assoc_opt "final_ckpt")
      in
      let same =
        match file with
        | Some p -> (try Host.read_file p = Some bytes with Sys_error _ -> false)
        | None -> false
      in
      Check.record ctx.Wl.checks ~name:("ckpt " ^ id) same
        (Printf.sprintf "%s final checkpoint %s uninterrupted run" id
           (if same then "matches" else "differs from")))
    uninterrupted

let uninterrupted_bytes (j : Fleet.Job.t) =
  let inst =
    Engine.Registry.create ~config:(Fleet.Job.config j) j.Fleet.Job.backend
      (Fleet.Job.problem j)
  in
  ignore (Engine.Run.run_steps inst (target j));
  Persist.Snapshot.encode (Engine.Backend.snapshot inst)

(* The tiled field is always sampled; three tubes are drawn by seed. *)
let sample ~seed =
  let rng = Random.State.make [| seed; -1 |] in
  let tiled, tubes =
    List.partition (fun j -> j.Fleet.Job.tiles <> (1, 1)) (jobs ~seed ~rep:0)
  in
  tiled @ List.filteri (fun i _ -> i < 3) (shuffle rng tubes)

let job_state_bytes j = Wl.state_bytes (Fleet.Job.problem j).Euler.Setup.state

(* Set-up for repetition [n]: the shared exec, a fixed warm-up drain
   and population of the inbox at [root] with the repetition's jobs,
   calibrated after each part and through the warm-up drain, on both
   lanes once the exec is up. *)
let setup (ctx : Wl.ctx) ~n ~root jobs =
  let tr = ctx.Wl.trace in
  let warm = Filename.concat ctx.Wl.run_dir (Printf.sprintf "warm-%02d" n) in
  Gc.compact ();
  let exec, t =
    Calib.section (fun tl ->
        Trace.span tr ~layer:"bench" "bench.setup" (fun () ->
            let exec = Parallel.Exec.spmd ~lanes in
            Calib.set_kernel tl (lane_kernel exec);
            Calib.mark tl;
            let winbox = Fleet.Inbox.make warm in
            List.iter (fun j -> ignore (Fleet.Inbox.submit winbox j)) warmup_jobs;
            ignore
              (Fleet.Serve.run
                 ~on_event:(fun _ -> ignore (Calib.mark_every tl calib_every_s))
                 winbox
                 (serve_config ~slice_steps:warmup_slice ~exec winbox));
            Calib.mark tl;
            submit_all ctx (Fleet.Inbox.make root) jobs;
            exec))
  in
  Wl.rm_rf warm;
  (exec, t)

(* The set-up alone, discarded: only its time is kept. *)
let setup_only (ctx : Wl.ctx) ~n =
  let root = Filename.concat ctx.Wl.run_dir (Printf.sprintf "setup-%02d" n) in
  let exec, t = setup ctx ~n ~root (jobs ~seed:ctx.Wl.seed ~rep:n) in
  Parallel.Exec.shutdown exec;
  Wl.rm_rf root;
  t

type rep = { jobs : Fleet.Job.t list; setup_t : Calib.sample; drain : drain }

(* One repetition: set up, then drain the burst. *)
let rep (ctx : Wl.ctx) ~n ~traced =
  let jobs = jobs ~seed:ctx.Wl.seed ~rep:n in
  let root = Filename.concat ctx.Wl.run_dir (Printf.sprintf "drain-%02d" n) in
  let exec, setup_t = setup ctx ~n ~root jobs in
  Gc.compact ();
  let drain = run_drain ctx ~exec ~root ~traced in
  Parallel.Exec.shutdown exec;
  { jobs; setup_t; drain }

(* A repetition takes about three seconds here, so a run makes one per
   three seconds of [seconds] (at least two).  The count is fixed in
   advance rather than by the clock so every run does the same work,
   which keeps the peak RSS and the pooled turnaround comparable. *)
let rep_estimate_s = 3.

let reps (ctx : Wl.ctx) ~first ~traced =
  let n = max 2 (int_of_float (Float.round (ctx.Wl.seconds /. rep_estimate_s))) in
  List.init n (fun i -> rep ctx ~n:(first + i) ~traced)

(* Set-ups taken on their own, before the repetitions' own: a set-up
   is about a fifth of a second, so its median wants more samples than
   there are drains. *)
let extra_setups = 8

let run (ctx : Wl.ctx) =
  ignore (Lazy.force lane_tubes);
  let sampled = sample ~seed:ctx.Wl.seed in
  let spare_setups = List.init extra_setups (fun i -> setup_only ctx ~n:(1000 + i)) in
  let untraced = reps ctx ~first:0 ~traced:false in
  let setup_times = spare_setups @ List.map (fun r -> r.setup_t) untraced in
  let peak_rss_mb = Host.peak_rss_mb () in
  let traced =
    if ctx.Wl.traced then reps ctx ~first:(List.length untraced) ~traced:true
    else []
  in
  let uninterrupted = List.map (fun j -> (physics j, uninterrupted_bytes j)) sampled in
  let all = untraced @ traced in
  let cell_steps o = float_of_int (o.Fleet.Scheduler.steps_run * o.Fleet.Scheduler.cells) in
  let total f = Stats.sum (List.map (fun r -> f r.drain) untraced) in
  let n_jobs = float_of_int (List.length specs) in
  let drain_times = List.map (fun r -> r.drain.time) untraced in
  let turnaround = List.concat_map (fun r -> r.drain.turnaround) untraced in
  let layers =
    match traced with
    | [] -> []
    | first :: _ ->
      let num name =
        Stats.median (List.map (fun r -> List.assoc name r.drain.layers) traced)
      in
      let tr = ctx.Wl.trace in
      let med name = match Trace.durations_ms tr name with [] -> 0. | l -> Stats.median l in
      let per_job_ms =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun o ->
                if o.Fleet.Scheduler.steps_run > 0 then Some (Fleet.Scheduler.ms_per_step o)
                else None)
              r.drain.outcomes)
          traced
      in
      (* The persist probe resumes the same tube for every seed — the
         96-cell reference Sod tube in the benchmark scheme — from the
         final checkpoint the drain wrote for it. *)
      let probe_job =
        List.find
          (fun j ->
            j.Fleet.Job.backend = "reference" && j.Fleet.Job.scenario = "sod"
            && j.Fleet.Job.recon = None && j.Fleet.Job.nx = Some 96)
          first.jobs
      in
      let resume snap = Engine.Registry.resume snap (Fleet.Job.problem probe_job) in
      let ckpt =
        Option.get
          (Option.bind
             (Fleet.Inbox.result (Fleet.Inbox.make first.drain.root) ~id:probe_job.Fleet.Job.id)
             (List.assoc_opt "final_ckpt"))
      in
      let inst = resume (Persist.Snapshot.read ~path:ckpt) in
      List.map (fun (k, _) -> (k, num k)) first.drain.layers
      @ [ ("engine.step_ms_p50", Stats.percentile 50. per_job_ms);
          ("engine.step_ms_p90", Stats.percentile 90. per_job_ms);
          ("fleet.fresh_ms", med "fleet.fresh");
          ("fleet.resume_ms", med "fleet.resume");
          ("fleet.settle_ms", med "fleet.settle");
          ("inbox.submit_ms", med "inbox.submit");
          ("trace.overhead_frac",
           Wl.median_on (fun t -> t.Calib.cal) (List.map (fun r -> r.drain.time) traced)
           /. Wl.median_on (fun t -> t.Calib.cal) drain_times
           -. 1.) ]
      @ Probes.persist ctx inst ~resume
      @ Probes.compile_stages ctx
  in
  Trace.span ctx.Wl.trace ~layer:"bench" "bench.check" (fun () ->
      List.iter
        (fun r ->
          check_drain ctx r.jobs r.drain ~uninterrupted;
          Wl.rm_rf r.drain.root)
        all);
  let compile_times = Probes.compile_times () in
  { Wl.e2e =
      (fun clock ->
        let time = Stats.sum (List.map clock drain_times) in
        let turnaround = List.map clock turnaround in
        [ ("setup_s", Wl.median_on clock setup_times);
          ("cell_updates_per_s",
           total (fun d -> Stats.sum (List.map cell_steps d.outcomes)) /. time);
          ("compile_s", Wl.median_on clock compile_times);
          ("jobs_per_s", total (fun _ -> n_jobs) /. time);
          ("job_turnaround_p50_s", Stats.percentile 50. turnaround);
          ("job_turnaround_p90_s", Stats.percentile 90. turnaround);
          ("peak_rss_mb", peak_rss_mb) ]);
    layers;
    lanes;
    samples =
      [ ("setup_s", setup_times); ("compile_s", compile_times); ("drain_s", drain_times) ];
    sections = drain_times;
    working_set_bytes =
      List.fold_left (fun m j -> max m (job_state_bytes j)) 0 (jobs ~seed:0 ~rep:0) }
