(** The fleet scheduler: fair-share rounds, small-job batching, and
    checkpoint-based preemption over {!Parallel.Exec} lanes.

    One {!drain} round takes the fair-share head from the queue and
    classifies it by estimated cell count.  A {e small} job (a 1D
    tube) pulls up to [batch_max - 1] further small jobs from the
    queue, and the batch runs as two shared dispatches over job
    indices, each job on its own private sequential exec:

    + {e materialise} — every job is created or resumed on the lanes;
      back on the orchestrating domain the [Dispatched] events (and
      [Failed] outcomes for jobs that could not be materialised) are
      emitted in queue order;
    + {e slice + checkpoint} — every job steps one slice and writes its
      checkpoint on the lanes; back on the orchestrator each job is
      settled in queue order (service charged, then completed or
      requeued).

    Lanes claim jobs one at a time, longest first by {!Job.est_cells},
    through [Dynamic 1] scheduling, so a batch of mixed-cost tubes
    balances across lanes with one barrier per dispatch instead of one
    per region.  (The fork/join scheduler models static scheduling
    only and falls back to static chunks of the longest-first order,
    as {!Parallel.Exec.parallel_for} documents.)  A {e large}
    job (a 2D field) runs its slice alone directly on the shared exec,
    tiled per its descriptor, using every lane for one solve.

    Preemption is unconditional: at the end of every slice each
    unfinished job writes a checkpoint (retained per the config) and
    goes back to the queue; the next time it surfaces it is rebuilt
    with {!Engine.Registry.resume_latest}.  Because resume is
    bitwise-pinned and the slice boundary is a step boundary, a
    preempted job's final state is byte-for-byte the uninterrupted
    run's — the property the fleet tests pin across all three
    schedulers.  It also means crash recovery and preemption are the
    same code path: a [kill -9] just looks like a slightly stale
    preemption.  (A batch's checkpoints all land before any of its
    results is reported, so a kill in between leaves finished jobs
    whose restart resumes at their target, runs no step, and reports
    once.)

    Exceptions inside a job (unknown scenario, solver blow-up,
    descriptor/checkpoint mismatch) are caught per job slot and
    reported as [Failed] outcomes; they never poison the shared
    dispatch or the server. *)

type config = private {
  exec : Parallel.Exec.t;  (** the shared lane budget *)
  slice_steps : int;  (** steps per scheduling slice (>= 1) *)
  small_cells : int;  (** jobs with [est_cells <= small_cells] batch *)
  batch_max : int;  (** max small jobs per shared dispatch *)
  ckpt_root : string;  (** per-job checkpoint dirs live under here *)
  retain : int;  (** checkpoints kept per job *)
}

val config :
  ?exec:Parallel.Exec.t ->
  ?slice_steps:int ->
  ?small_cells:int ->
  ?batch_max:int ->
  ?retain:int ->
  ckpt_root:string ->
  unit ->
  config
(** Defaults: sequential exec, slice 50, small_cells 4096,
    batch_max 16, retain 2.
    @raise Invalid_argument on non-positive parameters. *)

val ckpt_dir : config -> Job.t -> string
(** [ckpt_root/<job id>] — where this job checkpoints and resumes. *)

type status = Done | Failed of string

type outcome = {
  job : Job.t;
  status : status;
  steps : int;  (** the backend's total step count at the end *)
  steps_run : int;  (** steps executed by {e this} drain (resumes excluded) *)
  sim_time : float;
  cells : int;  (** interior cells ([0] if materialisation failed) *)
  wall_s : float;  (** compute wall, summed over the job's slices *)
  preemptions : int;  (** checkpoint-and-requeue events *)
  resumes : int;  (** rebuilds from a checkpoint (includes adopt) *)
  final_ckpt : string option;  (** last snapshot written, if any *)
  last : Engine.Metrics.t option;  (** metrics of the final slice *)
}

val ms_per_step : outcome -> float
(** [wall_s / steps_run] in milliseconds; [0.] when nothing ran. *)

val outcome_kv : outcome -> (string * string) list
(** The result-file rendering: status, steps, steps_run, sim_time,
    cells, wall_s, ms_per_step, preemptions, resumes, and error /
    final_ckpt when present. *)

type event =
  | Dispatched of Job.t * [ `Fresh | `Resumed of string ]
      (** materialised for a slice, fresh or from a checkpoint path;
          for a batch, fired after the whole batch has materialised
          and before any of it steps *)
  | Preempted of Job.t * int
      (** checkpointed and requeued at the given total step *)
  | Completed of outcome
(** Per batch, every [Dispatched] (and every materialisation
    [Failed]) comes before any of the batch's [Preempted] /
    [Completed] settles; both runs are in queue order, whichever lane
    ran which job. *)

val drain :
  ?on_event:(event -> unit) ->
  ?before_round:(unit -> unit) ->
  config ->
  Queue.t ->
  outcome list
(** Run rounds until the queue is empty; returns outcomes in
    completion order.  [on_event] observes the lifecycle (the serve
    loop finalises results from [Completed]); [before_round] runs at
    the top of every round (the serve loop claims newly-arrived inbox
    jobs there, so submissions land mid-drain).  Both are called on
    the orchestrating domain only. *)
