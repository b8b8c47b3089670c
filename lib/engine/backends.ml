let benchmark_scheme_only ~name (c : Euler.Solver.config) =
  let b = Euler.Solver.benchmark_config in
  if c.recon <> b.recon || c.riemann <> b.riemann || c.rk <> b.rk then
    invalid_arg
      (Printf.sprintf
         "Engine backend %S implements only the benchmark scheme \
          (piecewise-constant + Rusanov + TVD-RK3)"
         name)

(* Only the reference backend owns a [Euler.Solver], which is where
   the tile layer lives; the comparison backends keep their flat
   arrays. *)
let no_tiling ~name (c : Euler.Solver.config) =
  if c.Euler.Solver.tiles <> (1, 1) then
    invalid_arg
      (Printf.sprintf
         "Engine backend %S does not support tiled decomposition; use the \
          reference backend (or tiles 1x1)"
         name)

module Reference : Backend.BACKEND = struct
  type t = Euler.Solver.t

  let name = "reference"
  let supports_2d = true

  let create (s : Backend.spec) =
    Euler.Solver.create ~exec:s.exec ~config:s.config
      ~bcs:s.problem.Euler.Setup.bcs
      (Euler.State.copy s.problem.Euler.Setup.state)

  let dt = Euler.Solver.dt
  let step_dt = Euler.Solver.step_dt
  let time (s : t) = s.Euler.Solver.time
  let steps (s : t) = s.Euler.Solver.steps

  (* Under tiling [current_state] gathers the per-tile states into the
     monolithic mirror first (ghost ring included), so everything
     downstream — snapshots, goldens, diagnostics — sees exactly what
     a monolithic run would produce. *)
  let state (s : t) = Euler.Solver.current_state s
  let exec (s : t) = s.Euler.Solver.exec
  let notes _ = []
  let cost_scheduler = Parallel.Cost_model.Spin_barrier

  let snapshot (s : t) =
    Snap.of_backend ~backend:name ~config:s.Euler.Solver.config
      ~steps:s.Euler.Solver.steps ~time:s.Euler.Solver.time
      (Euler.Solver.current_state s)

  (* The restored solver's in-sweep eigenvalue cache starts stale, so
     the first [dt] after a resume runs the standalone GetDT
     reduction — documented (and pinned by tests) to be bit-identical
     to the fused in-sweep value, so the dt sequence of a resumed run
     matches the uninterrupted one exactly. *)
  let restore (spec : Backend.spec) snap =
    Snap.check ~backend:name ~config:spec.config
      spec.problem.Euler.Setup.state snap;
    let s = create spec in
    Snap.restore_state snap ~into:s.Euler.Solver.state;
    (* Push the restored monolithic payload back into the per-tile
       states (a no-op without tiling) — which is what makes
       monolithic checkpoints resumable under tiling and vice versa:
       the snapshot format never records the decomposition. *)
    Euler.Solver.commit_state s;
    s.Euler.Solver.time <- snap.Persist.Snapshot.sim_time;
    s.Euler.Solver.steps <- snap.Persist.Snapshot.steps;
    s
end

module Array_style : Backend.BACKEND = struct
  type t = Euler.Array_style.t

  let name = "array"
  let supports_2d = true

  let create (s : Backend.spec) =
    benchmark_scheme_only ~name s.config;
    no_tiling ~name s.config;
    Euler.Array_style.create ~cfl:s.config.Euler.Solver.cfl ~exec:s.exec
      ~bcs:s.problem.Euler.Setup.bcs
      (Euler.State.copy s.problem.Euler.Setup.state)

  let dt = Euler.Array_style.get_dt
  let step_dt = Euler.Array_style.step_dt
  let time = Euler.Array_style.time
  let steps = Euler.Array_style.steps
  let state = Euler.Array_style.state
  let exec = Euler.Array_style.exec

  let notes t =
    [ ("with-loops", float_of_int (Euler.Array_style.with_loops t));
      ("with-loops/step", Euler.Array_style.with_loops_per_step t) ]

  let cost_scheduler = Parallel.Cost_model.Spin_barrier

  let snapshot t =
    Snap.of_backend ~backend:name
      ~config:
        { Euler.Solver.benchmark_config with
          Euler.Solver.cfl = Euler.Array_style.cfl_of t }
      ~steps:(Euler.Array_style.steps t)
      ~time:(Euler.Array_style.time t)
      (Euler.Array_style.state t)

  let restore (spec : Backend.spec) snap =
    Snap.check ~backend:name ~config:spec.config
      spec.problem.Euler.Setup.state snap;
    let t = create spec in
    Snap.restore_state snap ~into:(Euler.Array_style.state t);
    Euler.Array_style.warm_start t ~time:snap.Persist.Snapshot.sim_time
      ~steps:snap.Persist.Snapshot.steps;
    t
end

module Make_fortran (A : sig
  val name : string
  val autopar : Fortran_baseline.F_solver.autopar
end) : Backend.BACKEND = struct
  type t = {
    f : Fortran_baseline.F_solver.t;
    exec : Parallel.Exec.t;
  }

  let name = A.name
  let supports_2d = true

  let create (s : Backend.spec) =
    no_tiling ~name s.config;
    { f =
        Fortran_baseline.F_solver.of_problem ~autopar:A.autopar
          ~config:s.config s.problem;
      exec = s.exec }

  let dt t = Fortran_baseline.F_solver.dt t.f t.exec
  let step_dt t d = Fortran_baseline.F_solver.step_dt t.f t.exec d
  let time t = t.f.Fortran_baseline.F_solver.time
  let steps t = t.f.Fortran_baseline.F_solver.steps
  let state t = Fortran_baseline.F_solver.state t.f
  let exec t = t.exec
  let notes _ = []
  let cost_scheduler = Parallel.Cost_model.Os_fork_join

  let snapshot t =
    let f = t.f in
    Snap.of_backend ~backend:name
      ~config:
        { Euler.Solver.recon = f.Fortran_baseline.F_solver.recon;
          riemann = f.Fortran_baseline.F_solver.riemann;
          rk = f.Fortran_baseline.F_solver.rk;
          cfl = f.Fortran_baseline.F_solver.storage.Fortran_baseline.Storage.cfl;
          fused = true;
          tiles = (1, 1) }
      ~steps:f.Fortran_baseline.F_solver.steps
      ~time:f.Fortran_baseline.F_solver.time
      (Fortran_baseline.F_solver.state f)

  let restore (spec : Backend.spec) snap =
    Snap.check ~backend:name ~config:spec.config
      spec.problem.Euler.Setup.state snap;
    let t = create spec in
    let f = t.f in
    Snap.restore_q snap
      ~into:f.Fortran_baseline.F_solver.storage.Fortran_baseline.Storage.qc;
    f.Fortran_baseline.F_solver.time <- snap.Persist.Snapshot.sim_time;
    f.Fortran_baseline.F_solver.steps <- snap.Persist.Snapshot.steps;
    (* Ghosts and primitive arrays must be refreshed from the restored
       conserved fields before the next stage touches them. *)
    f.Fortran_baseline.F_solver.stage_ready <- false;
    t
end

module Fortran = Make_fortran (struct
  let name = "fortran"
  let autopar = Fortran_baseline.F_solver.Inner
end)

module Fortran_outer = Make_fortran (struct
  let name = "fortran-outer"
  let autopar = Fortran_baseline.F_solver.Outer
end)

(* [euler_1d] compiled once per process, as sac2c compiles the
   paper's port once: the first sacprog create compiles it (under the
   lock, so concurrent first creates on several domains compile it
   once) and every instance then builds its own VM or interpreter
   context over the shared program, which nothing mutates.  [Lazy]
   is not domain-safe, hence the mutex. *)
let euler_1d =
  let lock = Mutex.create () and cached = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !cached with
        | Some c -> c
        | None ->
          let c = Sacprog.Runner.compile_euler_1d () in
          cached := Some c;
          c)

module Make_sacprog (A : sig
  val name : string
  val engine : Sacprog.Runner.engine
end) : Backend.BACKEND = struct
  type t = {
    run : string -> Sac.Value.t list -> Sac.Value.t;
    eval_stats : unit -> Sac.Eval.stats;
    fold_kernels : unit -> int;  (* VM only; 0 on the interpreter *)
    template : Euler.State.t;  (* grid + gamma + ghost layout *)
    mutable q : Sac.Value.t;  (* [3, nx] conserved state *)
    gam : float;
    dx : float;
    cfl : float;
    exec : Parallel.Exec.t;
    mutable time : float;
    mutable steps : int;
  }

  let name = A.name
  let supports_2d = false

  (* The engine's state lives as an interior-only [3, nx] array;
     ghosts are refilled from the boundary conditions inside the SaC
     program every step, so [st]'s interior is all an instance needs. *)
  let interior (st : Euler.State.t) =
    let g = st.Euler.State.grid in
    Sac.Value.Vdarr
      (Tensor.Nd.init [| 3; g.Euler.Grid.nx |] (fun iv ->
           let o = Euler.Grid.offset g iv.(1) 0 in
           let k =
             match iv.(0) with
             | 0 -> Euler.State.i_rho
             | 1 -> Euler.State.i_mx
             | _ -> Euler.State.i_e
           in
           st.Euler.State.q.(k).(o)))

  (* An instance whose [q] is [from]'s interior; the template (grid,
     gamma, ghost layout) is always the problem's. *)
  let build (s : Backend.spec) ~from =
    benchmark_scheme_only ~name s.config;
    no_tiling ~name s.config;
    let st = s.problem.Euler.Setup.state in
    let g = st.Euler.State.grid in
    if not (Euler.Grid.is_1d g) then
      invalid_arg (Printf.sprintf "Engine backend %S is 1D only" name);
    let compiled = euler_1d () in
    let run, eval_stats, fold_kernels =
      match A.engine with
      | `Vm ->
        let ctx =
          Sac.Vm.make_ctx ~exec:s.exec
            ?parallel_threshold:s.Backend.par_threshold
            compiled.Sacprog.Runner.bytecode
        in
        ( Sac.Vm.run_fun ctx,
          (fun () -> Sac.Vm.stats ctx),
          fun () -> Sac.Vm.fold_kernel_execs ctx )
      | `Interp ->
        let ctx =
          Sac.Eval.make_ctx ~exec:s.exec
            ?parallel_threshold:s.Backend.par_threshold
            compiled.Sacprog.Runner.program
        in
        (Sac.Eval.run_fun ctx, (fun () -> Sac.Eval.stats ctx), fun () -> 0)
    in
    { run;
      eval_stats;
      fold_kernels;
      template = Euler.State.copy st;
      q = interior from;
      gam = st.Euler.State.gamma;
      dx = g.Euler.Grid.dx;
      cfl = s.config.Euler.Solver.cfl;
      exec = s.exec;
      time = 0.;
      steps = 0 }

  let create (s : Backend.spec) = build s ~from:s.problem.Euler.Setup.state

  (* The engine's with-loops already run (and are counted) through
     [exec] when large enough; [timed] additionally charges the whole
     engine call to a bucket so the mini-SaC backend reports the same
     instrumentation shape as the native ones. *)
  let dt t =
    Parallel.Exec.timed t.exec Parallel.Exec.Reduce (fun () ->
        Sac.Value.to_float
          (t.run "dt_of"
             [ t.q;
               Sac.Value.Vdbl t.gam;
               Sac.Value.Vdbl t.dx;
               Sac.Value.Vdbl t.cfl ]))

  let step_dt t dt =
    let q =
      Parallel.Exec.timed t.exec Parallel.Exec.Rhs (fun () ->
          t.run "step_dt"
            [ t.q;
              Sac.Value.Vdbl dt;
              Sac.Value.Vdbl t.gam;
              Sac.Value.Vdbl t.dx ])
    in
    t.q <- q;
    t.time <- t.time +. dt;
    t.steps <- t.steps + 1

  let time t = t.time
  let steps t = t.steps

  let state t =
    let st = Euler.State.copy t.template in
    let g = st.Euler.State.grid in
    let q = Sac.Value.to_tensor t.q in
    for ix = 0 to g.Euler.Grid.nx - 1 do
      let o = Euler.Grid.offset g ix 0 in
      st.Euler.State.q.(Euler.State.i_rho).(o)
        <- Tensor.Nd.get q [| 0; ix |];
      st.Euler.State.q.(Euler.State.i_mx).(o)
        <- Tensor.Nd.get q [| 1; ix |];
      st.Euler.State.q.(Euler.State.i_my).(o) <- 0.;
      st.Euler.State.q.(Euler.State.i_e).(o)
        <- Tensor.Nd.get q [| 2; ix |]
    done;
    st

  let exec t = t.exec

  let notes t =
    let s = t.eval_stats () in
    let folds =
      Hashtbl.fold (fun _ n a -> a + n) s.Sac.Eval.fold_execs 0
    in
    [ ("with-loops", float_of_int s.Sac.Eval.with_loops);
      ("elements", float_of_int s.Sac.Eval.elements);
      ("calls", float_of_int s.Sac.Eval.calls);
      ("folds", float_of_int folds);
      ("fold-kernels", float_of_int (t.fold_kernels ())) ]

  let cost_scheduler = Parallel.Cost_model.Spin_barrier

  let snapshot t =
    Snap.of_backend ~backend:name
      ~config:{ Euler.Solver.benchmark_config with Euler.Solver.cfl = t.cfl }
      ~steps:t.steps ~time:t.time (state t)

  let restore (spec : Backend.spec) snap =
    Snap.check ~backend:name ~config:spec.config
      spec.problem.Euler.Setup.state snap;
    let st = Euler.State.copy spec.problem.Euler.Setup.state in
    Snap.restore_state snap ~into:st;
    { (build spec ~from:st) with
      time = snap.Persist.Snapshot.sim_time;
      steps = snap.Persist.Snapshot.steps }
end

module Sacprog = Make_sacprog (struct
  let name = "sacprog"
  let engine = `Vm
end)

(* Not registered: the interpreter engine is reachable for
   differential testing and benchmarking by instantiating
   [Backend.make] on this module directly, without adding a second
   user-facing backend name (or a second golden lineage). *)
module Sacprog_interp = Make_sacprog (struct
  let name = "sacprog-interp"
  let engine = `Interp
end)

let builtin : (module Backend.BACKEND) list =
  [ (module Reference);
    (module Array_style);
    (module Fortran);
    (module Fortran_outer);
    (module Sacprog) ]
