(** The built-in backends: one wrapper per solver implementation in
    the repository.

    - ["reference"] — {!Euler.Solver}, the fused kernels standing in
      for sac2c's fully optimised output (any scheme configuration).
    - ["array"] — {!Euler.Array_style}, the unfused whole-array SaC
      style (benchmark scheme only).
    - ["fortran"] / ["fortran-outer"] —
      {!Fortran_baseline.F_solver} with inner-/outer-loop
      auto-parallelisation (any scheme configuration).
    - ["sacprog"] — the mini-SaC program
      {!Sacprog.Programs.euler_1d} run through the [Sac] compiler
      pipeline and executed on the {!Sac.Vm} bytecode VM (1D,
      benchmark scheme only; engine calls are charged coarsely to the
      reduce/rhs buckets).  {!Sacprog_interp} is the same backend on
      the tree-walking {!Sac.Eval} interpreter — bitwise identical,
      kept unregistered for differential testing and benchmarking. *)

module Reference : Backend.BACKEND
module Array_style : Backend.BACKEND

module Make_fortran (_ : sig
  val name : string
  val autopar : Fortran_baseline.F_solver.autopar
end) : Backend.BACKEND

module Fortran : Backend.BACKEND
module Fortran_outer : Backend.BACKEND

val euler_1d : unit -> Sacprog.Runner.compiled
(** {!Sacprog.Programs.euler_1d} under the default pipeline options,
    compiled once per process on first use (domain-safe) and shared by
    every sacprog instance, each of which builds its own VM or
    interpreter context over it.  {!Sacprog.Runner.compile_euler_1d}
    stays uncached. *)

module Make_sacprog (_ : sig
  val name : string
  val engine : Sacprog.Runner.engine
end) : Backend.BACKEND

module Sacprog : Backend.BACKEND
module Sacprog_interp : Backend.BACKEND

val builtin : (module Backend.BACKEND) list
(** What {!Registry} serves, in presentation order. *)
