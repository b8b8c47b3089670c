(* Correctness checks and failure accounting.  Every check a workload
   makes, and every job a fleet drain attempts, is one operation; the
   run is correct only when none of them failed. *)

type outcome = { name : string; ok : bool; detail : string }

type t = { mutable attempted : int; mutable failed : int; mutable log : outcome list }

let create () = { attempted = 0; failed = 0; log = [] }

let record t ~name ok detail =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  t.log <- { name; ok; detail } :: t.log

(* Count operations that are not individual checks (fleet jobs). *)
let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let attempted t = t.attempted
let failed t = t.failed
let correct t = t.attempted > 0 && t.failed = 0
let failed_frac t = Stats.failed_frac ~attempted:t.attempted ~failed:t.failed
let outcomes t = List.rev t.log

(* Interior disagreement of two states; infinity when the grids
   differ.  NaNs are caught by [physical], which every solver workload
   checks alongside. *)
let max_abs_diff a b =
  try Euler.State.max_abs_diff a b with Invalid_argument _ -> infinity

(* The state is physical: finite, positive density and energy in every
   interior cell. *)
let physical (s : Euler.State.t) =
  let g = s.Euler.State.grid in
  let ok = ref true in
  for j = 0 to g.Euler.Grid.ny - 1 do
    for i = 0 to g.Euler.Grid.nx - 1 do
      let o = Euler.Grid.offset g i j in
      let rho = s.Euler.State.q.(Euler.State.i_rho).(o)
      and e = s.Euler.State.q.(Euler.State.i_e).(o) in
      if not (Float.is_finite rho && Float.is_finite e && rho > 0. && e > 0.)
      then ok := false
    done
  done;
  !ok
