(* The benchmark's clock: wall time, rescaled to a fixed host speed.

   The host is shared, and the same code runs up to 1.6x slower from
   one second to the next and for minutes at a time, on the wall clock
   and on the thread's CPU clock alike (steal, a busy core neighbour,
   frequency).  A median over one run cannot remove a slow phase that
   lasts the whole run.  So the benchmark runs a short, fixed
   calibration kernel between the pieces of work it times, and rescales
   each piece of wall time by the kernel's speed at its two ends:

     calibrated = wall / mean(kernel slowness before, after)

   The kernel has two parts, written here so that no change to the
   program moves them: Rusanov flux sweeps over a 1D Euler tube
   (floating point over arrays, like the solvers) and lookups in a
   30000-key balanced tree (pointer chasing, like the SaC compiler and
   VM).  The host's slow phases slow the two kinds of code by different
   factors, so the kernel's slowness is the geometric mean of the
   parts' times over their times on the reference host speed (this
   host's speed in its fast phases): 1 on that speed, 1.6 in a phase
   that slows both parts by 1.6x.  A calibrated second is a second at
   the reference speed.  A change that makes the program faster or
   slower moves calibrated and wall-clock times by the same factor.

   Measured over four minutes of interleaved runs here, the medians over
   20 s windows spread (IQR/median) on the wall clock / calibrated by
   the flux part alone / by the tree part alone / by both: a
   two-channel step 29% / 1.8% / 8.4% / 2.9%, a sac-sod step 18% /
   5.8% / 4.5% / 1.8%, the euler_1d compile 20% / 3.8% / 3.7% / 2.4%.

   A kernel run and its mark allocate 36 words, against 82k to 1.3M a
   solver step, so the GC counters the per-layer metrics read stay the
   workload's own; its time is not part of any timed work: a timeline
   pauses while it runs. *)

let cells = 4096
let sweeps = 40
let tree_keys = 30000
let lookups = 15000

(* The parts' times on the reference host speed, in seconds. *)
let nominal_flux_s = 0.0024
let nominal_tree_s = 0.0031

(* A tube's conserved variables and fluxes; one tube per lane, so lanes
   running the kernel together share no written cache lines. *)
type tube = { rho : float array; mom : float array; ener : float array; flux : float array array }

let make_tube () =
  { rho = Array.init cells (fun i -> 1. +. (0.5 *. sin (float_of_int i *. 0.01)));
    mom = Array.init cells (fun i -> 0.1 *. cos (float_of_int i *. 0.02));
    ener = Array.init cells (fun i -> 2.5 +. (0.3 *. sin (float_of_int i *. 0.03)));
    flux = Array.init 3 (fun _ -> Array.make cells 0.) }

let sweep t =
  let g = 1.4 in
  let f_rho = t.flux.(0) and f_mom = t.flux.(1) and f_ener = t.flux.(2) in
  for i = 0 to cells - 2 do
    let rl = t.rho.(i) and ml = t.mom.(i) and el = t.ener.(i) in
    let rr = t.rho.(i + 1) and mr = t.mom.(i + 1) and er = t.ener.(i + 1) in
    let ul = ml /. rl and ur = mr /. rr in
    let pl = (g -. 1.) *. (el -. (0.5 *. ml *. ul))
    and pr = (g -. 1.) *. (er -. (0.5 *. mr *. ur)) in
    let s =
      Float.max
        (Float.abs ul +. sqrt (g *. pl /. rl))
        (Float.abs ur +. sqrt (g *. pr /. rr))
    in
    f_rho.(i) <- (0.5 *. (ml +. mr)) -. (0.5 *. s *. (rr -. rl));
    f_mom.(i) <- (0.5 *. ((ml *. ul) +. pl +. (mr *. ur) +. pr)) -. (0.5 *. s *. (mr -. ml));
    f_ener.(i) <- (0.5 *. (((el +. pl) *. ul) +. ((er +. pr) *. ur))) -. (0.5 *. s *. (er -. el))
  done

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

(* A balanced binary search tree over [tree_keys] pseudo-random keys,
   built once (bottom-up from the sorted keys, so building it leaves
   no garbage to raise the peak RSS) and only read after: lanes share
   it. *)
type tree = Leaf | Node of tree * int * int * tree

let keys =
  let x = ref 12345 in
  Array.init tree_keys (fun _ ->
      x := lcg !x;
      !x)

let tree =
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let rec build lo hi =
    if lo >= hi then Leaf
    else
      let mid = (lo + hi) / 2 in
      Node (build lo mid, sorted.(mid), mid, build (mid + 1) hi)
  in
  build 0 tree_keys

let rec find k = function
  | Leaf -> 0
  | Node (l, key, v, r) -> if k < key then find k l else if k > key then find k r else v

let look () =
  let acc = ref 0 and x = ref 777 in
  for _ = 1 to lookups do
    x := lcg !x;
    acc := !acc + find keys.(!x mod tree_keys) tree
  done;
  !acc

let timed f =
  let t0 = Parallel.Clock.now_s () in
  f ();
  Parallel.Clock.now_s () -. t0

let flux_part t () =
  for _ = 1 to sweeps do
    sweep t
  done

let tree_part () = ignore (Sys.opaque_identity (look ()))

let slowness ~flux_s ~tree_s = sqrt (flux_s /. nominal_flux_s *. (tree_s /. nominal_tree_s))

let main_tube = make_tube ()

(* One run of the kernel on the calling domain: its slowness. *)
let kernel () =
  let flux_s = timed (flux_part main_tube) in
  slowness ~flux_s ~tree_s:(timed tree_part)

(* A run of the kernel on every lane of [exec] at once, lane [i] on
   [tubes.(i)]: each part's time is that of the region, so of the
   slowest lane.  This is the host speed a multi-lane workload sees. *)
let kernel_lanes exec tubes () =
  let n = Parallel.Exec.lanes exec in
  let flux_s =
    timed (fun () ->
        Parallel.Exec.parallel_for exec ~lo:0 ~hi:n (fun lane -> flux_part tubes.(lane) ()))
  in
  let tree_s = timed (fun () -> Parallel.Exec.parallel_for exec ~lo:0 ~hi:n (fun _ -> tree_part ())) in
  slowness ~flux_s ~tree_s

(* A timeline of timed work, cut into segments by kernel runs.  Raw
   time is wall time since [start] less the kernel's; each segment's
   raw time is divided by the kernel's mean slowness at its two ends. *)
type seg = { r0 : float; n0 : float; rate : float }

type t = {
  origin : float;  (** wall clock at the start *)
  mutable paused : float;  (** wall time spent in the kernel since *)
  mutable at : float;  (** raw time of the last mark *)
  mutable nat : float;  (** calibrated time of the last mark *)
  mutable last : float;  (** the kernel's slowness at the last mark *)
  mutable segs : seg list;  (** closed segments, newest first *)
  mutable kernel : unit -> float;
}

let start ?(kernel = kernel) () =
  let k = kernel () in
  { origin = Parallel.Clock.now_s (); paused = 0.; at = 0.; nat = 0.; last = k; segs = []; kernel }

(* Raw seconds since [start]. *)
let now t = Parallel.Clock.now_s () -. t.origin -. t.paused

(* Close the open segment with a kernel run. *)
let mark t =
  let r = now t in
  let k = t.kernel () in
  t.paused <- Parallel.Clock.now_s () -. t.origin -. r;
  let rate = 1. /. (0.5 *. (t.last +. k)) in
  t.segs <- { r0 = t.at; n0 = t.nat; rate } :: t.segs;
  t.nat <- t.nat +. ((r -. t.at) *. rate);
  t.at <- r;
  t.last <- k

(* Calibrated seconds at raw time [r], which must not lie past the last
   mark. *)
let calibrated t r =
  if r > t.at then invalid_arg "Calib.calibrated: after the last mark";
  let rec go = function
    | s :: rest -> if r >= s.r0 then s.n0 +. ((r -. s.r0) *. s.rate) else go rest
    | [] -> 0.
  in
  go t.segs

(* A timed piece of work: raw wall seconds and calibrated seconds. *)
type sample = { wall : float; cal : float }

let between t ~r0 ~r1 = { wall = r1 -. r0; cal = calibrated t r1 -. calibrated t r0 }

(* Everything up to the last mark. *)
let total t = { wall = t.at; cal = t.nat }

let marks t = List.length t.segs

(* Calibrate with [kernel] from the next mark on. *)
let set_kernel t kernel = t.kernel <- kernel

(* Mark, when [every] raw seconds have passed since the last mark;
   whether it did. *)
let mark_every t every =
  let due = now t -. t.at >= every in
  if due then mark t;
  due

(* [f ()] as one piece of [t]'s timed work, closed by a kernel run; its
   raw start and end, for {!between}. *)
let piece t f =
  let r0 = now t in
  let x = f () in
  let r1 = now t in
  mark t;
  (x, (r0, r1))

(* [f t] on a fresh timeline [t], which [f] may mark inside, between a
   kernel run before and after it. *)
let section f =
  let t = start () in
  let x = f t in
  mark t;
  (x, total t)
