(* What every workload shares: its run context, the metrics it reports,
   and the timing helpers. *)

type ctx = {
  seed : int;
  seconds : float;  (** length of the timed window *)
  traced : bool;
  trace : Trace.t;  (** records spans only when [traced] *)
  checks : Check.t;
  run_dir : string;  (** scratch space of this run, removed at exit *)
}

type report = {
  e2e : (Calib.sample -> float) -> (string * float) list;
      (** end-to-end metrics of the untraced run, read on the given
          clock: calibrated (the reported one) or raw wall *)
  layers : (string * float) list;  (** per-layer metrics, traced run only *)
  lanes : int;
  working_set_bytes : int;  (** computed, not a bandwidth measurement *)
  samples : (string * Calib.sample list) list;
      (** the repetitions behind the reported medians, for the record *)
  sections : Calib.sample list;  (** the timed windows (drains) *)
}

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* Computed working set of one state: 8-byte conserved variables over
   the interior (three in 1D, where the y-momentum is identically zero
   and the mini-SaC program does not store it; four in 2D). *)
let state_bytes (s : Euler.State.t) =
  let g = s.Euler.State.grid in
  let nvar = if Euler.Grid.is_1d g then 3 else 4 in
  8 * nvar * g.Euler.Grid.nx * g.Euler.Grid.ny

(* Per-region-kind bucket totals (ns) of an exec, for deltas across a
   measured interval. *)
let bucket_ns exec =
  List.map
    (fun (r, b) -> (r, b.Parallel.Exec.total_ns))
    (Parallel.Exec.buckets exec)

let bucket_delta_ms ~before ~after region =
  let get l = Option.value ~default:0. (List.assoc_opt region l) in
  (get after -. get before) /. 1e6

(* Median of timed samples read on one clock. *)
let median_on clock ts = Stats.median (List.map clock ts)
