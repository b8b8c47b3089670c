(* Self-tests of the benchmark's own machinery: percentiles, failure
   accounting, seeded job generation and the correctness checks. *)

open Perfbench

let floats n = List.init n (fun i -> float_of_int (n - i))

let refuses f =
  match f () with
  | (_ : float) -> false
  | exception Stats.Too_few _ -> true

let test_percentile_refuses () =
  Alcotest.(check bool) "p90 of 99 has 9 beyond" true
    (refuses (fun () -> Stats.percentile 90. (floats 99)));
  Alcotest.(check bool) "p50 of 19 has 9 beyond" true
    (refuses (fun () -> Stats.percentile 50. (floats 19)));
  Alcotest.(check bool) "no samples" true (refuses (fun () -> Stats.percentile 50. []))

let test_percentile_nearest_rank () =
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Stats.percentile 90. (floats 100));
  Alcotest.(check (float 0.)) "p50 of 1..20" 10. (Stats.percentile 50. (floats 20));
  Alcotest.(check (float 0.)) "median of 4" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let test_failed_frac () =
  let c = Check.create () in
  Check.record c ~name:"a" true "";
  Check.record c ~name:"b" false "";
  Check.count c ~attempted:8 ~failed:1;
  Alcotest.(check int) "attempted" 10 (Check.attempted c);
  Alcotest.(check int) "failed" 2 (Check.failed c);
  Alcotest.(check (float 1e-15)) "failed_frac" 0.2 (Check.failed_frac c);
  Alcotest.(check bool) "not correct" false (Check.correct c);
  Alcotest.(check bool) "empty run is not correct" false (Check.correct (Check.create ()));
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failed_frac: nothing attempted") (fun () ->
      ignore (Stats.failed_frac ~attempted:0 ~failed:0))

(* The calibrated timeline maps raw time up to its last mark onto
   calibrated time, monotonically, and refuses to read past it. *)
let test_calibrated_timeline () =
  let tl = Calib.start () in
  let busy () = for _ = 1 to 3 do Calib.sweep Calib.main_tube done in
  busy ();
  Calib.mark tl;
  busy ();
  Calib.mark tl;
  let total = Calib.total tl in
  Alcotest.(check (float 0.)) "starts at 0" 0. (Calib.calibrated tl 0.);
  Alcotest.(check (float 1e-15)) "ends at the total" total.Calib.cal
    (Calib.calibrated tl total.Calib.wall);
  let points = List.init 11 (fun i -> total.Calib.wall *. float_of_int i /. 10.) in
  let cal = List.map (Calib.calibrated tl) points in
  Alcotest.(check bool) "monotone" true (List.sort compare cal = cal);
  Alcotest.(check bool) "positive" true (total.Calib.cal > 0.);
  Alcotest.check_raises "past the last mark"
    (Invalid_argument "Calib.calibrated: after the last mark") (fun () ->
      ignore (Calib.calibrated tl (total.Calib.wall +. 1.)))

let describe jobs =
  List.map
    (fun j -> String.concat "," (j.Fleet.Job.id :: List.map (fun (k, v) -> k ^ "=" ^ v) (Fleet.Job.to_kv j)))
    jobs

(* What a job costs, without who asked for it or when. *)
let work jobs =
  List.sort compare
    (List.map
       (fun j ->
         List.filter (fun (k, _) -> k <> "submitter" && k <> "priority") (Fleet.Job.to_kv j))
       jobs)

let test_generation_deterministic () =
  let a = Fleet_wl.jobs ~seed:7 ~rep:0 and b = Fleet_wl.jobs ~seed:7 ~rep:0
  and c = Fleet_wl.jobs ~seed:8 ~rep:0 and d = Fleet_wl.jobs ~seed:7 ~rep:1 in
  Alcotest.(check (list string)) "same seed, same jobs" (describe a) (describe b);
  Alcotest.(check bool) "another seed, another draw" true (describe a <> describe c);
  Alcotest.(check bool) "another repetition, another draw" true (describe a <> describe d);
  Alcotest.(check bool) "same work in every draw" true (work a = work c && work a = work d);
  Alcotest.(check bool) "at least 100 jobs" true (List.length a >= 100);
  Alcotest.(check (list string)) "sample is seeded"
    (describe (Fleet_wl.sample ~seed:7)) (describe (Fleet_wl.sample ~seed:7))

let ctx () =
  let dir = Printf.sprintf "perfbench-test-%d" (Unix.getpid ()) in
  Persist.Checkpoint.mkdir_p dir;
  { Wl.seed = 1; seconds = 0.1; traced = false; trace = Trace.create ~enabled:false;
    checks = Check.create (); run_dir = dir }

(* A small tube checked against the Fortran baseline: intact it passes,
   with one cell of its final state perturbed it fails. *)
let test_corrupt_state_trips () =
  let spec =
    { Solver_wl.two_channel with
      Solver_wl.scenario = "sod"; nx = 64; config = Engine.Scenario.config;
      tolerance = 1e-12 }
  in
  let sc = Engine.Scenario.find_exn "sod" in
  let inst = Engine.Registry.create ~config:(spec.Solver_wl.config sc) "reference" (Engine.Scenario.problem ~nx:64 sc) in
  ignore (Engine.Run.run_steps inst 5);
  let start = Engine.Backend.snapshot inst in
  let dts = Solver_wl.march inst 3 in
  let got = Euler.State.copy (Engine.Backend.state inst) in
  let good = ctx () in
  Solver_wl.verify good spec sc ~start ~got ~dts;
  Alcotest.(check (list string)) "intact state passes" []
    (List.filter_map
       (fun o -> if o.Check.ok then None else Some (o.Check.name ^ ": " ^ o.Check.detail))
       (Check.outcomes good.Wl.checks));
  let o = Euler.Grid.offset got.Euler.State.grid 10 0 in
  got.Euler.State.q.(Euler.State.i_rho).(o) <- got.Euler.State.q.(Euler.State.i_rho).(o) +. 1e-9;
  let bad = ctx () in
  Solver_wl.verify bad spec sc ~start ~got ~dts;
  Alcotest.(check int) "corrupted state fails once" 1 (Check.failed bad.Wl.checks);
  Alcotest.(check bool) "run not correct" false (Check.correct bad.Wl.checks);
  Wl.rm_rf bad.Wl.run_dir

(* A result file that stops short of its target counts as a failed job. *)
let test_short_result_trips () =
  let c = ctx () in
  let root = Filename.concat c.Wl.run_dir "inbox" in
  Wl.rm_rf root;
  let inbox = Fleet.Inbox.make root in
  let job n = Fleet.Job.make ~id:(Printf.sprintf "t-%d" n) ~scenario:"sod" ~nx:32 (Fleet.Job.Steps 10) in
  let jobs = [ job 0; job 1 ] in
  List.iter (fun j -> ignore (Fleet.Inbox.submit inbox j)) jobs;
  ignore (Fleet.Inbox.claim inbox);
  Fleet.Inbox.finalize inbox ~id:"t-0" [ ("status", "done"); ("steps", "10") ];
  Fleet.Inbox.finalize inbox ~id:"t-1" [ ("status", "done"); ("steps", "9") ];
  let d =
    { Fleet_wl.root; time = { Calib.wall = 1.; cal = 1. }; turnaround = []; outcomes = [];
      layers = [] }
  in
  Fleet_wl.check_drain c jobs d ~uninterrupted:[];
  Alcotest.(check int) "attempted" 2 (Check.attempted c.Wl.checks);
  Alcotest.(check int) "failed" 1 (Check.failed c.Wl.checks);
  Wl.rm_rf c.Wl.run_dir

let () =
  Alcotest.run "perfbench"
    [ ("stats",
       [ Alcotest.test_case "percentile refuses thin tails" `Quick test_percentile_refuses;
         Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_nearest_rank;
         Alcotest.test_case "failed_frac counting" `Quick test_failed_frac;
         Alcotest.test_case "calibrated timeline" `Quick test_calibrated_timeline ]);
      ("workloads",
       [ Alcotest.test_case "seeded generation is deterministic" `Quick
           test_generation_deterministic;
         Alcotest.test_case "corrupted state trips the check" `Quick test_corrupt_state_trips;
         Alcotest.test_case "short fleet result trips the check" `Quick test_short_result_trips ]) ]
