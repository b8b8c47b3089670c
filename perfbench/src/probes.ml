(* Measurements every workload takes outside its timed window: the SaC
   compile of the Euler program, and one checkpoint round trip through
   the persist layer. *)

let compile_reps = 61

(* [compile_s] samples: times of Sac.Pipeline.compile_bytecode on
   euler_1d — the compile every sacprog backend create (and every fleet
   resume of a sacprog job) pays — each on a compacted heap and
   calibrated by the kernel runs around it.  The samples span a few
   seconds, so their median does not rest on one phase of the host. *)
let compile_times () =
  let tl = Calib.start () in
  let pieces =
    List.init compile_reps (fun _ ->
        Gc.compact ();
        snd
          (Calib.piece tl (fun () ->
               ignore (Sac.Pipeline.compile_bytecode Sacprog.Programs.euler_1d))))
  in
  List.map (fun (r0, r1) -> Calib.between tl ~r0 ~r1) pieces

(* The compile split into its stages, each call wrapped in a span:
   parse, the optimisation cycle (with its type checks) and lowering to
   bytecode. *)
let stage_reps = 15

let compile_stages (ctx : Wl.ctx) =
  let tr = ctx.Wl.trace in
  let last = ref None in
  Trace.span tr ~layer:"bench" "bench.compile_stages" (fun () ->
      for _ = 1 to stage_reps do
        Gc.compact ();
        let ast =
          Trace.span tr ~layer:"sac" "sac.parse" (fun () ->
              Sac.Parser.parse_program Sacprog.Programs.euler_1d)
        in
        let opt, report =
          Trace.span tr ~layer:"sac" "sac.optimize" (fun () ->
              Sac.Pipeline.optimize ast)
        in
        let bc =
          Trace.span tr ~layer:"sac" "sac.lower" (fun () ->
              Sac.Compile.program opt)
        in
        last := Some (report, Sac.Bytecode.summary bc)
      done);
  let report, summary = Option.get !last in
  let med name = Stats.median (Trace.durations_ms tr name) in
  [ ("sac.parse_ms", med "sac.parse");
    ("sac.optimize_ms", med "sac.optimize");
    ("sac.lower_ms", med "sac.lower");
    ("sac.opt_cycles", float_of_int report.Sac.Pipeline.cycles_used);
    ("sac.bytecode_instrs", float_of_int summary.Sac.Bytecode.n_instrs) ]

let persist_reps = 7

(* One checkpoint round trip of a live instance, each stage its own
   call into the persist or engine layer: capture (Backend.snapshot),
   encode, atomic write, read (with every CRC verified) and restore
   (Registry.resume, which rebuilds the backend).  [resume] is how the
   caller rebuilds its instance from a snapshot. *)
let persist (ctx : Wl.ctx) inst ~resume =
  let tr = ctx.Wl.trace in
  let path = Filename.concat ctx.Wl.run_dir "probe.swck" in
  let bytes = ref 0 in
  Trace.span tr ~layer:"bench" "bench.persist_probe" (fun () ->
      for _ = 1 to persist_reps do
        Gc.compact ();
        let snap =
          Trace.span tr ~layer:"persist" "persist.capture" (fun () ->
              Engine.Backend.snapshot inst)
        in
        let enc =
          Trace.span tr ~layer:"persist" "persist.encode" (fun () ->
              Persist.Snapshot.encode snap)
        in
        bytes := String.length enc;
        Trace.span tr ~layer:"persist" "persist.write" (fun () ->
            Persist.Atomic_write.write_string path enc);
        let back =
          Trace.span tr ~layer:"persist" "persist.read" (fun () ->
              Persist.Snapshot.read ~path)
        in
        ignore (Trace.span tr ~layer:"persist" "persist.restore" (fun () -> resume back))
      done);
  Sys.remove path;
  let med name = Stats.median (Trace.durations_ms tr name) in
  [ ("persist.capture_ms", med "persist.capture");
    ("persist.encode_ms", med "persist.encode");
    ("persist.write_ms", med "persist.write");
    ("persist.read_ms", med "persist.read");
    ("persist.restore_ms", med "persist.restore");
    ("persist.snapshot_bytes", float_of_int !bytes) ]
