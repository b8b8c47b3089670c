(* Tests for the persistence layer: CRC-32 known answers, bitwise
   snapshot round trips, atomic-write crash safety, corruption
   injection (every damaged byte pattern must raise Corrupt with a
   diagnostic, never decode wrong), checkpoint-directory retention and
   crash fallback, and the golden store. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "persist-test-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Persist.Checkpoint.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let sample_snapshot () =
  { Persist.Snapshot.descriptor =
      [ ("backend", "reference");
        ("gamma", Persist.Snapshot.d_float 1.4);
        ("nx", Persist.Snapshot.d_int 4) ];
    steps = 17;
    sim_time = 0.1 +. 0.2;  (* not exactly representable: bitwise test *)
    fields =
      [ ("rho", Tensor.Nd.init_flat [| 8 |] (fun i -> 1. +. (0.1 *. float_of_int i)));
        ("E", Tensor.Nd.init [| 2; 4 |] (fun iv -> float_of_int ((10 * iv.(0)) + iv.(1)))) ] }

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc_known_answer () =
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Persist.Crc32.of_string "123456789");
  Alcotest.(check int32) "empty" 0l (Persist.Crc32.of_string "")

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let k = 13 in
  let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
  Alcotest.(check int32) "composes"
    (Persist.Crc32.of_string s)
    (Persist.Crc32.update
       (Persist.Crc32.update 0l a ~pos:0 ~len:(String.length a))
       b ~pos:0 ~len:(String.length b));
  Alcotest.check_raises "bounds checked"
    (Invalid_argument "Crc32.update: range out of bounds") (fun () ->
      ignore (Persist.Crc32.update 0l "abc" ~pos:1 ~len:3))

(* The original bytewise implementation over boxed [Int32], kept as
   the reference the table-sliced [Crc32.update] must match bit for
   bit. *)
let crc_reference crc s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor (Int32.shift_right_logical !c 1) 0xEDB88320l
            else Int32.shift_right_logical !c 1
        done;
        !c)
  in
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int
        (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let test_crc_matches_reference () =
  let rng = Random.State.make [| 32 |] in
  let s = String.init 4096 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for _ = 1 to 500 do
    let pos = Random.State.int rng 64 in
    let len = Random.State.int rng (String.length s - pos + 1) in
    (* Any running CRC, including ones with the top bit set. *)
    let crc = Random.State.bits32 rng in
    Alcotest.(check int32) "one pass"
      (crc_reference crc s ~pos ~len)
      (Persist.Crc32.update crc s ~pos ~len);
    (* The same range folded in random incremental pieces. *)
    let c = ref crc and at = ref pos and left = ref len in
    while !left > 0 do
      let k = 1 + Random.State.int rng (min !left 37) in
      c := Persist.Crc32.update !c s ~pos:!at ~len:k;
      at := !at + k;
      left := !left - k
    done;
    Alcotest.(check int32) "incremental splits"
      (crc_reference crc s ~pos ~len) !c
  done

(* ------------------------------------------------------------------ *)
(* Snapshot encode/decode                                              *)
(* ------------------------------------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_snapshot_equal (a : Persist.Snapshot.t) (b : Persist.Snapshot.t) =
  Alcotest.(check (list (pair string string)))
    "descriptor" a.descriptor b.descriptor;
  check_int "steps" a.steps b.steps;
  check_bool "sim_time bitwise" true (same_bits a.sim_time b.sim_time);
  check_int "field count" (List.length a.fields) (List.length b.fields);
  List.iter2
    (fun (na, ta) (nb, tb) ->
      check_string "field name" na nb;
      Alcotest.(check (array int)) (na ^ " shape") (Tensor.Nd.shape ta)
        (Tensor.Nd.shape tb);
      let da = ta.Tensor.Nd.data and db = tb.Tensor.Nd.data in
      Array.iteri
        (fun i v -> check_bool (na ^ " data bitwise") true (same_bits v db.(i)))
        da)
    a.fields b.fields

let test_roundtrip () =
  let s = sample_snapshot () in
  check_snapshot_equal s (Persist.Snapshot.decode (Persist.Snapshot.encode s))

let test_roundtrip_file () =
  with_tmpdir (fun dir ->
      let s = sample_snapshot () in
      let path = Filename.concat dir "a.swck" in
      let size = Persist.Snapshot.write ~path s in
      check_int "size is the encoding" size
        (String.length (Persist.Snapshot.encode s));
      check_bool "no tmp left" true
        (not (Sys.file_exists (Persist.Atomic_write.temp_path path)));
      check_snapshot_equal s (Persist.Snapshot.read ~path))

let test_descriptor_helpers () =
  let s = sample_snapshot () in
  check_bool "gamma bitwise through %h" true
    (same_bits 1.4 (Persist.Snapshot.get_float s "gamma"));
  check_int "nx" 4 (Persist.Snapshot.get_int s "nx");
  check_bool "absent is None" true
    (Option.is_none (Persist.Snapshot.get s "nope"));
  check_bool "get_exn raises Corrupt" true
    (try ignore (Persist.Snapshot.get_exn s "nope"); false
     with Persist.Snapshot.Corrupt _ -> true);
  check_bool "field raises Corrupt" true
    (try ignore (Persist.Snapshot.field s "nope"); false
     with Persist.Snapshot.Corrupt _ -> true);
  (* 8 rho + 8 E elements, 8 bytes each *)
  check_int "payload bytes" (16 * 8) (Persist.Snapshot.payload_bytes s)

let test_encode_rejects_malformed () =
  let reject name s =
    check_bool name true
      (try ignore (Persist.Snapshot.encode s); false
       with Invalid_argument _ -> true)
  in
  let ok = sample_snapshot () in
  reject "space in key"
    { ok with Persist.Snapshot.descriptor = [ ("a b", "c") ] };
  reject "newline in value"
    { ok with Persist.Snapshot.descriptor = [ ("a", "b\nc") ] };
  reject "duplicate field"
    { ok with
      Persist.Snapshot.fields =
        [ ("x", Tensor.Nd.init_flat [| 1 |] float_of_int);
          ("x", Tensor.Nd.init_flat [| 1 |] float_of_int) ] };
  reject "negative steps" { ok with Persist.Snapshot.steps = -1 }

(* ------------------------------------------------------------------ *)
(* Corruption injection                                                *)
(* ------------------------------------------------------------------ *)

let expect_corrupt name bytes =
  match Persist.Snapshot.decode bytes with
  | _ -> Alcotest.failf "%s: decoded instead of raising Corrupt" name
  | exception Persist.Snapshot.Corrupt msg ->
    check_bool (name ^ " has a diagnostic") true (String.length msg > 0)

let test_corruption_injection () =
  let good = Persist.Snapshot.encode (sample_snapshot ()) in
  let n = String.length good in
  expect_corrupt "empty" "";
  expect_corrupt "truncated header" (String.sub good 0 10);
  expect_corrupt "truncated body" (String.sub good 0 (n / 2));
  expect_corrupt "truncated by one byte" (String.sub good 0 (n - 1));
  expect_corrupt "trailing garbage" (good ^ "x");
  let flip i =
    let b = Bytes.of_string good in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  expect_corrupt "bad magic" (flip 0);
  expect_corrupt "bad version" (flip 8);
  expect_corrupt "bad endian tag" (flip 12);
  (* Flip one bit at several positions across the body: the section or
     whole-file CRC must catch each. *)
  List.iter
    (fun i -> expect_corrupt (Printf.sprintf "bit flip @%d" i) (flip i))
    [ 24; n / 3; n / 2; (2 * n) / 3; n - 2 ]

let test_corrupt_message_names_the_check () =
  let good = Persist.Snapshot.encode (sample_snapshot ()) in
  let msg_of bytes =
    try ignore (Persist.Snapshot.decode bytes); ""
    with Persist.Snapshot.Corrupt m -> m
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s
                   && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "magic named" true
    (contains ~sub:"magic" (msg_of (String.make 64 'X')));
  let b = Bytes.of_string good in
  Bytes.set b (String.length good - 1)
    (Char.chr (Char.code (Bytes.get b (String.length good - 1)) lxor 1));
  check_bool "checksum named" true
    (contains ~sub:"checksum" (msg_of (Bytes.to_string b)))

(* ------------------------------------------------------------------ *)
(* Atomic writes                                                       *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_atomic_write_crash_safety () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "out.txt" in
      Persist.Atomic_write.write_string path "version one";
      (* A writer that dies mid-file must leave the old version and no
         scratch file. *)
      check_bool "failing writer raises" true
        (try
           Persist.Atomic_write.to_file path (fun oc ->
               output_string oc "partial";
               failwith "disk full");
           false
         with Failure _ -> true);
      check_string "previous content intact" "version one" (read_file path);
      check_bool "scratch removed" true
        (not (Sys.file_exists (Persist.Atomic_write.temp_path path)));
      Persist.Atomic_write.write_string path "version two";
      check_string "replaced atomically" "version two" (read_file path))

(* ------------------------------------------------------------------ *)
(* Checkpoint directories                                              *)
(* ------------------------------------------------------------------ *)

let snap_at steps =
  { (sample_snapshot ()) with
    Persist.Snapshot.steps;
    sim_time = float_of_int steps *. 1e-3 }

let test_checkpoint_naming () =
  check_string "file name" "ckpt-000000123.swck"
    (Persist.Checkpoint.file_name ~steps:123);
  Alcotest.(check (option int)) "parses back" (Some 123)
    (Persist.Checkpoint.steps_of_file "ckpt-000000123.swck");
  Alcotest.(check (option int)) "tmp ignored" None
    (Persist.Checkpoint.steps_of_file "ckpt-000000123.swck.tmp");
  Alcotest.(check (option int)) "foreign ignored" None
    (Persist.Checkpoint.steps_of_file "notes.txt")

let test_checkpoint_save_list_retain () =
  with_tmpdir (fun dir ->
      List.iter
        (fun s -> ignore (Persist.Checkpoint.save ~dir (snap_at s)))
        [ 5; 10; 15; 20 ];
      Alcotest.(check (list int)) "listed ascending" [ 5; 10; 15; 20 ]
        (List.map fst (Persist.Checkpoint.list dir));
      Persist.Checkpoint.retain ~dir ~keep:2;
      Alcotest.(check (list int)) "oldest deleted" [ 15; 20 ]
        (List.map fst (Persist.Checkpoint.list dir));
      check_bool "keep < 1 rejected" true
        (try Persist.Checkpoint.retain ~dir ~keep:0; false
         with Invalid_argument _ -> true);
      match Persist.Checkpoint.latest_valid dir with
      | Some (_, s) -> check_int "latest is newest" 20 s.Persist.Snapshot.steps
      | None -> Alcotest.fail "expected a valid checkpoint")

let test_latest_valid_skips_corrupt () =
  with_tmpdir (fun dir ->
      List.iter
        (fun s -> ignore (Persist.Checkpoint.save ~dir (snap_at s)))
        [ 10; 20 ];
      (* Simulate a torn write of the newest checkpoint. *)
      let newest = Filename.concat dir (Persist.Checkpoint.file_name ~steps:20) in
      let bytes = read_file newest in
      Out_channel.with_open_bin newest (fun oc ->
          Out_channel.output_string oc
            (String.sub bytes 0 (String.length bytes / 2)));
      (match Persist.Checkpoint.latest_valid dir with
       | Some (path, s) ->
         check_int "fell back to previous" 10 s.Persist.Snapshot.steps;
         check_string "path is the intact file"
           (Filename.concat dir (Persist.Checkpoint.file_name ~steps:10))
           path
       | None -> Alcotest.fail "expected fallback to the intact checkpoint");
      check_bool "corrupt file left for forensics" true
        (Sys.file_exists newest);
      (* Direct read of the torn file must raise, not resume wrong. *)
      check_bool "direct read raises Corrupt" true
        (try ignore (Persist.Snapshot.read ~path:newest); false
         with Persist.Snapshot.Corrupt _ -> true))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl = 0
  || (let found = ref false in
      for i = 0 to hl - nl do
        if (not !found) && String.sub hay i nl = needle then found := true
      done;
      !found)

(* The crashed-writer debris matrix: a zero-byte file (open succeeded,
   nothing flushed) and a truncated tail on top of an intact older
   snapshot.  latest_valid must fall back silently-but-audibly: the
   resume succeeds AND every rejected candidate is reported through
   on_skip with a reason. *)
let test_latest_valid_crashed_writer_debris () =
  with_tmpdir (fun dir ->
      ignore (Persist.Checkpoint.save ~dir (snap_at 10));
      ignore (Persist.Checkpoint.save ~dir (snap_at 20));
      let trunc = Filename.concat dir (Persist.Checkpoint.file_name ~steps:20) in
      let bytes = read_file trunc in
      Out_channel.with_open_bin trunc (fun oc ->
          Out_channel.output_string oc (String.sub bytes 0 12));
      let zero = Filename.concat dir (Persist.Checkpoint.file_name ~steps:30) in
      Out_channel.with_open_bin zero (fun _ -> ());
      let skips = ref [] in
      (match
         Persist.Checkpoint.latest_valid
           ~on_skip:(fun path reason -> skips := (path, reason) :: !skips)
           dir
       with
       | Some (path, s) ->
         check_int "fell back to the intact snapshot" 10
           s.Persist.Snapshot.steps;
         check_string "path is the intact file"
           (Filename.concat dir (Persist.Checkpoint.file_name ~steps:10))
           path
       | None -> Alcotest.fail "expected fallback past the debris");
      let skips = List.rev !skips in
      check_int "both debris files reported" 2 (List.length skips);
      check_string "newest (zero-byte) rejected first" zero
        (fst (List.nth skips 0));
      check_string "then the truncated one" trunc (fst (List.nth skips 1));
      List.iter
        (fun (_, reason) ->
          check_bool "skip carries a reason" true (String.length reason > 0))
        skips;
      (* examine agrees with latest_valid, file by file. *)
      let verdicts = Persist.Checkpoint.examine dir in
      check_int "examine covers all three" 3 (List.length verdicts);
      let verdict_of p = List.assoc p verdicts in
      check_bool "intact verdict" true
        (match
           verdict_of (Filename.concat dir (Persist.Checkpoint.file_name ~steps:10))
         with
         | Persist.Checkpoint.Intact s -> s.Persist.Snapshot.steps = 10
         | Persist.Checkpoint.Rejected _ -> false);
      List.iter
        (fun p ->
          check_bool "debris verdict" true
            (match verdict_of p with
             | Persist.Checkpoint.Rejected r -> String.length r > 0
             | Persist.Checkpoint.Intact _ -> false))
        [ trunc; zero ];
      (* The human report mentions every file and its fate. *)
      let report = Persist.Checkpoint.report dir in
      List.iter
        (fun needle ->
          check_bool ("report mentions " ^ needle) true
            (contains ~needle report))
        [ Filename.basename trunc; Filename.basename zero; "intact";
          "rejected" ])

let test_report_empty_and_foreign () =
  with_tmpdir (fun dir ->
      check_bool "empty dir reported" true
        (contains ~needle:"empty" (Persist.Checkpoint.report dir));
      Out_channel.with_open_bin (Filename.concat dir "notes.txt") (fun oc ->
          Out_channel.output_string oc "hello");
      Out_channel.with_open_bin
        (Filename.concat dir "ckpt-000000005.swck.tmp") (fun _ -> ());
      let r = Persist.Checkpoint.report dir in
      List.iter
        (fun needle ->
          check_bool ("report mentions " ^ needle) true
            (contains ~needle r))
        [ "notes.txt"; "not a checkpoint"; "scratch" ])

let test_empty_dir_and_missing_dir () =
  with_tmpdir (fun dir ->
      check_bool "empty dir" true (Persist.Checkpoint.list dir = []);
      check_bool "empty dir latest" true
        (Option.is_none (Persist.Checkpoint.latest_valid dir)));
  let missing = "/nonexistent/persist-test" in
  check_bool "missing dir lists empty" true
    (Persist.Checkpoint.list missing = []);
  check_bool "missing dir latest" true
    (Option.is_none (Persist.Checkpoint.latest_valid missing))

(* ------------------------------------------------------------------ *)
(* Golden store                                                        *)
(* ------------------------------------------------------------------ *)

let test_golden_store () =
  with_tmpdir (fun root ->
      check_bool "no keys yet" true (Persist.Golden.keys ~root = []);
      check_bool "absent is None" true
        (Option.is_none (Persist.Golden.load ~root ~key:"nope"));
      let s = sample_snapshot () in
      let p = Persist.Golden.bless ~root ~key:"ref--pc--64" s in
      check_string "path shape"
        (Filename.concat root "ref--pc--64.swck") p;
      (match Persist.Golden.load ~root ~key:"ref--pc--64" with
       | Some got -> check_snapshot_equal s got
       | None -> Alcotest.fail "blessed snapshot not found");
      Alcotest.(check (list string)) "keys" [ "ref--pc--64" ]
        (Persist.Golden.keys ~root);
      (* A damaged golden must fail loudly, not pass silently. *)
      let bytes = read_file p in
      Out_channel.with_open_bin p (fun oc ->
          Out_channel.output_string oc (String.sub bytes 0 40));
      check_bool "corrupt golden raises" true
        (try ignore (Persist.Golden.load ~root ~key:"ref--pc--64"); false
         with Persist.Snapshot.Corrupt _ -> true);
      check_bool "key with slash rejected" true
        (try ignore (Persist.Golden.path ~root ~key:"a/b"); false
         with Invalid_argument _ -> true))

let () =
  Alcotest.run "persist"
    [ ( "crc32",
        [ Alcotest.test_case "known answer" `Quick test_crc_known_answer;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
          Alcotest.test_case "matches the bytewise reference" `Quick
            test_crc_matches_reference ] );
      ( "snapshot",
        [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_roundtrip_file;
          Alcotest.test_case "descriptor helpers" `Quick
            test_descriptor_helpers;
          Alcotest.test_case "encode rejects malformed" `Quick
            test_encode_rejects_malformed ] );
      ( "corruption",
        [ Alcotest.test_case "injection matrix" `Quick
            test_corruption_injection;
          Alcotest.test_case "diagnostics name the check" `Quick
            test_corrupt_message_names_the_check ] );
      ( "atomic",
        [ Alcotest.test_case "crash safety" `Quick
            test_atomic_write_crash_safety ] );
      ( "checkpoint",
        [ Alcotest.test_case "naming" `Quick test_checkpoint_naming;
          Alcotest.test_case "save/list/retain" `Quick
            test_checkpoint_save_list_retain;
          Alcotest.test_case "latest_valid skips corrupt" `Quick
            test_latest_valid_skips_corrupt;
          Alcotest.test_case "crashed-writer debris (zero-byte, truncated)"
            `Quick test_latest_valid_crashed_writer_debris;
          Alcotest.test_case "report covers empty and foreign files" `Quick
            test_report_empty_and_foreign;
          Alcotest.test_case "empty and missing dirs" `Quick
            test_empty_dir_and_missing_dir ] );
      ( "golden",
        [ Alcotest.test_case "store" `Quick test_golden_store ] ) ]
