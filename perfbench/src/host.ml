(* Facts about the host and the source tree that every result records,
   so a number is never read apart from the machine it came from. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))

let trim_opt = function Some s -> Some (String.trim s) | None -> None

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> acc)
      nan (String.split_on_char '\n' s)

(* Sizes (bytes) of the unified/data caches of cpu0 by level. *)
let cache_bytes level =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Sys.readdir base with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc e ->
      let f name = trim_opt (read_file (Filename.concat (Filename.concat base e) name)) in
      match (f "level", f "type", f "size") with
      | Some l, Some ty, Some size
        when l = string_of_int level && ty <> "Instruction" ->
        (try Scanf.sscanf size "%dK" (fun k -> Some (k * 1024))
         with _ -> (try Scanf.sscanf size "%dM" (fun m -> Some (m * 1024 * 1024)) with _ -> acc))
      | _ -> acc)
    None entries

(* The checkout may not be a git repository; a digest of the sources
   identifies the code either way. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> None
  | Some head ->
    let head = String.trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      trim_opt (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
    else Some head

let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files p
             else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
                     || Filename.check_suffix n ".c"
             then [ p ]
             else [])
  in
  let all = List.sort compare (files "lib" @ files "perfbench/src") in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) all)))

let facts ~workload ~seed ~lanes ~working_set_bytes =
  let opt_int = function Some i -> Json.Int i | None -> Json.Null in
  let opt_str = function Some s -> Json.Str s | None -> Json.Null in
  Json.Obj
    [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("commit", opt_str (commit ()));
      ("source_digest", Json.Str (source_digest ()));
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("lanes", Json.Int lanes);
      ("working_set_bytes", Json.Int working_set_bytes);
      ("l2_bytes", opt_int (cache_bytes 2));
      ("l3_bytes", opt_int (cache_bytes 3)) ]
