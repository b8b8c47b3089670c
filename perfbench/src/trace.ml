(* Spans recorded around the benchmark's own calls into each layer.

   A span is (id, parent, layer, name, start, end) in monotonic
   wall-clock nanoseconds — the clock Parallel.Exec times its region
   buckets with, so spans and buckets subtract cleanly.  Spans stay in memory while the
   workload runs and are written once, at exit, as Chrome trace-event JSON (viewable offline
   in Perfetto or chrome://tracing).  When tracing is off [span] is a
   direct call, so the untraced run measures the program alone. *)

type span = {
  id : int;
  parent : int;  (** [0] at the root *)
  layer : string;
  name : string;
  start_ns : float;
  stop_ns : float;
}

type t = {
  enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let create ~enabled = { enabled; next = 1; stack = []; spans = [] }
let enabled t = t.enabled
let now_ns () = Parallel.Clock.now_ns ()
let parent t = match t.stack with p :: _ -> p | [] -> 0

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let span t ~layer name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent = parent t in
    t.stack <- id :: t.stack;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; layer; name; start_ns; stop_ns } :: t.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* A span whose interval was observed rather than wrapped (e.g. between
   two fleet events); it becomes a child of the innermost open span. *)
let record t ~layer name ~start_ns ~stop_ns =
  if t.enabled then
    t.spans <-
      { id = fresh_id t; parent = parent t; layer; name; start_ns; stop_ns }
      :: t.spans

let spans t = List.rev t.spans
let dur_ns s = s.stop_ns -. s.start_ns

(* Durations (ms) of every span with this name. *)
let durations_ms t name =
  List.filter_map
    (fun s -> if s.name = name then Some (dur_ns s /. 1e6) else None)
    (spans t)

(* Self time: a span's duration minus the part of it its children
   cover, summed per layer, in milliseconds.  Children of one span are
   sequential (the benchmark's calls do not overlap), so covered time
   is the sum of their durations. *)
let self_ms_by_layer t =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (dur_ns s
          +. Option.value ~default:0. (Hashtbl.find_opt child_ns s.parent)))
    t.spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt child_ns s.id) in
      let self = Float.max 0. (dur_ns s -. covered) in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer)))
    t.spans;
  Hashtbl.fold (fun layer ns acc -> (layer, ns /. 1e6) :: acc) by_layer []
  |> List.sort compare

let write_chrome t ~path ~process =
  match spans t with
  | [] -> ()
  | first :: _ as all ->
    let origin =
      List.fold_left (fun m s -> Float.min m s.start_ns) first.start_ns all
    in
    let event s =
      Json.Obj
        [ ("name", Json.Str s.name);
          ("cat", Json.Str s.layer);
          ("ph", Json.Str "X");
          ("ts", Json.Num ((s.start_ns -. origin) /. 1e3));
          ("dur", Json.Num (dur_ns s /. 1e3));
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
          ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]) ]
    in
    Persist.Atomic_write.write_string path
      (Json.to_string
         (Json.Obj
            [ ("traceEvents",
               Json.Arr
                 (Json.Obj
                    [ ("name", Json.Str "process_name");
                      ("ph", Json.Str "M");
                      ("pid", Json.Int 1);
                      ("args", Json.Obj [ ("name", Json.Str process) ]) ]
                 :: List.map event all));
              ("displayTimeUnit", Json.Str "ms") ]))
