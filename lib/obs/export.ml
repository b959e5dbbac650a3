(* Chrome trace_event writer (and reader, for [dms trace] and the
   round-trip tests). One pid, one tid per worker ring; spans as "X"
   complete events (ts + dur in microseconds), wakes as thread-scoped
   "i" instants, worker names as "M" metadata. The object form —
   {"traceEvents": [...], ...} — loads in chrome://tracing and
   Perfetto. The event kind always travels in "cat" and the payload in
   args.v, so a parsed file maps losslessly back onto ring records. *)

let us ns = Json.Number (float_of_int ns /. 1e3)

(* events go into the buffer one object at a time; only the frame
   around the traceEvents array is written by hand *)
let write ?task_label oc tr =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let first = ref true in
  let emit fields =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Json.to_buffer buf (Json.Object (("pid", Json.int 1) :: fields))
  in
  let meta name tid label =
    emit
      [ ("name", Json.String name); ("ph", Json.String "M"); ("tid", Json.int tid);
        ("args", Json.Object [ ("name", Json.String label) ]) ]
  in
  meta "process_name" 0 "incremental maintenance";
  let n = Trace.domains tr in
  for w = 0 to n - 1 do
    meta "thread_name" w ("worker " ^ string_of_int w)
  done;
  for w = 0 to n - 1 do
    Ring.iter (Trace.ring tr w) (fun ~kind ~t_ns ~a ~b ->
        let cat = Event.name kind in
        let args = ("args", Json.Object [ ("v", Json.int a) ]) in
        if Event.is_instant kind then
          emit
            [ ("name", Json.String cat); ("cat", Json.String cat); ("ph", Json.String "i");
              ("s", Json.String "t"); ("tid", Json.int w); ("ts", us t_ns); args ]
        else begin
          let t0 = Event.span_start_ns kind ~a ~b in
          let name =
            match task_label with
            | Some label when kind = Event.task -> label a
            | Some label when Event.is_dred kind || Event.is_cnt kind ->
              cat ^ " " ^ label a
            | _ -> cat
          in
          emit
            [ ("name", Json.String name); ("cat", Json.String cat); ("ph", Json.String "X");
              ("tid", Json.int w); ("ts", us t0); ("dur", us (max 0 (t_ns - t0))); args ]
        end)
  done;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\", \"otherData\": ";
  Json.to_buffer buf
    (Json.Object
       [ ("domains", Json.int n);
         ("dropped", Json.Array (List.init n (fun w -> Json.int (Ring.dropped (Trace.ring tr w))))) ]);
  Buffer.add_string buf "}\n";
  Buffer.output_buffer oc buf

let to_file ?task_label path tr =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write ?task_label oc tr)

(* ---- reading back ------------------------------------------------ *)

(* µs back to ns, to the nearest ns: a printed [ns / 1e3] reads back
   as the nearest float, which can sit just below the exact value
   (1001 ns comes back as 1000.9999...), so truncating would move a
   span 1 ns early *)
let ns_of_us us = Float.to_int (Float.round (us *. 1e3))

let events_of_json j =
  let evs =
    match Json.member "traceEvents" j with
    | Some (Json.Array l) -> l
    | _ -> raise (Json.Parse_error "no traceEvents array")
  in
  List.filter_map
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.to_str in
      let num k = Option.bind (Json.member k e) Json.to_float in
      let kind =
        match Option.bind (str "cat") Event.of_name with
        | Some k -> Some k
        | None -> Option.bind (str "name") Event.of_name
      in
      match (str "ph", kind, num "ts") with
      | Some "X", Some kind, Some ts ->
        let dur = Option.value (num "dur") ~default:0.0 in
        let wid =
          Option.value (Option.bind (Json.member "tid" e) Json.to_int) ~default:0
        in
        let arg =
          Option.value
            (Option.bind (Json.member "args" e) (fun a ->
                 Option.bind (Json.member "v" a) Json.to_int))
            ~default:0
        in
        let t0_ns = ns_of_us ts in
        Some
          {
            Summary.wid;
            kind;
            t0_ns;
            t1_ns = t0_ns + ns_of_us dur;
            arg;
          }
      | Some "i", Some kind, Some ts ->
        let wid =
          Option.value (Option.bind (Json.member "tid" e) Json.to_int) ~default:0
        in
        let arg =
          Option.value
            (Option.bind (Json.member "args" e) (fun a ->
                 Option.bind (Json.member "v" a) Json.to_int))
            ~default:0
        in
        let t = ns_of_us ts in
        Some { Summary.wid; kind; t0_ns = t; t1_ns = t; arg }
      | _ -> None)
    evs

let dropped_of_json j =
  match
    Option.bind (Json.member "otherData" j) (fun o ->
        Option.bind (Json.member "dropped" o) Json.to_list)
  with
  | Some l -> Some (Array.of_list (List.map (fun v -> Option.value (Json.to_int v) ~default:0) l))
  | None -> None

let summary_of_json j =
  let events = events_of_json j in
  let domains =
    List.fold_left (fun acc (e : Summary.event) -> max acc (e.Summary.wid + 1)) 1 events
  in
  Summary.of_events ~domains ?dropped:(dropped_of_json j) events
