(* Observability stack: ring accounting, Chrome export round trip,
   summary math, and maintenance parity with tracing on. *)

let test case name f = Alcotest.test_case name case f

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ---- ring ---- *)

let ring_capacity_rounds_up () =
  let r = Obs.Ring.create ~capacity:5 ~epoch:0.0 () in
  check_int "rounded to a power of two" 8 (Obs.Ring.capacity r)

let ring_wraparound_accounting () =
  let cap = 8 in
  let r = Obs.Ring.create ~capacity:cap ~epoch:0.0 () in
  let n = 20 in
  for i = 0 to n - 1 do
    Obs.Ring.emit_at r ~t_ns:(i * 100) ~kind:Obs.Event.task ~a:i ~b:(i * 100)
  done;
  check_int "written counts every emit" n (Obs.Ring.written r);
  check_int "length capped at capacity" cap (Obs.Ring.length r);
  check_int "dropped = written - retained" (n - cap) (Obs.Ring.dropped r);
  (* iter yields exactly the newest [cap] records, oldest first *)
  let seen = ref [] in
  Obs.Ring.iter r (fun ~kind:_ ~t_ns:_ ~a ~b:_ -> seen := a :: !seen);
  let got = List.rev !seen in
  let expected = List.init cap (fun i -> n - cap + i) in
  check_bool "oldest-retained to newest" true (got = expected);
  check_int "iter visits length records" cap (List.length got)

let ring_below_capacity_iterates_all () =
  let r = Obs.Ring.create ~capacity:16 ~epoch:0.0 () in
  for i = 0 to 4 do
    Obs.Ring.emit_at r ~t_ns:i ~kind:Obs.Event.wake ~a:i ~b:0
  done;
  check_int "no drops below capacity" 0 (Obs.Ring.dropped r);
  let count = ref 0 in
  Obs.Ring.iter r (fun ~kind:_ ~t_ns:_ ~a:_ ~b:_ -> incr count);
  check_int "iter sees every record" 5 !count

let null_ring_is_inert () =
  check_bool "disabled" false (Obs.Ring.enabled Obs.Ring.null);
  Obs.Ring.emit Obs.Ring.null ~kind:Obs.Event.task ~a:1 ~b:2;
  Obs.Ring.emit_at Obs.Ring.null ~t_ns:0 ~kind:Obs.Event.task ~a:1 ~b:2;
  check_int "emit on null records nothing" 0 (Obs.Ring.written Obs.Ring.null);
  let count = ref 0 in
  Obs.Ring.iter Obs.Ring.null (fun ~kind:_ ~t_ns:_ ~a:_ ~b:_ -> incr count);
  check_int "nothing to iterate" 0 !count

let trace_out_of_range_is_null () =
  let tr = Obs.Trace.create ~domains:2 () in
  check_bool "in range enabled" true (Obs.Ring.enabled (Obs.Trace.ring tr 1));
  check_bool "out of range -> null" false
    (Obs.Ring.enabled (Obs.Trace.ring tr 2));
  check_bool "negative -> null" false
    (Obs.Ring.enabled (Obs.Trace.ring tr (-1)));
  check_bool "disabled trace -> null" false
    (Obs.Ring.enabled (Obs.Trace.ring Obs.Trace.disabled 0))

(* ---- event conventions ---- *)

let event_names_round_trip () =
  for k = 0 to Obs.Event.count - 1 do
    match Obs.Event.of_name (Obs.Event.name k) with
    | Some k' -> check_int (Obs.Event.name k) k k'
    | None -> Alcotest.failf "kind %d does not round trip" k
  done;
  check_bool "unknown name" true (Obs.Event.of_name "nonsense" = None)

let sched_span_includes_wait () =
  check_int "sched span starts at acquire - wait" 700
    (Obs.Event.span_start_ns Obs.Event.sched_refill ~a:300 ~b:1000);
  check_int "plain span starts at b" 1000
    (Obs.Event.span_start_ns Obs.Event.task ~a:300 ~b:1000)

(* ---- summary ---- *)

let summary_math () =
  let ev wid kind t0 t1 arg =
    { Obs.Summary.wid; kind; t0_ns = t0; t1_ns = t1; arg }
  in
  let events =
    [
      (* worker 0: two tasks of 1000ns, one failed steal of 500ns *)
      ev 0 Obs.Event.task 0 1_000 7;
      ev 0 Obs.Event.steal 1_000 1_500 0;
      ev 0 Obs.Event.task 1_500 2_500 8;
      (* worker 1: a park of 2000ns and a wake instant *)
      ev 1 Obs.Event.park 0 2_000 0;
      ev 1 Obs.Event.wake 2_000 2_000 1;
    ]
  in
  let s = Obs.Summary.of_events ~domains:2 events in
  let w0 = s.Obs.Summary.workers.(0) and w1 = s.Obs.Summary.workers.(1) in
  check_int "w0 tasks" 2 w0.Obs.Summary.tasks;
  check_int "w0 steal attempts" 1 w0.Obs.Summary.steal_attempts;
  check_int "w0 stolen" 0 w0.Obs.Summary.stolen;
  check_int "w1 wakes" 1 w1.Obs.Summary.wakes;
  let close what a b = Alcotest.(check (float 1e-12)) what a b in
  close "w0 busy" 2e-6 w0.Obs.Summary.busy_s;
  close "w0 steal time" 5e-7 w0.Obs.Summary.steal_s;
  close "w1 park" 2e-6 w1.Obs.Summary.park_s;
  close "makespan first-start to last-end" 2.5e-6 s.Obs.Summary.makespan_s;
  close "w0 idle = makespan - busy - steal" 0.0 w0.Obs.Summary.idle_s;
  close "utilization = busy / (workers * makespan)"
    (2e-6 /. (2.0 *. 2.5e-6))
    s.Obs.Summary.utilization;
  check_int "event count" 5 s.Obs.Summary.events

let summary_counts_dred_phases () =
  let ev kind t0 t1 arg =
    { Obs.Summary.wid = 0; kind; t0_ns = t0; t1_ns = t1; arg }
  in
  let s =
    Obs.Summary.of_events ~domains:1
      [
        ev Obs.Event.dred_delete 0 100 3;
        ev Obs.Event.dred_rederive 100 400 3;
        ev Obs.Event.dred_insert 400 500 3;
      ]
  in
  let close what a b = Alcotest.(check (float 1e-15)) what a b in
  close "delete" 1e-7 s.Obs.Summary.dred_delete_s;
  close "rederive" 3e-7 s.Obs.Summary.dred_rederive_s;
  close "insert" 1e-7 s.Obs.Summary.dred_insert_s;
  (* no executor tasks ran: DRed time is the serial-path busy fallback *)
  close "busy falls back to dred time" 5e-7 s.Obs.Summary.busy_s

(* Index healing: a counting delete whose suspect is proven through a
   witness at its own level re-levels it, and the summary folds the
   heal instant into [cnt_healed], its JSON and its text. path(a,x) is
   first derived at level 1 through path(a,b); deleting b->x leaves
   only the derivation through path(a,d), also at level 1, so a probe
   proves it and the healing pass raises it to level 2. *)
let counting_heal_is_traced () =
  let program =
    Datalog.Parser.parse
      "edge(\"a\",\"b\"). edge(\"b\",\"x\"). edge(\"a\",\"c\"). \
       edge(\"c\",\"d\"). edge(\"d\",\"x\").\n\
       path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n"
  in
  let db = Datalog.Database.create () in
  let _ = Datalog.Eval.run db program in
  ignore (Datalog.Incremental.prime db program);
  let obs = Obs.Trace.create ~domains:1 () in
  let _ =
    Datalog.Incremental.apply ~obs
      (Datalog.Incremental.prepare ~maint:Datalog.Incremental.Counting db program)
      ~additions:[] ~deletions:[ Datalog.Parser.parse_atom {|edge("b","x")|} ]
  in
  check_bool "path(a,x) survives" true
    (Datalog.Database.mem_fact db (Datalog.Parser.parse_atom {|path("a","x")|}));
  let s = Obs.Summary.of_trace obs in
  check_int "one full probe" 1 s.Obs.Summary.cnt_full_probes;
  check_int "one tuple re-leveled" 1 s.Obs.Summary.cnt_healed;
  (match Obs.Json.member "cnt" (Obs.Summary.json s) with
  | Some cnt ->
    check_bool "json healed" true (Obs.Json.member "healed" cnt = Some (Obs.Json.int 1))
  | None -> Alcotest.fail "summary json has no cnt object");
  let text = Format.asprintf "%a" Obs.Summary.pp s in
  let line = "Counting index healing: 1 tuples re-leveled" in
  check_bool "text names the healing" true
    (List.exists
       (fun i -> String.sub text i (String.length line) = line)
       (List.init (String.length text - String.length line + 1) Fun.id));
  (* instants from several components add up *)
  let ev a =
    { Obs.Summary.wid = 0; kind = Obs.Event.cnt_heal; t0_ns = 5; t1_ns = 5; arg = a }
  in
  check_int "heal instants fold" 5
    (Obs.Summary.of_events ~domains:1 [ ev 2; ev 3 ]).Obs.Summary.cnt_healed

(* ---- json parser ---- *)

let json_parses_and_rejects () =
  let open Obs.Json in
  (match parse {|{"a": [1, 2.5, -3e2], "b": "x\nA", "c": [true, null]}|} with
  | Object kvs ->
    check_int "three members" 3 (List.length kvs);
    (match List.assoc "b" kvs with
    | String s -> check_bool "escapes decoded" true (s = "x\nA")
    | _ -> Alcotest.fail "b should be a string")
  | _ -> Alcotest.fail "expected an object");
  let rejects s =
    match parse s with
    | exception Parse_error _ -> ()
    | _ -> Alcotest.failf "parser accepted %S" s
  in
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\": NaN}";
  rejects "[1] trailing"

(* printer: every value the generator makes reads back equal; strings
   draw from all 256 byte values, numbers from finite floats and small
   and large integers *)
let json_gen =
  let open QCheck.Gen in
  let number =
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        map float_of_int (int_range (-1000) 1000);
        map float_of_int (int_range (-(1 lsl 60)) (1 lsl 60));
      ]
  in
  let bytes = string_size ~gen:char (0 -- 12) in
  sized
    (fix (fun self n ->
         let leaf =
           oneof
             [
               return Obs.Json.Null;
               map (fun b -> Obs.Json.Bool b) bool;
               map (fun f -> Obs.Json.Number f) number;
               map (fun s -> Obs.Json.String s) bytes;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Obs.Json.Array l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Obs.Json.Object l)
                   (list_size (0 -- 4) (pair bytes (self (n / 4)))) );
             ]))

let json_print_round_trip =
  QCheck.Test.make ~name:"parse (to_string j) = j" ~count:500
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun j -> Obs.Json.parse (Obs.Json.to_string j) = j)

let json_print_rejects_non_finite () =
  List.iter
    (fun f ->
      match Obs.Json.to_string (Obs.Json.Number f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "printed %h as %s" f s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---- executor with tracing + chrome export round trip ---- *)

let traced_executor_run () =
  let trace = Workload.Pathological.unit_layers ~width:8 ~layers:4 ~fanout:2 ~seed:7 in
  let obs = Obs.Trace.create ~domains:2 () in
  let r =
    Parallel.Executor.run ~domains:2 ~work_unit:1e-6 ~obs
      ~sched:Sched.Level_based.factory trace
  in
  check_bool "events were recorded" true (Obs.Trace.written obs > 0);
  let s = Obs.Summary.of_trace obs in
  let tasks =
    Array.fold_left
      (fun acc (w : Obs.Summary.worker) -> acc + w.Obs.Summary.tasks)
      0 s.Obs.Summary.workers
  in
  check_int "one task span per executed task" r.Parallel.Executor.tasks_executed
    tasks;
  check_bool "makespan positive" true (s.Obs.Summary.makespan_s > 0.0);
  (* chrome export -> strict parse -> normalized events round trip *)
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.to_file ~task_label:string_of_int path obs;
      let json = Obs.Json.of_file path in
      let events = Obs.Export.events_of_json json in
      check_int "every retained record survives the round trip"
        (Obs.Trace.written obs - Obs.Trace.dropped obs)
        (List.length events);
      let s' = Obs.Export.summary_of_json json in
      check_int "re-read summary sees the same events" s.Obs.Summary.events
        s'.Obs.Summary.events;
      let tasks' =
        Array.fold_left
          (fun acc (w : Obs.Summary.worker) -> acc + w.Obs.Summary.tasks)
          0 s'.Obs.Summary.workers
      in
      check_int "re-read summary sees the same tasks" tasks tasks')

(* Timestamps survive the µs export exactly: 1001 ns prints as 1.001 µs,
   which reads back as 1000.9999... ns and must round, not truncate. *)
let export_rounds_to_ns () =
  let obs = Obs.Trace.create ~domains:1 () in
  let r = Obs.Trace.ring obs 0 in
  let spans = [ (1001, 2003); (2002, 5005); (1023, 1023) ] in
  List.iter
    (fun (t0, t1) -> Obs.Ring.emit_at r ~t_ns:t1 ~kind:Obs.Event.task ~a:0 ~b:t0)
    spans;
  Obs.Ring.emit_at r ~t_ns:3007 ~kind:Obs.Event.wake ~a:1 ~b:0;
  let path = Filename.temp_file "obs_round" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.to_file path obs;
      let events = Obs.Export.events_of_json (Obs.Json.of_file path) in
      let got =
        List.map (fun (e : Obs.Summary.event) -> (e.t0_ns, e.t1_ns)) events
      in
      Alcotest.(check (list (pair int int)))
        "span and instant stamps in ns" (spans @ [ (3007, 3007) ]) got)

(* ---- maintenance parity with tracing on ---- *)

let maintenance_unchanged_by_tracing () =
  let src =
    "edge(\"a\",\"b\"). edge(\"b\",\"c\"). edge(\"c\",\"d\"). edge(\"d\",\"e\").\n\
     path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n\
     node(X) :- edge(X,Y).\nnode(Y) :- edge(X,Y).\n\
     unreach(X,Y) :- node(X), node(Y), !path(X,Y), X != Y.\n"
  in
  let program = Datalog.Parser.parse src in
  let load () =
    let db = Datalog.Database.create () in
    let _ = Datalog.Eval.run ~engine:Datalog.Plan.Compiled db program in
    db
  in
  let adds = [ Datalog.Parser.parse_atom {|edge("e","a")|} ] in
  let dels = [ Datalog.Parser.parse_atom {|edge("b","c")|} ] in
  let reference = load () in
  let _ =
    Datalog.Incremental.apply
      (Datalog.Incremental.prepare reference program)
      ~additions:adds ~deletions:dels
  in
  List.iter
    (fun domains ->
      let obs = Obs.Trace.create ~domains:(max 1 domains) () in
      let db = load () in
      let _ =
        Datalog.Incremental.apply ~domains ~obs
          (Datalog.Incremental.prepare db program)
          ~additions:adds ~deletions:dels
      in
      (match Datalog.Eval.databases_agree reference db with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "tracing changed maintenance at domains=%d: %s" domains e);
      check_bool
        (Printf.sprintf "dred spans recorded at domains=%d" domains)
        true
        (Obs.Trace.written obs > 0))
    [ 1; 2; 4 ]

(* Phase spans follow activation: a serial update over two derived
   components records one delete / rederive / insert span for the
   component whose input changed and none for the other. *)
let phase_spans_follow_activation () =
  let program =
    Datalog.Parser.parse
      "e(\"a\",\"b\"). e(\"b\",\"c\"). f(\"x\",\"y\").\n\
       p(X,Y) :- e(X,Y).\np(X,Z) :- p(X,Y), e(Y,Z).\nq(X,Y) :- f(X,Y).\n"
  in
  let db = Datalog.Database.create () in
  let _ = Datalog.Eval.run db program in
  let obs = Obs.Trace.create ~domains:2 () in
  let r =
    Datalog.Incremental.apply ~obs (Datalog.Incremental.prepare db program)
      ~additions:[ Datalog.Parser.parse_atom {|e("c","d")|} ]
      ~deletions:[ Datalog.Parser.parse_atom {|e("a","b")|} ]
  in
  let anal = r.Datalog.Incremental.analysis in
  let comp_of pred =
    let cond = anal.Datalog.Stratify.condensation in
    cond.Dag.Scc.component.(Hashtbl.find anal.Datalog.Stratify.index_of pred)
  in
  (* spans of [kind] on any ring, for component [a] *)
  let count kind a =
    let n = ref 0 in
    for w = 0 to Obs.Trace.domains obs - 1 do
      Obs.Ring.iter (Obs.Trace.ring obs w) (fun ~kind:k ~t_ns:_ ~a:a' ~b:_ ->
          if k = kind && a' = a then incr n)
    done;
    !n
  in
  let p = comp_of "p" and q = comp_of "q" in
  List.iter
    (fun (name, kind) ->
      check_int (name ^ " span of the changed component") 1 (count kind p);
      check_int (name ^ " span of the unchanged component") 0 (count kind q))
    [
      ("delete", Obs.Event.dred_delete);
      ("rederive", Obs.Event.dred_rederive);
      ("insert", Obs.Event.dred_insert);
    ]

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          test `Quick "capacity rounds up" ring_capacity_rounds_up;
          test `Quick "wraparound accounting" ring_wraparound_accounting;
          test `Quick "below capacity" ring_below_capacity_iterates_all;
          test `Quick "null ring inert" null_ring_is_inert;
          test `Quick "trace out of range" trace_out_of_range_is_null;
        ] );
      ( "events",
        [
          test `Quick "names round trip" event_names_round_trip;
          test `Quick "sched span includes wait" sched_span_includes_wait;
        ] );
      ( "summary",
        [
          test `Quick "per-worker math" summary_math;
          test `Quick "dred phase totals" summary_counts_dred_phases;
          test `Quick "counting heal traced" counting_heal_is_traced;
        ] );
      ( "json",
        [
          test `Quick "parses and rejects" json_parses_and_rejects;
          QCheck_alcotest.to_alcotest json_print_round_trip;
          test `Quick "printer rejects non-finite" json_print_rejects_non_finite;
        ] );
      ( "export",
        [ test `Quick "traced run round trips" traced_executor_run;
          test `Quick "export rounds to the nearest ns" export_rounds_to_ns ] );
      ( "maintenance",
        [
          test `Quick "parity under tracing" maintenance_unchanged_by_tracing;
          test `Quick "phase spans follow activation" phase_spans_follow_activation;
        ] );
    ]
