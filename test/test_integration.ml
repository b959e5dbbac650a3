(* End-to-end tests through the Incr_sched facade: Datalog programs to
   schedules, the paper's workload shapes, and cross-layer consistency. *)

let test case name f = Alcotest.test_case name case f

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ---------- facade basics ---------- *)

let facade_schedule_and_validate () =
  let trace = Workload.Pathological.tight_example ~levels:8 in
  List.iter
    (fun sched ->
      let m = Incr_sched.schedule ~procs:4 ~validate:true ~sched trace in
      check_bool "positive makespan" true (m.Simulator.Metrics.makespan > 0.0))
    [ "levelbased"; "lbl:4"; "logicblox"; "signal"; "hybrid" ]

let facade_unknown_scheduler () =
  let trace = Workload.Pathological.deep_chain ~n:3 in
  Alcotest.check_raises "unknown" (Invalid_argument "unknown scheduler \"wat\"")
    (fun () -> ignore (Incr_sched.schedule ~sched:"wat" trace))

let facade_compare_defaults () =
  let trace = Workload.Pathological.deep_chain ~n:20 in
  let results = Incr_sched.compare ~procs:4 trace in
  check_int "four schedulers" 4 (List.length results);
  List.iter
    (fun m ->
      check_int "all executed" 20 m.Simulator.Metrics.tasks_executed)
    results

let facade_trace_io () =
  let trace = Workload.Pathological.broom ~spine:5 ~fan:3 in
  let tmp = Filename.temp_file "trace" ".txt" in
  Workload.Trace_io.to_file tmp trace;
  let trace' = Incr_sched.trace_of_file tmp in
  Sys.remove tmp;
  check_int "same nodes" 8 (Dag.Graph.node_count trace'.Workload.Trace.graph)

(* ---------- Datalog session ---------- *)

let session_end_to_end () =
  let session =
    Incr_sched.materialize
      {|
        edge("a","b"). edge("b","c"). edge("c","d").
        path(X,Y) :- edge(X,Y).
        path(X,Z) :- path(X,Y), edge(Y,Z).
      |}
  in
  check_int "paths" 6 (List.length (Incr_sched.query session "path"));
  let tt =
    Incr_sched.update session ~additions:[ {|edge("d","e")|} ] ~deletions:[]
  in
  check_int "paths after extension" 10 (List.length (Incr_sched.query session "path"));
  let trace = tt.Datalog.To_trace.trace in
  List.iter
    (fun sched ->
      let m = Incr_sched.schedule ~procs:2 ~validate:true ~sched trace in
      check_int "both components run" 2 m.Simulator.Metrics.tasks_executed)
    [ "levelbased"; "logicblox"; "hybrid"; "signal" ]

let session_query_missing_pred () =
  let session = Incr_sched.materialize {|edge("a","b").|} in
  check_int "missing pred is empty" 0 (List.length (Incr_sched.query session "nope"))

let session_syntax_error () =
  match Incr_sched.materialize "p(X) :-" with
  | exception Datalog.Parser.Error _ -> ()
  | _ -> Alcotest.fail "expected parser error"

let session_unstratifiable () =
  match Incr_sched.materialize "e(\"x\"). p(X) :- e(X), !p(X)." with
  | exception Datalog.Stratify.Unstratifiable _ -> ()
  | _ -> Alcotest.fail "expected Unstratifiable"

(* The whole pipeline preserves semantics: schedule order never affects
   the final database (the single-execution model's point). *)
(* [update] keeps one prepared session per configuration: a stream
   that switches strategy and sanitizer between updates, and back,
   still ends where a from-scratch materialization of the final facts
   does. *)
let update_switches_sessions () =
  let rules =
    {|anc(X,Y) :- parent(X,Y).
      anc(X,Z) :- anc(X,Y), parent(Y,Z).
      leaf(X) :- isnode(X), !haskid(X).
      haskid(X) :- parent(X,Y).
      isnode(X) :- parent(X,Y).
      isnode(Y) :- parent(X,Y).|}
  in
  let s = Incr_sched.materialize ({|parent("r","a"). parent("a","b").|} ^ rules) in
  let steps =
    [
      (Datalog.Incremental.Dred, false, [ {|parent("b","c")|} ], []);
      (Datalog.Incremental.Dred, false, [ {|parent("c","d")|} ], [ {|parent("r","a")|} ]);
      (Datalog.Incremental.Counting, true, [ {|parent("r","a")|} ], [ {|parent("a","b")|} ]);
      (Datalog.Incremental.Dred, false, [ {|parent("a","b")|} ], [ {|parent("c","d")|} ]);
    ]
  in
  List.iter
    (fun (maint, sanitize, additions, deletions) ->
      ignore (Incr_sched.update ~maint ~sanitize s ~additions ~deletions))
    steps;
  let fresh =
    Incr_sched.materialize
      ({|parent("r","a"). parent("a","b"). parent("b","c").|} ^ rules)
  in
  List.iter
    (fun pred ->
      check_bool ("same " ^ pred) true
        (Incr_sched.query s pred = Incr_sched.query fresh pred))
    [ "anc"; "leaf"; "isnode" ]

let update_then_requery_consistency () =
  let mk () =
    Incr_sched.materialize
      {|
        parent("r","a"). parent("r","b"). parent("a","c").
        anc(X,Y) :- parent(X,Y).
        anc(X,Z) :- anc(X,Y), parent(Y,Z).
        leaf(X) :- isnode(X), !haskid(X).
        haskid(X) :- parent(X,Y).
        isnode(X) :- parent(X,Y).
        isnode(Y) :- parent(X,Y).
      |}
  in
  let s1 = mk () in
  let _ =
    Incr_sched.update s1 ~additions:[ {|parent("c","d")|} ]
      ~deletions:[ {|parent("r","b")|} ]
  in
  let s2 =
    Incr_sched.materialize
      {|
        parent("r","a"). parent("a","c"). parent("c","d").
        anc(X,Y) :- parent(X,Y).
        anc(X,Z) :- anc(X,Y), parent(Y,Z).
        leaf(X) :- isnode(X), !haskid(X).
        haskid(X) :- parent(X,Y).
        isnode(X) :- parent(X,Y).
        isnode(Y) :- parent(X,Y).
      |}
  in
  check_bool "same anc" true
    (Incr_sched.query s1 "anc" = Incr_sched.query s2 "anc");
  check_bool "same leaves" true
    (Incr_sched.query s1 "leaf" = Incr_sched.query s2 "leaf")

(* ---------- paper trace #5: Table II shape ---------- *)

let paper_trace5_shapes () =
  let trace = Workload.Paper_traces.generate 5 in
  let procs = Workload.Paper_traces.processors in
  let m name = Incr_sched.schedule ~procs ~sched:name trace in
  let lb = m "levelbased" in
  let lbx = m "logicblox" in
  let lbl20 = m "lbl:20" in
  (* Table II ordering: LevelBased >= LBL(20) >= LogicBlox-ish *)
  check_bool "LB worst" true
    (lb.Simulator.Metrics.makespan >= lbl20.Simulator.Metrics.makespan -. 1e-6);
  check_bool "LBL within 2x of LogicBlox" true
    (lbl20.Simulator.Metrics.makespan <= 2.0 *. lbx.Simulator.Metrics.makespan);
  (* every scheduler executes the same active set *)
  check_int "same tasks" lb.Simulator.Metrics.tasks_executed
    lbx.Simulator.Metrics.tasks_executed;
  (* LevelBased memory is O(V); LogicBlox carries the interval lists *)
  check_bool "memory ordering" true
    (lb.Simulator.Metrics.memory_words < lbx.Simulator.Metrics.memory_words)

let paper_trace5_hybrid_overhead () =
  let trace = Workload.Paper_traces.generate 5 in
  let procs = Workload.Paper_traces.processors in
  let h = Incr_sched.schedule ~procs ~sched:"hybrid" trace in
  let lbx = Incr_sched.schedule ~procs ~sched:"logicblox" trace in
  (* Table III: hybrid overhead <= LogicBlox overhead (with slack) *)
  check_bool "hybrid overhead no worse" true
    (h.Simulator.Metrics.sched_overhead
    <= (1.1 *. lbx.Simulator.Metrics.sched_overhead) +. 1e-6)

(* ---------- clairvoyant as a reference ---------- *)

let clairvoyant_reference () =
  let trace = Workload.Paper_traces.generate 5 in
  let opt = Incr_sched.clairvoyant ~procs:8 trace in
  let lb = Incr_sched.schedule ~procs:8 ~sched:"levelbased" trace in
  check_bool "clairvoyant at most LB here" true
    (opt.Simulator.Metrics.makespan <= lb.Simulator.Metrics.makespan +. 1e-6)

(* ---------- meta over the facade ---------- *)

let meta_on_paper_trace () =
  let trace = Workload.Paper_traces.generate 5 in
  let r =
    Simulator.Meta.run
      ~config:{ Simulator.Engine.procs = 8; op_cost = 1e-7; record_log = false }
      ~budget_words:(1 lsl 30) ~a:Sched.Logicblox.factory trace
  in
  check_bool "ran both arms" true (r.Simulator.Meta.a_metrics <> None);
  check_bool "makespan positive" true (r.Simulator.Meta.makespan > 0.0)

let () =
  Alcotest.run "integration"
    [
      ( "facade",
        [
          test `Quick "schedule and validate" facade_schedule_and_validate;
          test `Quick "unknown scheduler" facade_unknown_scheduler;
          test `Quick "compare defaults" facade_compare_defaults;
          test `Quick "trace file round trip" facade_trace_io;
        ] );
      ( "datalog-session",
        [
          test `Quick "materialize, update, schedule" session_end_to_end;
          test `Quick "missing predicate" session_query_missing_pred;
          test `Quick "syntax errors surface" session_syntax_error;
          test `Quick "unstratifiable programs surface" session_unstratifiable;
          test `Quick "incremental equals rebuild" update_then_requery_consistency;
          test `Quick "sessions follow the configuration" update_switches_sessions;
        ] );
      ( "paper-shapes",
        [
          test `Slow "trace #5 Table II ordering" paper_trace5_shapes;
          test `Slow "trace #5 hybrid overhead" paper_trace5_hybrid_overhead;
          test `Slow "clairvoyant reference" clairvoyant_reference;
          test `Slow "meta scheduler" meta_on_paper_trace;
        ] );
    ]
