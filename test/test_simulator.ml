(* Simulation engine tests: virtual-time semantics, task-shape
   expansion, overhead charging, failure detection, schedule validation,
   the meta-scheduler, and the paper's makespan bounds (Lemmas 3 and 5)
   as properties. *)

let test case name f = Alcotest.test_case name case f

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_float = Alcotest.(check (float 1e-9))

let cfg ?(procs = 2) ?(op_cost = 0.0) ?(record_log = true) () =
  { Simulator.Engine.procs; op_cost; record_log }

let unit_trace ~nodes ~edges ~initial ~changed =
  let graph = Dag.Graph.of_edges ~nodes edges in
  Workload.Trace.create ~name:"t" ~graph
    ~kind:(Array.make nodes Workload.Trace.Task)
    ~shape:(Array.make nodes Workload.Trace.Unit)
    ~initial ~edge_changed:changed

let lb = Sched.Level_based.factory

(* ---------- basic virtual-time semantics ---------- *)

let serial_chain () =
  let t = Workload.Pathological.deep_chain ~n:5 in
  let r = Simulator.Engine.run ~config:(cfg ~procs:4 ()) ~sched:lb t in
  check_float "chain is serial regardless of procs" 5.0
    r.Simulator.Engine.metrics.Simulator.Metrics.makespan;
  check_int "executed" 5 r.Simulator.Engine.metrics.Simulator.Metrics.tasks_executed

let parallel_sources () =
  (* 4 independent dirty sources, 2 procs: two waves *)
  let t =
    unit_trace ~nodes:4 ~edges:[||] ~initial:[| 0; 1; 2; 3 |] ~changed:[||]
  in
  let r = Simulator.Engine.run ~config:(cfg ~procs:2 ()) ~sched:lb t in
  check_float "two waves" 2.0 r.Simulator.Engine.metrics.Simulator.Metrics.makespan;
  let r4 = Simulator.Engine.run ~config:(cfg ~procs:4 ()) ~sched:lb t in
  check_float "one wave with 4 procs" 1.0
    r4.Simulator.Engine.metrics.Simulator.Metrics.makespan

let activation_stops_at_unchanged_edge () =
  let t =
    unit_trace ~nodes:3
      ~edges:[| (0, 1); (1, 2) |]
      ~initial:[| 0 |]
      ~changed:[| true; false |]
  in
  let r = Simulator.Engine.run ~config:(cfg ()) ~sched:lb t in
  check_int "only 0 and 1 run" 2 r.Simulator.Engine.metrics.Simulator.Metrics.tasks_executed

let predicate_nodes_are_free () =
  let graph = Dag.Graph.of_edges ~nodes:3 [| (0, 1); (1, 2) |] in
  let t =
    Workload.Trace.create ~name:"pred" ~graph
      ~kind:[| Workload.Trace.Task; Predicate; Task |]
      ~shape:[| Workload.Trace.Seq 1.0; Seq 99.0; Seq 1.0 |]
      ~initial:[| 0 |]
      ~edge_changed:[| true; true |]
  in
  let r = Simulator.Engine.run ~config:(cfg ()) ~sched:lb t in
  check_float "predicate shape ignored" 2.0
    r.Simulator.Engine.metrics.Simulator.Metrics.makespan

(* ---------- task shapes ---------- *)

let par_task_uses_processors () =
  let graph = Dag.Graph.empty 1 in
  let t =
    Workload.Trace.create ~name:"par" ~graph ~kind:[| Workload.Trace.Task |]
      ~shape:[| Workload.Trace.Par 8.0 |]
      ~initial:[| 0 |] ~edge_changed:[||]
  in
  let r1 = Simulator.Engine.run ~config:(cfg ~procs:1 ()) ~sched:lb t in
  check_float "serial" 8.0 r1.Simulator.Engine.metrics.Simulator.Metrics.makespan;
  let r8 = Simulator.Engine.run ~config:(cfg ~procs:8 ()) ~sched:lb t in
  check_float "fully parallel" 1.0 r8.Simulator.Engine.metrics.Simulator.Metrics.makespan;
  check_float "same total work" 8.0
    r8.Simulator.Engine.metrics.Simulator.Metrics.total_work

let stages_respect_barriers () =
  let graph = Dag.Graph.empty 1 in
  let t =
    Workload.Trace.create ~name:"stages" ~graph ~kind:[| Workload.Trace.Task |]
      ~shape:[| Workload.Trace.Stages { width = 4; length = 3; chip = 1.0 } |]
      ~initial:[| 0 |] ~edge_changed:[||]
  in
  (* with 2 procs: each stage is 4 chips / 2 procs = 2 units; 3 stages *)
  let r = Simulator.Engine.run ~config:(cfg ~procs:2 ()) ~sched:lb t in
  check_float "stage barriers" 6.0 r.Simulator.Engine.metrics.Simulator.Metrics.makespan;
  (* with 8 procs: each stage 1 unit *)
  let r8 = Simulator.Engine.run ~config:(cfg ~procs:8 ()) ~sched:lb t in
  check_float "span with many procs" 3.0
    r8.Simulator.Engine.metrics.Simulator.Metrics.makespan

let zero_work_par () =
  let graph = Dag.Graph.empty 1 in
  let t =
    Workload.Trace.create ~name:"z" ~graph ~kind:[| Workload.Trace.Task |]
      ~shape:[| Workload.Trace.Par 0.0 |]
      ~initial:[| 0 |] ~edge_changed:[||]
  in
  let r = Simulator.Engine.run ~config:(cfg ()) ~sched:lb t in
  check_float "instant" 0.0 r.Simulator.Engine.metrics.Simulator.Metrics.makespan

(* ---------- overhead charging ---------- *)

let op_cost_scales_overhead () =
  let t = Workload.Pathological.deep_chain ~n:50 in
  let cheap = Simulator.Engine.run ~config:(cfg ~op_cost:1e-6 ()) ~sched:lb t in
  let pricey = Simulator.Engine.run ~config:(cfg ~op_cost:1e-3 ()) ~sched:lb t in
  let oc = cheap.Simulator.Engine.metrics.Simulator.Metrics.sched_overhead in
  let op = pricey.Simulator.Engine.metrics.Simulator.Metrics.sched_overhead in
  check_bool "overhead scales with op cost" true (op > 100.0 *. oc);
  check_bool "makespan includes overhead" true
    (pricey.Simulator.Engine.metrics.Simulator.Metrics.makespan
    >= pricey.Simulator.Engine.metrics.Simulator.Metrics.exec_time)

let free_scheduling_zero_overhead () =
  let t = Workload.Pathological.deep_chain ~n:10 in
  let r = Simulator.Engine.run ~config:(cfg ~op_cost:0.0 ()) ~sched:lb t in
  check_float "no overhead at zero op cost" 0.0
    r.Simulator.Engine.metrics.Simulator.Metrics.sched_overhead

(* ---------- failure detection ---------- *)

let lazy_scheduler : Sched.Intf.factory =
  {
    Sched.Intf.fname = "lazy";
    make =
      (fun _g ->
        {
          Sched.Intf.name = "lazy";
          on_activated = (fun _ -> ());
          on_started = (fun _ -> ());
          on_completed = (fun _ -> ());
          next_ready = (fun () -> None);
          next_ready_into = None;
          ops = Sched.Intf.zero_ops ();
          memory_words = (fun () -> 0);
        })
  }

let deadlock_detected () =
  let t = Workload.Pathological.deep_chain ~n:3 in
  match Simulator.Engine.run ~config:(cfg ()) ~sched:lazy_scheduler t with
  | exception Simulator.Engine.Deadlock { remaining; _ } ->
    check_int "remaining tasks" 1 remaining
  | _ -> Alcotest.fail "expected Deadlock"

let eager_scheduler : Sched.Intf.factory =
  (* returns node 1 immediately even though only node 0 is active *)
  {
    Sched.Intf.fname = "eager";
    make =
      (fun _g ->
        let served = ref false in
        {
          Sched.Intf.name = "eager";
          on_activated = (fun _ -> ());
          on_started = (fun _ -> ());
          on_completed = (fun _ -> ());
          next_ready =
            (fun () ->
              if !served then None
              else begin
                served := true;
                Some 1
              end);
          next_ready_into = None;
          ops = Sched.Intf.zero_ops ();
          memory_words = (fun () -> 0);
        })
  }

let premature_detected () =
  let t = Workload.Pathological.deep_chain ~n:3 in
  match Simulator.Engine.run ~config:(cfg ()) ~sched:eager_scheduler t with
  | exception Simulator.Engine.Premature u -> check_int "culprit" 1 u
  | _ -> Alcotest.fail "expected Premature"

let double_scheduler : Sched.Intf.factory =
  {
    Sched.Intf.fname = "double";
    make =
      (fun _g ->
        let count = ref 0 in
        {
          Sched.Intf.name = "double";
          on_activated = (fun _ -> ());
          on_started = (fun _ -> ());
          on_completed = (fun _ -> ());
          next_ready =
            (fun () ->
              incr count;
              if !count <= 2 then Some 0 else None);
          next_ready_into = None;
          ops = Sched.Intf.zero_ops ();
          memory_words = (fun () -> 0);
        })
  }

let double_start_detected () =
  (* node 0 takes long enough that the second (bogus) offer arrives
     while it is still running *)
  let graph = Dag.Graph.empty 2 in
  let t =
    Workload.Trace.create ~name:"dbl" ~graph
      ~kind:(Array.make 2 Workload.Trace.Task)
      ~shape:(Array.make 2 (Workload.Trace.Seq 5.0))
      ~initial:[| 0; 1 |] ~edge_changed:[||]
  in
  match Simulator.Engine.run ~config:(cfg ~procs:2 ()) ~sched:double_scheduler t with
  | exception Simulator.Engine.Double_start u -> check_int "culprit" 0 u
  | _ -> Alcotest.fail "expected Double_start"

(* ---------- validator ---------- *)

let validator_catches_violations () =
  let t =
    unit_trace ~nodes:3
      ~edges:[| (0, 1); (1, 2) |]
      ~initial:[| 0 |]
      ~changed:[| true; true |]
  in
  let ok =
    [|
      { Simulator.Engine.task = 0; start = 0.0; finish = 1.0 };
      { Simulator.Engine.task = 1; start = 1.0; finish = 2.0 };
      { Simulator.Engine.task = 2; start = 2.0; finish = 3.0 };
    |]
  in
  check_bool "valid log accepted" true (Simulator.Validate.check t ok = Ok ());
  let premature =
    [|
      { Simulator.Engine.task = 0; start = 0.0; finish = 1.0 };
      { Simulator.Engine.task = 1; start = 0.5; finish = 1.5 };
      { Simulator.Engine.task = 2; start = 2.0; finish = 3.0 };
    |]
  in
  check_bool "precedence violation caught" true
    (Result.is_error (Simulator.Validate.check t premature));
  let missing = [| { Simulator.Engine.task = 0; start = 0.0; finish = 1.0 } |] in
  check_bool "missing task caught" true
    (Result.is_error (Simulator.Validate.check t missing));
  let doubled = Array.append ok [| ok.(2) |] in
  check_bool "double execution caught" true
    (Result.is_error (Simulator.Validate.check t doubled));
  let foreign = Array.append ok [| { Simulator.Engine.task = 5; start = 0.; finish = 0. } |] in
  ignore foreign;
  let too_fast =
    [|
      { Simulator.Engine.task = 0; start = 0.0; finish = 0.1 };
      { Simulator.Engine.task = 1; start = 1.0; finish = 2.0 };
      { Simulator.Engine.task = 2; start = 2.0; finish = 3.0 };
    |]
  in
  check_bool "span violation caught" true
    (Result.is_error (Simulator.Validate.check t too_fast))

let validator_requires_log () =
  let t = Workload.Pathological.deep_chain ~n:2 in
  let r = Simulator.Engine.run ~config:(cfg ~record_log:false ()) ~sched:lb t in
  check_bool "no log error" true (Result.is_error (Simulator.Validate.check_run t r))

(* ---------- meta scheduler (Theorem 10) ---------- *)

let meta_abort_on_budget () =
  let t = Workload.Pathological.interval_blowup ~width:30 ~layers:3 ~density:0.5 ~seed:2 in
  let r =
    Simulator.Meta.run ~config:(cfg ~procs:4 ())
      ~budget_words:100 (* absurdly small: LogicBlox intervals never fit *)
      ~a:Sched.Logicblox.factory t
  in
  check_bool "aborted" true r.Simulator.Meta.a_aborted;
  check_bool "fell back to LevelBased" true
    (r.Simulator.Meta.winner = "LevelBased");
  check_bool "within budget story" true (r.Simulator.Meta.a_metrics = None)

let meta_min_behaviour () =
  let t = Workload.Pathological.tight_example ~levels:10 in
  let r =
    Simulator.Meta.run ~config:(cfg ~procs:8 ()) ~budget_words:max_int
      ~a:Sched.Logicblox.factory t
  in
  check_bool "not aborted" true (not r.Simulator.Meta.a_aborted);
  let ma = Option.get r.Simulator.Meta.a_metrics in
  let expected =
    Float.min ma.Simulator.Metrics.makespan
      r.Simulator.Meta.lb_metrics.Simulator.Metrics.makespan
  in
  check_float "makespan is the min" expected r.Simulator.Meta.makespan;
  (* Theorem 10: meta on P procs <= 2 * each full-width run *)
  let full =
    Simulator.Engine.run ~config:(cfg ~procs:8 ()) ~sched:Sched.Logicblox.factory t
  in
  check_bool "2-competitive vs A" true
    (r.Simulator.Meta.makespan
    <= (2.0 *. full.Simulator.Engine.metrics.Simulator.Metrics.makespan) +. 1e-9)

let meta_pp () =
  let t = Workload.Pathological.deep_chain ~n:4 in
  let r =
    Simulator.Meta.run ~config:(cfg ()) ~budget_words:max_int ~a:Sched.Signal.factory t
  in
  let s = Format.asprintf "%a" Simulator.Meta.pp_result r in
  check_bool "pp mentions winner" true (String.length s > 10)

(* ---------- makespan bounds (Lemmas 3 and 5) ---------- *)

let random_unit_trace_gen ~shape_of =
  QCheck.Gen.(
    2 -- 20 >>= fun n ->
    list_size (0 -- (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun pairs ->
    let edges =
      pairs
      |> List.filter_map (fun (a, b) ->
             if a < b then Some (a, b) else if b < a then Some (b, a) else None)
      |> List.sort_uniq compare
      |> Array.of_list
    in
    let graph = Dag.Graph.of_edges ~nodes:n edges in
    let sources = Dag.Graph.sources graph in
    Workload.Trace.create ~name:"bound" ~graph
      ~kind:(Array.make n Workload.Trace.Task)
      ~shape:(Array.init n shape_of) ~initial:sources
      ~edge_changed:(Array.make (Array.length edges) true))

let lemma3_unit_tasks =
  QCheck.Test.make ~name:"Lemma 3: unit tasks, LB makespan <= w/P + L" ~count:200
    (QCheck.make (random_unit_trace_gen ~shape_of:(fun _ -> Workload.Trace.Unit)))
    (fun t ->
      let procs = 2 in
      let r = Simulator.Engine.run ~config:(cfg ~procs ()) ~sched:lb t in
      let w = Workload.Trace.total_active_work t in
      let levels = (Workload.Trace.stats t).Workload.Trace.levels in
      r.Simulator.Engine.metrics.Simulator.Metrics.makespan
      <= (w /. float_of_int procs) +. float_of_int levels +. 1e-9)

let lemma5_fully_parallel =
  QCheck.Test.make
    ~name:"Lemma 5: fully parallelizable tasks, LB makespan <= w/P + sum(span)"
    ~count:200
    (QCheck.make
       (random_unit_trace_gen ~shape_of:(fun i ->
            Workload.Trace.Par (1.0 +. float_of_int (i mod 5)))))
    (fun t ->
      (* chips of a Par task have duration w/ceil(w) <= 1, so each level
         drains within one chip-length once processors free up; the
         bound takes the per-level max chip size as the level cost. *)
      let procs = 3 in
      let r = Simulator.Engine.run ~config:(cfg ~procs ()) ~sched:lb t in
      let w = Workload.Trace.total_active_work t in
      let levels = (Workload.Trace.stats t).Workload.Trace.levels in
      r.Simulator.Engine.metrics.Simulator.Metrics.makespan
      <= (w /. float_of_int procs) +. float_of_int levels +. 1e-9)

(* Lemma 7: arbitrary length and parallelism — the per-level span sum
   bound w/P + sum_i S_i, where S_i is the max task span at level i. *)
let lemma7_arbitrary_tasks =
  QCheck.Test.make ~name:"Lemma 7: arbitrary tasks, LB makespan <= w/P + sum(S_i)"
    ~count:150
    (QCheck.make
       (random_unit_trace_gen ~shape_of:(fun i ->
            Workload.Trace.Stages
              { width = 1 + (i mod 3); length = 1 + (i mod 4); chip = 1.0 })))
    (fun t ->
      let procs = 2 in
      let r = Simulator.Engine.run ~config:(cfg ~procs ()) ~sched:lb t in
      let w = Workload.Trace.total_active_work t in
      let levels = Workload.Trace.levels t in
      let nlevels = Dag.Levels.count levels in
      let span_at = Array.make (max nlevels 1) 0.0 in
      let active = Workload.Trace.active_set t in
      Prelude.Bitset.iter
        (fun u ->
          let s = Workload.Trace.shape_span t.Workload.Trace.shape.(u) in
          if s > span_at.(levels.(u)) then span_at.(levels.(u)) <- s)
        active;
      let sum_spans = Array.fold_left ( +. ) 0.0 span_at in
      r.Simulator.Engine.metrics.Simulator.Metrics.makespan
      <= (w /. float_of_int procs) +. sum_spans +. 1e-9)

let engine_deterministic =
  QCheck.Test.make ~name:"engine: identical reruns give identical makespans" ~count:60
    (QCheck.make (random_unit_trace_gen ~shape_of:(fun _ -> Workload.Trace.Unit)))
    (fun t ->
      let factories =
        [ lb; Sched.Logicblox.factory; Sched.Hybrid.factory; Sched.Signal.factory ]
      in
      List.for_all
        (fun f ->
          let m1 = (Simulator.Engine.run ~config:(cfg ()) ~sched:f t).Simulator.Engine.metrics in
          let m2 = (Simulator.Engine.run ~config:(cfg ()) ~sched:f t).Simulator.Engine.metrics in
          m1.Simulator.Metrics.makespan = m2.Simulator.Metrics.makespan
          && Sched.Intf.total_ops m1.Simulator.Metrics.ops
             = Sched.Intf.total_ops m2.Simulator.Metrics.ops)
        factories)

(* ---------- trace export ---------- *)

let export_wellformed () =
  let t = Workload.Pathological.tight_example ~levels:6 in
  let r = Simulator.Engine.run ~config:(cfg ~procs:4 ()) ~sched:lb t in
  let log = Option.get r.Simulator.Engine.log in
  let tmp = Filename.temp_file "sched" ".json" in
  Simulator.Trace_export.to_file tmp ~procs:4 log;
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  check_bool "json array" true
    (String.length contents > 2 && contents.[0] = '[');
  (* one event per executed task *)
  let count = ref 0 in
  String.iter (fun c -> if c = 'X' then incr count) contents;
  check_int "one event per task" (Array.length log) !count

(* labels with a quote, a control byte and UTF-8 must come back byte
   for byte: OCaml's %S escapes (\001, \195\169) are not JSON *)
let export_labels_round_trip () =
  let t = Workload.Pathological.deep_chain ~n:3 in
  let r = Simulator.Engine.run ~config:(cfg ()) ~sched:lb t in
  let log = Option.get r.Simulator.Engine.log in
  let label i = Printf.sprintf "t%d \"q\" \001 \xc3\xa9" i in
  let tmp = Filename.temp_file "sched" ".json" in
  Simulator.Trace_export.to_file ~labels:label tmp ~procs:2 log;
  let j = Obs.Json.of_file tmp in
  Sys.remove tmp;
  let names =
    List.filter_map
      (fun e -> Option.bind (Obs.Json.member "name" e) Obs.Json.to_str)
      (Option.value (Obs.Json.to_list j) ~default:[])
  in
  let expected =
    List.sort compare (Array.to_list (Array.map (fun e -> label e.Simulator.Engine.task) log))
  in
  Alcotest.(check (list string)) "labels byte for byte" expected (List.sort compare names)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "simulator"
    [
      ( "engine",
        [
          test `Quick "serial chain" serial_chain;
          test `Quick "parallel sources" parallel_sources;
          test `Quick "activation stops at unchanged edges"
            activation_stops_at_unchanged_edge;
          test `Quick "predicate nodes are free" predicate_nodes_are_free;
        ] );
      ( "task-shapes",
        [
          test `Quick "par uses processors" par_task_uses_processors;
          test `Quick "stage barriers" stages_respect_barriers;
          test `Quick "zero-work par" zero_work_par;
        ] );
      ( "overhead",
        [
          test `Quick "op cost scales overhead" op_cost_scales_overhead;
          test `Quick "zero op cost, zero overhead" free_scheduling_zero_overhead;
        ] );
      ( "failures",
        [
          test `Quick "deadlock detected" deadlock_detected;
          test `Quick "premature execution detected" premature_detected;
          test `Quick "double start detected" double_start_detected;
        ] );
      ( "validator",
        [
          test `Quick "catches violations" validator_catches_violations;
          test `Quick "requires a log" validator_requires_log;
        ] );
      ( "meta",
        [
          test `Quick "aborts over budget" meta_abort_on_budget;
          test `Quick "min of both arms" meta_min_behaviour;
          test `Quick "printable" meta_pp;
        ] );
      ( "export",
        [
          test `Quick "chrome trace wellformed" export_wellformed;
          test `Quick "labels round trip" export_labels_round_trip;
        ] );
      ( "bounds",
        qsuite
          [
            lemma3_unit_tasks;
            lemma5_fully_parallel;
            lemma7_arbitrary_tasks;
            engine_deterministic;
          ] );
    ]
