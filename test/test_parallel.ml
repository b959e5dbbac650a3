(* Multicore executor tests. The container may expose a single core, so
   these check protocol correctness (coverage, single execution,
   precedence on real timestamps, deadlock detection) rather than
   wall-clock speedup. *)

let test case name f = Alcotest.test_case name case f

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let run_checked ?(domains = 3) ?(work_unit = 5e-5) trace factory =
  let r = Parallel.Executor.run ~domains ~work_unit ~sched:factory trace in
  (match Parallel.Executor.check trace r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid parallel schedule: %s" factory.Sched.Intf.fname e);
  r

let all_schedulers_valid () =
  let trace = Workload.Pathological.unit_layers ~width:10 ~layers:6 ~fanout:2 ~seed:11 in
  List.iter
    (fun factory ->
      let r = run_checked trace factory in
      check_int
        (Printf.sprintf "%s executes the active set" factory.Sched.Intf.fname)
        60 r.Parallel.Executor.tasks_executed)
    [
      Sched.Level_based.factory;
      Sched.Lookahead.factory ~k:3;
      Sched.Logicblox.factory;
      Sched.Signal.factory;
      Sched.Hybrid.factory;
    ]

let partial_activation_respected () =
  (* chain whose second half never activates *)
  let graph = Dag.Graph.of_edges ~nodes:6 [| (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) |] in
  let trace =
    Workload.Trace.create ~name:"half" ~graph
      ~kind:(Array.make 6 Workload.Trace.Task)
      ~shape:(Array.make 6 Workload.Trace.Unit)
      ~initial:[| 0 |]
      ~edge_changed:[| true; true; false; true; true |]
  in
  let r = run_checked trace Sched.Hybrid.factory in
  check_int "stops at the dead edge" 3 r.Parallel.Executor.tasks_executed;
  check_int "activations counted" 3 r.Parallel.Executor.tasks_activated

let precedence_on_wallclock () =
  let trace = Workload.Pathological.tight_example ~levels:8 in
  let r = run_checked ~domains:4 trace Sched.Level_based.factory in
  (* sanity beyond [check]: the j-chain must appear in order *)
  let finish = Array.make 64 0.0 in
  Array.iter
    (fun e -> finish.(e.Parallel.Executor.task) <- e.Parallel.Executor.finish)
    r.Parallel.Executor.log;
  Array.iter
    (fun (e : Parallel.Executor.task_record) ->
      if e.task >= 1 && e.task < 8 then
        check_bool "chain ordered" true (e.start >= finish.(e.task - 1) -. 1e-6))
    r.Parallel.Executor.log

let deadlock_detected () =
  let lazy_factory =
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
  in
  let trace = Workload.Pathological.deep_chain ~n:3 in
  match Parallel.Executor.run ~domains:2 ~sched:lazy_factory trace with
  | exception Failure msg ->
    check_bool "mentions the stall" true
      (String.length msg > 0
      && String.sub msg 0 8 = "Executor")
  | _ -> Alcotest.fail "expected a deadlock failure"

let work_accounting () =
  let graph = Dag.Graph.empty 3 in
  let trace =
    Workload.Trace.create ~name:"w" ~graph
      ~kind:(Array.make 3 Workload.Trace.Task)
      ~shape:[| Workload.Trace.Seq 2.0; Seq 3.0; Seq 4.0 |]
      ~initial:[| 0; 1; 2 |] ~edge_changed:[||]
  in
  let r = run_checked trace Sched.Level_based.factory in
  Alcotest.(check (float 1e-9)) "work executed" 9.0 r.Parallel.Executor.work_executed;
  check_bool "wall at least the critical work" true
    (r.Parallel.Executor.wall_makespan >= 4.0 *. 5e-5 *. 0.5)

(* Randomized stress: traces spanning high fan-out, heavy-tailed work
   skew and pure zero-work dispatch, crossed with domains {1,2,4,8} and
   every scheduler. Every run must produce a valid schedule
   ([Executor.check]) and execute exactly the set it activated. Traces
   are kept small so the full matrix stays quick at [work_unit = 0]. *)

let stress_schedulers =
  [
    Sched.Level_based.factory;
    Sched.Lookahead.factory ~k:4;
    Sched.Logicblox.factory;
    Sched.Signal.factory;
    Sched.Hybrid.factory;
  ]

let stress_trace ~variant ~seed =
  match variant with
  | `Fanout ->
    (* wide layers, high out-degree: many simultaneous activations *)
    Workload.Pathological.unit_layers ~width:24 ~layers:8 ~fanout:6 ~seed
  | `Skewed ->
    (* heavy tail: most tasks near-unit, one in ten ~30x heavier *)
    let duration rng _u =
      if Prelude.Rng.bernoulli rng 0.1 then
        Workload.Trace.Seq (Prelude.Rng.uniform rng ~lo:10.0 ~hi:30.0)
      else Workload.Trace.Seq (0.1 +. Prelude.Rng.float rng)
    in
    Workload.Synthetic.generate ~duration ~name:"stress-skew"
      {
        Workload.Synthetic.nodes = 240;
        edges = 700;
        levels = 10;
        initial = 6;
        active_jobs = 150;
        descendants = None;
        task_fraction = 0.8;
        seed;
      }
  | `Zero ->
    (* pure dispatch: every task zero work, scheduler overhead only *)
    let duration _rng _u = Workload.Trace.Seq 0.0 in
    Workload.Synthetic.generate ~duration ~name:"stress-zero"
      {
        Workload.Synthetic.nodes = 200;
        edges = 520;
        levels = 8;
        initial = 5;
        active_jobs = 120;
        descendants = None;
        task_fraction = 1.0;
        seed;
      }

let stress_matrix () =
  List.iter
    (fun (vname, variant, seed) ->
      let trace = stress_trace ~variant ~seed in
      List.iter
        (fun domains ->
          List.iter
            (fun (factory : Sched.Intf.factory) ->
              let r =
                Parallel.Executor.run ~domains ~work_unit:0.0 ~sched:factory trace
              in
              (match Parallel.Executor.check trace r with
              | Ok () -> ()
              | Error e ->
                Alcotest.failf "%s/%s d=%d: invalid schedule: %s" vname
                  factory.Sched.Intf.fname domains e);
              check_int
                (Printf.sprintf "%s/%s d=%d executes what it activates" vname
                   factory.Sched.Intf.fname domains)
                r.Parallel.Executor.tasks_activated
                r.Parallel.Executor.tasks_executed)
            stress_schedulers)
        [ 1; 2; 4; 8 ])
    [ ("fanout", `Fanout, 42); ("skew", `Skewed, 43); ("zero", `Zero, 44) ]

let unsafe_release_detected () =
  (* A scheduler that violates the release protocol by handing every
     activated task out twice. The executor's claim CAS (the only
     Active->Running edge) must reject the second copy. *)
  let rogue_factory =
    {
      Sched.Intf.fname = "rogue";
      make =
        (fun _g ->
          let q = Queue.create () in
          {
            Sched.Intf.name = "rogue";
            on_activated =
              (fun u ->
                Queue.add u q;
                Queue.add u q);
            on_started = (fun _ -> ());
            on_completed = (fun _ -> ());
            next_ready = (fun () -> Queue.take_opt q);
            next_ready_into = None;
            ops = Sched.Intf.zero_ops ();
            memory_words = (fun () -> 0);
          });
    }
  in
  let contains_unsafely msg =
    let n = String.length msg in
    let rec find i = i + 8 <= n && (String.sub msg i 8 = "unsafely" || find (i + 1)) in
    find 0
  in
  let trace = Workload.Pathological.unit_layers ~width:6 ~layers:3 ~fanout:2 ~seed:5 in
  match Parallel.Executor.run ~domains:2 ~work_unit:0.0 ~sched:rogue_factory trace with
  | exception Failure msg ->
    check_bool "reports the unsafe release" true (contains_unsafely msg)
  | _ -> Alcotest.fail "expected the executor to reject the rogue scheduler"

(* ---- run_task: arbitrary task bodies on the executor ---- *)

let run_task_bodies_execute_once () =
  (* every activated task's closure runs exactly once, and a body sees
     its predecessors' writes (precedence = happens-before) *)
  let n = 32 in
  let graph = Dag.Graph.of_edges ~nodes:n (Array.init (n - 1) (fun i -> (i, i + 1))) in
  let trace =
    Workload.Trace.create ~name:"closure-chain" ~graph
      ~kind:(Array.make n Workload.Trace.Task)
      ~shape:(Array.make n (Workload.Trace.Seq 1.0))
      ~initial:[| 0 |]
      ~edge_changed:(Array.make (n - 1) true)
  in
  let hits = Array.make n 0 in
  let prefix = Array.make n (-1) in
  let run_task ~wid:_ u =
    hits.(u) <- hits.(u) + 1;
    prefix.(u) <- (if u = 0 then 0 else prefix.(u - 1) + 1)
  in
  let r =
    Parallel.Executor.run ~domains:4 ~work_unit:0.0 ~run_task
      ~sched:Sched.Level_based.factory trace
  in
  (match Parallel.Executor.check trace r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid schedule: %s" e);
  check_int "all tasks executed" n r.Parallel.Executor.tasks_executed;
  Array.iteri (fun u h -> check_int (Printf.sprintf "task %d ran once" u) 1 h) hits;
  (* the chained prefix is only correct if each body observed the
     previous body's write before running *)
  Array.iteri (fun u p -> check_int (Printf.sprintf "prefix at %d" u) u p) prefix

(* One refill can hand a whole level to one worker; the tasks it has
   not started must stay in its ring for the idle peer to steal. Four
   independent bodies each wait (at most 1 s) for a second body to be
   running beside them: one that sees it proves two tasks of the level
   overlapped. A worker that drained its ring privately would run all
   four alone, each timing out. *)
let run_task_level_overlaps () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  let graph = Dag.Graph.of_edges ~nodes:4 [||] in
  let trace =
    Workload.Trace.create ~name:"independent-4" ~graph
      ~kind:(Array.make 4 Workload.Trace.Task)
      ~shape:(Array.make 4 Workload.Trace.Unit)
      ~initial:[| 0; 1; 2; 3 |] ~edge_changed:[||]
  in
  let running = Atomic.make 0 in
  let overlapped = Atomic.make false in
  let run_task ~wid:_ _ =
    Atomic.incr running;
    let deadline = Prelude.Mclock.now () +. 1.0 in
    while Atomic.get running < 2 && Prelude.Mclock.now () < deadline do
      Domain.cpu_relax ()
    done;
    if Atomic.get running >= 2 then Atomic.set overlapped true;
    Atomic.decr running
  in
  let r =
    Parallel.Executor.run ~domains:2 ~work_unit:0.0 ~run_task
      ~sched:Sched.Level_based.factory trace
  in
  check_int "all tasks executed" 4 r.Parallel.Executor.tasks_executed;
  check_bool "two bodies of one level ran at once" true (Atomic.get overlapped)

let run_task_failure_propagates () =
  let trace = Workload.Pathological.deep_chain ~n:4 in
  let run_task ~wid:_ u = if u = 2 then failwith "boom" in
  match
    Parallel.Executor.run ~domains:2 ~work_unit:0.0 ~run_task
      ~sched:Sched.Level_based.factory trace
  with
  | exception Failure msg ->
    let mentions s msg =
      let n = String.length msg and m = String.length s in
      let rec find i = i + m <= n && (String.sub msg i m = s || find (i + 1)) in
      find 0
    in
    check_bool "names the task" true (mentions "task 2" msg);
    check_bool "carries the exception" true (mentions "boom" msg)
  | _ -> Alcotest.fail "expected the body's exception to surface as Failure"

(* ---- frozen relations under concurrent domain reads ---- *)

(* Regression for the lazy-index hazard: two domains probing a frozen
   relation concurrently. Both the pre-built path (Relation.prepare)
   and the racing-builders path (no prepare; both domains trigger the
   index build and publish atomically) must serve exactly the right
   buckets. Under tsan/an unsound index publication this test is the
   one that trips. *)
let frozen_relation_concurrent_reads () =
  let n = 400 in
  let check_reads ~prepared () =
    let r = Datalog.Relation.create ~arity:2 in
    for i = 0 to n - 1 do
      ignore (Datalog.Relation.add r [| i mod 20; i |])
    done;
    if prepared then Datalog.Relation.prepare ~cols:[ 0 ] r;
    let hammer () =
      let total = ref 0 in
      for _ = 1 to 200 do
        for v = 0 to 19 do
          Datalog.Relation.iter_matching r ~col:0 ~value:v (fun _ -> incr total)
        done
      done;
      !total
    in
    let d1 = Domain.spawn hammer and d2 = Domain.spawn hammer in
    let t1 = Domain.join d1 and t2 = Domain.join d2 in
    check_int (Printf.sprintf "domain 1 (prepared=%b)" prepared) (200 * n) t1;
    check_int (Printf.sprintf "domain 2 (prepared=%b)" prepared) (200 * n) t2
  in
  check_reads ~prepared:true ();
  check_reads ~prepared:false ()

(* ---- tiny 2-domain maintenance parity, riding `make test` ---- *)

let parallel_maintenance_smoke () =
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
  let serial = load () and par = load () in
  let _ =
    Datalog.Incremental.apply
      (Datalog.Incremental.prepare serial program)
      ~additions:adds ~deletions:dels
  in
  let _ =
    Datalog.Incremental.apply ~domains:2
      (Datalog.Incremental.prepare par program)
      ~additions:adds ~deletions:dels
  in
  match Datalog.Eval.databases_agree serial par with
  | Ok () -> ()
  | Error e -> Alcotest.failf "parallel maintenance diverged: %s" e

(* ---- long-lived worker domains ---- *)

(* Workers 1..d-1 of a run live on a pooled crew that later runs
   reuse: a failed run, a change of size, concurrent callers and
   maintenance tasks running on the crew must all leave the pool
   usable. *)

let valid_run ~domains what =
  let trace = Workload.Pathological.unit_layers ~width:12 ~layers:5 ~fanout:3 ~seed:9 in
  let r = run_checked ~domains ~work_unit:0.0 trace Sched.Level_based.factory in
  check_int what r.Parallel.Executor.tasks_activated r.Parallel.Executor.tasks_executed

(* Run [f] on a fresh domain and fail the test, instead of hanging the
   suite, if it has not returned within [seconds]. *)
let within ~seconds what f =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) f)
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get finished) then Alcotest.failf "%s: no result after %.0f s" what seconds;
  Domain.join d

let crew_survives_raising_runs () =
  List.iter
    (fun domains ->
      (* a raising task body *)
      let run_task ~wid:_ u = if u = 3 then failwith "boom" in
      (match
         Parallel.Executor.run ~domains ~work_unit:0.0 ~run_task
           ~sched:Sched.Level_based.factory (Workload.Pathological.deep_chain ~n:8)
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected the body's failure");
      valid_run ~domains (Printf.sprintf "d=%d after a raising body" domains);
      (* a raising scheduler: the worker itself raises, on any domain *)
      let raising =
        {
          Sched.Intf.fname = "raising";
          make =
            (fun g ->
              let inst = Sched.Level_based.factory.Sched.Intf.make g in
              {
                inst with
                Sched.Intf.on_completed =
                  (fun u -> if u = 3 then failwith "sched boom" else inst.on_completed u);
              });
        }
      in
      within ~seconds:30.0 "raising scheduler" (fun () ->
          match
            Parallel.Executor.run ~domains ~work_unit:0.0 ~sched:raising (Workload.Pathological.deep_chain ~n:8)
          with
          | exception Failure _ -> ()
          | _ -> Alcotest.fail "expected the scheduler's failure");
      valid_run ~domains (Printf.sprintf "d=%d after a raising scheduler" domains))
    [ 2; 4 ]

let crew_alternating_sizes () =
  for i = 1 to 10 do
    let domains = if i mod 2 = 0 then 4 else 2 in
    valid_run ~domains (Printf.sprintf "run %d on %d domains" i domains)
  done

(* Alcotest's reporter is not domain-safe (two domains printing an
   assertion at once can corrupt its formatter's queue), so the callers
   only collect their runs' outcomes and the checks run afterwards. *)
let concurrent_runs () =
  let caller () =
    List.init 5 (fun _ ->
        let trace =
          Workload.Pathological.unit_layers ~width:12 ~layers:5 ~fanout:3 ~seed:9
        in
        let r =
          Parallel.Executor.run ~domains:2 ~work_unit:0.0 ~sched:Sched.Level_based.factory
            trace
        in
        (Parallel.Executor.check trace r, r))
  in
  let outcomes = ref [] in
  within ~seconds:60.0 "two concurrent callers" (fun () ->
      let d1 = Domain.spawn caller and d2 = Domain.spawn caller in
      outcomes := Domain.join d1 @ Domain.join d2);
  List.iter
    (fun (valid, r) ->
      (match valid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "concurrent run: invalid parallel schedule: %s" e);
      check_int "concurrent run" r.Parallel.Executor.tasks_activated
        r.Parallel.Executor.tasks_executed)
    !outcomes

(* many independent closures: enough active component tasks that the
   update goes through the executor, not the serial walk *)
let wide_src =
  String.concat ""
    (List.init 10 (fun g ->
         Printf.sprintf
           "e%d(\"a\",\"b\"). e%d(\"b\",\"c\"). e%d(\"c\",\"d\").\n\
            p%d(X,Y) :- e%d(X,Y).\np%d(X,Z) :- p%d(X,Y), e%d(Y,Z).\n"
           g g g g g g g g))

let wide_adds = List.init 10 (fun g -> Datalog.Parser.parse_atom (Printf.sprintf {|e%d("d","a")|} g))

let wide_dels = List.init 10 (fun g -> Datalog.Parser.parse_atom (Printf.sprintf {|e%d("a","b")|} g))

let wide_load program =
  let db = Datalog.Database.create () in
  ignore (Datalog.Eval.run db program);
  db

let wide_update db program ~sanitize =
  ignore
    (Datalog.Incremental.apply ~domains:2 ~serial_threshold:1
       (Datalog.Incremental.prepare ~sanitize db program)
       ~additions:wide_adds ~deletions:wide_dels)

let wide_update_completes () =
  let program = Datalog.Parser.parse wide_src in
  let serial = wide_load program and par = wide_load program in
  ignore
    (Datalog.Incremental.apply
       (Datalog.Incremental.prepare serial program)
       ~additions:wide_adds ~deletions:wide_dels);
  within ~seconds:60.0 "apply ~domains:2" (fun () ->
      wide_update par program ~sanitize:false);
  match Datalog.Eval.databases_agree serial par with
  | Ok () -> ()
  | Error e -> Alcotest.failf "parallel maintenance diverged: %s" e

let sanitizer_tag_clean_between_runs () =
  let program = Datalog.Parser.parse wide_src in
  wide_update (wide_load program) program ~sanitize:true;
  (* every worker of the next run starts with no writer tag *)
  let tagged = Atomic.make 0 in
  let run_task ~wid:_ _ =
    if Datalog.Relation.Sanitize.writer () <> None then Atomic.incr tagged
  in
  ignore
    (Parallel.Executor.run ~domains:2 ~work_unit:0.0 ~run_task
       ~sched:Sched.Level_based.factory
       (Workload.Pathological.unit_layers ~width:12 ~layers:5 ~fanout:3 ~seed:9));
  check_int "no task saw a writer tag" 0 (Atomic.get tagged);
  check_bool "caller has no writer tag" true (Datalog.Relation.Sanitize.writer () = None)

let agrees_with_simulator_counts () =
  let trace = Workload.Pathological.broom ~spine:15 ~fan:20 in
  let r = run_checked trace Sched.Hybrid.factory in
  let sim =
    Simulator.Engine.run
      ~config:{ Simulator.Engine.procs = 3; op_cost = 0.0; record_log = false }
      ~sched:Sched.Hybrid.factory trace
  in
  check_int "same execution count"
    sim.Simulator.Engine.metrics.Simulator.Metrics.tasks_executed
    r.Parallel.Executor.tasks_executed

let () =
  Alcotest.run "parallel"
    [
      ( "executor",
        [
          test `Quick "all schedulers valid on real domains" all_schedulers_valid;
          test `Quick "partial activation respected" partial_activation_respected;
          test `Quick "precedence on wall clock" precedence_on_wallclock;
          test `Quick "deadlock detected" deadlock_detected;
          test `Quick "work accounting" work_accounting;
          test `Quick "agrees with the simulator" agrees_with_simulator_counts;
        ] );
      ( "run-task",
        [
          test `Quick "bodies execute once, ordered" run_task_bodies_execute_once;
          test `Quick "body failure propagates" run_task_failure_propagates;
          test `Quick "a level's tasks overlap on two domains" run_task_level_overlaps;
        ] );
      ( "maintenance",
        [
          test `Quick "frozen relation: concurrent reads" frozen_relation_concurrent_reads;
          test `Quick "2-domain maintenance parity" parallel_maintenance_smoke;
        ] );
      ( "crew",
        [
          test `Quick "raising runs leave the crew usable" crew_survives_raising_runs;
          test `Quick "runs alternate 2 and 4 domains" crew_alternating_sizes;
          test `Quick "two domains run at once" concurrent_runs;
          test `Quick "wide update on two domains completes" wide_update_completes;
          test `Quick "sanitizer tag clean between runs" sanitizer_tag_clean_between_runs;
        ] );
      ( "stress",
        [
          test `Quick "random traces x domains x schedulers" stress_matrix;
          test `Quick "unsafe release detected" unsafe_release_detected;
        ] );
    ]
