(* Tests for lib/analysis: vector clocks always; the model checker's
   exploration, pruning and pinned counterexample schedules only when
   Vatomic is instrumented (dune runtest --profile analysis) — under
   the default profile interleavings cannot be controlled, so those
   cases skip rather than pretend to check anything. *)

module Mc = Analysis.Mc
module Scenarios = Analysis.Scenarios
module Vclock = Analysis.Vclock
module V = Prelude.Vatomic

(* ---- vector clocks --------------------------------------------- *)

let test_vclock_basics () =
  let a = Vclock.make 3 in
  let b = Vclock.make 3 in
  Alcotest.(check bool) "zero leq zero" true (Vclock.leq a b);
  Alcotest.(check bool) "equal" true (Vclock.compare a b = Vclock.Equal);
  Vclock.tick a 0;
  Vclock.tick a 0;
  Vclock.tick a 2;
  Alcotest.(check int) "tick" 2 (Vclock.get a 0);
  Alcotest.(check bool) "b before a" true (Vclock.compare b a = Vclock.Before);
  Alcotest.(check bool) "a after b" true (Vclock.compare a b = Vclock.After);
  Vclock.tick b 1;
  Alcotest.(check bool) "concurrent" true (Vclock.compare a b = Vclock.Concurrent);
  let c = Vclock.copy a in
  Vclock.join ~into:c b;
  Alcotest.(check bool) "join dominates a" true (Vclock.leq a c);
  Alcotest.(check bool) "join dominates b" true (Vclock.leq b c);
  Alcotest.(check int) "join componentwise" 2 (Vclock.get c 0);
  Alcotest.(check int) "join componentwise" 1 (Vclock.get c 1);
  (* join is the least upper bound: nothing below both dominates *)
  Vclock.set c 2 0;
  Alcotest.(check bool) "dropped component breaks leq" false (Vclock.leq a c)

let test_vclock_join_idempotent () =
  let a = Vclock.make 4 in
  Vclock.tick a 1;
  Vclock.tick a 3;
  let c = Vclock.copy a in
  Vclock.join ~into:c a;
  Alcotest.(check bool) "join idempotent" true
    (Vclock.compare a c = Vclock.Equal)

(* ---- model checker (instrumented builds only) ------------------- *)

let requires_instrumented f () =
  if V.instrumented then f ()
  else Alcotest.skip ()

(* Tiny synthetic scenarios for targeted checker properties. *)

let independent_ops =
  (* two processes touching disjoint locations: every interleaving is
     equivalent, so sleep sets should collapse the space to ~1 run *)
  {
    Mc.name = "test-independent";
    nprocs = 2;
    instantiate =
      (fun () ->
        let a = V.make 0 and b = V.make 0 in
        let body p =
          let c = if p = 0 then a else b in
          V.incr c;
          V.incr c;
          V.incr c
        in
        let finish () = assert (V.get a = 3 && V.get b = 3) in
        (body, finish));
  }

let spinlock_pingpong =
  (* two processes contending on a CAS spinlock: terminates only if
     futile respins are treated as blocking rather than explored *)
  {
    Mc.name = "test-spinlock";
    nprocs = 2;
    instantiate =
      (fun () ->
        let m = V.make 0 and count = V.make 0 in
        let body _ =
          for _ = 1 to 2 do
            while not (V.compare_and_set m 0 1) do
              ()
            done;
            V.incr count;
            V.set m 0
          done
        in
        let finish () = assert (V.get count = 4) in
        (body, finish));
  }

let test_exhaustive_safe () =
  List.iter
    (fun s ->
      let o = Mc.explore s in
      (match o.Mc.violation with
      | None -> ()
      | Some v ->
        Alcotest.failf "%s (sleep sets): %s [%s]" s.Mc.name v.Mc.message v.Mc.schedule);
      Alcotest.(check bool)
        (s.Mc.name ^ " explored to completion") false o.Mc.stats.capped;
      let o = Mc.explore ~preemption_bound:2 s in
      match o.Mc.violation with
      | None -> ()
      | Some v ->
        Alcotest.failf "%s (bound 2): %s [%s]" s.Mc.name v.Mc.message v.Mc.schedule)
    Scenarios.safe

let test_buggy_found () =
  let expected_kind name =
    match name with
    | "lifecycle-buggy-activate" -> Mc.Assertion
    | "park-wake-buggy-lost-wakeup" -> Mc.Deadlock
    | "protected-batch-buggy-early-bump" -> Mc.Assertion
    | "plain-race-buggy" -> Mc.Race
    | "comp-ownership-buggy-eager" -> Mc.Race
    | "fail-park-buggy-no-recheck" -> Mc.Deadlock
    | "ring-publish-buggy-early-cursor" -> Mc.Race
    | n -> Alcotest.failf "unexpected buggy scenario %s" n
  in
  List.iter
    (fun s ->
      match (Mc.explore s).Mc.violation with
      | None -> Alcotest.failf "%s: checker missed the planted bug" s.Mc.name
      | Some v ->
        Alcotest.(check bool)
          (s.Mc.name ^ " violation kind")
          true
          (v.Mc.vkind = expected_kind s.Mc.name))
    Scenarios.buggy

(* Counterexample schedules pinned from a known-good checker build:
   replaying them must reproduce the same violation kind on the same
   schedule. If one of these starts diverging, either the scenario or
   the scheduler semantics changed — both are worth a close look. *)
let pinned =
  [
    ("lifecycle-buggy-activate", "001111110000000", Mc.Assertion);
    ("park-wake-buggy-lost-wakeup", "111000001111", Mc.Deadlock);
    ("protected-batch-buggy-early-bump", "00111", Mc.Assertion);
    ("plain-race-buggy", "001", Mc.Race);
    ("comp-ownership-buggy-eager", "000011", Mc.Race);
    ("fail-park-buggy-no-recheck", "100000111111", Mc.Deadlock);
    ("ring-publish-buggy-early-cursor", "0011", Mc.Race);
  ]

let test_pinned_replays () =
  List.iter
    (fun (name, schedule, kind) ->
      match Mc.replay (Scenarios.find name) schedule with
      | None -> Alcotest.failf "%s: pinned schedule %s no longer violates" name schedule
      | Some v ->
        Alcotest.(check bool) (name ^ " kind") true (v.Mc.vkind = kind);
        Alcotest.(check string) (name ^ " schedule") schedule v.Mc.schedule)
    pinned

let test_replay_roundtrip () =
  (* whatever schedule explore reports must replay to the same
     violation — the seed+schedule pair is the reproducer we print *)
  List.iter
    (fun s ->
      match (Mc.explore s).Mc.violation with
      | None -> Alcotest.failf "%s: no violation to round-trip" s.Mc.name
      | Some v -> (
        match Mc.replay s v.Mc.schedule with
        | None -> Alcotest.failf "%s: schedule %s did not replay" s.Mc.name v.Mc.schedule
        | Some v' ->
          Alcotest.(check bool) (s.Mc.name ^ " same kind") true (v.Mc.vkind = v'.Mc.vkind);
          Alcotest.(check string) (s.Mc.name ^ " same schedule") v.Mc.schedule v'.Mc.schedule))
    Scenarios.buggy

let test_replay_divergence () =
  (* an impossible schedule must be reported, not silently accepted *)
  match Mc.replay (Scenarios.find "lifecycle") "0000000" with
  | Some { Mc.vkind = Mc.Replay_divergence; _ } -> ()
  | Some v ->
    Alcotest.failf "expected divergence, got %s"
      (Format.asprintf "%a" Mc.pp_violation_kind v.Mc.vkind)
  | None -> Alcotest.fail "expected divergence, replay came back clean"

let test_sleep_set_pruning () =
  (* disjoint-location processes: unreduced bound-99 exploration walks
     many interleavings, sleep sets collapse them to a single trace *)
  let reduced = Mc.explore independent_ops in
  let unreduced = Mc.explore ~preemption_bound:99 independent_ops in
  Alcotest.(check (option string)) "reduced clean" None
    (Option.map (fun v -> v.Mc.message) reduced.Mc.violation);
  Alcotest.(check (option string)) "unreduced clean" None
    (Option.map (fun v -> v.Mc.message) unreduced.Mc.violation);
  let r = reduced.Mc.stats.executions + reduced.Mc.stats.cut_sleep in
  Alcotest.(check bool)
    (Printf.sprintf "pruning works (%d reduced vs %d unreduced runs)" r
       unreduced.Mc.stats.executions)
    true
    (r < unreduced.Mc.stats.executions && unreduced.Mc.stats.executions >= 20)

let test_spin_futility () =
  (* must terminate without tripping the step budget, and explore more
     than the trivial schedule *)
  let o = Mc.explore spinlock_pingpong in
  (match o.Mc.violation with
  | None -> ()
  | Some v -> Alcotest.failf "spinlock: %s [%s]" v.Mc.message v.Mc.schedule);
  Alcotest.(check bool) "several interleavings" true (o.Mc.stats.executions > 1)

let test_random_walk_deterministic () =
  let s = Scenarios.find "park-wake-buggy-lost-wakeup" in
  let o1 = Mc.random_walk ~seed:42 ~walks:300 s in
  let o2 = Mc.random_walk ~seed:42 ~walks:300 s in
  let sched o =
    match o.Mc.violation with Some v -> Some v.Mc.schedule | None -> None
  in
  Alcotest.(check (option string)) "same seed, same outcome" (sched o1) (sched o2)

let () =
  Alcotest.run "analysis"
    [
      ( "vclock",
        [
          Alcotest.test_case "basics" `Quick test_vclock_basics;
          Alcotest.test_case "join idempotent" `Quick test_vclock_join_idempotent;
        ] );
      ( "model-checker",
        [
          Alcotest.test_case "safe scenarios exhaustively clean" `Quick
            (requires_instrumented test_exhaustive_safe);
          Alcotest.test_case "planted bugs found" `Quick
            (requires_instrumented test_buggy_found);
          Alcotest.test_case "pinned counterexample replays" `Quick
            (requires_instrumented test_pinned_replays);
          Alcotest.test_case "explore/replay round trip" `Quick
            (requires_instrumented test_replay_roundtrip);
          Alcotest.test_case "replay divergence detected" `Quick
            (requires_instrumented test_replay_divergence);
          Alcotest.test_case "sleep-set pruning" `Quick
            (requires_instrumented test_sleep_set_pruning);
          Alcotest.test_case "spin futility" `Quick
            (requires_instrumented test_spin_futility);
          Alcotest.test_case "random walk deterministic" `Quick
            (requires_instrumented test_random_walk_deterministic);
        ] );
    ]
