(* Update-server stack: protocol parse/format round trips, repl error
   replies that keep the session alive, engine admission + epoch
   semantics, commit coalescing, and the snapshot-isolation guarantee
   (a reader on epoch N sees bit-identical results while epoch N+1's
   commit is mid-flight). *)

let test case name f = Alcotest.test_case name case f

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* ---- protocol ---- *)

let all_commands =
  [
    Server.Protocol.Insert "edge(\"a\", \"b\")";
    Server.Protocol.Remove "edge(\"a\", \"b\")";
    Server.Protocol.Commit;
    Server.Protocol.Query "path(\"a\", X)";
    Server.Protocol.Stats;
    Server.Protocol.Help;
    Server.Protocol.Quit;
  ]

let protocol_round_trip () =
  List.iter
    (fun cmd ->
      let line = Server.Protocol.format cmd in
      match Server.Protocol.parse line with
      | Ok cmd' -> check_bool ("round trip: " ^ line) true (cmd = cmd')
      | Error m -> Alcotest.failf "%s did not re-parse: %s" line m)
    all_commands

let protocol_trims_and_splits () =
  (match Server.Protocol.parse "   insert \t edge(\"a\",\"b\")  \r" with
  | Ok (Server.Protocol.Insert payload) ->
    check_string "payload trimmed" "edge(\"a\",\"b\")" payload
  | _ -> Alcotest.fail "surrounding whitespace should be ignored");
  match Server.Protocol.parse "  commit  " with
  | Ok Server.Protocol.Commit -> ()
  | _ -> Alcotest.fail "bare keyword with padding should parse"

let protocol_rejects () =
  let expect_err line =
    match Server.Protocol.parse line with
    | Error m ->
      check_bool
        (Printf.sprintf "%S error mentions nothing empty" line)
        true (m <> "")
    | Ok _ -> Alcotest.failf "%S should be rejected" line
  in
  expect_err "";
  expect_err "   ";
  expect_err "insert";
  expect_err "remove  ";
  expect_err "query";
  expect_err "commit edge(\"a\", \"b\")";
  expect_err "stats now";
  expect_err "quit please";
  expect_err "frobnicate everything";
  (* keywords are lowercase; anything else is unknown, not magic *)
  expect_err "INSERT edge(\"a\", \"b\")"

(* ---- engine fixture ---- *)

let tc_source =
  "edge(\"a\",\"b\"). edge(\"b\",\"c\"). edge(\"c\",\"d\").\n\
   path(X,Y) :- edge(X,Y).\n\
   path(X,Z) :- path(X,Y), edge(Y,Z).\n"

let make_engine ?maint ?(source = tc_source) () =
  Server.Engine.create ?maint (Incr_sched.materialize source)

let facts_of engine pattern =
  match Server.Engine.query engine pattern with
  | Ok (atoms, epoch) ->
    ( List.map (fun a -> Format.asprintf "%a" Datalog.Ast.pp_atom a) atoms,
      epoch )
  | Error m -> Alcotest.failf "query %s failed: %s" pattern m

(* ---- engine: admission ---- *)

let submit_validation () =
  let e = make_engine () in
  let expect_err what side text =
    match Server.Engine.submit e side text with
    | Error m -> check_bool (what ^ " reports a reason") true (m <> "")
    | Ok () -> Alcotest.failf "%s should be rejected" what
  in
  expect_err "syntax error" `Insert "edge(\"a\"";
  expect_err "non-ground fact" `Insert "edge(\"a\", X)";
  expect_err "derived head" `Insert "path(\"a\", \"z\")";
  expect_err "derived head removal" `Remove "path(\"a\", \"b\")";
  expect_err "arity mismatch" `Insert "edge(\"a\", \"b\", \"c\")";
  check_int "nothing was admitted" 0 (Server.Engine.pending_ops e);
  (* a brand-new predicate is a legal base relation *)
  check_bool "fresh predicate admitted" true
    (Server.Engine.submit e `Insert "label(\"a\", \"blue\")" = Ok ());
  check_int "one pending op" 1 (Server.Engine.pending_ops e)

let submit_last_wins () =
  let e = make_engine () in
  (* same fact, both sides: the later submit owns the batch slot *)
  check_bool "insert ok" true
    (Server.Engine.submit e `Insert "edge(\"c\", \"a\")" = Ok ());
  check_bool "remove same fact ok" true
    (Server.Engine.submit e `Remove "edge(\"c\", \"a\")" = Ok ());
  check_int "one slot, not two" 1 (Server.Engine.pending_ops e);
  (* spacing differences canonicalize to the same slot *)
  check_bool "respaced insert ok" true
    (Server.Engine.submit e `Insert "edge( \"c\" , \"a\" )" = Ok ());
  check_int "still one slot" 1 (Server.Engine.pending_ops e);
  let stats = Server.Engine.commit e in
  check_int "one commit" 1 (List.length stats);
  let s = List.hd stats in
  check_int "one op in the batch" 1 s.Server.Engine.ops;
  check_int "it is an addition (last submit won)" 1 s.Server.Engine.additions;
  let facts, _ = facts_of e "edge(\"c\", \"a\")" in
  check_int "fact landed" 1 (List.length facts)

(* ---- engine: epochs ---- *)

let commit_advances_epochs () =
  let e = make_engine () in
  check_int "starts at epoch 0" 0 (Server.Engine.epoch e);
  let initial, epoch0 = facts_of e "path(\"a\", X)" in
  check_int "queried epoch 0" 0 epoch0;
  check_int "a reaches b c d" 3 (List.length initial);
  ignore (Server.Engine.submit e `Insert "edge(\"d\", \"e\")");
  let stats = Server.Engine.commit e in
  check_int "one commit published" 1 (List.length stats);
  check_int "epoch 1" 1 (Server.Engine.epoch e);
  check_int "commit count" 1 (Server.Engine.commits e);
  let after, epoch1 = facts_of e "path(\"a\", X)" in
  check_int "queried epoch 1" 1 epoch1;
  check_int "a now reaches e too" 4 (List.length after);
  (* an empty batch still publishes an epoch *)
  let stats = Server.Engine.commit e in
  check_int "empty commit publishes" 1 (List.length stats);
  check_int "zero ops" 0 (List.hd stats).Server.Engine.ops;
  check_int "epoch 2" 2 (Server.Engine.epoch e)

let deletion_maintains () =
  let e = make_engine ~maint:Datalog.Incremental.Counting () in
  ignore (Server.Engine.submit e `Remove "edge(\"b\", \"c\")");
  let stats = Server.Engine.commit e in
  check_int "one deletion" 1 (List.hd stats).Server.Engine.deletions;
  let facts, _ = facts_of e "path(\"a\", X)" in
  check_string "only the direct edge survives" "path(\"a\", \"b\")"
    (String.concat " " facts)

(* A fact the program lists for a derived predicate survives the
   deletion of the base fact that also derives it, in the published
   snapshot, under both engines. *)
let listed_derived_fact_survives () =
  List.iter
    (fun maint ->
      let e =
        make_engine ~maint ~source:{|p(X,Y) :- e(X,Y). p("a","b"). e("a","b").|} ()
      in
      check_bool "remove admitted" true
        (Server.Engine.submit e `Remove {|e("a","b")|} = Ok ());
      ignore (Server.Engine.commit e);
      let facts, epoch = facts_of e "p(X,Y)" in
      check_int "published epoch 1" 1 epoch;
      check_string "the listed fact stays" {|p("a", "b")|} (String.concat " " facts);
      let base, _ = facts_of e "e(X,Y)" in
      check_int "the base fact is gone" 0 (List.length base))
    [ Datalog.Incremental.Dred; Datalog.Incremental.Counting ]

(* The snapshot queries read is a copy: counting commits keep their
   count cells in the live database's relations, and the published
   relations carry neither cells nor a count stamp. *)
let snapshot_has_no_cells () =
  let e = make_engine ~maint:Datalog.Incremental.Counting () in
  ignore (Server.Engine.submit e `Insert "edge(\"d\", \"e\")");
  ignore (Server.Engine.submit e `Remove "edge(\"a\", \"b\")");
  ignore (Server.Engine.commit e);
  let cells rel =
    let n = ref 0 in
    Datalog.Relation.counts_iter (fun _ _ -> incr n) rel;
    !n
  in
  let live = Option.get (Datalog.Database.find (Server.Engine.db e) "path") in
  check_bool "live path is counted" true (Datalog.Relation.counts_synced live <> None);
  check_int "a cell per live path tuple" (Datalog.Relation.cardinality live) (cells live);
  let snap = Option.get (Server.Engine.snapshot_relation e "path") in
  check_int "snapshot equals live" (Datalog.Relation.cardinality live)
    (Datalog.Relation.cardinality snap);
  check_bool "snapshot not counted" true (Datalog.Relation.counts_synced snap = None);
  check_int "snapshot has no cells" 0 (cells snap)

(* ---- engine: coalescing ---- *)

let async_coalesces () =
  let e = make_engine () in
  ignore (Server.Engine.submit e `Insert "edge(\"d\", \"e\")");
  (match Server.Engine.commit_async e with
  | `Started target -> check_int "first request starts epoch 1" 1 target
  | `Coalesced -> Alcotest.fail "nothing inflight yet: must start");
  (* ops queued while the background commit runs ride the follow-up *)
  ignore (Server.Engine.submit e `Insert "edge(\"e\", \"f\")");
  let second = Server.Engine.commit_async e in
  let third = Server.Engine.commit_async e in
  check_bool "second request coalesces" true (second = `Coalesced);
  check_bool "repeat request still coalesced" true (third = `Coalesced);
  let stats = Server.Engine.await e in
  check_int "two maintenance runs serve three requests" 2 (List.length stats);
  check_int "engine settled at epoch 2" 2 (Server.Engine.epoch e);
  check_bool "nothing inflight" false (Server.Engine.inflight e);
  let facts, epoch = facts_of e "path(\"a\", X)" in
  check_int "snapshot is epoch 2" 2 epoch;
  check_int "both inserts landed" 5 (List.length facts)

(* ---- engine: snapshot isolation ---- *)

(* The ISSUE's concurrency guarantee: a reader on epoch N sees
   bit-identical results while epoch N+1's commit is mid-flight.
   Publication only happens in drain/await/commit on the client
   thread, so between commit_async and await every query must serve
   the old frozen snapshot no matter how far the background domain
   has gotten with the live database. *)
let snapshot_isolation () =
  (* a wider graph so the background run is not instantaneous *)
  let buf = Buffer.create 4096 in
  for i = 0 to 120 do
    Buffer.add_string buf (Printf.sprintf "edge(\"v%d\",\"v%d\").\n" i (i + 1))
  done;
  Buffer.add_string buf "path(X,Y) :- edge(X,Y).\n";
  Buffer.add_string buf "path(X,Z) :- path(X,Y), edge(Y,Z).\n";
  let e = make_engine ~source:(Buffer.contents buf) () in
  let before, epoch_before = facts_of e "path(\"v0\", X)" in
  ignore (Server.Engine.submit e `Insert "edge(\"v121\", \"v122\")");
  ignore (Server.Engine.submit e `Remove "edge(\"v0\", \"v1\")");
  (match Server.Engine.commit_async e with
  | `Started _ -> ()
  | `Coalesced -> Alcotest.fail "nothing inflight yet: must start");
  (* probe repeatedly while the background domain mutates the live db *)
  let during = ref [] in
  for _ = 1 to 50 do
    during := facts_of e "path(\"v0\", X)" :: !during
  done;
  List.iter
    (fun (facts, epoch) ->
      check_int "epoch unchanged mid-flight" epoch_before epoch;
      check_bool "bit-identical result set" true (facts = before))
    !during;
  ignore (Server.Engine.await e);
  let after, epoch_after = facts_of e "path(\"v0\", X)" in
  check_int "next epoch published" (epoch_before + 1) epoch_after;
  check_bool "new snapshot reflects the deletion" true (after <> before);
  check_int "v0 lost its outgoing edge" 0 (List.length after)

(* ---- the commit domain ---- *)

let commit_domain_survives_raise () =
  let failing = Server.Commit_domain.start (fun () -> failwith "job boom") in
  (match Server.Commit_domain.wait failing with
  | Error (Failure m) -> check_string "the job's own exception" "job boom" m
  | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "a raising job must report its exception");
  check_bool "finished" true (Server.Commit_domain.is_done failing);
  (* the same domain serves the next job, in submission order *)
  let order = ref [] in
  let jobs =
    List.init 3 (fun i -> Server.Commit_domain.start (fun () -> order := i :: !order; i))
  in
  List.iteri
    (fun i job ->
      check_bool "next job runs" true (Server.Commit_domain.wait job = Ok i))
    jobs;
  check_bool "fifo" true (List.rev !order = [ 0; 1; 2 ])

(* ---- engine: query patterns ---- *)

let query_patterns () =
  let e =
    make_engine
      ~source:
        "edge(\"a\",\"b\"). edge(\"b\",\"a\"). edge(\"a\",\"a\").\n\
         path(X,Y) :- edge(X,Y).\n\
         path(X,Z) :- path(X,Y), edge(Y,Z).\n"
      ()
  in
  let count pattern = List.length (fst (facts_of e pattern)) in
  check_int "bare predicate matches all" 3 (count "edge");
  check_int "anonymous wildcards" 3 (count "edge(_, _)");
  check_int "repeated named var forces equality" 1 (count "edge(X, X)");
  check_int "constant narrows" 2 (count "edge(\"a\", X)");
  (match Server.Engine.query e "nosuch(\"a\")" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown predicate must error");
  match Server.Engine.query e "edge(\"a\")" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity mismatch must error"

(* ---- engine: the snapshot tracks the live database ---- *)

(* Transitive closure with a negated and an aggregated consumer, over
   a random update stream. *)
let tracked_rules =
  "path(X,Y) :- edge(X,Y).\n\
   path(X,Z) :- path(X,Y), edge(Y,Z).\n\
   node(X) :- edge(X,Y).\n\
   node(Y) :- edge(X,Y).\n\
   cut(X,Y) :- node(X), node(Y), !path(X,Y), X != Y.\n\
   outdeg(X, cnt(Y)) :- edge(X,Y).\n"

(* The published snapshot must equal the live database after every
   commit: every predicate's bare-predicate [query] against
   [Incr_sched.query] on the live database, once the commit settled. *)
let snapshot_matches_live e session ~what =
  ignore (Server.Engine.await e);
  List.iter
    (fun (pred, _) ->
      let facts, epoch = facts_of e pred in
      check_int (what ^ ": snapshot is the current epoch")
        (Server.Engine.epoch e) epoch;
      let live =
        List.map
          (fun a -> Format.asprintf "%a" Datalog.Ast.pp_atom a)
          (Incr_sched.query session pred)
      in
      if facts <> live then
        Alcotest.failf "%s: snapshot %s has %d facts, live database %d" what
          pred (List.length facts) (List.length live))
    (Datalog.Database.predicates session.Incr_sched.db)

let snapshot_tracks_live_db () =
  let stream =
    Workload.Synthetic.Update_stream.generate
      {
        Workload.Synthetic.Update_stream.nodes = 10;
        span = 3;
        base_edges = 14;
        batches = 6;
        batch_ops = 4;
        delete_fraction = 0.5;
        seed = 17;
      }
  in
  let source =
    String.concat "" (List.map (fun f -> f ^ ".\n") stream.base) ^ tracked_rules
  in
  let maint_name = function
    | Datalog.Incremental.Dred -> "dred"
    | Datalog.Incremental.Counting -> "counting"
    | Datalog.Incremental.Auto -> "auto"
  in
  List.iter
    (fun maint ->
      List.iter
        (fun async ->
          List.iter
            (fun domains ->
              let what =
                Printf.sprintf "%s %s d=%d" (maint_name maint)
                  (if async then "async" else "sync")
                  domains
              in
              let session = Incr_sched.materialize source in
              let e = Server.Engine.create ~maint ~domains session in
              let submit side fact =
                match Server.Engine.submit e side fact with
                | Ok () -> ()
                | Error m -> Alcotest.failf "%s: submit %s: %s" what fact m
              in
              let commit () =
                if async then begin
                  ignore (Server.Engine.commit_async e);
                  while Server.Engine.inflight e do
                    ignore (Server.Engine.drain e);
                    Domain.cpu_relax ()
                  done
                end
                else ignore (Server.Engine.commit e)
              in
              snapshot_matches_live e session ~what:(what ^ " epoch 0");
              List.iteri
                (fun i (adds, dels) ->
                  List.iter (submit `Insert) adds;
                  List.iter (submit `Remove) dels;
                  (* a base predicate the snapshot has never seen *)
                  if i = 2 then submit `Insert "label(\"v1\", \"x\")";
                  commit ();
                  snapshot_matches_live e session
                    ~what:(Printf.sprintf "%s batch %d" what i))
                stream.steps;
              (* a batch that empties every relation: without edges
                 nothing is derived either *)
              let current pred = fst (facts_of e pred) in
              List.iter (submit `Remove) (current "edge" @ current "label");
              commit ();
              snapshot_matches_live e session ~what:(what ^ " emptied");
              check_int (what ^ ": edge emptied") 0
                (List.length (current "edge"));
              List.iter
                (fun pred ->
                  check_int (what ^ ": " ^ pred ^ " emptied") 0
                    (List.length (current pred)))
                [ "path"; "node"; "cut"; "outdeg"; "label" ])
            [ 1; 2 ])
        [ false; true ])
    [ Datalog.Incremental.Dred; Datalog.Incremental.Counting;
      Datalog.Incremental.Auto ]

(* ---- engine: indexed answers equal scanned answers ---- *)

(* A pattern with a bound constant is answered from an index on the
   first bound column, every other pattern by a scan. The reference
   here filters the bare-predicate answer (a scan) by the pattern, so
   both must agree — before and after deletions, which the snapshot
   applies in place to relations whose indexes already exist. *)
let indexed_matches_scanned () =
  let e =
    make_engine
      ~source:
        "t(\"a\",\"b\",\"c\"). t(\"a\",\"a\",\"b\"). t(\"b\",\"a\",\"a\").\n\
         t(\"c\",\"b\",\"b\"). t(\"a\",\"c\",\"c\"). t(\"b\",\"b\",\"b\").\n\
         u(X,Z) :- t(X,Y,Z).\n"
      ()
  in
  let patterns =
    [
      ("t(\"a\", X, Y)", [ Some "a"; None; None ], []);
      ("t(X, \"b\", Y)", [ None; Some "b"; None ], []);
      ("t(X, Y, \"b\")", [ None; None; Some "b" ], []);
      ("t(\"a\", X, \"c\")", [ Some "a"; None; Some "c" ], []);
      ("t(X, X, Y)", [ None; None; None ], [ (0, 1) ]);
      ("t(\"b\", X, X)", [ Some "b"; None; None ], [ (1, 2) ]);
      ("t(_, _, \"a\")", [ None; None; Some "a" ], []);
      ("t(_, _, _)", [ None; None; None ], []);
      ("t(\"zz\", X, Y)", [ Some "zz"; None; None ], []);
      ("t(X, \"zz\", Y)", [ None; Some "zz"; None ], []);
    ]
  in
  let syms () =
    Datalog.Symbol.count (Datalog.Database.symbols (Server.Engine.db e))
  in
  let check_all ~when_ =
    let all = fst (facts_of e "t") in
    let args fact =
      (* t("x", "y", "z"). -> ["x"; "y"; "z"] *)
      String.split_on_char ',' (String.sub fact 2 (String.length fact - 3))
      |> List.map (fun s ->
             let s = String.trim s in
             String.sub s 1 (String.length s - 2))
    in
    List.iter
      (fun (pattern, consts, equal) ->
        let expected =
          List.filter
            (fun fact ->
              let a = Array.of_list (args fact) in
              List.for_all2
                (fun c v -> match c with Some c -> c = v | None -> true)
                consts (Array.to_list a)
              && List.for_all (fun (i, j) -> a.(i) = a.(j)) equal)
            all
        in
        let before = syms () in
        let got, _ = facts_of e pattern in
        check_int (when_ ^ ": reads mint no symbol: " ^ pattern) before (syms ());
        if got <> expected then
          Alcotest.failf "%s: %s answered %s, scan says %s" when_ pattern
            (String.concat " " got) (String.concat " " expected))
      patterns
  in
  check_all ~when_:"epoch 0";
  List.iter
    (fun f -> ignore (Server.Engine.submit e `Remove f))
    [ "t(\"a\",\"b\",\"c\")"; "t(\"b\",\"a\",\"a\")"; "t(\"b\",\"b\",\"b\")" ];
  ignore (Server.Engine.submit e `Insert "t(\"c\",\"c\",\"a\")");
  ignore (Server.Engine.commit e);
  check_all ~when_:"after deletions";
  check_int "three facts left plus one" 4 (List.length (fst (facts_of e "t")))

(* ---- repl ---- *)

let repl_of engine = Server.Repl.create engine

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let repl_errors_keep_session () =
  let r = repl_of (make_engine ()) in
  let expect_err line =
    match Server.Repl.handle_line r line with
    | [ reply ], quit ->
      check_bool (line ^ " answers err") true (starts_with "err " reply);
      check_bool (line ^ " keeps the session") false quit
    | replies, _ ->
      Alcotest.failf "%s: expected one err line, got %d" line
        (List.length replies)
  in
  expect_err "bogus nonsense";
  expect_err "insert";
  expect_err "insert edge(\"a\"";
  expect_err "insert path(\"a\", \"z\")";
  expect_err "query nosuch(\"a\")";
  expect_err "commit now";
  (* after all that abuse the session still works end to end *)
  (match Server.Repl.handle_line r "insert edge(\"d\", \"e\")" with
  | [ reply ], false -> check_string "queued" "ok pending 1" reply
  | _ -> Alcotest.fail "valid insert should queue");
  (match Server.Repl.handle_line r "commit" with
  | [ reply ], false ->
    check_bool "commit ok line" true (starts_with "ok epoch 1 ops 1" reply)
  | _ -> Alcotest.fail "commit should publish");
  match Server.Repl.handle_line r "quit" with
  | replies, true ->
    check_string "clean goodbye" "ok bye" (List.nth replies (List.length replies - 1))
  | _, false -> Alcotest.fail "quit must end the session"

let repl_blank_and_comment_lines () =
  let r = repl_of (make_engine ()) in
  check_bool "blank line says nothing" true
    (Server.Repl.handle_line r "   " = ([], false));
  check_bool "comment line says nothing" true
    (Server.Repl.handle_line r "# a comment" = ([], false))

let repl_query_output () =
  let r = repl_of (make_engine ()) in
  match Server.Repl.handle_line r "query path(\"a\", X)" with
  | lines, false ->
    check_int "three facts + ok line" 4 (List.length lines);
    check_string "facts are terminated atoms" "path(\"a\", \"b\")."
      (List.hd lines);
    check_string "ok trailer counts and stamps" "ok 3 facts epoch 0"
      (List.nth lines 3)
  | _, true -> Alcotest.fail "query must not end the session"

(* ---- suite ---- *)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          test `Quick "format/parse round trip" protocol_round_trip;
          test `Quick "whitespace handling" protocol_trims_and_splits;
          test `Quick "malformed lines rejected" protocol_rejects;
        ] );
      ( "engine",
        [
          test `Quick "submit validation" submit_validation;
          test `Quick "last-wins batch dedup" submit_last_wins;
          test `Quick "commits advance epochs" commit_advances_epochs;
          test `Quick "deletion maintains" deletion_maintains;
          test `Quick "snapshot carries no count cells" snapshot_has_no_cells;
          test `Quick "async commits coalesce" async_coalesces;
          test `Quick "snapshot isolation mid-flight" snapshot_isolation;
          test `Quick "commit domain survives a raising job"
            commit_domain_survives_raise;
          test `Quick "query patterns" query_patterns;
          test `Quick "snapshot tracks the live database" snapshot_tracks_live_db;
          test `Quick "indexed answers equal scanned" indexed_matches_scanned;
          test `Quick "listed derived fact survives a commit" listed_derived_fact_survives;
        ] );
      ( "repl",
        [
          test `Quick "errors keep the session alive" repl_errors_keep_session;
          test `Quick "blank and comment lines" repl_blank_and_comment_lines;
          test `Quick "query reply shape" repl_query_output;
        ] );
    ]
