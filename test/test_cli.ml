(* End-to-end tests of the dms command-line driver: each subcommand is
   run as a real subprocess against the built binary. *)

let test case name f = Alcotest.test_case name case f

let check_bool = Alcotest.(check bool)

(* resolve the built binary relative to this test executable, so the
   suite works both under `dune runtest` and `dune exec` *)
let dms =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dms.exe"

let run_capture args =
  let cmd = Filename.quote_command dms args in
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec find i = i + nl <= hl && (String.sub haystack i nl = needle || find (i + 1)) in
  find 0

let expect_ok args needles =
  let status, out = run_capture args in
  check_bool (String.concat " " args ^ " exits 0") true (status = Unix.WEXITED 0);
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "output of %s lacks %S:\n%s" (String.concat " " args) needle out)
    needles

let info_paper () = expect_ok [ "info"; "paper:5" ] [ "nodes=1719"; "levels=39" ]

let info_tight () = expect_ok [ "info"; "tight:10" ] [ "nodes=19" ]

let run_scheduler () =
  expect_ok [ "run"; "tight:12"; "-s"; "levelbased"; "--validate" ]
    [ "LevelBased"; "makespan" ]

let compare_schedulers () =
  expect_ok [ "compare"; "chain:50"; "-p"; "2" ]
    [ "LevelBased"; "LogicBlox"; "Hybrid"; "Clairvoyant" ]

let gen_and_reload () =
  let tmp = Filename.temp_file "cli" ".trace" in
  expect_ok
    [ "gen"; "--nodes"; "500"; "--edges"; "900"; "--levels"; "12"; "--initial"; "4";
      "--active"; "60"; "-o"; tmp ]
    [ "wrote"; "nodes=500" ];
  expect_ok [ "info"; tmp ] [ "nodes=500"; "edges=900" ];
  expect_ok [ "run"; tmp; "-s"; "hybrid"; "--validate" ] [ "makespan" ];
  Sys.remove tmp

let dot_export () =
  let tmp = Filename.temp_file "cli" ".dot" in
  expect_ok [ "dot"; "tight:6"; "-o"; tmp ] [ "wrote" ];
  let ic = open_in tmp in
  let first = input_line ic in
  close_in ic;
  Sys.remove tmp;
  check_bool "dot header" true (contains first "digraph")

let schedule_export () =
  let tmp = Filename.temp_file "cli" ".json" in
  expect_ok [ "schedule"; "tight:8"; "-s"; "hybrid"; "-o"; tmp ] [ "schedule written" ];
  let ic = open_in tmp in
  let first = input_line ic in
  close_in ic;
  Sys.remove tmp;
  check_bool "json array" true (String.length first > 0 && first.[0] = '[')

let datalog_session () =
  let tmp = Filename.temp_file "cli" ".dl" in
  let oc = open_out tmp in
  output_string oc
    {|edge("a","b"). edge("b","c").
      path(X,Y) :- edge(X,Y).
      path(X,Z) :- path(X,Y), edge(Y,Z).
      reach(X, cnt(Y)) :- path(X, Y).|};
  close_out oc;
  expect_ok
    [ "datalog"; tmp; "-q"; "reach"; "--add"; {|edge("c","d")|} ]
    [ "materialized"; "update changed"; {|reach("a", 3)|} ];
  Sys.remove tmp

(* A fact listed for a derived predicate outlives the deletion of the
   base fact that also derives it, under either maintenance engine. *)
let datalog_keeps_listed_derived_fact () =
  let tmp = Filename.temp_file "cli" ".dl" in
  let oc = open_out tmp in
  output_string oc {|p(X,Y) :- e(X,Y). p("a","b"). e("a","b").|};
  close_out oc;
  List.iter
    (fun maint ->
      expect_ok
        [ "datalog"; tmp; "--maint"; maint; "--del"; {|e("a","b")|}; "-q"; "p"; "-q"; "e" ]
        [ "p: 1 facts"; {|p("a", "b")|}; "e: 0 facts" ])
    [ "dred"; "counting" ];
  Sys.remove tmp

let datalog_lint () =
  let tmp = Filename.temp_file "cli" ".dl" in
  let oc = open_out tmp in
  output_string oc
    {|edge("a","b").
      path(X,Y) :- edge(X,Y).
      odd(X) :- edge(X, Unused).|};
  close_out oc;
  expect_ok
    [ "datalog"; tmp; "--lint" ]
    [ "singleton-variable"; "Unused"; "rule 2 (odd)"; "materialized" ];
  (* a clean program says so (recursive TC: path is read back by the
     second rule, so the unused-idb-predicate lint stays quiet) *)
  let oc = open_out tmp in
  output_string oc
    {|edge("a","b"). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).|};
  close_out oc;
  expect_ok [ "datalog"; tmp; "--lint" ] [ "lint: clean" ];
  Sys.remove tmp

let write_program src =
  let tmp = Filename.temp_file "cli" ".dl" in
  let oc = open_out tmp in
  output_string oc src;
  close_out oc;
  tmp

let tc_src =
  {|edge("a","b"). edge("b","c").
    path(X,Y) :- edge(X,Y).
    path(X,Z) :- path(X,Y), edge(Y,Z).|}

let analyze_report () =
  let tmp = write_program tc_src in
  expect_ok [ "analyze"; tmp ]
    [ "strata: 1"; "advisor: counting"; "ownership: verified";
      "reads {edge path}"; "writes {path}"; "linear" ];
  Sys.remove tmp

let analyze_json_roundtrip () =
  let tmp = write_program tc_src in
  let status, out = run_capture [ "analyze"; tmp; "--json" ] in
  Sys.remove tmp;
  check_bool "analyze --json exits 0" true (status = Unix.WEXITED 0);
  let j = Obs.Json.parse out in
  let str k = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
  check_bool "ownership verified" true (str "ownership" = Some "verified");
  check_bool "engine recorded" true (str "engine" = Some "compiled");
  match Option.bind (Obs.Json.member "comps" j) Obs.Json.to_list with
  | None -> Alcotest.fail "comps array missing"
  | Some comps ->
    check_bool "edge and path components" true (List.length comps = 2);
    let advice =
      List.filter_map
        (fun c ->
          match Option.bind (Obs.Json.member "extensional" c) Obs.Json.to_bool with
          | Some false -> Option.bind (Obs.Json.member "advice" c) Obs.Json.to_str
          | _ -> None)
        comps
    in
    check_bool "path advised counting" true (advice = [ "counting" ])

let analyze_rejects_bad_program () =
  let tmp = write_program {|p(X,Y) :- e(X).|} in
  let status, out = run_capture [ "analyze"; tmp ] in
  Sys.remove tmp;
  check_bool "analyze exits 1 on a bad program" true (status = Unix.WEXITED 1);
  check_bool "diagnostic printed" true (contains out "error")

(* scripted `serve --stdio` session over a real pipe pair: drive the
   line protocol end to end and require a clean exit *)
let serve_session ~extra_args ~script ~needles =
  let tmp = write_program tc_src in
  let cmd =
    Filename.quote_command dms ([ "serve"; tmp; "--stdio" ] @ extra_args)
    ^ " 2>/dev/null"
  in
  let ic, oc = Unix.open_process cmd in
  List.iter (fun line -> output_string oc (line ^ "\n")) script;
  flush oc;
  close_out oc;
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process (ic, oc) in
  Sys.remove tmp;
  let out = Buffer.contents buf in
  check_bool "serve exits 0" true (status = Unix.WEXITED 0);
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "serve session output lacks %S:\n%s" needle out)
    needles;
  out

let serve_stdio_session () =
  let out =
    serve_session ~extra_args:[]
      ~script:
        [
          "query path(\"a\", X)";
          "insert edge(\"c\", \"d\")";
          "remove edge(\"a\", \"b\")";
          "bogus nonsense";
          "commit";
          "query path(\"b\", X)";
          "stats";
          "quit";
        ]
      ~needles:
        [
          "ok 2 facts epoch 0";
          "ok pending 1";
          "ok pending 2";
          "err unknown command \"bogus\"";
          "ok epoch 1 ops 2";
          "path(\"b\", \"d\").";
          "ok 2 facts epoch 1";
          "commits 1";
          "ok bye";
        ]
  in
  (* the update actually removed a's reachability: the old epoch-0
     answer must not resurface after the commit *)
  check_bool "epoch 1 stats line" true (contains out "ok epoch 1 facts")

let serve_stdio_async_session () =
  ignore
    (serve_session
       ~extra_args:[ "--async"; "--maint"; "counting" ]
       ~script:
         [
           "insert edge(\"c\", \"d\")";
           "commit";
           "insert edge(\"d\", \"e\")";
           "commit";
           "quit";
         ]
       ~needles:[ "ok commit running epoch 1"; "ok bye" ])

(* the commit domain and the executor's worker crews outlive every
   commit; parked, they must not hold the process past [quit] *)
let serve_async_domains_exits_promptly () =
  let t0 = Unix.gettimeofday () in
  ignore
    (serve_session
       ~extra_args:[ "--async"; "--domains"; "2" ]
       ~script:
         [
           "insert edge(\"c\", \"d\")";
           "commit";
           "insert edge(\"d\", \"e\")";
           "commit";
           "query path(\"a\", X)";
           "quit";
         ]
       ~needles:[ "ok commit running epoch 1"; "ok bye" ]);
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 10.0 then
    Alcotest.failf "serve --async --domains 2 took %.1f s to exit" elapsed

let unknown_scheduler_fails () =
  let status, out = run_capture [ "run"; "tight:5"; "-s"; "bogus" ] in
  check_bool "nonzero exit" true (status <> Unix.WEXITED 0);
  check_bool "mentions the name" true (contains out "bogus")

let bad_trace_fails () =
  let status, _ = run_capture [ "info"; "paper:99" ] in
  check_bool "nonzero exit" true (status <> Unix.WEXITED 0)

let () =
  Alcotest.run "cli"
    [
      ( "dms",
        [
          test `Quick "info on a paper trace" info_paper;
          test `Quick "info on a pathological trace" info_tight;
          test `Quick "run with validation" run_scheduler;
          test `Quick "compare with clairvoyant" compare_schedulers;
          test `Quick "gen / info / run round trip" gen_and_reload;
          test `Quick "dot export" dot_export;
          test `Quick "chrome trace export" schedule_export;
          test `Quick "datalog session with aggregate" datalog_session;
          test `Quick "datalog lint diagnostics" datalog_lint;
          test `Quick "analyze report" analyze_report;
          test `Quick "analyze --json round-trips" analyze_json_roundtrip;
          test `Quick "analyze rejects bad programs" analyze_rejects_bad_program;
          test `Quick "serve stdio session" serve_stdio_session;
          test `Quick "serve async stdio session" serve_stdio_async_session;
          test `Quick "serve async on 2 domains exits promptly"
            serve_async_domains_exits_promptly;
          test `Quick "unknown scheduler fails" unknown_scheduler_fails;
          test `Quick "bad trace spec fails" bad_trace_fails;
          test `Quick "datalog keeps a listed derived fact"
            datalog_keeps_listed_derived_fact;
        ] );
    ]
