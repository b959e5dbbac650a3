(* dms — Datalog maintenance scheduling: CLI over the library.

   Subcommands:
     gen      generate a synthetic or paper trace and write it out
     info     print structural statistics of a trace (Table I row)
     run      simulate one scheduler on a trace
     compare  simulate several schedulers on a trace
     dot      export a trace's DAG to Graphviz
     datalog  materialize a program, apply an incremental update
     serve    long-lived epoch server over a materialized program
     analyze  static report: effect sets, ownership, maintenance advice
     trace    summarize a recorded maintenance timeline *)

open Cmdliner

let read_trace path =
  if Filename.check_suffix path ".dl" then
    invalid_arg "expected a trace file, not a Datalog program"
  else Workload.Trace_io.of_file path

let trace_arg =
  let doc =
    "Input trace: either a file path, or paper:N (N in 1..11) for the \
     reconstructed LogicBlox job traces of Table I."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let resolve_trace spec =
  match String.split_on_char ':' spec with
  | [ "paper"; n ] -> (
    match int_of_string_opt n with
    | Some id -> Workload.Paper_traces.generate id
    | None -> invalid_arg "paper:N expects an integer")
  | [ "tight"; n ] -> Workload.Pathological.tight_example ~levels:(int_of_string n)
  | [ "chain"; n ] -> Workload.Pathological.deep_chain ~n:(int_of_string n)
  | _ -> read_trace spec

let procs_arg =
  let doc = "Number of simulated processors." in
  Arg.(value & opt int 8 & info [ "p"; "procs" ] ~docv:"P" ~doc)

let op_cost_arg =
  let doc = "Virtual seconds charged per scheduler operation." in
  Arg.(value & opt float 1e-7 & info [ "op-cost" ] ~docv:"SECONDS" ~doc)

let validate_arg =
  let doc = "Validate the schedule against the model (slow on big traces)." in
  Arg.(value & flag & info [ "validate" ] ~doc)

let sched_arg =
  let doc =
    Printf.sprintf "Scheduler to simulate (%s)." (String.concat ", " Sched.Registry.names)
  in
  Arg.(value & opt string "hybrid" & info [ "s"; "scheduler" ] ~docv:"NAME" ~doc)

let scheds_arg =
  let doc = "Comma-separated schedulers to compare." in
  Arg.(
    value
    & opt string "levelbased,lbl:10,logicblox,hybrid"
    & info [ "schedulers" ] ~docv:"NAMES" ~doc)

let wrap f = try f (); 0 with
  | Invalid_argument e | Failure e ->
    Format.eprintf "error: %s@." e;
    1
  | Datalog.Parser.Error { line; col; message } ->
    Format.eprintf "error: %d:%d: %s@." line col message;
    1
  | Datalog.Lint.Failed diagnostics ->
    Format.eprintf "%a@." Datalog.Lint.pp diagnostics;
    1

(* ---- gen ---- *)

let gen_cmd =
  let nodes =
    Arg.(value & opt int 10_000 & info [ "nodes" ] ~docv:"N" ~doc:"Node count.")
  in
  let edges =
    Arg.(value & opt int 16_000 & info [ "edges" ] ~docv:"M" ~doc:"Edge count.")
  in
  let levels =
    Arg.(value & opt int 50 & info [ "levels" ] ~docv:"L" ~doc:"Level count.")
  in
  let initial =
    Arg.(value & opt int 8 & info [ "initial" ] ~docv:"K" ~doc:"Initially dirty sources.")
  in
  let active =
    Arg.(value & opt int 500 & info [ "active" ] ~docv:"A" ~doc:"Target active jobs.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output trace file.")
  in
  let run nodes edges levels initial active seed out =
    wrap (fun () ->
        let params =
          {
            Workload.Synthetic.nodes; edges; levels; initial;
            active_jobs = active; descendants = None; task_fraction = 0.5; seed;
          }
        in
        let trace = Workload.Synthetic.generate ~name:(Filename.basename out) params in
        Workload.Trace_io.to_file out trace;
        Format.printf "wrote %s: %a@." out Workload.Trace.pp_stats
          (Workload.Trace.stats trace))
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic layered trace.")
    Term.(const run $ nodes $ edges $ levels $ initial $ active $ seed $ out)

(* ---- info ---- *)

let info_cmd =
  let run spec =
    wrap (fun () ->
        let trace = resolve_trace spec in
        Format.printf "%s: %a@." trace.Workload.Trace.name Workload.Trace.pp_stats
          (Workload.Trace.stats trace))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print structural statistics of a trace (a Table I row).")
    Term.(const run $ trace_arg)

(* ---- run ---- *)

let run_cmd =
  let run spec sched procs op_cost validate =
    wrap (fun () ->
        let trace = resolve_trace spec in
        let m = Incr_sched.schedule ~procs ~op_cost ~validate ~sched trace in
        Format.printf "%a@." Incr_sched.pp_result m)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one scheduler on a trace.")
    Term.(const run $ trace_arg $ sched_arg $ procs_arg $ op_cost_arg $ validate_arg)

(* ---- compare ---- *)

let compare_cmd =
  let run spec scheds procs op_cost =
    wrap (fun () ->
        let trace = resolve_trace spec in
        let scheds = String.split_on_char ',' scheds in
        Format.printf "%s (P=%d)@." trace.Workload.Trace.name procs;
        List.iter
          (fun sched ->
            let m = Incr_sched.schedule ~procs ~op_cost ~sched trace in
            Format.printf "  %a@." Incr_sched.pp_result_row m)
          scheds;
        let opt = Incr_sched.clairvoyant ~procs ~op_cost trace in
        Format.printf "  %a@." Incr_sched.pp_result_row opt)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Simulate several schedulers on the same trace.")
    Term.(const run $ trace_arg $ scheds_arg $ procs_arg $ op_cost_arg)

(* ---- dot ---- *)

let dot_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output .dot file.")
  in
  let run spec out =
    wrap (fun () ->
        let trace = resolve_trace spec in
        let active = Workload.Trace.active_set trace in
        let style =
          {
            Dag.Dot.default_style with
            color =
              (fun u ->
                if Prelude.Bitset.mem active u then Some "orangered" else None);
          }
        in
        Dag.Dot.to_file ~style out trace.Workload.Trace.graph;
        Format.printf "wrote %s (%d nodes, active highlighted)@." out
          (Dag.Graph.node_count trace.Workload.Trace.graph))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a trace's DAG to Graphviz, active graph highlighted.")
    Term.(const run $ trace_arg $ out)

(* ---- shared maintenance knobs (datalog, serve) ---- *)

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N"
         ~doc:"Run the incremental maintenance itself on N worker domains \
               (real parallelism via the multicore executor; 1 = serial).")

let maint_arg =
  let maint_conv =
    Arg.enum
      [
        ("dred", Datalog.Incremental.Dred);
        ("counting", Datalog.Incremental.Counting);
        ("auto", Datalog.Incremental.Auto);
      ]
  in
  Arg.(value & opt maint_conv Datalog.Incremental.Dred & info [ "maint" ] ~docv:"ALG"
         ~doc:"Maintenance strategy: 'dred' (delete-rederive, the default), \
               'counting' (per-tuple derivation counts with a well-founded \
               support index and backward/forward search; no rederivation \
               storm on deletion-heavy updates), or 'auto' (the static \
               advisor picks per component — see 'dms analyze').")

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* ---- datalog ---- *)

let datalog_cmd =
  let program =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.dl"
           ~doc:"Datalog program file (facts and rules).")
  in
  let queries =
    Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"PRED"
           ~doc:"Print all facts of this predicate (repeatable).")
  in
  let adds =
    Arg.(value & opt_all string [] & info [ "add" ] ~docv:"ATOM"
           ~doc:"Base fact to insert incrementally, e.g. 'edge(\"a\",\"b\")'.")
  in
  let dels =
    Arg.(value & opt_all string [] & info [ "del" ] ~docv:"ATOM"
           ~doc:"Base fact to delete incrementally.")
  in
  let lint_flag =
    Arg.(value & flag & info [ "lint" ]
           ~doc:"Report rule diagnostics (unbound variables with names, \
                 singleton variables) before evaluating.")
  in
  let sanitize_arg =
    Arg.(value & flag & info [ "sanitize" ]
           ~doc:"Arm the write-set sanitizer: tag every relation with its \
                 owning component task and fail loudly on any cross-component \
                 mutation (debug aid; see DESIGN.md).")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the maintenance run's per-worker timeline and write \
                 it as Chrome trace_event JSON (open in chrome://tracing or \
                 Perfetto; summarize with 'dms trace FILE').")
  in
  let run program queries adds dels lint sched procs domains maint sanitize trace =
    wrap (fun () ->
        let src = read_file program in
        let session = Incr_sched.materialize ~lint src in
        if lint then begin
          match Incr_sched.lint session with
          | [] -> Format.printf "lint: clean@."
          | diags -> Format.printf "%a@." Datalog.Lint.pp diags
        end;
        Format.printf "materialized %d tuples@."
          (Datalog.Database.total_tuples session.Incr_sched.db);
        if adds <> [] || dels <> [] || trace <> None then begin
          let tt =
            Incr_sched.update ~maint ~domains ~sanitize ?trace session
              ~additions:adds ~deletions:dels
          in
          if domains > 1 then Format.printf "maintained on %d domains@." domains;
          (match trace with
          | Some path -> Format.printf "timeline written to %s@." path
          | None -> ());
          Format.printf "update changed:@.";
          List.iter
            (fun (c : Datalog.Incremental.pred_change) ->
              Format.printf "  %-16s +%-6d -%-6d@." c.Datalog.Incremental.pred
                c.Datalog.Incremental.added c.Datalog.Incremental.removed)
            tt.Datalog.To_trace.report.Datalog.Incremental.changes;
          let trace = tt.Datalog.To_trace.trace in
          Format.printf "maintenance DAG: %a@." Workload.Trace.pp_stats
            (Workload.Trace.stats trace);
          let m = Incr_sched.schedule ~procs ~sched trace in
          Format.printf "%a@." Incr_sched.pp_result_row m
        end;
        List.iter
          (fun pred ->
            let atoms = Incr_sched.query session pred in
            Format.printf "%s: %d facts@." pred (List.length atoms);
            List.iter (fun a -> Format.printf "  %a.@." Datalog.Ast.pp_atom a) atoms)
          queries)
  in
  Cmd.v
    (Cmd.info "datalog"
       ~doc:
         "Materialize a Datalog program; optionally apply an incremental update \
          and schedule its maintenance DAG.")
    Term.(
      const run $ program $ queries $ adds $ dels $ lint_flag $ sched_arg $ procs_arg
      $ domains_arg $ maint_arg $ sanitize_arg $ trace_out)

(* ---- serve ---- *)

let serve_cmd =
  let program =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.dl"
           ~doc:"Datalog program to materialize and serve.")
  in
  let stdio =
    Arg.(value & flag & info [ "stdio" ]
           ~doc:"Serve one session on stdin/stdout — the default transport; \
                 lets scripts and CI drive the server without networking. \
                 Protocol replies go to stdout, status banners to stderr.")
  in
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on a Unix domain socket instead, serving client \
                 connections sequentially; a client sending 'quit' stops \
                 the server.")
  in
  let async =
    Arg.(value & flag & info [ "async" ]
           ~doc:"Run each commit's maintenance on a background domain: \
                 queries keep being served from the published epoch while \
                 the next one maintains, and commit requests arriving \
                 mid-flight coalesce into one follow-up batch.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record every commit's maintenance timeline plus the server's \
                 epoch/admission/commit spans, and write Chrome trace_event \
                 JSON on exit (summarize with 'dms trace FILE').")
  in
  let run program stdio socket maint domains async trace =
    wrap (fun () ->
        let session = Incr_sched.materialize (read_file program) in
        let obs =
          match trace with
          | None -> Obs.Trace.disabled
          | Some _ -> Obs.Trace.create ~domains:(max 1 domains) ()
        in
        let engine = Server.Engine.create ~maint ~domains ~obs session in
        let repl = Server.Repl.create ~async engine in
        Format.eprintf "dms serve: epoch 0 ready, %d tuples (%s)@."
          (Datalog.Database.total_tuples session.Incr_sched.db)
          (match socket with
          | Some path when not stdio -> "socket " ^ path
          | Some _ | None -> "stdio");
        (match socket with
        | Some path when not stdio -> Server.Repl.serve_socket repl path
        | Some _ | None -> ignore (Server.Repl.run_channels repl stdin stdout));
        match trace with
        | Some path ->
          Server.Engine.export engine path;
          Format.eprintf "timeline written to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a materialized program as a long-lived epoch server: \
          line-protocol insert/remove/commit/query/stats commands, commits \
          maintained incrementally through the scheduling machinery, queries \
          answered from immutable post-commit snapshots.")
    Term.(
      const run $ program $ stdio $ socket $ maint_arg $ domains_arg $ async
      $ trace_out)

(* ---- analyze ---- *)

let analyze_cmd =
  let program =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.dl"
           ~doc:"Datalog program file to analyze (not evaluated).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the report as strict JSON instead of text.")
  in
  let run program json =
    wrap (fun () ->
        let src = read_file program in
        let prog = Datalog.Parser.parse src in
        let diags = Datalog.Lint.check prog in
        (match Datalog.Lint.errors diags with
        | [] -> ()
        | errs -> raise (Datalog.Lint.Failed errs));
        (* warnings to stderr, so --json output stays parseable *)
        (match diags with
        | [] -> ()
        | ds -> Format.eprintf "%a@." Datalog.Lint.pp ds);
        let t = Datalog.Analyze.program prog in
        if json then print_endline (Datalog.Analyze.json_report t)
        else Format.printf "%a@." Datalog.Analyze.pp_report t)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze a Datalog program: strata and effect sets per \
          component, recursion class, ownership verification, and the \
          per-component maintenance-strategy advice behind --maint auto. \
          Fails (exit 1) on lint errors.")
    Term.(const run $ program $ json)

(* ---- trace (summarize a recorded timeline) ---- *)

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json"
           ~doc:"Chrome trace_event JSON written by 'dms datalog --trace' or \
                 the bench harness.")
  in
  let run file =
    wrap (fun () ->
        let json =
          try Obs.Json.of_file file
          with Obs.Json.Parse_error msg ->
            invalid_arg (Printf.sprintf "%s: %s" file msg)
        in
        let s = Obs.Export.summary_of_json json in
        Format.printf "@[<v>%s: %d events across %d workers%s@,%a@]@." file
          s.Obs.Summary.events
          (Array.length s.Obs.Summary.workers)
          (if s.Obs.Summary.dropped > 0 then
             Printf.sprintf " (%d dropped to ring wraparound)"
               s.Obs.Summary.dropped
           else "")
          Obs.Summary.pp s)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Summarize a recorded maintenance timeline (per-worker busy / \
             scheduler / steal / park / idle breakdown).")
    Term.(const run $ file)

(* ---- schedule (chrome trace export) ---- *)

let schedule_cmd =
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output Chrome-trace JSON file (open in chrome://tracing).")
  in
  let run spec sched procs op_cost out =
    wrap (fun () ->
        let trace = resolve_trace spec in
        let config = { Simulator.Engine.procs; op_cost; record_log = true } in
        let r =
          Simulator.Engine.run ~config
            ~sched:(Sched.Registry.find_exn sched)
            trace
        in
        (match r.Simulator.Engine.log with
        | Some log -> Simulator.Trace_export.to_file out ~procs log
        | None -> failwith "no log recorded");
        Format.printf "%a@.schedule written to %s@." Incr_sched.pp_result
          r.Simulator.Engine.metrics out)
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Simulate a scheduler and export the schedule as a Chrome trace.")
    Term.(const run $ trace_arg $ sched_arg $ procs_arg $ op_cost_arg $ out)

let main =
  let doc = "Datalog incremental-maintenance scheduling (IPDPS 2020 reproduction)." in
  Cmd.group (Cmd.info "dms" ~version:"1.0.0" ~doc)
    [ gen_cmd; info_cmd; run_cmd; compare_cmd; dot_cmd; schedule_cmd; datalog_cmd;
      serve_cmd; analyze_cmd; trace_cmd ]

let () = exit (Cmd.eval' main)
