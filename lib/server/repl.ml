type t = { engine : Engine.t; async : bool }

let create ?(async = false) engine = { engine; async }

let commit_line ~tag (s : Engine.commit_stats) =
  Printf.sprintf "%s epoch %d ops %d changed %d in %.3f ms" tag s.epoch
    s.ops s.changed (1000.0 *. s.latency_s)

let notes stats = List.map (commit_line ~tag:"note") stats

let maint_name = function
  | Datalog.Incremental.Dred -> "dred"
  | Datalog.Incremental.Counting -> "counting"
  | Datalog.Incremental.Auto -> "auto"

let help_lines =
  [
    "insert FACT     queue a base-fact addition, e.g. insert edge(\"a\", \"b\")";
    "remove FACT     queue a base-fact deletion";
    "commit          run queued ops as one maintenance pass, publish next epoch";
    "query PATTERN   match the published snapshot, e.g. query path(\"a\", X)";
    "stats           one-line engine status";
    "help            this text";
    "quit            finish background work and end the session";
    "ok";
  ]

let exec t cmd =
  match (cmd : Protocol.command) with
  | Protocol.Insert text -> begin
    match Engine.submit t.engine `Insert text with
    | Ok () ->
      ([ Printf.sprintf "ok pending %d" (Engine.pending_ops t.engine) ], false)
    | Error m -> ([ "err " ^ m ], false)
  end
  | Protocol.Remove text -> begin
    match Engine.submit t.engine `Remove text with
    | Ok () ->
      ([ Printf.sprintf "ok pending %d" (Engine.pending_ops t.engine) ], false)
    | Error m -> ([ "err " ^ m ], false)
  end
  | Protocol.Commit ->
    if t.async then begin
      match Engine.commit_async t.engine with
      | `Started e -> ([ Printf.sprintf "ok commit running epoch %d" e ], false)
      | `Coalesced -> ([ "ok commit coalesced into next epoch" ], false)
    end
    else begin
      let stats = Engine.commit t.engine in
      match List.rev stats with
      | last :: earlier ->
        (List.rev_map (commit_line ~tag:"note") earlier
         @ [ commit_line ~tag:"ok" last ],
         false)
      | [] -> ([ "err commit published nothing" ], false)
    end
  | Protocol.Query text -> begin
    match Engine.query t.engine text with
    | Ok (facts, epoch) ->
      let lines =
        List.map
          (fun a -> Format.asprintf "%a." Datalog.Ast.pp_atom a)
          facts
      in
      ( lines
        @ [
            Printf.sprintf "ok %d fact%s epoch %d" (List.length facts)
              (if List.length facts = 1 then "" else "s")
              epoch;
          ],
        false )
    | Error m -> ([ "err " ^ m ], false)
  end
  | Protocol.Stats ->
    ( [
        Printf.sprintf
          "ok epoch %d facts %d pending %d commits %d inflight %b maint %s \
           domains %d"
          (Engine.epoch t.engine)
          (Engine.snapshot_facts t.engine)
          (Engine.pending_ops t.engine)
          (Engine.commits t.engine)
          (Engine.inflight t.engine)
          (maint_name (Engine.maint t.engine))
          (Engine.domains t.engine);
      ],
      false )
  | Protocol.Help -> (help_lines, false)
  | Protocol.Quit ->
    let leftover = Engine.await t.engine in
    (notes leftover @ [ "ok bye" ], true)

let handle_line t line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ([], false)
  else begin
    (* surface finished background commits before the new reply *)
    let pending_notes = notes (Engine.drain t.engine) in
    let reply, quit =
      match Protocol.parse line with
      | Error m -> ([ "err " ^ m ], false)
      | Ok cmd -> begin
        try exec t cmd with
        | Failure m -> ([ "err " ^ m ], false)
        | Invalid_argument m -> ([ "err " ^ m ], false)
      end
    in
    (pending_notes @ reply, quit)
  end

let run_channels t ic oc =
  let quit = ref false in
  let said_quit = ref false in
  (try
     while not !quit do
       match In_channel.input_line ic with
       | None -> quit := true
       | Some line ->
         let replies, q = handle_line t line in
         List.iter
           (fun r ->
             Out_channel.output_string oc r;
             Out_channel.output_char oc '\n')
           replies;
         Out_channel.flush oc;
         if q then begin
           quit := true;
           said_quit := true
         end
     done
   with Sys_error _ -> ());
  (* EOF without quit: quiesce so the caller gets a settled engine *)
  ignore (Engine.await t.engine);
  !said_quit

let serve_socket t path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let stop = ref false in
  while not !stop do
    let fd, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd
    and oc = Unix.out_channel_of_descr fd in
    let said_quit = run_channels t ic oc in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if said_quit then stop := true
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  try Unix.unlink path with Unix.Unix_error _ -> ()
