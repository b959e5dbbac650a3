(* bench_check — compare fresh BENCH smoke JSON against committed
   baselines, failing on parity regressions but never on timing noise.

   What counts as parity (the whitelist below): structural and
   count-valued fields that are deterministic given the bench's fixed
   RNG seeds — task/tuple/changed counts, workload and mode names,
   domain sets, engine/executor labels, fixed config (work_unit,
   batch, sched). Timing fields (seconds, rates, speedups) vary run to
   run and are ignored; see EXPERIMENTS.md for the tolerance policy.
   Whole subtrees that summarize a timing-dependent choice (headline,
   the measured breakdown, measured-vs-modeled overhead) are skipped.

   Both files must still be strict JSON — the parser rejects NaN and
   Infinity, so an emitter printing a non-finite number fails here
   even though the field's value is never compared.

   Usage: bench_check --baseline DIR --fresh DIR *)

let files =
  [
    "BENCH_executor_smoke.json";
    "BENCH_datalog_smoke.json";
    "BENCH_maintain_par_smoke.json";
    "BENCH_maintain_shard_smoke.json";
    "BENCH_maintain_count_smoke.json";
    "BENCH_serve_smoke.json";
  ]

(* keys whose values must match exactly *)
let whitelist =
  [
    "benchmark"; "program"; "phase"; "engine"; "workload"; "mode"; "trace";
    "executor"; "tuples"; "tasks"; "changed"; "domains"; "work_unit"; "batch";
    "sched"; "shards"; "databases_agree"; "maint"; "mix"; "batches"; "advice";
    (* serve: offered rate is fixed config; ops admitted and sync-mode
       commit counts are deterministic (the async rows report their
       timing-dependent run counts under "runs"/"net_changed", which
       stay unchecked) *)
    "rate"; "ops"; "commits";
    (* counting: how many backward-search suspects the support index
       resolved in O(1) vs by a full probe — deterministic at the
       bench's fixed seed and shard count *)
    "o1_hits"; "full_probes";
  ]

(* subtrees that exist to report measurements; skipped entirely *)
let skip = [ "headline"; "breakdown"; "sched_overhead" ]

(* present but host-dependent *)
let ignore_keys = [ "host_cores" ]

let errors = ref []

let fail path fmt =
  Printf.ksprintf (fun msg -> errors := (path ^ ": " ^ msg) :: !errors) fmt

let pp_leaf = function
  | Obs.Json.Null -> "null"
  | Obs.Json.Bool b -> string_of_bool b
  | Obs.Json.Number f ->
    if Float.is_integer f then string_of_int (int_of_float f)
    else string_of_float f
  | Obs.Json.String s -> Printf.sprintf "%S" s
  | Obs.Json.Array _ -> "<array>"
  | Obs.Json.Object _ -> "<object>"

(* [key] is the object member name that led here; whitelisted leaves
   must be equal, everything else may drift (timing) *)
let rec compare_values ~key path (base : Obs.Json.t) (fresh : Obs.Json.t) =
  match (base, fresh) with
  | Obs.Json.Object b, Obs.Json.Object f ->
    List.iter
      (fun (k, bv) ->
        if List.mem k skip || List.mem k ignore_keys then ()
        else
          match List.assoc_opt k f with
          | Some fv -> compare_values ~key:k (path ^ "." ^ k) bv fv
          | None ->
            if List.mem k whitelist then fail path "missing key %S in fresh" k)
      b;
    List.iter
      (fun (k, _) ->
        if List.mem k whitelist && List.assoc_opt k b = None then
          fail path "unexpected new key %S in fresh" k)
      f
  | Obs.Json.Array b, Obs.Json.Array f ->
    let nb = List.length b and nf = List.length f in
    if nb <> nf then fail path "array length %d in baseline, %d in fresh" nb nf
    else
      List.iteri
        (fun i (bv, fv) ->
          compare_values ~key (Printf.sprintf "%s[%d]" path i) bv fv)
        (List.combine b f)
  | (Obs.Json.Object _ | Obs.Json.Array _), _
  | _, (Obs.Json.Object _ | Obs.Json.Array _) ->
    fail path "baseline is %s but fresh is %s" (pp_leaf base) (pp_leaf fresh)
  | _ ->
    if List.mem key whitelist && base <> fresh then
      fail path "baseline %s, fresh %s" (pp_leaf base) (pp_leaf fresh)

let load dir file =
  let path = Filename.concat dir file in
  match Obs.Json.of_file path with
  | j -> Some j
  | exception Obs.Json.Parse_error msg ->
    fail path "invalid JSON: %s" msg;
    None
  | exception Sys_error msg ->
    fail path "unreadable: %s" msg;
    None

let () =
  let baseline = ref "" and fresh = ref "" in
  let rec parse_args = function
    | "--baseline" :: dir :: rest ->
      baseline := dir;
      parse_args rest
    | "--fresh" :: dir :: rest ->
      fresh := dir;
      parse_args rest
    | [] -> ()
    | arg :: _ ->
      prerr_endline ("usage: bench_check --baseline DIR --fresh DIR (got " ^ arg ^ ")");
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !baseline = "" || !fresh = "" then begin
    prerr_endline "usage: bench_check --baseline DIR --fresh DIR";
    exit 2
  end;
  List.iter
    (fun file ->
      match (load !baseline file, load !fresh file) with
      | Some b, Some f -> compare_values ~key:"" file b f
      | _ -> ())
    files;
  match List.rev !errors with
  | [] ->
    Printf.printf "bench_check: %d files match the committed baselines\n"
      (List.length files)
  | errs ->
    List.iter (fun e -> Printf.eprintf "bench_check: %s\n" e) errs;
    Printf.eprintf "bench_check: %d parity mismatch(es)\n" (List.length errs);
    exit 1
