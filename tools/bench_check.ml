(* bench_check — compare fresh BENCH smoke JSON against committed
   baselines, failing on parity regressions but never on timing noise.

   Bench smoke files (bench/main.ml sections): what counts as parity
   (the whitelist below) is structural and count-valued fields that
   are deterministic given the bench's fixed RNG seeds — task/tuple/
   changed counts, workload and mode names, domain sets, engine/
   executor labels, fixed config (work_unit, batch, sched). Timing
   fields (seconds, rates, speedups) vary run to run and are ignored;
   see EXPERIMENTS.md for the tolerance policy. Whole subtrees that
   summarize a timing-dependent choice (headline, the measured
   breakdown, measured-vs-modeled overhead) are skipped.

   Servebench files (the report line of one traced `servebench/run.py
   --seed 7 --seconds 2` run per workload; every
   BENCH_servebench_*_smoke.json in the baseline directory is
   checked, and a missing fresh copy fails): every counter of the
   "exact" block — ops admitted, tuples copied and examined, changes,
   O(1) hits, full probes — and the workload size (config.batches,
   config.base_facts, config.store_facts) must match exactly. Timings
   and the rest of config (the OCaml version, host cores) are not
   compared; a run that fails its parity check exits non-zero and
   stops `make bench-smoke` before its file is written.

   Both files must still be strict JSON — the parser rejects NaN and
   Infinity, so an emitter printing a non-finite number fails here
   even though the field's value is never compared.

   Usage: bench_check --baseline DIR --fresh DIR *)

let files =
  [
    "BENCH_executor_smoke.json";
    "BENCH_datalog_smoke.json";
    "BENCH_maintain_par_smoke.json";
    "BENCH_maintain_count_smoke.json";
  ]

(* one per committed baseline, so the workload list lives only in the
   Makefile's bench-smoke recipe and tools/baselines/ *)
let servebench_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_servebench_" f
         && String.ends_with ~suffix:"_smoke.json" f)
  |> List.sort compare

(* keys whose values must match exactly *)
let whitelist =
  [
    "benchmark"; "program"; "phase"; "engine"; "workload"; "mode"; "trace";
    "executor"; "tuples"; "tasks"; "changed"; "domains"; "work_unit"; "batch";
    "sched"; "databases_agree"; "maint"; "mix"; "batches"; "advice";
    (* counting: how many backward-search suspects the support index
       resolved in O(1) vs by a full probe, and how many tuples the
       healing pass re-leveled — deterministic at the bench's fixed
       seed *)
    "o1_hits"; "full_probes"; "healed";
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

(* [key] is the object member name that led here; leaves under a
   [gated] key must be equal, everything else may drift (timing) *)
let rec compare_values ~gated ~key path (base : Obs.Json.t) (fresh : Obs.Json.t) =
  match (base, fresh) with
  | Obs.Json.Object b, Obs.Json.Object f ->
    List.iter
      (fun (k, bv) ->
        if List.mem k skip || List.mem k ignore_keys then ()
        else
          match List.assoc_opt k f with
          | Some fv -> compare_values ~gated ~key:k (path ^ "." ^ k) bv fv
          | None -> if gated k then fail path "missing key %S in fresh" k)
      b;
    List.iter
      (fun (k, _) ->
        if gated k && List.assoc_opt k b = None then
          fail path "unexpected new key %S in fresh" k)
      f
  | Obs.Json.Array b, Obs.Json.Array f ->
    let nb = List.length b and nf = List.length f in
    if nb <> nf then fail path "array length %d in baseline, %d in fresh" nb nf
    else
      List.iteri
        (fun i (bv, fv) ->
          compare_values ~gated ~key (Printf.sprintf "%s[%d]" path i) bv fv)
        (List.combine b f)
  | (Obs.Json.Object _ | Obs.Json.Array _), _
  | _, (Obs.Json.Object _ | Obs.Json.Array _) ->
    fail path "baseline is %s but fresh is %s" (pp_leaf base) (pp_leaf fresh)
  | _ ->
    if gated key && base <> fresh then
      fail path "baseline %s, fresh %s" (pp_leaf base) (pp_leaf fresh)

(* the gated part of a servebench report line; every leaf of it is
   compared *)
let servebench_view (j : Obs.Json.t) =
  let field k o = Option.value (Obs.Json.member k o) ~default:Obs.Json.Null in
  let config = field "config" j in
  Obs.Json.Object
    [
      ("exact", field "exact" j);
      ( "config",
        Obs.Json.Object
          (List.map (fun k -> (k, field k config)) [ "batches"; "base_facts"; "store_facts" ])
      );
    ]

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
  let check ~gated view file =
    match (load !baseline file, load !fresh file) with
    | Some b, Some f -> compare_values ~gated ~key:"" file (view b) (view f)
    | _ -> ()
  in
  List.iter (check ~gated:(fun k -> List.mem k whitelist) Fun.id) files;
  let servebench_files = servebench_files !baseline in
  if servebench_files = [] then fail !baseline "no BENCH_servebench_*_smoke.json baseline";
  List.iter (check ~gated:(fun _ -> true) servebench_view) servebench_files;
  match List.rev !errors with
  | [] ->
    Printf.printf "bench_check: %d files match the committed baselines\n"
      (List.length files + List.length servebench_files)
  | errs ->
    List.iter (fun e -> Printf.eprintf "bench_check: %s\n" e) errs;
    Printf.eprintf "bench_check: %d parity mismatch(es)\n" (List.length errs);
    exit 1
