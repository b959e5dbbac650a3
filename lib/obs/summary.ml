(* Measured makespan breakdown from a trace: where each worker's
   wall-clock went (busy / scheduler / steal / park / idle), plus DRed
   phase totals and a critical-path utilization figure. Works on
   normalized events so the same pass serves both live rings
   ([of_trace]) and a re-parsed Chrome file ([dms trace]). *)

type event = { wid : int; kind : Event.kind; t0_ns : int; t1_ns : int; arg : int }

type worker = {
  wid : int;
  busy_s : float;
  sched_s : float;
  steal_s : float;
  park_s : float;
  idle_s : float;
  tasks : int;
  steal_attempts : int;
  stolen : int;
  wakes : int;
  events : int;
  dropped : int;
}

type t = {
  workers : worker array;
  makespan_s : float;
  busy_s : float;
  sched_s : float;
  steal_s : float;
  park_s : float;
  idle_s : float;
  utilization : float;
  dred_delete_s : float;
  dred_rederive_s : float;
  dred_insert_s : float;
  cnt_propagate_s : float;
  cnt_backward_s : float;
  cnt_forward_s : float;
  cnt_o1_hits : int;
  cnt_full_probes : int;
  cnt_healed : int;
  srv_commit_s : float;
  srv_epoch_s : float;
  srv_commits : int;
  srv_epochs : int;
  srv_admitted : int;
  events : int;
  dropped : int;
}

let seconds ns = float_of_int ns /. 1e9

let of_events ~domains ?dropped events =
  let domains = max 1 domains in
  let busy = Array.make domains 0 in
  let sched = Array.make domains 0 in
  let steal = Array.make domains 0 in
  let park = Array.make domains 0 in
  let dred = Array.make domains 0 in
  let tasks = Array.make domains 0 in
  let attempts = Array.make domains 0 in
  let stolen = Array.make domains 0 in
  let wakes = Array.make domains 0 in
  let nevents = Array.make domains 0 in
  let dd = ref 0 and dr = ref 0 and di = ref 0 in
  let cp = ref 0 and cb = ref 0 and cf = ref 0 in
  let co1 = ref 0 and cpr = ref 0 and cheal = ref 0 in
  let sc = ref 0 and se = ref 0 in
  let ncommits = ref 0 and nepochs = ref 0 and nadmitted = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  List.iter
    (fun (e : event) ->
      if e.wid >= 0 && e.wid < domains then begin
        let w = e.wid in
        nevents.(w) <- nevents.(w) + 1;
        if e.t0_ns < !lo then lo := e.t0_ns;
        if e.t1_ns > !hi then hi := e.t1_ns;
        let d = e.t1_ns - e.t0_ns in
        if e.kind = Event.task then begin
          busy.(w) <- busy.(w) + d;
          tasks.(w) <- tasks.(w) + 1
        end
        else if e.kind = Event.steal then begin
          steal.(w) <- steal.(w) + d;
          attempts.(w) <- attempts.(w) + 1;
          stolen.(w) <- stolen.(w) + e.arg
        end
        else if e.kind = Event.park then park.(w) <- park.(w) + d
        else if e.kind = Event.wake then wakes.(w) <- wakes.(w) + e.arg
        else if e.kind = Event.cnt_o1_hit then co1 := !co1 + e.arg
        else if e.kind = Event.cnt_full_probe then cpr := !cpr + e.arg
        else if e.kind = Event.cnt_heal then cheal := !cheal + e.arg
        else if e.kind = Event.srv_admit then nadmitted := !nadmitted + e.arg
        else if e.kind = Event.srv_commit then begin
          (* commit spans contain the maintenance phases, which do
             their own busy accounting — count the span only here *)
          sc := !sc + d;
          incr ncommits
        end
        else if e.kind = Event.srv_epoch then begin
          se := !se + d;
          incr nepochs
        end
        else if Event.is_sched e.kind then sched.(w) <- sched.(w) + d
        else if Event.is_dred e.kind then begin
          dred.(w) <- dred.(w) + d;
          if e.kind = Event.dred_delete then dd := !dd + d
          else if e.kind = Event.dred_rederive then dr := !dr + d
          else di := !di + d
        end
        else if Event.is_cnt e.kind then begin
          (* counting phases share the maintenance accumulator: on the
             serial path (no executor tasks) they are the busy time *)
          dred.(w) <- dred.(w) + d;
          if e.kind = Event.cnt_propagate then cp := !cp + d
          else if e.kind = Event.cnt_backward then cb := !cb + d
          else cf := !cf + d
        end
      end)
    events;
  let makespan_ns = if !hi > !lo then !hi - !lo else 0 in
  let makespan_s = seconds makespan_ns in
  let workers =
    Array.init domains (fun w ->
        (* a worker that ran no executor tasks but recorded DRed
           phases (the serial maintenance path) counts those as its
           busy time — they are nested inside tasks otherwise *)
        let busy_ns = if tasks.(w) > 0 then busy.(w) else dred.(w) in
        let accounted = busy_ns + sched.(w) + steal.(w) + park.(w) in
        {
          wid = w;
          busy_s = seconds busy_ns;
          sched_s = seconds sched.(w);
          steal_s = seconds steal.(w);
          park_s = seconds park.(w);
          idle_s = seconds (max 0 (makespan_ns - accounted));
          tasks = tasks.(w);
          steal_attempts = attempts.(w);
          stolen = stolen.(w);
          wakes = wakes.(w);
          events = nevents.(w);
          dropped = (match dropped with Some a when w < Array.length a -> a.(w) | _ -> 0);
        })
  in
  let sum f = Array.fold_left (fun acc w -> acc +. f w) 0.0 workers in
  let busy_s = sum (fun w -> w.busy_s) in
  {
    workers;
    makespan_s;
    busy_s;
    sched_s = sum (fun w -> w.sched_s);
    steal_s = sum (fun w -> w.steal_s);
    park_s = sum (fun w -> w.park_s);
    idle_s = sum (fun w -> w.idle_s);
    utilization =
      (if makespan_s > 0.0 then busy_s /. (float_of_int domains *. makespan_s) else 0.0);
    dred_delete_s = seconds !dd;
    dred_rederive_s = seconds !dr;
    dred_insert_s = seconds !di;
    cnt_propagate_s = seconds !cp;
    cnt_backward_s = seconds !cb;
    cnt_forward_s = seconds !cf;
    cnt_o1_hits = !co1;
    cnt_full_probes = !cpr;
    cnt_healed = !cheal;
    srv_commit_s = seconds !sc;
    srv_epoch_s = seconds !se;
    srv_commits = !ncommits;
    srv_epochs = !nepochs;
    srv_admitted = !nadmitted;
    events = Array.fold_left ( + ) 0 nevents;
    dropped =
      (match dropped with Some a -> Array.fold_left ( + ) 0 a | None -> 0);
  }

let of_trace tr =
  let n = Trace.domains tr in
  let events = ref [] in
  let dropped = Array.make (max 1 n) 0 in
  for w = 0 to n - 1 do
    let r = Trace.ring tr w in
    dropped.(w) <- Ring.dropped r;
    Ring.iter r (fun ~kind ~t_ns ~a ~b ->
        let t0_ns =
          if Event.is_instant kind then t_ns else Event.span_start_ns kind ~a ~b
        in
        events := { wid = w; kind; t0_ns; t1_ns = t_ns; arg = a } :: !events)
  done;
  of_events ~domains:n ~dropped !events

let sched_overhead_s (t : t) = t.sched_s

let pp ppf t =
  let n = Array.length t.workers in
  Format.fprintf ppf "makespan %.6f s over %d worker%s, utilization %.1f%%@,"
    t.makespan_s n
    (if n = 1 then "" else "s")
    (100.0 *. t.utilization);
  Format.fprintf ppf
    "totals: busy %.6f s, scheduler %.6f s (lock wait + hold), steal %.6f s, park \
     %.6f s, idle %.6f s@,"
    t.busy_s t.sched_s t.steal_s t.park_s t.idle_s;
  if t.dred_delete_s +. t.dred_rederive_s +. t.dred_insert_s > 0.0 then
    Format.fprintf ppf "DRed phases: delete %.6f s, rederive %.6f s, insert %.6f s@,"
      t.dred_delete_s t.dred_rederive_s t.dred_insert_s;
  if t.cnt_propagate_s +. t.cnt_backward_s +. t.cnt_forward_s > 0.0 then
    Format.fprintf ppf
      "Counting phases: propagate %.6f s, backward %.6f s, forward %.6f s@,"
      t.cnt_propagate_s t.cnt_backward_s t.cnt_forward_s;
  if t.cnt_o1_hits + t.cnt_full_probes > 0 then
    Format.fprintf ppf
      "Counting suspects: %d proven O(1) by the level index, %d full probes@,"
      t.cnt_o1_hits t.cnt_full_probes;
  if t.cnt_healed > 0 then
    Format.fprintf ppf "Counting index healing: %d tuples re-leveled@," t.cnt_healed;
  if t.srv_commits + t.srv_epochs + t.srv_admitted > 0 then
    Format.fprintf ppf
      "Server: %d commit%s totaling %.6f s, %d closed epoch%s totaling %.6f s, \
       %d ops admitted@,"
      t.srv_commits
      (if t.srv_commits = 1 then "" else "s")
      t.srv_commit_s t.srv_epochs
      (if t.srv_epochs = 1 then "" else "s")
      t.srv_epoch_s t.srv_admitted;
  Format.fprintf ppf "%4s %10s %10s %10s %10s %10s %6s %6s %7s@," "wid" "busy" "sched"
    "steal" "park" "idle" "tasks" "stolen" "events";
  Array.iter
    (fun (w : worker) ->
      Format.fprintf ppf "%4d %10.6f %10.6f %10.6f %10.6f %10.6f %6d %6d %7d%s@,"
        w.wid w.busy_s w.sched_s w.steal_s w.park_s w.idle_s w.tasks w.stolen w.events
        (if w.dropped > 0 then Printf.sprintf " (dropped %d)" w.dropped else ""))
    t.workers;
  if t.dropped > 0 then
    Format.fprintf ppf "WARNING: %d event%s dropped to ring wraparound@," t.dropped
      (if t.dropped = 1 then "" else "s")

let json t =
  let num f = Json.Number f and int = Json.int in
  let worker (w : worker) =
    Json.Object
      [ ("wid", int w.wid); ("busy_s", num w.busy_s); ("sched_s", num w.sched_s);
        ("steal_s", num w.steal_s); ("park_s", num w.park_s); ("idle_s", num w.idle_s);
        ("tasks", int w.tasks); ("steal_attempts", int w.steal_attempts);
        ("stolen", int w.stolen); ("wakes", int w.wakes); ("events", int w.events);
        ("dropped", int w.dropped) ]
  in
  Json.Object
    [ ("makespan_s", num t.makespan_s); ("utilization", num t.utilization);
      ("busy_s", num t.busy_s); ("sched_s", num t.sched_s); ("steal_s", num t.steal_s);
      ("park_s", num t.park_s); ("idle_s", num t.idle_s);
      ( "dred",
        Json.Object
          [ ("delete_s", num t.dred_delete_s); ("rederive_s", num t.dred_rederive_s);
            ("insert_s", num t.dred_insert_s) ] );
      ( "cnt",
        Json.Object
          [ ("propagate_s", num t.cnt_propagate_s); ("backward_s", num t.cnt_backward_s);
            ("forward_s", num t.cnt_forward_s); ("o1_hits", int t.cnt_o1_hits);
            ("full_probes", int t.cnt_full_probes); ("healed", int t.cnt_healed) ] );
      ( "srv",
        Json.Object
          [ ("commit_s", num t.srv_commit_s); ("epoch_s", num t.srv_epoch_s);
            ("commits", int t.srv_commits); ("epochs", int t.srv_epochs);
            ("admitted", int t.srv_admitted) ] );
      ("events", int t.events); ("dropped", int t.dropped);
      ("workers", Json.Array (Array.to_list (Array.map worker t.workers))) ]
