(* Event kinds and their field conventions. One ring record is four
   flat ints: (kind, t_ns, a, b). Spans carry their own start so no
   begin/end pairing pass is needed at export time:

   - task:           t = finish, a = task id,       b = start
   - steal:          t = end,    a = tasks stolen,  b = start
   - park:           t = wake,   a = 0,             b = park start
   - wake (instant): t = now,    a = wakes requested
   - sched-*:        t = release, a = lock wait ns, b = acquire stamp
     (full span incl. the wait starts at b - a)
   - dred-*:         t = phase end, a = component,  b = phase start
   - cnt-propagate/backward/forward:
                     t = phase end, a = component,  b = phase start
   - cnt-o1-hit / cnt-full-probe (instant):
                     t = now,    a = suspect count, b = component
   - cnt-heal (instant):
                     t = now,    a = tuples re-leveled, b = component
   - srv-admit (instant):
                     t = now,    a = ops admitted,  b = target epoch
   - srv-commit:     t = publish, a = epoch produced, b = commit start
   - srv-epoch:      t = epoch end, a = epoch id,   b = epoch start *)

type kind = int

let task = 0
let steal = 1
let park = 2
let wake = 3
let sched_refill = 4
let sched_complete = 5
let sched_activate = 6
let dred_delete = 7
let dred_rederive = 8
let dred_insert = 9
let cnt_propagate = 10
let cnt_backward = 11
let cnt_forward = 12
let cnt_o1_hit = 13
let cnt_full_probe = 14
let srv_admit = 15
let srv_commit = 16
let srv_epoch = 17
let cnt_heal = 18

let count = 19

let names =
  [|
    "task";
    "steal";
    "park";
    "wake";
    "sched-refill";
    "sched-complete";
    "sched-activate";
    "dred-delete";
    "dred-rederive";
    "dred-insert";
    "cnt-propagate";
    "cnt-backward";
    "cnt-forward";
    "cnt-o1-hit";
    "cnt-full-probe";
    "srv-admit";
    "srv-commit";
    "srv-epoch";
    "cnt-heal";
  |]

let name k = if k >= 0 && k < count then names.(k) else "unknown"

let of_name s =
  let rec go i = if i >= count then None else if names.(i) = s then Some i else go (i + 1) in
  go 0

let is_instant k =
  k = wake || k = cnt_o1_hit || k = cnt_full_probe || k = cnt_heal || k = srv_admit

let is_sched k = k = sched_refill || k = sched_complete || k = sched_activate

let is_dred k = k = dred_delete || k = dred_rederive || k = dred_insert

let is_cnt k = k = cnt_propagate || k = cnt_backward || k = cnt_forward

let is_srv k = k = srv_admit || k = srv_commit || k = srv_epoch

(* Start of the full span in ns-since-epoch; for scheduler sections
   the recorded stamp [b] is taken after the lock was acquired and [a]
   is the time spent waiting for it, so the section began at b - a. *)
let span_start_ns k ~a ~b = if is_sched k then b - a else b
