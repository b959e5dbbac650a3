(* One queue, one worker. [lock] guards the queue and the spawn flag;
   a job publishes its outcome into its own cell, then broadcasts
   [finished] under [lock], so a waiter that checked its cell under
   [lock] cannot miss the wakeup. *)

type 'a pending = ('a, exn) result option Atomic.t

let lock = Mutex.create ()

let work = Condition.create ()  (* a job was queued *)

let finished = Condition.create ()  (* a job published its outcome *)

let queue : (unit -> unit) Queue.t = Queue.create ()

let spawned = ref false

let rec loop () =
  Mutex.lock lock;
  while Queue.is_empty queue do
    Condition.wait work lock
  done;
  let job = Queue.pop queue in
  Mutex.unlock lock;
  job ();
  loop ()

let start f =
  let cell = Atomic.make None in
  let job () =
    let outcome = match f () with v -> Ok v | exception e -> Error e in
    Mutex.lock lock;
    Atomic.set cell (Some outcome);
    Condition.broadcast finished;
    Mutex.unlock lock
  in
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
  if not !spawned then begin
    ignore (Domain.spawn loop : unit Domain.t);
    spawned := true
  end;
  Queue.push job queue;
  Condition.signal work;
  cell

let is_done cell = Option.is_some (Atomic.get cell)

let wait cell =
  Mutex.lock lock;
  while Option.is_none (Atomic.get cell) do
    Condition.wait finished lock
  done;
  Mutex.unlock lock;
  Option.get (Atomic.get cell)
