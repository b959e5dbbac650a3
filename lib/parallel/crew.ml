(* A crew of [size - 1] long-lived worker domains executing one job
   per member with a completion barrier. All coordination goes through
   one mutex + two condition variables (job posted / job drained):
   acquire-release on the mutex gives the happens-before edges that
   make the jobs' plain writes visible to the caller at the barrier,
   and the caller's writes visible to the next job. Workers are keyed
   by member index, so member [i] always runs on the same domain. *)

type t = {
  size : int;
  m : Mutex.t;
  posted : Condition.t;  (* a new job generation is available *)
  drained : Condition.t;  (* all workers finished the current job *)
  mutable gen : int;  (* job generation counter *)
  mutable job : (int -> unit) option;  (* job of the current generation *)
  mutable remaining : int;  (* workers still running the current job *)
  mutable failure : exn option;  (* first worker exception of the job *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  entry : Mutex.t;  (* serializes concurrent [run] callers *)
}

let worker t i =
  let last = ref 0 in
  let rec loop () =
    Mutex.lock t.m;
    while (not t.stopping) && t.gen = !last do
      Condition.wait t.posted t.m
    done;
    if t.stopping then Mutex.unlock t.m
    else begin
      last := t.gen;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.m;
      let failed = match job i with () -> None | exception e -> Some e in
      Mutex.lock t.m;
      (match failed with
      | Some e when t.failure = None -> t.failure <- Some e
      | Some _ | None -> ());
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.broadcast t.drained;
      Mutex.unlock t.m;
      loop ()
    end
  in
  loop ()

let create ~size =
  if size < 1 then invalid_arg "Crew.create: size < 1";
  let t =
    {
      size;
      m = Mutex.create ();
      posted = Condition.create ();
      drained = Condition.create ();
      gen = 0;
      job = None;
      remaining = 0;
      failure = None;
      stopping = false;
      workers = [||];
      entry = Mutex.create ();
    }
  in
  t.workers <- Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let run t job =
  Mutex.lock t.entry;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.entry) @@ fun () ->
  if t.size = 1 then job 0
  else begin
    Mutex.lock t.m;
    if t.stopping then begin
      Mutex.unlock t.m;
      invalid_arg "Crew.run: crew is shut down"
    end;
    t.job <- Some job;
    t.remaining <- t.size - 1;
    t.failure <- None;
    t.gen <- t.gen + 1;
    Condition.broadcast t.posted;
    Mutex.unlock t.m;
    (* member 0 runs on the caller; even if it raises, the barrier must
       still drain the workers before control leaves this call *)
    let mine = match job 0 with () -> None | exception e -> Some e in
    Mutex.lock t.m;
    while t.remaining > 0 do
      Condition.wait t.drained t.m
    done;
    t.job <- None;
    let theirs = t.failure in
    t.failure <- None;
    Mutex.unlock t.m;
    match (mine, theirs) with
    | Some e, _ -> raise e
    | None, Some e -> raise e
    | None, None -> ()
  end

let shutdown t =
  Mutex.lock t.m;
  if t.stopping then Mutex.unlock t.m
  else begin
    t.stopping <- true;
    Condition.broadcast t.posted;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* Idle crews keyed by size. A borrower takes an idle crew of its size
   or spawns one, and returns it afterwards, so back-to-back borrowers
   spawn no domains; concurrent borrowers get distinct crews. Idle
   crews stay parked on [posted]. *)
type pool = { idle : (int, t list) Hashtbl.t; lock : Mutex.t }

let pool () = { idle = Hashtbl.create 4; lock = Mutex.create () }

let with_crew pool ~size f =
  Mutex.lock pool.lock;
  let lent =
    match Hashtbl.find_opt pool.idle size with
    | Some (crew :: rest) ->
      Hashtbl.replace pool.idle size rest;
      Some crew
    | Some [] | None -> None
  in
  Mutex.unlock pool.lock;
  let crew = match lent with Some crew -> crew | None -> create ~size in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock pool.lock;
      Hashtbl.replace pool.idle size
        (crew :: Option.value (Hashtbl.find_opt pool.idle size) ~default:[]);
      Mutex.unlock pool.lock)
    (fun () -> f crew)
