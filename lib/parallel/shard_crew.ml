(* A crew of [shards - 1] long-lived worker domains executing one job
   per shard with a completion barrier. All coordination goes through
   one mutex + two condition variables (job posted / job drained):
   acquire-release on the mutex gives the happens-before edges that
   make the jobs' plain per-shard buffer writes visible to the
   coordinator at the barrier, and vice versa for the next round's
   inputs. Workers are keyed by shard index, so shard [s] always runs
   on the same domain — per-shard plan scratch never migrates. *)

type t = {
  nshards : int;
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

let worker t s =
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
      let failed = match job s with () -> None | exception e -> Some e in
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

let create ~shards =
  if shards < 1 then invalid_arg "Shard_crew.create: shards < 1";
  let t =
    {
      nshards = shards;
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
  t.workers <- Array.init (shards - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let shards t = t.nshards

let run t job =
  Mutex.lock t.entry;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.entry) @@ fun () ->
  if t.nshards = 1 then job 0
  else begin
    Mutex.lock t.m;
    if t.stopping then begin
      Mutex.unlock t.m;
      invalid_arg "Shard_crew.run: crew is shut down"
    end;
    t.job <- Some job;
    t.remaining <- t.nshards - 1;
    t.failure <- None;
    t.gen <- t.gen + 1;
    Condition.broadcast t.posted;
    Mutex.unlock t.m;
    (* shard 0 runs on the caller; even if it raises, the barrier must
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

let with_crew pool ~shards f =
  Mutex.lock pool.lock;
  let lent =
    match Hashtbl.find_opt pool.idle shards with
    | Some (crew :: rest) ->
      Hashtbl.replace pool.idle shards rest;
      Some crew
    | Some [] | None -> None
  in
  Mutex.unlock pool.lock;
  let crew = match lent with Some crew -> crew | None -> create ~shards in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock pool.lock;
      Hashtbl.replace pool.idle shards
        (crew :: Option.value (Hashtbl.find_opt pool.idle shards) ~default:[]);
      Mutex.unlock pool.lock)
    (fun () -> f crew)
