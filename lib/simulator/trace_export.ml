let write ?(labels = string_of_int) oc ~procs (log : Engine.log_entry array) =
  let entries = Array.copy log in
  Array.sort
    (fun a b -> compare (a.Engine.start, a.Engine.task) (b.Engine.start, b.Engine.task))
    entries;
  (* greedy row assignment: first row free at the task's start time *)
  let free_at = Array.make (max procs 1) 0.0 in
  let row_of entry =
    let eps = 1e-12 in
    let row = ref (-1) in
    for r = 0 to Array.length free_at - 1 do
      if !row < 0 && free_at.(r) <= entry.Engine.start +. eps then row := r
    done;
    let r = if !row >= 0 then !row else 0 in
    if entry.Engine.finish > free_at.(r) then free_at.(r) <- entry.Engine.finish;
    r
  in
  let us t = Obs.Json.Number (t *. 1e6) in
  let event e =
    Obs.Json.Object
      [ ("name", Obs.Json.String (labels e.Engine.task)); ("ph", Obs.Json.String "X");
        ("pid", Obs.Json.int 1); ("tid", Obs.Json.int (row_of e));
        ("ts", us e.Engine.start); ("dur", us (e.Engine.finish -. e.Engine.start)) ]
  in
  output_string oc (Obs.Json.to_string (Obs.Json.Array (Array.to_list (Array.map event entries))));
  output_char oc '\n'

let to_file ?labels path ~procs log =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write ?labels oc ~procs log)
