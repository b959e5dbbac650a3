(* Calibrated busy-work. The seed executor's spin loop called
   Unix.gettimeofday on every iteration, which both floors the
   resolution of short tasks at the syscall cost and hammers the VDSO
   from every domain at once. Instead we calibrate, once, how many
   iterations of an opaque inner loop fit in a microsecond, then check
   the monotonic clock only once per chunk of roughly that size. *)

(* Written once by [calibrate] before the executor's workers start
   (they receive their job through the crew's mutex hand-off), then
   read by every worker; a [Vatomic.Plain] cell rather than a bare ref so
   the analysis build would flag any write that races the workers. *)
let iters_per_usec = Prelude.Vatomic.Plain.make 0.0

let calibration_target = 5e-3 (* seconds of calibration loop *)

let calibrate () =
  if Prelude.Vatomic.Plain.get iters_per_usec = 0.0 then begin
    let block = 50_000 in
    let t0 = Prelude.Mclock.now () in
    let iters = ref 0 in
    while Prelude.Mclock.now () -. t0 < calibration_target do
      for _ = 1 to block do
        ignore (Sys.opaque_identity 0)
      done;
      iters := !iters + block
    done;
    let dt = Prelude.Mclock.now () -. t0 in
    Prelude.Vatomic.Plain.set iters_per_usec
      (Float.max 1.0 (float_of_int !iters *. 1e-6 /. dt))
  end

let spin seconds =
  if seconds > 0.0 then begin
    if Prelude.Vatomic.Plain.get iters_per_usec = 0.0 then calibrate ();
    let deadline = Prelude.Mclock.now () +. seconds in
    (* chunk ~2us of work between clock reads, bounded so a mis-
       calibration can never overshoot grossly *)
    let chunk = int_of_float (2.0 *. Prelude.Vatomic.Plain.get iters_per_usec) in
    let chunk = max 32 (min chunk 1_000_000) in
    while Prelude.Mclock.now () < deadline do
      for _ = 1 to chunk do
        ignore (Sys.opaque_identity 0)
      done
    done
  end
