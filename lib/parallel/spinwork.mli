(** Calibrated busy-work for realizing simulated task durations.

    [spin s] burns roughly [s] seconds of CPU. The inner loop is
    calibrated (iterations per microsecond, measured once against the
    monotonic clock) so the clock is consulted once per ~2 microsecond
    chunk rather than on every iteration. *)

val calibrate : unit -> unit
(** Measure the inner-loop rate if not yet measured (~5 ms). Call once
    before starting worker domains; [spin] self-calibrates otherwise,
    which would repeat the measurement in every domain. *)

val spin : float -> unit
