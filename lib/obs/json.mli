(** Minimal strict JSON reader and printer.

    {!to_buffer}/{!to_string} is the one JSON printer of the repo's
    writers (bench sections, trace exports, [dms analyze --json]);
    {!parse} reads their output back (well-formedness tests,
    [dms trace], tools/bench_check) without an external dependency.
    Strict RFC 8259: bare [NaN]/[Infinity], trailing commas and
    comments are parse errors, and the printer refuses non-finite
    numbers — deliberately, so a bench emitting NaN or Infinity fails
    loudly. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

val int : int -> t
(** [int n] is [Number (float_of_int n)]. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer buf j] appends [j] on one line, members and elements
    separated by a comma and a space. Strings escape the double quote,
    the backslash and every byte below 0x20; bytes from 0x80 up pass
    through unchanged. An integral number with magnitude below 1e15
    prints with no fraction; any other number prints as the
    shortest of [%.15g], [%.16g] and [%.17g] that parses back to the
    same float, so [parse (to_string j) = j]. Raises [Invalid_argument]
    on a NaN or infinite number. *)

val to_string : t -> string
(** {!to_buffer} into a fresh string. *)

val parse : string -> t
(** Raises {!Parse_error} with a byte offset on malformed input. *)

val of_file : string -> t
(** Reads and parses a whole file; raises {!Parse_error} or
    [Sys_error]. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_list : t -> t list option

val to_assoc : t -> (string * t) list option

val to_str : t -> string option

val to_float : t -> float option

val to_int : t -> int option
(** [Some] only for numbers with integral value. *)

val to_bool : t -> bool option
