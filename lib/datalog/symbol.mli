(** Constant interning: maps ground constants to dense integers so that
    tuples are flat [int array]s. One table per database.

    Domain-safe: [intern] serializes writers on a mutex (parallel
    maintenance tasks mint aggregate results concurrently), while
    [const_of]/[compare_codes]/[count] stay lock-free over an
    atomically published snapshot of the constant store. *)

type t

val create : unit -> t

val intern : t -> Ast.const -> int

val find : t -> Ast.const -> int option
(** The code of an already-interned constant; never mints one, so a
    read of an unknown constant leaves the table unchanged. *)

val const_of : t -> int -> Ast.const
(** @raise Invalid_argument on an unknown code. *)

val count : t -> int

val compare_codes : t -> int -> int -> int
(** Order by the constants' {!Ast.compare_const}, not by code. *)
