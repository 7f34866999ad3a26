(** Hit/miss counters for the polyhedral memoization layer.

    A thin paired view over the {!Obs.Metrics} registry: [counter n]
    is the pair of registry counters [n ^ ".hits"] / [n ^ ".misses"],
    so the caches report through the same substrate as every other
    subsystem and show up in [Obs.Export.pp_metrics]'s cache section
    and the metrics JSON. Counters are atomic and safe to bump from
    multiple domains. *)

type counter

val counter : string -> counter
(** Get or register the named hit/miss pair. Names are expected to be
    unique ("poly.project_out", "poly.compose", ...); a duplicate name
    returns a handle onto the same underlying registry cells. *)

val hit : counter -> unit
val miss : counter -> unit

val name : counter -> string
val hits : counter -> int
val misses : counter -> int

val all : unit -> counter list
(** Every registered counter, in registration order. *)

val reset : unit -> unit
(** Zero the whole {!Obs.Metrics} registry — every counter, gauge and
    histogram, not just the cache pairs (the caches themselves are
    cleared separately, via {!Memo.clear_all}). *)
