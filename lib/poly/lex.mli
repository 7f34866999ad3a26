(** Lexicographic order on schedule-space tuples (Section IV-C).

    Schedule tuples impose a total order via lexicographic comparison;
    liveness intervals (Section IV-F) are ranges in this order. Tuples of
    different lengths are compared by padding the shorter one with
    trailing zeros, matching the usual schedule-space convention. *)

type timestamp = int array

val compare : timestamp -> timestamp -> int
val equal : timestamp -> timestamp -> bool
val min : timestamp -> timestamp -> timestamp
val max : timestamp -> timestamp -> timestamp
val le : timestamp -> timestamp -> bool
val lt : timestamp -> timestamp -> bool

type interval = { first : timestamp; last : timestamp }
(** A non-empty closed interval [first, last] in schedule space: the
    [ge_le] image of Section IV-F. *)

val interval : timestamp -> timestamp -> interval
(** @raise Invalid_argument if [first > last]. *)

val overlap : interval -> interval -> bool
val pp_timestamp : Format.formatter -> timestamp -> unit
