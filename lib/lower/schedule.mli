(** Schedules in Kelly's 2d+1 representation (Section IV-C/E).

    A per-statement schedule interleaves scalar (beta) dimensions with
    domain dimensions: instance [x] of a rank-d statement maps to the
    schedule-space tuple

    [beta.(0), x.(dims.(0)), beta.(1), x.(dims.(1)), ..., beta.(d)]

    padded with zeros to the program's uniform schedule arity. Tuples are
    compared lexicographically ({!Poly.Lex}); equal beta prefixes encode
    loop fusion, and [dims] encodes loop permutation. This restricted,
    always-codegen-able class is what our rescheduler searches; legality
    is checked against exact element dependences. *)

type sched1 = { betas : int array; dims : int array }
(** [Array.length betas = Array.length dims + 1]; [dims] is a permutation
    of the statement's domain dimensions, outermost first. *)

type t = (string * sched1) list
(** Keyed by [Flow.statement.stmt_name]. *)

exception Error of string

val reference : Flow.program -> t
(** The implicit reference schedule: statements in program order, loops in
    domain order (Section IV-C). *)

val find : t -> string -> sched1
(** @raise Error for unscheduled statements. *)

val depth : t -> int
(** Maximum domain rank among scheduled statements. *)

val tuple_arity : t -> int
(** Uniform schedule-space arity, [2 * depth + 1]. *)

val timestamp : t -> sched1 -> int array -> Poly.Lex.timestamp
(** Schedule tuple of one instance, padded to [tuple_arity]. *)

val to_aff_map : t -> Flow.statement -> sched1 -> Poly.Aff_map.t
(** The schedule as an affine map from the statement's instance space to
    the anonymous schedule space. *)

val image_extrema :
  t -> sched1 -> Poly.Basic_set.t -> Poly.Lex.timestamp * Poly.Lex.timestamp
(** Lexicographic minimum and maximum of the schedule image of a box
    domain. Exact for this schedule class (each tuple component is a
    single domain variable or a constant, hence monotone).
    @raise Error if the domain is not a box. *)

val validate : Flow.program -> t -> unit
(** Structural checks: every statement scheduled, [dims] are
    permutations, and no two statements share a full beta-vector at equal
    loop structure ambiguously (distinct statements in one fused body must
    have distinct trailing betas). @raise Error otherwise. *)

val pp : Format.formatter -> t -> unit
