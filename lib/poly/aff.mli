(** Integer affine expressions over a fixed-arity variable vector.

    An expression is [sum_i coeffs.(i) * x_i + const]. All polyhedral
    objects in this library (constraints, access maps, layouts, schedules)
    are built from these. Arities must match when combining expressions. *)

type t = private { coeffs : int array; const : int }

exception Arity_mismatch of int * int

val make : int array -> int -> t
(** [make coeffs const]; the coefficient array is copied. *)

val const : int -> int -> t
(** [const arity c] is the constant expression [c] over [arity] variables. *)

val var : int -> int -> t
(** [var arity i] is the variable [x_i]. @raise Invalid_argument. *)

val arity : t -> int
val coeff : t -> int -> int
val constant : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : t -> int -> t

val eval : t -> int array -> int
(** @raise Arity_mismatch. *)

val range : t -> (int * int) array -> int * int
(** [range e box] is the least and greatest value of [e] over the box of
    inclusive per-variable bounds [box] (one pair per variable). *)

val is_constant : t -> bool
val equal : t -> t -> bool

val extend : t -> int -> t
(** [extend e n] reinterprets [e] over [arity e + n] variables; the new
    trailing variables have coefficient 0. *)

val shift : t -> int -> int -> t
(** [shift e by n] moves [e]'s variables up by [by] positions inside a new
    arity [n] (used to embed codomain expressions in relation space). *)

val substitute : t -> int -> t -> t
(** [substitute e i repl] replaces variable [i] by expression [repl]
    (same arity as [e]); the coefficient of [i] in [repl] must be 0. *)

val gcd_reduce : t -> t * int
(** Divide by the gcd of the coefficients (not the constant); returns the
    reduced expression and the gcd (1 if all coefficients are 0). *)

val pp : names:string array -> Format.formatter -> t -> unit
val pp_anon : Format.formatter -> t -> unit
