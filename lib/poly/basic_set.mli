(** Basic integer sets: conjunctions of affine constraints over a space.

    This is the workhorse of the polyhedral substrate. Projection and
    emptiness use Fourier–Motzkin elimination with gcd tightening. FM is
    exact over the rationals; over the integers it may over-approximate
    when eliminating variables with non-unit coefficients — all sets built
    by the compiler flow have unit-coefficient bounds, and analyses that
    require integer exactness use {!enumerate} (domains are bounded, with
    p = 11 at most ~1.8M points). The test suite cross-validates FM
    emptiness against enumeration on randomized sets. A box — each
    constraint on one variable, as every statement domain and schedule
    image the flow builds — skips FM: see {!is_empty}. *)

type constr = Eq of Aff.t | Ge of Aff.t
(** [Eq e] means e = 0; [Ge e] means e >= 0. *)

type t

val universe : Space.t -> t

val of_box : Space.t -> (int * int) list -> t
(** [of_box space bounds] with inclusive per-dimension [(lo, hi)] bounds;
    the standard tensor index space is [of_box s (List.map (fun n -> (0, n-1)) dims)].
    @raise Invalid_argument on arity mismatch. *)

val of_constraints : Space.t -> constr list -> t
(** @raise Invalid_argument if a constraint arity differs from the space. *)

val space : t -> Space.t
val arity : t -> int
val constraints : t -> constr list

val uid : t -> int
(** Hash-cons identity: structurally equal sets built since the last
    {!Memo.clear_all} share one id. Used as a cheap cache key by the
    memoization layer ({!Memo}/{!Stats}) wrapping projection,
    elimination, emptiness and bounds queries. *)

val add_constraint : t -> constr -> t
val intersect : t -> t -> t
(** @raise Invalid_argument on differing arity. *)

val mem : t -> int array -> bool
val is_obviously_empty : t -> bool
val is_empty : t -> bool
(** Fourier–Motzkin emptiness check (rational relaxation + gcd tightening).
    A box — a set each of whose constraints mentions at most one
    variable, decided once when the set is interned — is empty exactly
    when some variable's range is, and is answered without elimination,
    as are its {!var_bounds}, {!bounding_box}, {!lexmin} and {!lexmax}. *)

val eliminate : t -> int -> t
(** Project out one variable; the result keeps the same space arity but the
    variable is unconstrained (existentially quantified then relaxed). *)

val project_out : t -> int list -> Space.t -> t
(** [project_out t vars new_space] removes the listed variable positions
    entirely and renumbers survivors into [new_space]
    (arity = arity t - |vars|). *)

val var_bounds : t -> int -> int option * int option
(** Tightest FM-derived lower/upper integer bounds of one variable;
    [None] when unbounded in that direction. *)

val bounding_box : t -> (int * int) array option
(** Per-variable bounds when fully bounded, else [None]. *)

val enumerate : t -> int array list
(** All integer points (exact). @raise Invalid_argument when unbounded. *)

val walk :
  ?pin:[ `Low | `High ] ->
  t ->
  Aff.t array ->
  (int array -> int array -> unit) ->
  int
(** [walk t exprs visit] visits every integer point of [t] in the order
    of {!enumerate} (row-major) without materializing them, and returns
    how many it visited. [exprs] are over [t]'s variables. [visit x v] gets the point [x] and, in
    [v.(0 .. Array.length exprs - 1)], the values of [exprs] at [x]; both
    are scratch arrays the walk keeps updating, so [visit] must not
    retain them. Values are kept incrementally, so a point costs no
    allocation and O(1) additions per tracked expression. Raising [Exit]
    from [visit] stops the walk.

    With [~pin], when [t] has no constraint its bounding box does not
    imply (so [t] is that box), every dimension whose coefficient is 0
    in all of [exprs] is held at its lower ([`Low]) or upper ([`High])
    bound: the walk visits, in the same order, exactly those points of
    {!enumerate} whose such coordinates sit at that bound, and counts
    each as the points it stands for, so a full walk still returns the
    set's point count. Other sets are walked in full.
    @raise Invalid_argument when [t] is unbounded. *)

val lexmin : t -> int array option
val lexmax : t -> int array option
(** Lexicographic extrema, computed symbolically from prefix
    projections: x_{n-1} .. x_1 are eliminated once, in that order, and
    each x_j takes its bound in the j-th projection with the already
    chosen x_0 .. x_{j-1} substituted — n-1 Fourier–Motzkin eliminations
    per extremum beyond the emptiness test. The greedy point is
    confirmed by membership; when a bound is only rationally attained,
    enumeration decides, so the result is always exact (cross-validated
    against enumeration in the test suite). [None] for empty sets.
    @raise Invalid_argument when the needed direction is unbounded. *)

val is_empty_exact : t -> bool
(** Exact integer emptiness: FM first; if FM says nonempty and the set is
    bounded, confirm by enumeration. *)

val pp : Format.formatter -> t -> unit
(** isl-like notation: [{ S\[i, j\] : 0 <= i ... }]. *)
