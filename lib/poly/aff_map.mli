(** Affine functions between spaces.

    Tensor access functions, memory layouts (Section IV-D) and schedules
    (Section IV-C) are all affine functions; this module gives them exact,
    composable semantics. The forward direction never needs division, so
    evaluation and composition are exact even for non-unimodular layouts
    such as [t\[i,j,k\] -> t\[121 i + 11 j + k\]]. *)

type t

val make : Space.t -> Space.t -> Aff.t array -> t
(** [make dom cod exprs] with one expression per codomain dimension, each of
    arity [Space.arity dom]. @raise Invalid_argument on arity mismatch. *)

val identity : Space.t -> t

val constant : Space.t -> Space.t -> int array -> t
(** Maps every domain point to the given codomain point. *)

val dom : t -> Space.t
val cod : t -> Space.t
val exprs : t -> Aff.t array

val apply : t -> int array -> int array
val compose : t -> t -> t
(** [compose g f] is [g ∘ f]. @raise Invalid_argument if arities disagree. *)

val concat_outputs : ?cod:Space.t -> t -> t -> t
(** Pairing: same domain, stacked codomains ([⟨f, g⟩]). *)

val select_outputs : t -> int list -> Space.t -> t
(** Keep only the listed codomain dimensions, in the given order. *)

val graph_constraints : t -> Basic_set.constr list
(** Equalities [cod_k - expr_k = 0] over the concatenated [dom; cod] space. *)

val image : t -> Basic_set.t -> Basic_set.t
(** FM image of a basic set (may over-approximate integer points for
    non-unit coefficient maps; exact for unimodular maps). *)

val image_points : t -> Basic_set.t -> int array list
(** Exact image by enumeration (bounded domains only), deduplicated. *)

val is_injective_on : t -> Basic_set.t -> bool
(** Exact injectivity over a bounded domain (used to validate layout and
    partition maps, Section IV-D). One {!Basic_set.walk} over the domain,
    stopping at the first repeated image; the images seen are kept in a
    bitmap over their bounding box, so no point list is built and no
    array is allocated per point. Only an image box far larger than the
    domain's keeps them as tuples in a hashtable.
    @raise Aff.Arity_mismatch when the set is not over the domain's
    arity. @raise Invalid_argument when it is unbounded. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** isl-like: [{ S\[i, j\] -> A\[11 i + j\] }]. *)
