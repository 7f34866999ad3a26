(** Accumulator scalarization.

    Rewrites the canonical polyhedral reduction pattern

    {v a[ix] = c;  for (...) ... a[ix] += e; v}

    (where [ix] is invariant in the reduction loops) into a register
    accumulator

    {v double acc = c;  for (...) ... acc += e;  a[ix] = acc; v}

    This halves the memory-port pressure of reductions — the output array
    is written once per element instead of once per reduction step — and
    is what lets the HLS model pipeline the inner loop at II=1 with
    single-port PLMs (Section V-A1). *)

val optimize : Prog.proc -> Prog.proc
(** Semantics-preserving; the result still validates. The first
    component of {!optimize_with_origins}. *)

type origin =
  | Leaf of int
      (** the input's leaf at this pre-order index, kept in place or
          rewritten onto the accumulator (its init and its
          accumulations) *)
  | Spill of { source : int; last : (string * int) list }
      (** the store of an accumulator after its reduction nest. [source]
          is the input leaf whose write it takes over: the nest's last
          accumulation in pre-order, which runs last, or the init when
          the nest never accumulates. [last] pins each loop from the
          nest down to [source] at its final value ([hi - 1]), so
          ([source], [last]) is the accumulation's last instance. *)
(** Where a leaf of the optimized procedure came from. *)

val optimize_with_origins : Prog.proc -> Prog.proc * origin list
(** {!optimize}, plus one {!origin} per leaf statement of the result in
    pre-order, the order [Loopir.Compiled] numbers probe sites. *)

val count_accumulators : Prog.proc -> int
(** Number of scalar accumulators introduced (for tests/reports). *)
