(** The independent static verifier behind [cfdc check].

    The compiler pipeline already carries its own legality arguments: the
    rescheduler only builds dependence-preserving schedules
    ([Lower.Reschedule]), codegen bounds accesses by interval
    arithmetic, and Mnemosyne's substitute shares memory only between
    compatible arrays. This module re-derives each of those claims {e from
    first principles} with {!Poly} — dependence relations straight from
    [Lower.Flow], Fourier–Motzkin range analysis on the emitted loop nest,
    lexicographic live intervals recomputed from schedule graphs — and
    cross-checks the pipeline's output against them. None of the checked
    modules ([Lower.Reschedule], [Lower.Codegen], [Liveness.Analysis],
    [Mnemosyne.Memgen]) is consulted for the verdict, except for the
    per-array port-demand formula [Mnemosyne.Memgen.ports_with_unroll]:
    it specifies what a unit must serve, and [share-ports] checks each
    unit's provisioning against it.

    Every failed proof is reported as a {!Diagnostic.t} with a stable rule
    id and, where possible, a concrete witness (a statement-instance pair,
    an out-of-range index valuation, an overlapping interval pair) found by
    symbolic lexmin or exact enumeration. See [docs/ANALYSIS.md] for the
    rule catalogue. *)

val use_before_def :
  Lower.Flow.program -> Lower.Schedule.t -> Diagnostic.t list
(** Use-before-def (rule [use-before-def]).

    By exact enumeration of statement instances, computes the
    lexicographically first write timestamp of every array element (the
    first-write half of {!element_liveness}) and flags any read scheduled
    at-or-before it (reads of [Input] arrays are exempt: the virtual
    first statement writes them). A [Mac] statement's read-modify-write
    of its own accumulator counts as a read, so a missing or late
    initialization is caught here even though accumulation reordering is
    otherwise permitted. Elements read but never written at all are also
    flagged. One diagnostic per (statement, array) pair, carrying the
    first offending instance.

    The enumeration is one odometer per statement and access over the
    domain's bounding box, with the flat offset kept incrementally and
    the timestamps compared in place, in flat per-array tables. On a box
    domain the odometer holds each dimension the access's offset does
    not depend on at its lower bound ([Poly.Basic_set.walk ~pin:`Low]):
    lowering such a coordinate keeps the element and cannot raise the
    timestamp, so the first writes and the first offending instance are
    the same as a full walk's. The instances covered are counted in
    [verify.ubd.points] and in the [points] attribute of the
    [verify.use-before-def] span, those visited in [verify.ubd.visits]
    and [visits].
    @raise Invalid_argument on a statement with an unbounded domain. *)

type stamp
(** A statement's Kelly timestamp (the 2d+1 tuple of
    [Lower.Schedule.timestamp]) read off an instance point without
    building it. *)

val stamp : tuple_arity:int -> Lower.Schedule.sched1 -> stamp

val store : stamp -> int array -> int array -> int -> unit
(** [store st x tbl base] writes instance [x]'s timestamp into
    [tbl.(base ..)]. *)

type element_stamps = {
  first_write : int array;
      (** element [e]'s lexicographically first write, [tuple_arity]
          ints from [e * tuple_arity] on, where [written] is set *)
  last_access : int array;
      (** its last read or write, laid out likewise; [min_int]s when no
          statement touches it *)
  written : Bytes.t;  (** ['\001'] where some statement writes element [e] *)
}

val element_liveness :
  Lower.Flow.program -> Lower.Schedule.t -> (string * element_stamps) list
(** Exact per-element liveness (the L mapping of Section IV-F), one
    entry per declared array in declaration order: from each element's
    first write to its last access, in schedule time. It is the table
    {!use_before_def} reads, filled by the same walks plus one per
    statement access pinned at the upper bound for the last accesses,
    and is not counted in [verify.ubd.points]. Interface arrays
    carry no virtual bracket here; a reader adds it. Offsets an access
    takes outside its array are skipped. *)

val bounds : Loopir.Prog.proc -> Diagnostic.t list
(** Affine bounds checking (rules [bounds-load], [bounds-store],
    [bounds-ref], [bounds-empty-loop]).

    For every [Load], [Store] and [Accum] in the emitted loop nest, builds
    the basic set of enclosing loop-variable valuations together with the
    linearized index expression and proves by Fourier–Motzkin range
    analysis that the index lies in [0, size) of the referenced buffer —
    storage offsets are already folded into both the index expressions and
    the buffer sizes, so shared buffers are checked at their real extents.
    A violation's witness is the lexicographically least loop valuation
    reaching an out-of-range index. References to undeclared buffers or
    out-of-scope variables are [bounds-ref] errors; statically empty loops
    are reported as [bounds-empty-loop] warnings and their bodies
    skipped. *)

val sharing :
  ?unroll:int ->
  Lower.Flow.program ->
  Lower.Schedule.t ->
  Mnemosyne.Memgen.architecture ->
  Diagnostic.t list
(** Sharing soundness (rules [share-address-space], [share-interface],
    [share-layout], [share-storage], [share-ports], [share-brams]).

    Audits a PLM architecture and its storage map against live intervals
    and interface conflicts recomputed here: each statement's schedule
    image is obtained by projecting the schedule graph (built directly
    from the 2d+1 representation) onto schedule space and taking symbolic
    lexmin/lexmax, bracketed by the virtual host first/last statements for
    interface arrays. The checks are: arrays aliasing overlapping address
    ranges of one backing buffer must have disjoint live intervals;
    distinct slots stacked in one unit must be pairwise
    memory-interface compatible (no statement reads two of their
    residents in one instance); slot ranges within a unit must not
    overlap and must contain their residents; the storage map must agree
    with the slot offsets and cover every program array; and each unit
    must provide enough bank copies for the worst per-instance port
    demand at the given [unroll] factor (default 1) —
    [Mnemosyne.Memgen.ports_with_unroll] of its residents against
    [Mnemosyne.Memgen.port_budget], witnessed as [Count (demand,
    budget)] — with its BRAM count matching the platform allocation
    rule (the last two as warnings — they cost performance or area, not
    correctness). *)

val all :
  ?unroll:int ->
  program:Lower.Flow.program ->
  schedule:Lower.Schedule.t ->
  ?memory:Mnemosyne.Memgen.architecture ->
  ?proc:Loopir.Prog.proc ->
  unit ->
  Diagnostic.t list
(** Run every applicable check: {!sharing} when [memory] is given,
    {!bounds} when [proc] is. The schedule is first validated structurally
    ([Lower.Schedule.validate]), and every statement must have a bounded
    domain and access only declared arrays. Each failure there is a
    [schedule-structure] error, and the schedule-dependent checks are
    skipped (the bounds check still runs when [proc] is given). *)

val execution_mode : Loopir.Prog.proc -> Loopir.Compiled.mode
(** The strongest execution mode this verifier can license for
    [Loopir.Compiled]: [Unchecked] exactly when {!bounds} reports no
    error (every access Fourier–Motzkin-proved in range, no dangling
    references; an empty loop's [bounds-empty-loop] warning does not
    count, since its body never runs), [Checked] otherwise. Setting the
    [CFD_EXEC_DEBUG] environment variable to a non-empty value other
    than ["0"] forces [Debug], which cross-checks every compiled run
    against the reference interpreter bit-for-bit. *)
