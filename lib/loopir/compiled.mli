(** Compiled execution engine for loop-nest programs.

    {!Interp} is the reference semantics; this module is the fast path
    that every repeated execution goes through — the compile-time
    differential oracle, the functional system simulation and the SEM
    solver's accelerated operator. [compile] resolves a {!Prog.proc}
    once into a slot-addressed program: arrays and scalars become
    integer slots into preallocated frames, and each affine array index
    is decomposed into a loop-invariant base plus one stride per
    enclosing loop, so inner loops update indices incrementally
    (strength reduction) instead of re-evaluating affine expressions.
    In [Unchecked] code, each loop the HLS kernel pipelines — a
    reduction or a pointwise loop of a scalarized tensor kernel — runs
    as one closure with its cursors and accumulator in locals, probed or
    not (see {!compile}).

    On every observable outcome the engine is bit-identical to
    {!Interp.run} (property-tested in [test/test_compiled.ml]); a proc
    must satisfy {!Prog.validate} — notably, scalar reads before any set
    are interpreter errors but read as [0.] here.

    All mutable execution state lives in the {!frame}, never in the
    compiled program, so one compiled program can drive many frames
    concurrently from different domains (one frame per simulated PLM
    set). *)

exception Error of string

type mode =
  | Checked
      (** Interp-equivalent dynamic bounds checks on every load/store. *)
  | Unchecked
      (** No dynamic checks: loads and stores are unchecked array
          accesses. Callers must hold a static proof that every access
          is in range — {!Analysis.Verify.execution_mode} grants this
          license exactly when [Analysis.Verify.bounds] reports no
          [bounds-*] diagnostic. *)
  | Debug
      (** Checked execution, plus every {!run} is replayed through
          {!Interp} on a copy of the frame and the parameter buffers
          are compared bit-for-bit. @raise Error on any mismatch. *)

type t
(** A compiled program: immutable after {!compile}, shareable across
    domains. *)

type frame
(** Preallocated execution state for one accelerator instance: the
    [float array] buffer per array slot, the scalar frame and the int
    cursor frame. Frames are not thread-safe individually; run each
    frame from one domain at a time. *)

type probe = {
  on_site : site:int -> vars:string array -> stmt:Prog.stmt -> unit;
      (** Fired once per leaf statement during [compile]; sites are
          numbered in pre-order of the procedure body — the order
          [Lower.Codegen.scalarized_with_provenance] lists its leaves.
          [vars] names the enclosing loop variables, outermost first. *)
  on_instance : site:int -> values:int array -> unit;
      (** Fired at run time before each dynamic execution of the leaf.
          [values] is the frame's loop-value array, indexed by loop
          depth: its first [depth] entries ([depth] = the length of
          [on_site]'s [vars]) are the enclosing loop values, outermost
          first; entries beyond [depth] are stale. The array belongs to
          the frame: read it during the call, never keep or write it. *)
  on_access : site:int -> slot:int -> index:int -> write:bool -> unit;
      (** Fired once per array access of the instance, naming the array
          by its slot ({!array_slots}): reads in textual order, left to
          right, then the write. An accumulate reports a single write —
          its read-modify port is implicit — mirroring Mnemosyne's
          static reads+writes port accounting. Under a checking mode an
          out-of-range access raises {!Error} before its event. *)
  on_mac :
    site:int ->
    values:int array ->
    lo:int ->
    count:int ->
    x:int ->
    ix:int ->
    dx:int ->
    y:int ->
    iy:int ->
    dy:int ->
    unit;
      (** Fired at run time once per run of a fused MAC loop
          ([Unchecked] code only; see {!compile}) in place of the events
          of its [count >= 1] iterations. Instance [t] ([0 <= t <
          count]) of the MAC leaf at [site] runs with its enclosing
          loops at the first [depth - 1] entries of [values] ([depth]
          as for [on_instance]) and the MAC loop itself at [lo + t],
          and reads slot [x] at [ix + t * dx], then slot [y] at
          [iy + t * dy]. Expanding the event into those [on_instance]
          and [on_access] calls gives exactly the stream an unfused run
          reports. [values] is the frame's array, under
          [on_instance]'s rules. A loop with no iteration fires
          nothing. *)
  on_nest :
    site:int ->
    values:int array ->
    lo:int ->
    count:int ->
    mac_lo:int ->
    mac_count:int ->
    x:int ->
    ix:int ->
    ox:int ->
    dx:int ->
    y:int ->
    iy:int ->
    oy:int ->
    dy:int ->
    a:int ->
    ia:int ->
    oa:int ->
    unit;
      (** Fired at run time once per run of a fused reduction nest
          [for i { s = c; for k { s += x[..] * y[..] }; a[..] = s }]
          ([Unchecked] code only) in place of the events of its
          [count >= 1] outer iterations. The nest's leaves are the
          init at [site], the MAC at [site + 1] and the spill at
          [site + 2]. Outer iteration [t] ([0 <= t < count]) runs with
          the enclosing loops at the first [d] entries of [values]
          ([d] = the init's [depth] - 1) and [i] at [lo + t], and
          stands for, in order:
          - the init's instance, which touches no array;
          - for each [u] with [0 <= u < mac_count], the MAC's instance
            with [k] at [mac_lo + u], reading slot [x] at
            [ix + t * ox + u * dx], then slot [y] at
            [iy + t * oy + u * dy];
          - the spill's instance, writing slot [a] at [ia + t * oa].
          Expanded, that is exactly the stream an unfused run reports.
          [values] is the frame's array, under [on_instance]'s rules.
          [mac_count] may be 0; a nest whose outer loop has no
          iteration fires nothing. *)
  on_pointwise :
    site:int ->
    values:int array ->
    lo:int ->
    count:int ->
    x:int ->
    ix:int ->
    dx:int ->
    y:int ->
    iy:int ->
    dy:int ->
    a:int ->
    ia:int ->
    da:int ->
    unit;
      (** Fired at run time once per run of a fused pointwise loop
          [for i { a[..] = x[..] op y[..] }] ([Unchecked] code only) in
          place of the events of its [count >= 1] iterations. Instance
          [t] ([0 <= t < count]) of the leaf at [site] runs with its
          enclosing loops at the first [depth - 1] entries of [values]
          and the loop itself at [lo + t]; it reads slot [x] at
          [ix + t * dx], then slot [y] at [iy + t * dy], then writes
          slot [a] at [ia + t * da]. Expanded, that is exactly the
          stream an unfused run reports. A loop with no iteration fires
          nothing. *)
}
(** A memory probe: observes every array access of a compiled program,
    for the dynamic PLM profiler ([Memprof]). Probe callbacks run in the
    domain that runs the frame, so a probe shared by frames running in
    several domains must keep its mutable state per domain. *)

val array_slots : Prog.proc -> (string * int) array
(** The name and declared size of each array slot, as
    [probe.on_access] numbers them: parameters in declaration order,
    then locals. *)

val set_probe_provider : (Prog.proc -> probe option) option -> unit
(** Install (or remove, with [None]) the process-global probe provider
    consulted by {!compile} when no explicit [?probe] is given. This is
    the same one-branch disabled gate as [Obs.Trace]: with no provider
    installed, [compile] pays a single atomic load and produces exactly
    the uninstrumented closures, so execution is bit-identical and no
    event is ever recorded. *)

val compile : ?mode:mode -> ?probe:probe -> Prog.proc -> t
(** One-time slot resolution, stride decomposition and closure
    generation. Default mode is [Checked].

    In [Unchecked] mode, three loop shapes compile to one closure
    each, and add to the [exec.fused_loops] counter the loops they
    absorb:
    - a MAC loop, a [For] whose body is the single leaf
      [s += x[..] * y[..]] (one loop);
    - a reduction nest, a [For] whose body is exactly
      [s = c; <a MAC loop on s>; a[..] = s] (two loops);
    - a pointwise loop, a [For] whose body is the single leaf
      [a[..] = x[..] op y[..]], with op one of [+ - * /] (one loop).
    They add each accumulator's products in program order and read each
    pointwise point's operands before its store, so results are
    bit-identical to the generic closures'; no float is boxed. [Checked]
    and [Debug] code keep the generic closures.

    When [probe] is given — or a {!set_probe_provider} provider returns
    one — the same compiler adds the probe's events to the closures it
    builds. A fused loop stays fused (and counts as without a probe),
    reports its leaves to [on_site] in pre-order, and reports each run
    as one [on_mac], [on_nest] or [on_pointwise] event. Numeric results
    are unchanged.
    @raise Error on duplicate or undeclared arrays, or an index using a
    loop variable not bound by an enclosing loop. *)

val probed : t -> bool
(** Whether this program was compiled with a probe attached. *)

val make_frame : t -> frame
(** Fresh zeroed buffers for every parameter and local, at their
    declared sizes. *)

val make_frames : t -> int -> frame array
(** [make_frames t count] is [count] fresh frames. Allocate a domain's
    frame set {e from that domain} (e.g. inside its pool task): the
    buffers then come out of the allocating domain's own heap arena, so
    no cache line is shared between the frame sets of concurrently
    running domains — the element-sharded functional simulator relies
    on this for false-sharing-free scaling. *)

val buffer : t -> frame -> string -> float array
(** The frame's buffer for a parameter or local, for staging inputs and
    reading results in place. @raise Error for unknown names. *)

val run : t -> frame -> unit
(** Executes the program against the frame: locals and scalars are
    zeroed (the interpreter's fresh per-run environments), cursors are
    reset to their bases, then the compiled body runs. Parameter
    buffers are left as the program wrote them.
    @raise Error on a failed dynamic check ([Checked]) or cross-check
    mismatch ([Debug]). *)

val run_fresh :
  ?mode:mode ->
  Prog.proc ->
  inputs:(string * float array) list ->
  (string * float array) list
(** Convenience mirroring {!Interp.run_fresh}: compiles, stages the
    given inputs into a fresh frame (sizes must match exactly), runs,
    and returns every parameter buffer. *)
