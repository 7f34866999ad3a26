(** Design-space exploration over the flow's knobs.

    Section III motivates the DSL flow with "the exploration of parameters
    and constraints such as on-chip memory usage"; this module makes that
    exploration a first-class operation: sweep the memory/compute
    configurations on a board, collect the resource/performance outcomes,
    and extract the Pareto frontier. *)

type configuration = { label : string; options : Compile.options }

type outcome = {
  configuration : configuration;
  feasible : bool;
  max_replicas : int;  (** largest m = k that fits; 0 when infeasible *)
  plm_brams : int;  (** per-kernel PLM cost *)
  resources : Fpga_platform.Resource.t;  (** at max replication *)
  seconds : float;  (** end-to-end time for the requested element count *)
  diagnostic : string option;
      (** why the configuration is infeasible (the [Infeasible] message,
          or any exception raised while compiling/evaluating it);
          [None] when feasible *)
}

val standard_configurations : configuration list
(** The four corners the paper's evaluation compares — factorized
    decoupled kernels with and without sharing, the temporaries-inside
    variant, the unfactorized direct kernel — plus the unroll-2 extension
    point (two MAC lanes still fit dual-port BRAMs; see EXPERIMENTS A5). *)

val sweep :
  ?jobs:int ->
  ?config:Sysgen.Replicate.config ->
  ?configurations:configuration list ->
  ?prefilter:bool ->
  ?cache:Cache.Store.t ->
  n_elements:int ->
  Cfdlang.Ast.program ->
  outcome list
(** Compile and evaluate every configuration. Configurations are
    independent, so they fan out across a {!Parallel.Pool} of [jobs] domains
    (default [Domain.recommended_domain_count ()]); the output order is
    always the input order, and [~jobs:1] runs fully sequentially in the
    calling domain. Every configuration is verified exactly once (one
    [Compile.check] per configuration, regardless of the caller's
    [static_check] setting), and a statically-unsound pipeline is pruned
    (with the verifier's summary as its diagnostic) before any system is
    built or simulated. A configuration that is infeasible — or that
    raises anywhere in its compile/build/simulate pipeline — is reported
    with [feasible = false], zeroed metrics, and the [diagnostic]; it
    never aborts the other configurations.

    With [prefilter] (default [false]), configurations whose static
    price — resources from the built system, seconds from the
    {!Analysis.Cost} cycle model, which matches [Sim.Perf] bit for bit
    on uniform latencies — is dominated by another configuration are not
    simulated at all: their outcomes carry the static prediction, the
    [explore.pruned] counter is bumped once per pruned configuration,
    and the Pareto frontier is unchanged (a statically dominated point
    cannot be non-dominated).

    With [cache], each configuration's final outcome is looked up in
    (and stored into) the artifact store, keyed by the compile key
    extended with the solver inputs and [n_elements] but not the label
    — so an interrupted or re-run sweep warm-starts, recomputing only
    configurations it has never settled, and a [jobs:1] re-run of a
    [jobs:N] sweep returns the identical outcome list. Individual
    compiles and verdicts inside a miss also go through the cache.
    Prefilter-pruned static prices are never cached (their soundness is
    relative to the competing configurations); prefiltering composes
    with the cache by letting cached outcomes join the domination
    pool. *)

val pareto : outcome list -> outcome list
(** Non-dominated feasible outcomes under (LUT, BRAM, seconds), all
    minimized; input order preserved. *)

val pp_outcome : Format.formatter -> outcome -> unit
