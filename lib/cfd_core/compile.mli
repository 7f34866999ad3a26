(** The end-to-end CFDlang-to-accelerator driver: the public API of the
    flow in Figure 3.

    [compile] runs the whole middle of the figure — frontend, tensor IR,
    polyhedral lowering, rescheduling, liveness, Mnemosyne, code
    generation, HLS — and returns every artifact. [build_system] then
    instantiates the parallel architecture for a board (Section V-B), and
    {!Sim.Perf} executes it. [verify] replays the generated loop program
    against the DSL's reference semantics, aliased PLM buffers included. *)

type options = {
  kernel_name : string;
  factorize : bool;  (** associativity factorization (Section IV-A) *)
  fuse_pointwise : bool;
  decoupled : bool;
      (** export temporaries to PLMs ([true], the paper's flow) or leave
          them inside the accelerator *)
  sharing : bool;  (** Mnemosyne memory sharing *)
  pipeline_ii : int option;
  unroll : int option;
  static_check : bool;
      (** run the independent static verifier ({!Analysis.Verify}) on the
          compiled pipeline and fail on any error diagnostic *)
}

val default_options : options
(** The paper's evaluated configuration: factorized, decoupled, sharing
    on, II=1 pipelining; [kernel_name = "kernel"]; [static_check = false]
    (the verifier is opt-in for plain compiles; [Explore] always turns it
    on so the sweep prunes statically-unsound configurations). *)

type result = {
  opts : options;
  checked : Cfdlang.Check.checked;
  tir : Tir.Ir.kernel;
  program : Lower.Flow.program;
  schedule : Lower.Schedule.t;
  liveness : Liveness.Analysis.t;
  memory : Mnemosyne.Memgen.architecture;
  proc : Loopir.Prog.proc;
  c_source : string;
  hls : Hls.Model.report;
  mnemosyne_metadata : string;
}

exception Error of string

val options_fingerprint_version : int
(** Version of the {!options_fingerprint} rendering, bumped when its
    shape changes — embedded in provenance manifests and crash reports
    so a recorded run names the dialect it was fingerprinted with. *)

val options_fingerprint : options -> string
(** The canonical one-line rendering of [options] that {!cache_key}
    digests ([static_check] excluded). Stable across processes. *)

val platform_fingerprint : string
(** The platform-constant part of every {!cache_key}: board model,
    BRAM geometry and simulator calibration, as one line. *)

val cache_key :
  ?extra:(string * string) list ->
  options:options ->
  Cfdlang.Ast.program ->
  Cache.Key.t
(** The content address of everything this module computes from [ast]
    under [options]: a {!Cache.Key} over the canonical source rendering,
    an options fingerprint ([static_check] excluded — it selects whether
    the verdict is consulted, not what any artifact contains), and the
    platform constants (board model, BRAM geometry, simulator
    calibration). [extra] appends further labeled parts for derived
    products keyed off the same triple (e.g. a sweep's system shape). *)

val compile : ?cache:Cache.Store.t -> ?options:options -> Cfdlang.Ast.program -> result
(** @raise Error on type errors (wrapping [Check]) and on invalid options
    ([unroll]/[pipeline_ii] < 1), and propagates structural exceptions
    from later stages (none occur on well-typed programs — the test
    suite covers the full option matrix). With [static_check] set, also
    raises [Error] when {!check} reports any error diagnostic.

    With [cache], the back-half products (Mnemosyne architecture,
    scalarized proc, C source, HLS report, metadata) are looked up under
    {!cache_key} and stored on a miss; a hit recomputes only the front
    half (frontend through liveness — those structures carry hash-consed
    polyhedral state that cannot be serialized) and is bit-identical to
    a cold compile. A corrupt or stale entry is a miss, never an error. *)

val check : ?cache:Cache.Store.t -> result -> Analysis.Diagnostic.t list
(** The full static verdict on a compiled pipeline: frontend warnings
    (rule [front-unused]) followed by every {!Analysis.Verify} check —
    dependence preservation, use-before-def, affine bounds on the emitted
    loop nest, and PLM sharing soundness at the compiled unroll factor.
    An empty list means every proof went through. With [cache], the
    verdict is looked up under the result's {!cache_key} and stored
    after a fresh run — same diagnostics, in the same order. *)

val compile_source :
  ?cache:Cache.Store.t -> ?options:options -> string -> (result, string) Result.t
(** Parse, check and compile CFDlang source text. *)

val audit : ?mode:Mnemosyne.Memgen.mode -> result -> Memprof.Audit.result
(** {!Memprof.Audit.run} on [result]'s program and schedule, under the
    scope and unroll factor its options compiled with, in [mode]
    (default: the options' own memgen mode). Each run observes into the
    mode's pressure histograms, so a command audits each mode once and
    hands the result to every consumer ([Timeline.analyze] takes it). *)

val engine : result -> Loopir.Compiled.t
(** The compiled execution engine for [result.proc], at the strongest
    mode the static verifier licenses ({!Analysis.Verify.execution_mode}:
    unchecked inner loops when the Fourier–Motzkin bounds proof is
    clean, checked otherwise, debug cross-checking under
    [CFD_EXEC_DEBUG]). Compilation is a one-time cost; callers should
    reuse the returned engine across runs. *)

val verify : ?seed:int -> ?tol:float -> result -> bool
(** Execute the generated loop program on random inputs through the
    storage map (via {!engine}) and compare every output against
    {!Cfdlang.Eval}. *)

val build_system :
  ?config:Sysgen.Replicate.config ->
  ?force_k:int ->
  ?force_m:int ->
  n_elements:int ->
  result ->
  Sysgen.System.t

val simulate :
  ?config:Sysgen.Replicate.config ->
  ?force_k:int ->
  ?force_m:int ->
  n_elements:int ->
  result ->
  Sim.Perf.hw_result
(** [build_system] + {!Sim.Perf.run_hw} on the config's board. *)

val emit_all : result -> Sysgen.System.t -> (string * string) list
(** Every artifact of the flow as (filename, contents) pairs: the HLS C
    kernel, Mnemosyne metadata, PLM Verilog, host driver + header,
    controller and top-level Verilog, and the Fortran/C++ handles —
    what [cfdc emit] writes to disk. *)
