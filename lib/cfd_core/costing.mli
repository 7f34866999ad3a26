(** Orchestration of the static cost analyzer ({!Analysis.Cost}) over a
    compiled pipeline: builds the shape/board parameters from the
    system generator and the simulator's constants, runs the dynamic
    legs for the drift check, and renders the report — the engine
    behind [cfdc cost] and the static pre-filter of {!Explore.sweep}.

    [Analysis.Cost] itself is pure and knows nothing about [Sim] or
    [Sysgen]; this module is the one place that connects prediction to
    measurement:

    - the {e cycle estimate} is [Sim.Perf]'s block schedule (the one
      cycle model) built at the closed-form round length, kernel latency
      plus [Sim.Constants.controller_handshake_cycles];
    - the {e observation} runs one recorded functional simulation
      under {!Sim.Functional}'s default strategy and reads back the
      [sim.dma.*] counter deltas, the [Memprof.Record] snapshot, and the
      cycle-accurate [Sim.Perf] result;
    - {!Analysis.Cost.drift} then reports every mismatch as a
      [cost-drift-*] diagnostic. *)

type residents = (string * (string * Poly.Lex.interval option) list) list
(** Per storage buffer, the resident arrays with their live intervals
    (when the liveness analysis knows them). *)

type report = {
  kernel : string;
  cost : Analysis.Cost.t;
  buffer_residents : residents;
  shape : Analysis.Cost.shape option;  (** [None] when infeasible *)
  estimate : Analysis.Cost.cycle_estimate option;
  infeasible : string option;
  drift : Analysis.Diagnostic.t list option;  (** [Some] when the diff ran *)
  sim_elements : int option;  (** elements the drift simulation ran *)
}

val shape_of : Sysgen.System.t -> Analysis.Cost.shape

val static : Compile.result -> Analysis.Cost.t
(** {!Analysis.Cost.analyze} at the result's compiled unroll factor. *)

val estimate :
  board:Fpga_platform.Board.t ->
  system:Sysgen.System.t ->
  Compile.result ->
  Analysis.Cost.t ->
  Analysis.Cost.cycle_estimate
(** The static cycle estimate for one built system: the plain
    {!Sim.Perf.Schedule} at round length [latency +
    Sim.Constants.controller_handshake_cycles], without stepping the
    controller FSM. Block transfers come from the system's host loop;
    the cost record is not consulted ([cost-drift-dma] checks the two
    agree). Equal to [Sim.Perf.run_hw ~system ~board] exactly when the
    FSM round equals the closed-form one — the [cost-drift-cycles]
    check. *)

val synthetic_inputs : Sysgen.System.t -> int -> (string * float array) list
(** The deterministic per-element inputs of every simulation leg
    ([cfdc cost --diff], [memprof], [profile]): element [e]'s word [i]
    of each input transfer is [(((e + 1) * 31) + i) mod 97 / 97]. *)

val recorded_sim :
  ?jobs:int ->
  system:Sysgen.System.t ->
  n:int ->
  Compile.result ->
  Memprof.Record.snapshot
(** The recorded simulation leg of [cfdc cost --diff], [memprof] and
    [profile]: one {!Sim.Functional.run} of [n] elements on
    {!synthetic_inputs} under the default strategy ([jobs] as there),
    with the PLM access recorder ([Memprof.Record]) enabled around it;
    returns the recorder's snapshot. The recorder is disabled again on
    return.
    @raise Sim.Functional.Error when the simulation fails. *)

val observe :
  ?sim_n:int ->
  system:Sysgen.System.t ->
  board:Fpga_platform.Board.t ->
  Compile.result ->
  Analysis.Cost.observed
(** Run the dynamic legs: one recorded functional simulation of
    [sim_n] elements (default 4) with deterministic synthetic inputs,
    plus the cycle-accurate performance model.
    @raise Sim.Functional.Error when the simulation fails. *)

val analyze :
  ?config:Sysgen.Replicate.config ->
  ?diff:bool ->
  ?sim_n:int ->
  ?cache:Cache.Store.t ->
  n_elements:int ->
  Compile.result ->
  report
(** The full report: static cost, cycle estimate for the system solved
    at [n_elements] (infeasible boards degrade to a static-only
    report), and — with [diff] (default false) — the drift check
    against the observability stack. With [cache], the static cost
    record is looked up under the result's [Compile.cache_key]; the
    dynamic legs always run live. *)

val to_json : report -> Obs.Json.t
val pp_report : Format.formatter -> report -> unit
