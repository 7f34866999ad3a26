(** Dynamic live-interval audit: execute a kernel once under an
    instrumented engine and check the {e observed} memory behaviour
    against the static model that licensed the PLM architecture —
    the runtime checker of the paper's central legality argument.

    The audit runs the kernel that ships — [Lower.Codegen.generate]
    then [Loopir.Scalarize.optimize] over the storage of the mode under
    audit, the program the simulator and the recorder run — through
    [Lower.Codegen.scalarized_with_provenance], so every probe site
    maps back to a Flow statement. Each dynamic leaf instance
    reconstructs its exact schedule-space timestamp: a scalarized
    reduction's accumulator lives in a register, and the store that
    spills it after the nest is stamped as the reduction's last
    instance, its reduction dimensions at their upper bound. Every
    array access is attributed to the storage residents whose static
    per-element live interval contains it. Violations surface as
    [Analysis.Diagnostic] errors with concrete witnesses:

    - [memprof-live-escape] — an access fell outside every resident's
      static live interval (observed ⊄ static);
    - [memprof-slot-conflict] — two residents of one buffer observed
      simultaneously live on one physical word (what a forced illegal
      [Liveness.Sharing.merge_storage ~force:true] provokes);
    - [memprof-port-pressure] — a leaf instance exceeded a PLM unit's
      physical port budget ([Fpga_platform.Bram.ports * copies]).

    Affine kernels have data-independent access patterns, so a single
    run over synthetic inputs observes every access the schedule will
    ever perform. The static side is [Analysis.Verify.element_liveness],
    the table use-before-def reads: one walk per statement access. The
    probe keeps its state in flat int arrays resolved per array slot
    before the run (residents, PLM unit, each element's observed first
    and last timestamp, the current instance's timestamp) and compares
    timestamps in place, so an access costs a few array reads per
    resident of its buffer and builds no timestamp. Cost is linear in
    statement instances and accesses. *)

exception Error of string
(** Internal inconsistency (probe/provenance mismatch) — distinct from a
    negative audit result, which is reported as diagnostics. *)

type unit_stat = {
  u_name : string;
  u_words : int;
  u_brams : int;
  u_copies : int;
  u_port_budget : int;  (** [Fpga_platform.Bram.ports * copies] *)
  u_reads : int;  (** dynamic reads landing in this unit *)
  u_writes : int;
  u_words_touched : int;  (** distinct words accessed *)
  u_max_pressure : int;
      (** max reads x unroll + writes within one leaf instance *)
  u_max_at : (string * int array) option;
      (** statement instance achieving the maximum *)
  u_residents : string list;
}

type array_obs = {
  o_array : string;
  o_static : Poly.Lex.interval;
  o_observed : Poly.Lex.interval option;
      (** hull of attributed accesses (interface arrays bracketed with
          the virtual first/last); [None] when never accessed *)
  o_contained : bool;  (** observed ⊆ static *)
}

type series = (int * int) array
(** (instance sequence number, value) samples in execution order. *)

type result = {
  r_label : string;  (** ["no-sharing"] / ["sharing"] / custom *)
  r_arch : Mnemosyne.Memgen.architecture option;
  r_diagnostics : Analysis.Diagnostic.t list;  (** empty = audit passed *)
  r_units : unit_stat list;
  r_arrays : array_obs list;
  r_instances : int;  (** dynamic leaf instances executed *)
  r_accesses : int;  (** dynamic array accesses observed *)
  r_pressure_series : (string * series) list;
      (** per unit, sorted by unit name: port pressure of each instance
          touching it *)
  r_occupancy_series : (string * series) list;
      (** per unit, sorted by unit name: cumulative distinct words
          touched (monotone) *)
}

val downsample : series -> series
(** At most 1024 samples: a longer series is cut into 1024 equal
    buckets, each represented by its first sample of maximum value. The
    form every consumer renders (the report's counter tracks, the
    device-cycle timeline's port-pressure tracks). *)

val run :
  ?scope:Mnemosyne.Memgen.scope ->
  ?unroll:int ->
  mode:Mnemosyne.Memgen.mode ->
  Lower.Flow.program ->
  Lower.Schedule.t ->
  result
(** Generate the PLM architecture for [mode] (as [Mnemosyne.Memgen]
    would), build the shipped kernel over its storage map, execute it
    once instrumented, and audit, inside one ["memprof.audit"] span
    whose [label] attribute names the mode. Per-instance unit pressure
    is also observed into the [Obs.Metrics] histograms
    ["memprof.<label>.pressure.<unit>"], from which the report renders
    p50/p95/p99 — so audit each mode once per process, or its counts
    double. *)

val audit_storage :
  ?label:string ->
  storage:Lower.Codegen.storage ->
  Lower.Flow.program ->
  Lower.Schedule.t ->
  Analysis.Diagnostic.t list
(** Liveness-only audit of an arbitrary storage map (no PLM units, no
    pressure accounting): the mutation-test entry point for storage maps
    produced by [Liveness.Sharing.merge_storage ~force:true]. *)
