(** Static cost and resource analysis — the polyhedral counting pass
    behind [cfdc cost].

    Where {!Verify} proves the compiled pipeline {e legal}, this module
    predicts what it will {e cost}: statement trip counts and loop
    iteration totals by point-counting on the loop-nest polyhedra, DMA
    words per element and per PLM set, per-buffer access counts and peak
    port pressure, and a BRAM18 count re-derived from the platform
    allocation rule. Every quantity carries an exactness flag: nests small enough
    are counted by exact enumeration, larger ones fall back to
    Fourier–Motzkin bound products and are marked inexact
    ([cost-inexact]); unbounded domains are [cost-unbounded] errors.

    The same quantities are measured dynamically by the observability
    stack — [exec.*]/[sim.*] counters and the [Memprof.Record]
    snapshot — and {!drift} compares prediction against observation,
    reporting any mismatch as a [cost-drift-*] diagnostic: the static
    analyzer is validated by the instrumentation, and vice versa. The
    orchestration that actually runs a simulation and collects the
    {!observed} record lives in [Cfd_core.Costing]; this module is pure
    and depends on nothing dynamic. *)

type count = {
  value : int;
  exact : bool;
      (** [true] when [value] was obtained by enumeration or as the
          volume of a product-of-intervals domain; [false] for a
          bound-product over-approximation (or 0 under [cost-unbounded]) *)
}

type site = {
  site_id : int;
      (** pre-order leaf index over the whole proc, every leaf statement
          included — the same numbering [Loopir.Compiled] gives its probe
          sites, so dynamic site stats join on this id *)
  site_desc : string;  (** [Memprof.Record]'s statement description *)
  site_trips : count;  (** executions of this leaf per kernel run *)
  site_reads : int;  (** buffer-read events per single execution *)
  site_writes : int;  (** buffer-write events per single execution *)
}

type buffer = {
  buf_name : string;
  buf_reads : count;  (** read events per kernel run *)
  buf_writes : count;  (** write events per kernel run *)
  buf_peak_pressure : int;
      (** worst simultaneous accesses to this buffer within one leaf
          instance — the quantity [Memprof.Record] reports as
          [b_max_pressure], independent of unroll *)
  buf_port_demand : int;
      (** worst per-instance port demand at the compiled unroll factor —
          Mnemosyne's own per-array accounting (reads scale with the
          unrolled lanes, the register-accumulated write does not
          replicate), taken as the max over the buffer's resident
          arrays, exactly the quantity the [share-ports] rule checks the
          bank provisioning against *)
  buf_port_budget : int option;
      (** [Mnemosyne.Memgen.port_budget] of the backing PLM unit; [None]
          for kernel-local buffers outside the PLM *)
}

type t = {
  kernel : string;  (** [proc.name] *)
  sites : site list;  (** in site-id order *)
  statements : count;  (** leaf executions per kernel run *)
  iterations : count;  (** loop-head iterations per kernel run *)
  reads : count;  (** total buffer reads per kernel run *)
  writes : count;  (** total buffer writes per kernel run *)
  buffers : buffer list;  (** sorted by name; every param and local *)
  words_in : int;  (** input DMA words per element *)
  words_out : int;  (** output DMA words per element *)
  brams : int;
      (** BRAM18 total re-derived from the platform rule
          ([copies * Bram.count_array unit_words] summed over units) *)
  diagnostics : Diagnostic.t list;
      (** [cost-unbounded] / [cost-inexact] / [cost-port-overcommit] *)
}

val count_points :
  ?budget:int -> subject:string -> Poly.Basic_set.t -> count * Diagnostic.t list
(** Integer points of a basic set. A domain whose constraints each touch
    at most one variable is a product of intervals and is counted
    exactly as the volume of its bounding box; other bounded domains are
    enumerated when the box volume is at most [budget] (default
    100_000), else the box volume is returned with [exact = false] and a
    [cost-inexact] warning. Unbounded domains yield [{value = 0; exact =
    false}] and a [cost-unbounded] error. *)

val analyze :
  ?budget:int ->
  ?unroll:int ->
  program:Lower.Flow.program ->
  memory:Mnemosyne.Memgen.architecture ->
  proc:Loopir.Prog.proc ->
  unit ->
  t
(** The full static cost of one compiled kernel. [unroll] (default 1) is
    the compiled innermost unroll factor and only affects
    [buf_port_demand] / [cost-port-overcommit]. *)

(** {2 Cycle estimate}

    The records a static cycle estimate is reported in. The estimate
    itself is [Cfd_core.Costing.estimate]: it prices the system with
    [Sim.Perf]'s block schedule — the one cycle model — at the
    closed-form round length (kernel latency plus the controller
    handshake), so this library stays independent of [Sim]/[Sysgen]. *)

type shape = {
  sh_n_elements : int;
  sh_k : int;  (** accelerator instances *)
  sh_m : int;  (** PLM sets *)
  sh_batch : int;  (** m / k rounds per block *)
}

type cycle_estimate = {
  ce_round_cycles : int;
  ce_blocks : int;
  ce_exec_cycles : int;
  ce_transfer_cycles : int;
  ce_total_cycles : int;
  ce_seconds : float;
}

val dma_words_per_set : t -> n:int -> m:int -> (int * int * int) list
(** [(set, words_in, words_out)] for each PLM set under the
    round-scheduled host loop (element [e] lands in set [e mod m]), for
    [n] simulated elements; sets receiving no element are omitted. *)

(** {2 Drift detection} *)

type observed = {
  obs_elements : int;  (** kernel runs measured (the simulated [n]) *)
  obs_m : int;  (** PLM sets of the simulated system *)
  obs_statements : int option;  (** [exec.statements] delta *)
  obs_iterations : int option;  (** [exec.iterations.*] delta *)
  obs_dma_bytes_in : int option;  (** [sim.dma.bytes_in] delta *)
  obs_dma_bytes_out : int option;
  obs_dma_sets : (int * int * int) list option;
      (** per-set DMA words from the recorder snapshot *)
  obs_sites : (int * string * int * int * int) list option;
      (** (site, desc, instances, reads, writes) from the recorder *)
  obs_buffers : (string * int * int * int) list option;
      (** (buffer, reads, writes, max pressure) from the recorder *)
  obs_total_cycles : int option;  (** [Sim.Perf] total for the shape *)
  obs_total_brams : int option;  (** the architecture's claimed total *)
}

val no_observation : n:int -> m:int -> observed
(** All-[None] skeleton to fill in. *)

val drift : t -> ?cycle_model:cycle_estimate -> observed -> Diagnostic.t list
(** Compare static predictions against dynamic observation; every
    mismatch is an error diagnostic with a [Count] witness:

    - [cost-drift-trips]: statement/iteration totals or per-site
      instance counts disagree with the [exec.*] counters / recorder;
    - [cost-drift-access]: per-site or per-buffer read/write counts
      disagree with the recorder;
    - [cost-drift-pressure]: a buffer's peak per-instance pressure
      disagrees with the recorder's histogram maximum;
    - [cost-drift-dma]: DMA byte totals or per-set words disagree with
      the [sim.dma.*] counters / recorder;
    - [cost-drift-cycles]: the closed-form cycle estimate disagrees with
      the simulated controller FSM — the cycle model's one independent
      check, since both price the same [Sim.Perf] schedule and differ
      only in the round length;
    - [cost-drift-brams]: the platform-rule BRAM18 total disagrees with
      the architecture's claim.

    Inexact static counts are skipped (an over-approximation cannot
    witness drift); exact ones must match {e exactly}. *)

val pp : Format.formatter -> t -> unit
val pp_cycle_estimate : Format.formatter -> cycle_estimate -> unit
