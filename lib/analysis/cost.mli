(** Static cost and resource analysis — the counting pass behind
    [cfdc cost].

    Where {!Verify} proves the compiled pipeline {e legal}, this module
    predicts what it will {e cost}: statement trip counts and loop
    iteration totals, DMA words per element and per PLM set, per-buffer
    access counts and peak port pressure. The loop IR has constant
    bounds and no guards, so every iteration domain is a box: a leaf's
    trip count is the product of its enclosing loops' extents, and
    every count is exact.

    The same quantities are measured dynamically by the observability
    stack — [sim.*] counters and the [Memprof.Record] snapshot — and
    {!drift} compares prediction against observation, reporting any
    mismatch as a [cost-drift-*] diagnostic. The orchestration that
    actually runs a simulation and collects the {!observed} record lives
    in [Cfd_core.Costing]; this module is pure and depends on nothing
    dynamic. *)

type site = {
  site_id : int;
      (** pre-order leaf index over the whole proc, every leaf statement
          included — the same numbering [Loopir.Compiled] gives its probe
          sites, so dynamic site stats join on this id *)
  site_desc : string;  (** [Loopir.Prog.leaf_desc] *)
  site_trips : int;  (** executions of this leaf per kernel run *)
  site_reads : int;  (** buffer-read events per single execution *)
  site_writes : int;  (** buffer-write events per single execution *)
}

type buffer = {
  buf_name : string;
  buf_reads : int;  (** read events per kernel run *)
  buf_writes : int;  (** write events per kernel run *)
  buf_peak_pressure : int;
      (** worst simultaneous accesses to this buffer within one leaf
          instance — the quantity [Memprof.Record] reports as
          [b_max_pressure], independent of unroll *)
  buf_port_demand : int;
      (** worst per-instance port demand at the compiled unroll factor:
          [Mnemosyne.Memgen.ports_with_unroll], taken as the max over
          the buffer's resident arrays — the quantity the [share-ports]
          rule checks the bank provisioning against *)
  buf_port_budget : int option;
      (** [Mnemosyne.Memgen.port_budget] of the backing PLM unit; [None]
          for kernel-local buffers outside the PLM *)
}

type t = {
  kernel : string;  (** [proc.name] *)
  sites : site list;  (** in site-id order *)
  statements : int;  (** leaf executions per kernel run *)
  iterations : int;  (** loop-head iterations per kernel run *)
  reads : int;  (** total buffer reads per kernel run *)
  writes : int;  (** total buffer writes per kernel run *)
  buffers : buffer list;  (** sorted by name; every param and local *)
  words_in : int;  (** input DMA words per element *)
  words_out : int;  (** output DMA words per element *)
}

val analyze :
  ?unroll:int ->
  program:Lower.Flow.program ->
  memory:Mnemosyne.Memgen.architecture ->
  proc:Loopir.Prog.proc ->
  unit ->
  t
(** The full static cost of one compiled kernel. [statements] and
    [iterations] are [Loopir.Prog.run_totals]. [unroll] (default 1) is
    the compiled innermost unroll factor and only affects
    [buf_port_demand]. *)

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
  obs_dma_bytes_in : int option;  (** [sim.dma.bytes_in] delta *)
  obs_dma_bytes_out : int option;
  obs_dma_sets : (int * int * int) list option;
      (** per-set DMA words from the recorder snapshot *)
  obs_sites : (int * string * int * int * int) list option;
      (** (site, desc, instances, reads, writes) from the recorder *)
  obs_buffers : (string * int * int * int) list option;
      (** (buffer, reads, writes, max pressure) from the recorder *)
  obs_total_cycles : int option;  (** [Sim.Perf] total for the shape *)
}

val no_observation : n:int -> m:int -> observed
(** All-[None] skeleton to fill in. *)

val drift : t -> ?cycle_model:cycle_estimate -> observed -> Diagnostic.t list
(** Compare static predictions against dynamic observation; every
    mismatch is an error diagnostic with a [Count] witness:

    - [cost-drift-trips]: per-site instance counts disagree with the
      recorder (unknown or missing probe sites included);
    - [cost-drift-access]: per-site or per-buffer read/write counts
      disagree with the recorder;
    - [cost-drift-pressure]: a buffer's peak per-instance pressure
      disagrees with the recorder's histogram maximum;
    - [cost-drift-dma]: DMA byte totals or per-set words disagree with
      the [sim.dma.*] counters / recorder;
    - [cost-drift-cycles]: the closed-form cycle estimate disagrees with
      the simulated controller FSM — the cycle model's one independent
      check, since both price the same [Sim.Perf] schedule and differ
      only in the round length.

    Static counts are exact, so they must match {e exactly}. *)

val pp : Format.formatter -> t -> unit
val pp_cycle_estimate : Format.formatter -> cycle_estimate -> unit
