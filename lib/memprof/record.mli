(** Production-path PLM access recorder.

    {!enable} installs a probe provider into [Loopir.Compiled] (the same
    one-branch disabled gate as [Obs.Trace]): every engine compiled
    while recording is on reports its dynamic memory behaviour here —
    per-buffer read and write counts and words touched, per-probe-site
    access totals and per-instance port pressure (simultaneous accesses
    to one buffer within one leaf-statement instance). [Sim.Functional]
    additionally reports DMA words per PLM set through {!record_dma},
    under either of its strategies.

    The recorder is architecture-agnostic; [Memprof.Report] joins a
    snapshot against the Mnemosyne architecture. The exact
    schedule-space audit (observed ⊆ static live intervals) is
    [Memprof.Audit], which runs its own instrumented execution and does
    not go through this global store.

    A run of a fused loop (a MAC loop, a reduction nest or a pointwise
    loop) arrives as one [on_mac], [on_nest] or [on_pointwise] event and
    is added in bulk, exactly as the per-access events of its
    iterations would be, so an [Unchecked] engine and a [Checked] one
    record the same. A buffer keeps read and write totals, which an
    event adds in O(1), and one touched mark per word, not a count per
    word. A fused loop's slots, trip counts and strides are constants of
    its site, so the words an operand's access stream touches are fixed
    by (site, operand, entry index): the recorder marks them only the
    first time its (engine, domain) state meets that triple, which a
    seen bitmap per site and operand records. Marking again would set
    the same marks, so words touched stay exact. Events take no lock:
    each (engine, domain) pair — an engine is one probed compile —
    records into its own arrays, reached through [Domain.DLS], and
    instance boundaries are per domain, so concurrently simulated
    accelerators do not pollute each other's pressure accounting. The
    [memprof.*] access and instance counters
    and the [memprof.pressure.<buffer>] histograms (one observation per
    leaf instance and buffer it touched) are fed in bulk when
    {!snapshot}, {!disable} or {!reset} flushes. Call those three only
    while no recorded engine runs — e.g. after [Sim.Functional.run]
    returns, which joins its worker domains. Every merge over engines
    and domains is a sum, a max or a union, so what a run records does
    not depend on its simulation strategy or job count. With recording
    disabled (the default) compiled engines carry no instrumentation at
    all. *)

val enable : unit -> unit
(** Reset the store and install the probe provider. Engines compiled
    {e after} this call are instrumented; already-compiled engines are
    not (compile order matters, by design — the gate is at compile
    time). *)

val disable : unit -> unit
(** Remove the provider and flush the counters, and the pressure of
    every closed instance, to the metrics; an instance still open is
    closed by the next {!snapshot}. The store keeps its contents for
    {!snapshot} until the next {!enable} or {!reset}. *)

val reset : unit -> unit
(** Flush, then empty the store. Engines compiled before a reset record
    nowhere afterwards. *)

val record_dma : set:int -> dir:[ `In | `Out ] -> words:int -> unit
(** Account a DMA transfer of [words] PLM words for the given PLM set.
    [Sim.Functional] files element [e]'s transfers under its set in the
    controller's block of [m], [e mod m], whichever strategy runs it.
    No-op while disabled. *)

val make_probe : Loopir.Prog.proc -> Loopir.Compiled.probe option
(** The provider installed by {!enable}, exposed for direct use in
    tests. *)

type buffer_stats = {
  b_buffer : string;
  b_reads : int;
  b_writes : int;
  b_words_touched : int;
  b_max_pressure : int;
      (** max simultaneous accesses in one leaf instance *)
}

type site_stats = {
  s_proc : string;
  s_site : int;
  s_desc : string;
  s_instances : int;
  s_reads : int;
  s_writes : int;
}

type dma_stats = { d_set : int; d_words_in : int; d_words_out : int }

type snapshot = {
  sn_buffers : buffer_stats list;  (** sorted by buffer name *)
  sn_sites : site_stats list;  (** sorted by (proc, site) *)
  sn_dma : dma_stats list;  (** sorted by set *)
  sn_instances : int;
  sn_accesses : int;
}

val snapshot : unit -> snapshot
(** Everything recorded since the last reset, merged over engines and
    domains by buffer name and by (proc, site); closes every domain's
    open instance first so pressure totals are final. *)
