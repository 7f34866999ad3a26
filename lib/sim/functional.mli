(** Functional simulation of the complete parallel system.

    Where {!Perf} models time, this module models {e data}: it executes
    the host main loop of Section V-B against real memories — per-element
    input DMA into the PLM sets, kernel execution on each element through
    the {!Loopir.Compiled} engine (at the strongest mode the static
    verifier licenses, {!Analysis.Verify.execution_mode}), and output DMA
    back.

    This validates the pieces no per-kernel test can: the host transfer
    list, the storage offsets into shared PLM buffers, and the
    accelerator-to-PLM steering across rounds.

    Two scheduling strategies drive the same per-element cycle and
    produce bit-identical results (property-tested in
    [test/test_sim_par.ml]):

    - {!Sharded} (the default, and the fast path): the n elements are
      partitioned into contiguous shards, one long-lived task per worker
      domain. Each domain allocates its own frame set and batches the
      whole DMA-in → execute → DMA-out cycle over its shard, so pool
      dispatch is amortized over the shard's hundreds of kernel runs and
      no state is shared between domains (no false sharing).
    - {!Round_scheduled}: the controller-round-faithful host main loop —
      blocks of [m] elements, [m/k] controller rounds each running the
      [k] accelerator instances on the PLM set selected by the batch
      counter (Figure 7c), one frame per PLM set. It is the reference
      the sharded path is tested against.

    Results are independent of [strategy] and [jobs], and so is what the
    PLM access recorder ([Memprof.Record]) observes while it is enabled:
    both strategies file element [e]'s DMA words under its PLM set,
    [e mod m]. *)

exception Error of string

type strategy =
  | Sharded
      (** Element-sharded: contiguous shards, one per domain, private
          frame sets, dispatch amortized over the whole run. *)
  | Round_scheduled
      (** Controller-round-faithful: k-way parallelism within each
          round, per-round joins. *)

val strategy_name : strategy -> string
(** ["sharded"] / ["round-scheduled"]. *)

val default_jobs : strategy:strategy -> n:int -> k:int -> int
(** The job count {!run} uses when [?jobs] is not given: the recommended
    domain count, capped by the available parallelism of the strategy —
    the [n] elements for {!Sharded}, the [k] accelerators of a round for
    {!Round_scheduled} (never below 1). *)

val run :
  ?jobs:int ->
  ?strategy:strategy ->
  system:Sysgen.System.t ->
  proc:Loopir.Prog.proc ->
  inputs:(int -> (string * float array) list) ->
  n:int ->
  unit ->
  (string * float array) list array
(** [run ~system ~proc ~inputs ~n ()] processes elements [0 .. n-1];
    [inputs e] supplies each {e logical} input array (by its tensor name,
    dense row-major) for element [e]. Returns per-element bindings of the
    logical output arrays. [n] need not be a multiple of [m]; the padded
    slots of the final block get no transfer and no execution (the
    hardware runs them on duplicate data and discards the results).

    [strategy] defaults to {!Sharded}; [jobs] defaults to
    {!default_jobs} and bounds the worker domains (shards run at most
    [min jobs n] domains). Under {!Sharded} with [jobs > 1], [inputs]
    is called from worker domains and must be safe for concurrent calls
    (any pure function is). A failing element raises {!Error} naming its
    element index — the same error regardless of [jobs] — with the
    backtrace captured at the worker's raise site, and never corrupts
    the results of other shards.

    The [sim.*] counters (elements, kernel runs, rounds, padded skips,
    DMA bytes) describe the simulated hardware schedule, which is fixed
    by [n] and the solution, so their values are identical across
    strategies and job counts.

    @raise Error on missing inputs, size mismatches or [jobs < 1]. *)
