(** Device-cycle timeline orchestration — the engine behind
    [cfdc timeline] and the timeline leg of [cfdc profile].

    Runs the performance model ({!Sim.Perf}) with {!Obs.Timeline}
    enabled so every phase instance of its block schedule (per-block
    DMA-in, controller rounds, per-kernel executions, DMA-out, and the
    fill/steady/drain pipeline of the overlapped mode) lands on the
    modeled cycle clock, joins {!Memprof}'s port-pressure audit as
    per-buffer ["plm:<unit>"] counter tracks, and derives the
    utilization metrics the paper's discussion is about
    (compute/transfer shares, overlap efficiency, idle cycles per
    accelerator, peak/mean port pressure). The phases and the cycle
    totals come from the same {!Sim.Perf.Schedule.t}, so there is
    nothing to reconcile; the only failure left is an overlapped leg the
    shape cannot double-buffer ([sim-overlap-infeasible]).

    The enable flag is saved/restored around each run and the store is
    reset afterwards, so callers never observe residual state. *)

type overlap_policy =
  | Auto
      (** run the overlapped leg; when the solved shape violates
          [m >= 2k], keep [m] and shrink [k] to the largest divisor of
          [m] with [2k <= m] (skipping with a warning when none
          exists) *)
  | Require
      (** run the overlapped leg only on the solved shape; an
          [m < 2k] shape is a [sim-overlap-infeasible] error *)
  | Off  (** plain leg only *)

type derived = {
  d_total_cycles : int;
  d_exec_cycles : int;
  d_transfer_cycles : int;
  d_compute_share : float;  (** exec / total *)
  d_transfer_share : float;  (** transfer / total; shares sum > 1 under
                                 overlap — that is the point *)
  d_overlap_efficiency : float;
      (** hidden cycles / hideable cycles: [0] for the plain leg, [1]
          when the shorter of (exec, transfer) is fully pipelined away *)
  d_idle_cycles_per_acc : (string * int) list;
      (** per ["acc<i>"] track, [total - busy] *)
  d_port_peak_mean : (string * string * int * float) list;
      (** per (track, series): peak and mean port pressure *)
}

type leg = {
  leg_label : string;  (** ["plain"] or ["overlapped"] *)
  leg_overlap : bool;
  leg_shape : Analysis.Cost.shape;
  leg_schedule : Sim.Perf.Schedule.t;  (** the schedule the leg ran *)
  leg_hw : Sim.Perf.hw_result;
  leg_capture : Obs.Timeline.capture;
  leg_derived : derived;
}

type report = {
  tl_kernel : string;
  tl_n_elements : int;
  tl_legs : leg list;  (** plain first, then (maybe) overlapped *)
  tl_diagnostics : Analysis.Diagnostic.t list;
      (** [sim-overlap-infeasible], when the overlapped leg is withheld *)
}

val analyze :
  ?config:Sysgen.Replicate.config ->
  ?force_k:int ->
  ?force_m:int ->
  ?overlap:overlap_policy ->
  audit:Memprof.Audit.result Lazy.t ->
  n_elements:int ->
  Compile.result ->
  report
(** Build the system at [n_elements] (propagating
    [Sysgen.Replicate.Infeasible]), run the plain leg and — per
    [overlap] (default [Auto]) — the overlapped leg, each under a
    fresh timeline capture. [audit] is the PLM audit of the result's
    own memgen mode ({!Compile.audit}), which the caller runs once and
    may share with other consumers; it is forced only once the system
    is built, so an infeasible shape fails before any audit runs. Its
    pressure series is joined onto the first kernel execution's latency
    window, which starts at the schedule's [block_in]. *)

val passed : report -> bool
(** No error-severity diagnostic: every requested leg ran. *)

val find_leg : report -> string -> leg option

val chrome_trace : report -> Obs.Json.t
(** One Chrome trace over all legs, tracks prefixed ["<label>/"] so
    plain and overlapped renderings sit side by side; cycle count is
    the timestamp domain. *)

val to_json : report -> Obs.Json.t
(** The scripting surface of [cfdc timeline --json]: per-leg shape,
    cycle counts and derived metrics, plus top-level [diagnostics] and
    [passed]. *)

val pp_report : Format.formatter -> report -> unit
