(** Performance simulation of the complete system: the host main loop of
    Section V-B driven by the AXI-lite controller model, the transfer
    model, and the analytical ARM baseline. Regenerates the measurements
    behind Figures 9 and 10. *)

type hw_result = {
  k : int;
  m : int;
  exec_cycles : int;  (** accelerator-only cycles for the whole run *)
  transfer_cycles : int;
  total_cycles : int;
  exec_seconds : float;
  total_seconds : float;
}

type sw_result = {
  flops_per_element : int;
  cpu_cycles : float;
  seconds : float;
}

val transfer_cycles : bytes:int -> board:Fpga_platform.Board.t -> int
(** Cycles (at the accelerator clock) to move [bytes] over the AXI path
    at the calibrated efficiency. *)

val overlap_requirement : k:int -> m:int -> string option
(** [None] when the double-buffering requirement [m >= 2k] holds,
    otherwise [Some message] naming the requirement and the offending
    values. CLI and explore paths use this to turn an infeasible
    overlapped run into a stable [sim-overlap-infeasible] diagnostic
    instead of an exception. *)

(** {2 The block schedule}

    The only cycle model in the repository. The host main loop is
    [blocks] iterations of (DMA-in of one block of [m] elements;
    [batch = m / k] controller rounds; DMA-out), or, double-buffered, a
    two-stage pipeline of fill + [blocks] steady-state slots of
    [max(io, compute)] + drain. {!run_hw}, [Cfd_core.Costing.estimate]
    and the device timeline all read their cycle counts from one
    {!Schedule.t}; they differ only in the round length they build it
    with (the FSM-simulated round here, the closed-form
    [latency + Constants.controller_handshake_cycles] in the static
    estimate). *)

module Schedule : sig
  type t = private {
    k : int;  (** accelerators fired per round *)
    batch : int;  (** rounds per block, [m / k] *)
    blocks : int;  (** host main-loop iterations, [ceil(n / m)] *)
    round_cycles : int;  (** one controller round, handshake included *)
    block_in : int;  (** DMA-in cycles of one block *)
    block_out : int;  (** DMA-out cycles of one block *)
    overlap : bool;  (** double-buffered transfers *)
  }

  val make :
    overlap:bool ->
    system:Sysgen.System.t ->
    board:Fpga_platform.Board.t ->
    round_cycles:int ->
    t
  (** The schedule of [system]'s host loop at [round_cycles] per round,
      block transfers priced by {!transfer_cycles}.
      @raise Invalid_argument when [overlap] and [m < 2k]
      (see {!overlap_requirement}). *)

  val exec_cycles : t -> int
  (** Controller-busy cycles: [blocks * batch * round_cycles]. *)

  val transfer_cycles : t -> int
  (** DMA-busy cycles: [blocks * (block_in + block_out)]. *)

  val total_cycles : t -> int
  (** Critical path: [exec + transfer] plain; [io + blocks * max(io,
      compute)] overlapped. All three totals are O(1). *)

  val iter_phases :
    t ->
    latency:int ->
    (track:string ->
    name:string ->
    start:int ->
    dur:int ->
    attrs:(string * string) list ->
    unit) ->
    unit
  (** Every phase instance on the cycle clock: per-block dma-in /
      dma-out on the ["host"] and ["dma"] tracks (fill / steady / drain
      on ["host"] when overlapped), controller rounds on ["ctrl"], and
      per-kernel executions of [latency] cycles on ["acc<i>"]. The busy
      sums of the host, ctrl and dma tracks are {!total_cycles},
      {!exec_cycles} and {!transfer_cycles}. O(blocks * batch * k):
      walk it for a timeline, never for a total. *)
end

val schedule :
  overlap:bool ->
  system:Sysgen.System.t ->
  board:Fpga_platform.Board.t ->
  Schedule.t
(** {!Schedule.make} with the round run through the controller FSM by
    {!Sysgen.Axi_ctrl.run_round}, which steps it once per event (at most
    3 steps for the uniform round). *)

val result : board:Fpga_platform.Board.t -> Schedule.t -> hw_result
(** A schedule's totals at the board clock. Pure: no metrics, no
    timeline emission. *)

val run_hw :
  system:Sysgen.System.t -> board:Fpga_platform.Board.t -> hw_result
(** Simulates the host main loop: {!result} of the plain {!schedule}.
    No transfer/compute overlap — reproducing the paper's evaluated
    implementation, and the reason its k<m batching experiments showed
    no improvement.

    When {!Obs.Timeline.enabled} the run also emits the schedule's
    {!Schedule.iter_phases} on the modeled cycle clock; the disabled
    path is a single branch — bit-identical results, no allocation. *)

val run_hw_overlapped :
  system:Sysgen.System.t -> board:Fpga_platform.Board.t -> hw_result
(** Models the double-buffered data transfers the paper lists as future
    work: requires [m >= 2k] (half the PLM sets hold the in-flight block
    while the other half is drained/filled) and pipelines each block's
    transfers against the previous block's compute rounds; steady-state
    block time is [max(transfers, compute)]. Emits fill / steady /
    drain timeline phases under the same gate as {!run_hw}.
    @raise Invalid_argument when [m < 2k] (see {!overlap_requirement}). *)

val run_sw :
  variant:[ `Reference | `Hls_code ] ->
  flops_per_element:int ->
  n_elements:int ->
  board:Fpga_platform.Board.t ->
  sw_result
(** Analytical ARM A53 execution of the reference (or HLS-tuned) code. *)

val accel_speedup : baseline:hw_result -> hw_result -> float
(** Accelerator-only speedup (Figure 9, left series). *)

val total_speedup : baseline:hw_result -> hw_result -> float
(** End-to-end speedup including transfers (Figure 9, right series). *)

val speedup_vs_sw : sw:sw_result -> hw_result -> float
(** Figure 10. *)

val pp_hw : Format.formatter -> hw_result -> unit
