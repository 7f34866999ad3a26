(** The replica solver of Equation (3) (Section V-B):

    [H * k + M * m <= A],  with [m >= k] and [m] a power-of-two multiple
    of [k], where [H] is one accelerator (kernel + integration glue), [M]
    one PLM instance, and [A] the board capacity minus the
    pre-characterized interface reserve. *)

type config = {
  board : Fpga_platform.Board.t;
  interface_reserve : Fpga_platform.Resource.t;
      (** AXI controllers, DMA, interconnect — reserved before solving *)
  glue_per_kernel : Fpga_platform.Resource.t;
      (** integration logic per accelerator instance (start/done tree,
          memory steering) *)
}

val default_config : config
(** ZCU106 with the calibrated reserve (BRAM-heavy: DMA buffers) and
    per-kernel glue fitted to Table I (see EXPERIMENTS.md). *)

type solution = {
  k : int;  (** accelerator instances *)
  m : int;  (** PLM instances *)
  batch : int;  (** m / k *)
  used : Fpga_platform.Resource.t;  (** total incl. reserve *)
  available : Fpga_platform.Resource.t;  (** A of Equation (3) *)
  reserve : Fpga_platform.Resource.t;  (** the pre-characterized interface share *)
}

exception Infeasible of string

val solve :
  ?config:config ->
  kernel:Fpga_platform.Resource.t ->
  plm_brams:int ->
  ?force_k:int ->
  ?force_m:int ->
  unit ->
  solution
(** Maximizes [m = k] as a power of two unless [force_k]/[force_m] pin the
    shape. @raise Infeasible when even k = m = 1 does not fit, a forced
    [k] or [m] is below 1, or the forced shape violates Equation (3) or
    the power-of-two constraint. *)

val max_m : ?config:config -> kernel:Fpga_platform.Resource.t -> plm_brams:int -> unit -> int
(** Largest feasible power-of-two [m = k]; 0 when infeasible. *)

val pp_solution : Format.formatter -> solution -> unit
