(** Cycle-level model of the AXI-lite control peripheral (Section V-B).

    The host sees a single HLS-style control interface (ap_start /
    ap_done / ap_idle / ap_ready registers). The peripheral broadcasts the
    start command to all [k] accelerators once every one of them is ready,
    collects their done pulses, increments the batch counter (up to
    [m/k]), and raises the interrupt line back to the CPU when the round
    completes. The batch counter output steers the accelerator-to-PLM
    connections (Figure 7c). *)

type t

type outputs = {
  ap_start_broadcast : bool;  (** asserted for one step when firing *)
  irq : bool;  (** asserted when a round completes *)
  batch_index : int;  (** current batch, 0 .. batch-1 *)
}

exception Protocol_error of string

val create : k:int -> batch:int -> t
(** @raise Protocol_error if [k < 1] or [batch < 1]. *)

val k : t -> int
val batch : t -> int

val write_start : t -> unit
(** Host writes the start command register.
    @raise Protocol_error if a round is already in flight. *)

val step : t -> ready:bool array -> done_:bool array -> outputs
(** Advance one cycle given the accelerators' status lines. Arrays must
    have length [k]. The peripheral latches start until all accelerators
    are ready, then broadcasts; it then waits until all accelerators have
    signalled done (dones may arrive in any order, across any number of
    steps) and raises [irq]. After [irq], the batch counter has advanced;
    when it wraps to 0 the whole m-block is complete. *)

val busy : t -> bool

val steps : t -> int
(** {!step} calls so far, including those made by {!run_round}. *)

val run_round : t -> latencies:int array -> int
(** Convenience for performance simulation: fire one round where
    accelerator [i] takes [latencies.(i)] cycles, stepping the FSM until
    the interrupt; returns the cycle count (handshake included).

    The FSM is stepped once per event, not once per cycle: a step that
    emits nothing and leaves the controller state unchanged is replayed
    identically until the smallest positive remaining latency runs out,
    so those cycles are counted without being stepped. The count equals
    stepping every cycle; a round takes at most [2d + 2] steps for [d]
    distinct positive latencies, 3 for a uniform positive latency.
    @raise Protocol_error past 100,000,000 cycles. *)
