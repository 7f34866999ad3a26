(** Memory architecture generation — the Mnemosyne substitute
    (Section V-A2; Pilato et al., TCAD'17).

    Builds the accelerator's Private Local Memory from the compatibility
    information of the liveness analysis:

    - {e slots} group arrays that alias the same address range
      (address-space sharing: disjoint lifetimes);
    - {e units} stack slots into one set of physical banks
      (memory-interface sharing: same-type operations never coincide);
    - each unit is implemented on BRAM18 primitives with
      {!Fpga_platform.Bram.count}; arrays needing more simultaneous
      accesses than the two physical ports are duplicated across bank
      copies (multi-port architecture).

    Two generation modes reproduce the paper's two configurations. In both
    modes compiler-introduced transients are first materialized onto the
    program's declared local tensors (the ping-pong reuse of t and r that
    makes the factorized Inverse Helmholtz fit in its six named arrays);
    [`Sharing] additionally merges named arrays, taking the per-kernel PLM
    from 31 to 18 BRAM18s. *)

type mode = No_sharing | Sharing

type slot = {
  residents : string list;  (** arrays aliasing this address range *)
  slot_words : int;  (** max resident size *)
  slot_offset : int;  (** word offset inside the unit *)
}

type plm_unit = {
  unit_name : string;
  slots : slot list;
  copies : int;  (** bank duplication for >2 simultaneous accesses *)
  unit_words : int;
  brams : int;
}

type architecture = {
  arch_mode : mode;
  units : plm_unit list;
  storage : Lower.Codegen.storage;
  total_brams : int;
}

exception Error of string

val ports_with_unroll : Lower.Flow.program -> unroll:int -> string -> int
(** Worst per-instance port demand of the array at the innermost unroll
    factor: the maximum over statements of [reads * unroll + writes]
    (each unrolled lane issues its own reads, the register-accumulated
    write does not replicate), and at least 1. The one port-demand
    formula: bank duplication here, the verifier's [share-ports] rule
    and [Analysis.Cost]'s per-buffer demand all read it. *)

val read_ports_needed : Lower.Flow.program -> string -> int
(** [ports_with_unroll ~unroll:1]: the most same-instance accesses to
    the array (reads plus the write of one statement body). *)

type scope = All | Interface_only

val generate :
  ?scope:scope ->
  ?unroll:int ->
  mode:mode ->
  Lower.Flow.program ->
  Lower.Schedule.t ->
  architecture
(** [scope] defaults to [All] (the decoupled flow: every array lives in a
    PLM). [Interface_only] reproduces the "temporaries left inside the HLS
    accelerator" variant: temporaries are still packed onto the declared
    locals (that is the compiler's job, not Vivado's) but stay out of the
    PLM units and out of [total_brams]; the generated storage map makes
    them local buffers of the kernel.

    [unroll] (default 1) is the innermost-loop unroll factor requested
    from HLS: each unrolled lane reads its own element per cycle, so read
    ports scale with the factor and banks are duplicated once demand
    exceeds the primitive's two ports (the "multi-port, multi-bank
    architectures based on the requested HLS optimizations" of
    Section V-A2). *)

val port_budget : plm_unit -> int
(** Simultaneous same-cycle accesses the unit can serve:
    [Fpga_platform.Bram.ports * copies]. The dynamic profiler audits
    observed per-instance access counts against this budget. *)

val unit_of_buffer : architecture -> string -> plm_unit option
(** The PLM unit backing the named storage buffer, if any — under
    [Interface_only] scope, temporaries resolve to kernel-local buffers
    that are not PLM units. *)

val metadata : Lower.Flow.program -> Lower.Schedule.t -> string
(** The Mnemosyne input metadata the compiler generates in step (iv) of
    Figure 4: array inventory plus the compatibility edges. *)

val pp_architecture : Format.formatter -> architecture -> unit
