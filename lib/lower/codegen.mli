(** Polyhedral code generation (step (v) of Figure 4): scan the schedule
    lexicographically and emit the loop-nest program that executes every
    statement instance in schedule order. *)

type options = {
  exported_temps : bool;
      (** [true] (the decoupled flow, Section V-A): temporaries become
          interface parameters stored in PLMs; [false] reproduces the
          "temporaries left inside the HLS accelerator" variant of the
          evaluation. *)
  pipeline_ii : int option;
      (** attach [#pragma HLS pipeline II=n] to every innermost loop *)
  unroll : int option;
      (** attach [#pragma HLS unroll factor=n] to every innermost loop *)
}

val default : options
(** Exported temporaries, [II = 1] pipelining, no unrolling. *)

exception Error of string

type storage = (string * (string * int)) list
(** Optional storage assignment: logical array -> (backing buffer, word
    offset). Arrays mapped to the same buffer alias — this is how address
    space sharing decisions (Section IV-D explicit merges and Mnemosyne's
    automatic sharing) reach the generated code, and how the interpreter
    verifies their legality. Unlisted arrays get their own buffer. *)

val generate :
  ?options:options -> ?storage:storage -> Flow.program -> Schedule.t -> Loopir.Prog.proc
(** The schedule must pass {!Schedule.validate}; fused statements must
    agree on their shared loop bounds. The emitted procedure passes
    [Loopir.Prog.validate]. A shared buffer's direction is [In] only when
    every resident is an input, [Out] when any resident is an output, and
    [Temp] otherwise; its size covers every resident's extent. Overlapping
    resident ranges are permitted — that is the point of sharing; their
    legality is the liveness analysis' responsibility and is re-checked
    functionally by the interpreter.
    @raise Error on malformed schedules. *)

type coord =
  | Loop of string  (** the runtime value of the enclosing loop of this name *)
  | Fixed of int
      (** a constant: a reduction dimension at its last value, for the
          store of a scalarized accumulator after its nest *)

type leaf = {
  leaf_stmt : string;  (** [Flow.statement.stmt_name] of the source *)
  leaf_coords : coord array;
      (** per DOMAIN dimension of the statement, where the instance
          vector coordinate [x.(d)] comes from *)
}
(** Provenance of one emitted leaf statement, linking the loop-nest body
    back to the polyhedral model it was scanned from. *)

val scalarized_with_provenance :
  ?options:options ->
  ?storage:storage ->
  Flow.program ->
  Schedule.t ->
  Loopir.Prog.proc * leaf list
(** The kernel that ships, [Loopir.Scalarize.optimize (generate ...)],
    with one {!leaf} per leaf statement in pre-order, the order
    {!Loopir.Compiled} numbers probe sites. A leaf the scalarizer kept
    or rewrote onto an accumulator names its source statement, each
    coordinate a loop (the accumulator's init touches no array). The
    store that spills an accumulator after its reduction nest names the
    reduction statement with the nest's dimensions [Fixed] at their
    upper bound: it writes what that statement's last instance would
    have, at that instance's timestamp. The memory audit uses this to
    map a dynamic access at probe site [k] back to a statement instance
    and hence to its exact timestamp in schedule space. *)
