(** The loop-nest program produced by polyhedral code generation
    (step (v) of Figure 4) and consumed by both the C99 emitter and the
    HLS model.

    Arrays are flat 1-D double arrays — layout materialization has already
    linearized every tensor (Section IV-D), matching the "flattened 1-D
    arrays" interface of Figure 6. *)

type direction =
  | In  (** read-only kernel input (const in C) *)
  | Out  (** kernel output *)
  | Temp  (** exported temporary: stored in a PLM but not transferred *)

type param = { name : string; size : int; dir : direction }

type pragma =
  | Pipeline of int  (** initiation interval *)
  | Unroll of int  (** unroll factor *)

type fexpr =
  | Const of float
  | Load of string * Ix.t
  | Scalar of string
  | Add of fexpr * fexpr
  | Sub of fexpr * fexpr
  | Mul of fexpr * fexpr
  | Div of fexpr * fexpr

type stmt =
  | For of loop
  | Store of { array : string; index : Ix.t; value : fexpr }
  | Accum of { array : string; index : Ix.t; value : fexpr }
      (** [array\[index\] += value] *)
  | Set_scalar of { name : string; value : fexpr }
  | Acc_scalar of { name : string; value : fexpr }

and loop = {
  var : string;
  lo : int;
  hi : int;  (** exclusive upper bound: [lo <= var < hi] *)
  pragmas : pragma list;
  body : stmt list;
}

type proc = {
  name : string;
  params : param list;
  locals : (string * int) list;
      (** local arrays (the "temporaries left inside HLS" variant) *)
  body : stmt list;
}

exception Ill_formed of string

val validate : proc -> unit
(** Checks: unique parameter/local names, every array reference resolves,
    loop variables are unique along each nesting path, every scalar is set
    before being read, [In] parameters are never written, and every [Out]
    parameter is written at least once syntactically.
    @raise Ill_formed otherwise. *)

val run_totals : proc -> int * int
(** [(statements, iterations)] executed by one run: every leaf counts
    once per pass of its enclosing loops, and a loop running
    [t = max 0 (hi - lo)] times contributes [t] head iterations plus [t]
    passes of its body. Bounds are constants, so these are exact. *)

val leaf_desc : stmt -> string
(** A leaf's one-line description: ["store a"], ["accum a"], ["set s"]
    or ["acc s"] (["for"] for a loop). *)

val arrays_read : proc -> string list
val arrays_written : proc -> string list

val pp_stmt : Format.formatter -> stmt -> unit
val pp_proc : Format.formatter -> proc -> unit
