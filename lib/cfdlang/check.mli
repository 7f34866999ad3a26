(** CFDlang type checker: shape inference and program validation.

    Enforces the static discipline the paper's value-based abstraction
    relies on (Section IV-B): statically shaped, non-aliasing tensor
    values, each named tensor assigned at most once, inputs never
    assigned, outputs assigned exactly once, every use preceded by a
    definition. *)

type error = { message : string }

exception Type_error of string

val pp_error : Format.formatter -> error -> unit

val max_tensor_words : int
(** The size budget: the largest extent product a declared tensor may
    have (2^24 words). *)

type checked = {
  program : Ast.program;
  shape_of : string -> int list;  (** raises [Not_found] for unknown names *)
  stmt_shapes : (string * int list) list;  (** lhs name, shape per stmt *)
}

val check : Ast.program -> (checked, error) result
(** Declarations first (unique names, extents >= 1, each within
    {!max_tensor_words}), then statements. Expression shapes are
    inferred with scalar broadcast over element-wise operators, equal
    shapes combining element-wise, [#] concatenating shapes, and
    contraction removing paired dimensions (validated for range,
    disjointness and equal extents). *)

val warnings : checked -> string list
(** Non-fatal diagnostics: inputs that are never read, and local tensors
    that are assigned but never consumed (dead code the optimizer will
    remove, usually a sign of a typo in the kernel). *)

val check_exn : Ast.program -> checked
(** @raise Type_error with the error message. *)

val parse_and_check : string -> (checked, error) result
(** Convenience: parse source text and check it; lexer/parser failures are
    reported as errors too. *)
