(** Structured diagnostics for the static verifier ([cfdc check]).

    Every rule of {!Verify} reports through this one type so the CLI, the
    compile driver and the test suite agree on a single diagnostic format.
    A diagnostic carries a stable machine-readable [rule] id (asserted by
    the mutation suite), the statement or array it is about, and — when a
    proof failed — a concrete witness extracted by exact enumeration or
    symbolic lexmin over the polyhedral sets involved. *)

type severity = Error | Warning

type witness =
  | Instance of string * int array
      (** one statement instance (statement name, domain point) *)
  | Instance_pair of (string * int array) * (string * int array)
      (** two statement instances whose schedule order is wrong *)
  | Element of string * int  (** array name, flat (layout) offset *)
  | Index of int * int  (** offending linearized index, array size *)
  | Intervals of Poly.Lex.interval * Poly.Lex.interval
      (** two overlapping live intervals in schedule space *)
  | Count of int * int
      (** a counted quantity vs the expected/budgeted one — the witness
          form of [share-ports] (port demand vs budget) and of the drift
          detector ([cost-drift-*]) *)

type t = {
  severity : severity;
  rule : string;  (** stable rule id, e.g. ["dep-raw"]; see docs/ANALYSIS.md *)
  subject : string;  (** the statement, array or unit the rule fired on *)
  message : string;
  witness : witness option;
}

val error : rule:string -> subject:string -> ?witness:witness -> string -> t
val warning : rule:string -> subject:string -> ?witness:witness -> string -> t

val is_error : t -> bool
val errors : t list -> t list
val warnings : t list -> t list

val summary : t list -> string
(** ["2 errors, 1 warning"]; ["no diagnostics"] for the empty list. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[dep-raw] t_mac -> r_stmt: ... (witness: ...)]. *)

val pp_report : Format.formatter -> t list -> unit
(** Every diagnostic, one per line, followed by the summary line. *)
