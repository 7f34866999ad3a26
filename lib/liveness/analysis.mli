(** Liveness analysis over schedule space (Section IV-F).

    For every array we compute the interval of schedule tuples during
    which it carries a live value: from its (lexicographically) first
    write to its last read. Following the paper, a {e virtual schedule}
    brackets the real one: a [first] statement writing all inputs is
    placed before every real timestamp, and a [last] statement reading
    all outputs after every real timestamp, so interface arrays are live
    across the accelerator activation where the host owns them.

    Two compatibility relations are derived (the edges of Figure 5):

    - {e address-space compatibility}: the live intervals are disjoint, so
      the arrays can alias the same address range;
    - {e memory-interface compatibility}: no statement instance performs
      the same type of operation (two reads, or two writes) on both arrays
      at one schedule point, so they can share physical banks and ports
      under a total ordering of memory operations. *)

type array_liveness = {
  array : string;
  first_write : Poly.Lex.timestamp;
  last_read : Poly.Lex.timestamp;
  interval : Poly.Lex.interval;
  writers : string list;  (** statements writing the array *)
  readers : string list;  (** statements reading the array *)
}

type t

exception Error of string

val virtual_first : Poly.Lex.timestamp
(** The virtual [first] statement's timestamp, lexicographically before
    every real schedule tuple: inputs are live from here (the host wrote
    them before activation). *)

val virtual_last : Poly.Lex.timestamp
(** The virtual [last] statement's timestamp, after every real tuple:
    outputs are live until here (the host reads them after return). *)

val analyze : Lower.Flow.program -> Lower.Schedule.t -> t
(** The schedule must cover every statement and have box domains. *)

val arrays : t -> array_liveness list
val find : t -> string -> array_liveness
(** @raise Error for unknown arrays. *)

val find_opt : t -> string -> array_liveness option
(** [find] without the exception — the cost reporter annotates PLM
    buffers with their residents' intervals and compiler-introduced
    buffer names have no liveness entry of their own. *)

val address_space_compatible : t -> string -> string -> bool
val interface_compatible : t -> string -> string -> bool

type edge = {
  a : string;
  b : string;
  address_space : bool;
  mem_interface : bool;
}

val compatibility_graph : t -> edge list
(** One entry per unordered array pair with at least one compatibility;
    pairs are normalized [a < b]. *)

val pp : Format.formatter -> t -> unit
val pp_graph : Format.formatter -> edge list -> unit
