(** Memory evaluation report — the paper's Table of memory results,
    reproduced from dynamic observation: per-unit word occupancy, BRAM18
    counts per memgen mode (31 no-sharing → 18 sharing on the factorized
    Inverse Helmholtz), sharing savings, DMA words per PLM set, and the
    audit verdict. Rendered as a human summary, a JSON document, and
    Chrome-trace counter tracks. *)

type t

val make :
  kernel:string -> ?sim:int * Record.snapshot -> Audit.result list -> t
(** [sim] is (elements simulated, recorder snapshot) from a
    [Sim.Functional] run with [Record] enabled. *)

val diagnostics : t -> Analysis.Diagnostic.t list
(** All audit diagnostics, in audit order. *)

val passed : t -> bool
(** No error-severity diagnostics. *)

val savings : t -> (int * int * int) option
(** (no-sharing BRAM18s, sharing BRAM18s, saved) when both modes were
    audited with architectures attached. *)

val to_json : t -> Obs.Json.t
(** Unit percentile fields (p50/p95/p99 of port pressure) are read from
    the ["memprof.<label>.pressure.<unit>"] histograms the audit
    observed into. *)

val chrome_counters : t -> Obs.Json.t
(** Chrome trace-event JSON with counter ([ph:"C"]) tracks per unit and
    mode: port pressure and cumulative PLM word occupancy over the
    instance sequence number as the time axis. Pressure tracks are
    downsampled to at most 1024 samples keeping per-bucket maxima;
    tracks and series are emitted sorted by unit name so the JSON is
    byte-deterministic across runs. *)

val pp : Format.formatter -> t -> unit
