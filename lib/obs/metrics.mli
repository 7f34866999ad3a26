(** Typed metrics registry: counters, gauges and histograms.

    One process-wide registry, safe to update from any [Domain]:
    counters and gauges are atomics, histograms take a per-histogram
    mutex. Keep that mutex off per-event paths: observe once per run, or
    fold per-event values into counts and hand them over with
    {!observe_n} (the memprof recorder folds one port-pressure value per
    leaf instance and flushes the counts at snapshot). Metrics are
    registered on first use and live for the process; [metric name] is
    get-or-create, so two modules naming the same counter share one cell
    and hot paths can cache the handle at module initialization.

    Naming convention (see docs/OBSERVABILITY.md for the full catalogue):
    dot-separated lowercase, subsystem first — ["poly.eliminate.hits"],
    ["exec.statements"], ["sim.dma.bytes_in"]. The pair ["X.hits"] /
    ["X.misses"] is recognized by the summary renderer as a cache and
    reported with its hit rate. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get or create the counter registered under [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val gauge : string -> gauge
(** Get or create the gauge registered under [name]. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram
(** Get or create the histogram registered under [name]. Histograms
    record count / sum / min / max of their observations plus geometric
    buckets (two per octave) from which p50/p95/p99 are estimated. *)

val observe : histogram -> float -> unit

val observe_n : histogram -> float -> int -> unit
(** [observe_n h v n] records [n] observations of [v] under one lock:
    count, min, max and percentiles are those of [n] calls of
    [observe h v], and the sum grows by [float n *. v] — the same as [n]
    repeated additions whenever those are exact, e.g. for integer
    values. [n = 0] is a no-op.
    @raise Invalid_argument when [n < 0]. *)

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** [nan] when the histogram is empty *)
  h_max : float;  (** [nan] when the histogram is empty *)
  h_p50 : float;
      (** median estimate, exact to within a factor of sqrt(2) and
          clamped to [[h_min, h_max]]; [nan] when empty *)
  h_p95 : float;  (** 95th percentile estimate; [nan] when empty *)
  h_p99 : float;  (** 99th percentile estimate; [nan] when empty *)
}

val histogram_snapshot : histogram -> histogram_snapshot

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

val snapshot : unit -> snapshot
(** Every registered metric, each section sorted by metric name so
    snapshot-derived exports are byte-deterministic across runs
    (registration order is a program-load accident). *)

val reset : unit -> unit
(** Zero every counter and gauge and empty every histogram. The
    metrics stay registered (handles cached by hot paths remain
    valid). *)

exception Kind_mismatch of string
(** Raised when [name] is already registered as a different kind, e.g.
    [gauge "x"] after [counter "x"]. *)
