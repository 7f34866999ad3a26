exception Kind_mismatch of string

type counter = { c_name : string; c : int Atomic.t }
type gauge = { g_name : string; g : float Atomic.t }

(* Quantiles come from fixed geometric buckets: bucket [i] counts
   observations in (2^((i-33)/2), 2^((i-32)/2)], i.e. two buckets per
   octave from 2^-16 up to 2^47, with underflow (v <= 2^-16, including
   zero and negatives) in bucket 0 and overflow in the last bucket.
   Estimates are therefore exact to within a factor of sqrt(2), and are
   clamped to the observed [min, max] so degenerate histograms (all
   observations equal) report exact percentiles. *)
let n_buckets = 128
let bucket_edge i = Float.pow 2.0 (float_of_int (i - 32) /. 2.0)

let bucket_of v =
  if not (v > 0.0) then 0
  else
    let i = 32 + int_of_float (Float.ceil (2.0 *. Float.log2 v)) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

(* Snapshots sort each section by metric name: registration order is a
   program-load accident (which module happened to initialise first),
   and exports built on snapshots must be byte-deterministic across
   runs for the hit≡miss and jobs-equivalence assertions. The insertion
   list only enumerates live metrics for [reset]. *)
let lock = Mutex.create ()
let by_name : (string, metric) Hashtbl.t = Hashtbl.create 64
let order : metric list ref = ref []

let register name make classify =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some m -> (
          match classify m with
          | Some v -> v
          | None -> raise (Kind_mismatch name))
      | None ->
          let m, v = make () in
          Hashtbl.replace by_name name m;
          order := m :: !order;
          v)

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; c = Atomic.make 0 } in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let incr c = Atomic.incr c.c
let add c n = ignore (Atomic.fetch_and_add c.c n)
let counter_value c = Atomic.get c.c
let counter_name c = c.c_name

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g = Atomic.make 0.0 } in
      (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g v
let gauge_value g = Atomic.get g.g

let histogram name =
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          h_lock = Mutex.create ();
          count = 0;
          sum = 0.0;
          min_v = Float.nan;
          max_v = Float.nan;
          buckets = Array.make n_buckets 0;
        }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let observe_n h v n =
  if n < 0 then invalid_arg "Obs.Metrics.observe_n: negative count";
  if n > 0 then
    Mutex.protect h.h_lock (fun () ->
        h.min_v <- (if h.count = 0 then v else Float.min h.min_v v);
        h.max_v <- (if h.count = 0 then v else Float.max h.max_v v);
        h.count <- h.count + n;
        h.sum <- h.sum +. (float_of_int n *. v);
        let b = bucket_of v in
        h.buckets.(b) <- h.buckets.(b) + n)

let observe h v = observe_n h v 1

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
}

(* Upper edge of the bucket holding the observation of the given rank,
   clamped into [min_v, max_v]. Call with h_lock held. *)
let quantile_locked h q =
  if h.count = 0 then Float.nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))) in
    let i = ref 0 and cum = ref 0 in
    while !cum < rank && !i < n_buckets do
      cum := !cum + h.buckets.(!i);
      i := !i + 1
    done;
    let est = bucket_edge (!i - 1) in
    Float.min h.max_v (Float.max h.min_v est)
  end

let histogram_snapshot h =
  Mutex.protect h.h_lock (fun () ->
      {
        h_count = h.count;
        h_sum = h.sum;
        h_min = h.min_v;
        h_max = h.max_v;
        h_p50 = quantile_locked h 0.50;
        h_p95 = quantile_locked h 0.95;
        h_p99 = quantile_locked h 0.99;
      })

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let snapshot () =
  let metrics = Mutex.protect lock (fun () -> List.rev !order) in
  let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  {
    counters =
      by_name
        (List.filter_map
           (function
             | Counter c -> Some (c.c_name, counter_value c) | _ -> None)
           metrics);
    gauges =
      by_name
        (List.filter_map
           (function Gauge g -> Some (g.g_name, gauge_value g) | _ -> None)
           metrics);
    histograms =
      by_name
        (List.filter_map
           (function
             | Histogram h -> Some (h.h_name, histogram_snapshot h) | _ -> None)
           metrics);
  }

let reset () =
  let metrics = Mutex.protect lock (fun () -> !order) in
  List.iter
    (function
      | Counter c -> Atomic.set c.c 0
      | Gauge g -> Atomic.set g.g 0.0
      | Histogram h ->
          Mutex.protect h.h_lock (fun () ->
              h.count <- 0;
              h.sum <- 0.0;
              h.min_v <- Float.nan;
              h.max_v <- Float.nan;
              Array.fill h.buckets 0 n_buckets 0))
    metrics
