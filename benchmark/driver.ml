(* One run of one workload: set-up, the oracle, the closed loop of
   operations, and every metric derived from what it measured. *)

let now = Harness.now

(* Set-up, everything a run does before its first timed operation
   (building the inputs and the oracle), is repeated this many times and
   its median reported, so work moved into set-up shows without one slow
   start deciding it. *)
let setup_reps = 3

(* The input sequence: round after round, each a seeded permutation of
   the workload's inputs, so every input is drawn equally often and the
   same seed gives the same sequence. *)
let rounds ~seed ~n =
  let rng = Random.State.make [| seed |] in
  fun () ->
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a

type sample = { op : int; input : int; wall : float; scale : float; work : int }

(* Seconds on the reference host. *)
let latency s = s.wall *. s.scale

type run = {
  workload : Workloads.t;
  inputs : string array;
  setup_s : float list;  (** scaled like operations *)
  setup_scale : float;  (** of the last set-up *)
  samples : sample list;  (** untraced, successful *)
  traced : sample list;  (** traced, successful *)
  executed : int list;  (** input index of every operation, in order *)
  attempted : int;
  failures : string list;  (** failed operations, one message each *)
  oracle_failures : string list;
  spans : Harness.span list;  (** the last set-up, then the traced operations *)
  counters : (string * int) list;  (** deltas over the traced operations *)
  calibrations : float list;
  replica_identical : bool;
  designs : (int * int) list;
  peak_rss_mb : float;
}

(* Counters the layers keep for themselves, read around the traced
   operations for the hit ratios. *)
let counter_values () =
  let poly =
    List.filter
      (fun c ->
        let n = Poly.Stats.name c in
        String.length n > 5 && String.sub n 0 5 = "poly.")
      (Poly.Stats.all ())
  in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 poly in
  let value name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  [
    ("poly.hits", total Poly.Stats.hits);
    ("poly.misses", total Poly.Stats.misses);
    ("sim.round.hits", value "sim.round.hits");
    ("sim.round.misses", value "sim.round.misses");
    ("cache.hits", value "cache.hits");
    ("cache.misses", value "cache.misses");
  ]

let run ?(max_rounds = max_int) ?(ops_per_round = max_int) ~(workload : Workloads.t)
    ~seed ~seconds ~trace ~dir () =
  Harness.recorded := [];
  Harness.calibrations := [];
  Harness.current_op := (-1, -1);
  let setups =
    List.init setup_reps (fun i ->
        let sub = Filename.concat dir (Printf.sprintf "setup%d" i) in
        Poly.Memo.clear_all ();
        (* Only the last set-up is traced, for loopir.engine_compile. *)
        Harness.recording := trace && i = setup_reps - 1;
        let wall, scale, (instance, oracle_failures) =
          Harness.scaled (fun () ->
              let instance = workload.Workloads.setup ~seed ~dir:sub in
              (instance, instance.Workloads.oracle ()))
        in
        Harness.recording := false;
        if i < setup_reps - 1 then Harness.remove_tree sub;
        (wall *. scale, scale, instance, oracle_failures))
  in
  let _, setup_scale, instance, oracle_failures = List.nth setups (setup_reps - 1) in
  let next_round = rounds ~seed ~n:(Array.length instance.Workloads.inputs) in
  let ops = ref 0 and executed = ref [] and failures = ref [] in
  let samples = ref [] and traced = ref [] in
  let counters = ref (List.map (fun (name, _) -> (name, 0)) (counter_values ())) in
  (* Whole rounds until the next one would overrun [seconds], at least
     one. A traced run alternates untraced and traced rounds, so both
     see the same process age and the untraced ones are the base of
     trace.overhead. *)
  let start = now () and round = ref 0 in
  let fits () =
    !round = 0
    ||
    let elapsed = now () -. start in
    elapsed +. (elapsed /. float_of_int !round) <= seconds
  in
  while !round < max_rounds && fits () do
    let is_traced = trace && !round mod 2 = 1 in
    let before = counter_values () in
    Array.iteri
      (fun k input ->
        if k < ops_per_round then begin
          let op = !ops in
          incr ops;
          executed := input :: !executed;
          Harness.current_op := (op, input);
          Harness.recording := is_traced;
          let outcome =
            match instance.Workloads.op ~traced:is_traced input with
            | o -> Ok o
            | exception e -> Error e
          in
          Harness.recording := false;
          match outcome with
          | Ok { Workloads.failures = []; wall; scale; work } ->
              let sample = { op; input; wall; scale; work } in
              if is_traced then traced := sample :: !traced
              else samples := sample :: !samples
          | Ok { Workloads.failures = msg :: _; _ } -> failures := msg :: !failures
          | Error e ->
              failures :=
                Printf.sprintf "%s: %s" instance.Workloads.inputs.(input)
                  (Printexc.to_string e)
                :: !failures
        end)
      (next_round ());
    if is_traced then
      counters :=
        List.map2
          (fun (name, acc) ((_, a), (_, b)) -> (name, acc + a - b))
          !counters
          (List.combine (counter_values ()) before);
    incr round
  done;
  {
    workload;
    inputs = instance.Workloads.inputs;
    setup_s = List.map (fun (s, _, _, _) -> s) setups;
    setup_scale;
    samples = List.rev !samples;
    traced = List.rev !traced;
    executed = List.rev !executed;
    attempted = !ops;
    failures = List.rev !failures;
    oracle_failures;
    spans = Harness.spans ();
    counters = !counters;
    calibrations = !Harness.calibrations;
    replica_identical = instance.Workloads.replica_identical ();
    designs = instance.Workloads.designs ();
    peak_rss_mb = Harness.peak_rss_mb ();
  }

let correct r = r.failures = [] && r.oracle_failures = [] && r.samples <> []

(* ---------- metrics ---------- *)

let metric name unit value = { Harness.name; value; unit }

let group (xs : (int * 'a) list) =
  List.map
    (fun k -> (k, List.filter_map (fun (j, x) -> if j = k then Some x else None) xs))
    (List.sort_uniq compare (List.map fst xs))

(* Geometric mean over the inputs of each input's median: the same number
   whatever share of the run each input had. *)
let per_input_median xs =
  Harness.geomean (List.map (fun (_, v) -> Harness.median v) (group xs))

let end_to_end r =
  let by_input = group (List.map (fun s -> (s.input, s)) r.samples) in
  let median_latency ss = Harness.median (List.map latency ss) in
  [
    metric "setup_s" "s" (Harness.median r.setup_s);
    metric "op_ms_p50" "ms"
      (1e3 *. Harness.geomean (List.map (fun (_, ss) -> median_latency ss) by_input));
    metric "op_ms_tail" "ms" (1e3 *. Harness.tail (List.map latency r.samples));
    (* One round of every input, each at its median latency. *)
    metric "work_per_s" "1/s"
      (float_of_int (List.fold_left (fun acc (_, ss) -> acc + (List.hd ss).work) 0 by_input)
      /. Harness.sum (List.map (fun (_, ss) -> median_latency ss) by_input));
    metric "peak_rss_mb" "MB" r.peak_rss_mb;
  ]

(* Every span the traced operations record, whichever workload records
   it; a workload reports 0 for the spans it never enters. A root's self
   time is the operation's unattributed time. *)
let span_catalogue =
  [
    "request";
    "sweep";
    "batch";
    "cfdlang.parse";
    "cfdlang.check";
    "tir.build";
    "lower.flow";
    "lower.reschedule";
    "liveness.analyze";
    "cache.lookup";
    "cache.store";
    "mnemosyne.generate";
    "lower.codegen";
    "loopir.scalarize";
    "loopir.emit_c";
    "hls.analyze";
    "mnemosyne.metadata";
    "analysis.verify";
    "analysis.cost";
    "sysgen.build";
    "sim.perf";
    "sysgen.emit";
    "explore.sweep";
    "explore.sweep_parallel";
    "explore.config";
    "cfd_core.compile";
    "sim.functional_sharded";
    "sim.functional_sharded_parallel";
    "loopir.run";
    "sim.functional_recorded";
    "memprof.snapshot";
  ]

(* Each parallel variant with the one-domain span that does the same
   work in the same operation. *)
let parallel_pairs =
  [
    ("explore.sweep", "explore.sweep_parallel");
    ("sim.functional_sharded", "sim.functional_sharded_parallel");
  ]

let ratio a b = if b = 0. then 0. else a /. b

let per_layer r =
  let scales = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace scales s.op s.scale) r.traced;
  let scale (s : Harness.span) =
    if s.Harness.op < 0 then r.setup_scale
    else Option.value ~default:1. (Hashtbl.find_opt scales s.Harness.op)
  in
  let traced_ops = List.filter (fun (s : Harness.span) -> s.Harness.op >= 0) r.spans in
  let named name = List.filter (fun (s : Harness.span) -> s.Harness.name = name) traced_ops in
  let in_ops ops spans =
    List.filter (fun (s : Harness.span) -> List.mem s.Harness.op ops) spans
  in
  let ops_of spans = List.sort_uniq compare (List.map (fun (s : Harness.span) -> s.Harness.op) spans) in
  let total f spans = Harness.sum (List.map f spans) in
  let dur = total Harness.duration in
  let self spans = total (fun s -> s.Harness.self *. scale s) spans in
  let ops = float_of_int (max 1 (List.length r.traced)) in
  let roots = named r.workload.Workloads.root in
  let op_time = total (fun s -> Harness.duration s *. scale s) roots in
  let count name = float_of_int (try List.assoc name r.counters with Not_found -> 0) in
  let hit_ratio prefix =
    let hits = count (prefix ^ ".hits") in
    ratio hits (hits +. count (prefix ^ ".misses"))
  in
  let per_input name =
    match named name with
    | [] -> 0.
    | spans ->
        per_input_median
          (List.map (fun s -> (s.Harness.input, Harness.duration s *. scale s)) spans)
  in
  let sweeps = named "explore.sweep_parallel" in
  let configs = named "explore.config" in
  let parallel_spans = List.concat_map (fun (_, p) -> named p) parallel_pairs in
  let sequential_twins =
    List.concat_map (fun (s, _) -> in_ops (ops_of parallel_spans) (named s)) parallel_pairs
  in
  let recorded = named "sim.functional_recorded" in
  let element_runs = named "loopir.run" in
  let elements =
    List.fold_left
      (fun acc s -> if List.mem s.op (ops_of element_runs) then acc + s.work else acc)
      0 r.traced
  in
  let designs f = match r.designs with [] -> 0. | ds -> Harness.geomean (List.map f ds) in
  (* Self times are shares of the traced operations' time, so a span a
     workload never enters reads 0 as a ratio, not as a time; trace.op_ms
     turns any share back into milliseconds per operation. *)
  List.concat_map
    (fun name ->
      [
        metric (name ^ ".self_share") "ratio" (ratio (self (named name)) op_time);
        metric (name ^ ".calls_per_op") "count"
          (float_of_int (List.length (named name)) /. ops);
      ])
    span_catalogue
  @ [
      metric "trace.op_ms" "ms" (1e3 *. op_time /. ops);
      metric "loopir.engine_compile.setup_share" "ratio"
        (ratio
           (self
              (List.filter
                 (fun (s : Harness.span) ->
                   s.Harness.op < 0 && s.Harness.name = "loopir.engine_compile")
                 r.spans))
           (List.nth r.setup_s (List.length r.setup_s - 1)));
      metric "poly.memo_hit_ratio" "ratio" (hit_ratio "poly");
      metric "poly.memo_lookups_per_op" "count"
        ((count "poly.hits" +. count "poly.misses") /. ops);
      metric "sim.round_memo_hit_ratio" "ratio" (hit_ratio "sim.round");
      metric "cache.hit_ratio" "ratio" (hit_ratio "cache");
      (* The parallel metrics are 0 when the host has one core: no
         parallel variant runs, and none is measured oversubscribed. *)
      metric "parallel.scaling_x" "x" (ratio (dur sequential_twins) (dur parallel_spans));
      metric "parallel.efficiency" "ratio"
        (ratio (dur (in_ops (ops_of sweeps) configs))
           (float_of_int Workloads.jobs *. dur sweeps));
      metric "parallel.critical_path_share" "ratio"
        (ratio
           (Harness.sum
              (List.map
                 (fun (sweep : Harness.span) ->
                   ratio
                     (List.fold_left
                        (fun m s -> Float.max m (Harness.duration s))
                        0.
                        (in_ops [ sweep.Harness.op ] configs))
                     (Harness.duration sweep))
                 sweeps))
           (float_of_int (List.length sweeps)));
      (* A simulated element's cost in a batch over one bare engine run. *)
      metric "sim.element_overhead_x" "x"
        (match element_runs with
        | [] -> 0.
        | runs ->
            ratio
              (ratio (dur (in_ops (ops_of runs) (named "sim.functional_sharded")))
                 (float_of_int elements))
              (Harness.median (List.map Harness.duration runs)));
      metric "memprof.overhead_x" "x"
        (ratio (dur recorded) (dur (in_ops (ops_of recorded) (named "sim.functional_sharded"))));
      metric "trace.unattributed_share" "ratio"
        (ratio (total (fun s -> s.Harness.self) roots) (dur roots));
      metric "trace.overhead" "x"
        (ratio
           (per_input r.workload.Workloads.primary)
           (per_input_median (List.map (fun s -> (s.input, latency s)) r.samples)));
      metric "trace.replica_identical" "bool" (if r.replica_identical then 1. else 0.);
      metric "accel.cycles_geomean" "cycles" (designs (fun (c, _) -> float_of_int c));
      metric "hls.bram18_per_kernel_geomean" "BRAM18"
        (designs (fun (_, b) -> float_of_int b));
      metric "host.calibration_ms" "ms" (1e3 *. Harness.median r.calibrations);
    ]

let result_line r ~trace =
  Harness.result_line ~correct:(correct r) ~attempted:r.attempted
    ~failed:(List.length r.failures + List.length r.oracle_failures)
    (if trace then per_layer r else end_to_end r)

(* A human summary for stderr: sample counts, the tail's percentile, the
   host's speed and the first failures. *)
let summary r =
  let n = List.length r.samples in
  let tail_pct =
    if n <= 10 then 100. else 100. *. float_of_int (n - 10) /. float_of_int n
  in
  Printf.sprintf
    "%s: %d operations (%d untraced samples, %d traced), %d failed; tail = \
     p%.1f of %d samples; set-up %s s; calibration median %.2f ms (reference \
     %.2f ms); unscaled op p50 %.2f ms; parallel variants at %d domains%s%s"
    r.workload.Workloads.name r.attempted n (List.length r.traced)
    (List.length r.failures) tail_pct n
    (String.concat " / " (List.map (Printf.sprintf "%.3f") r.setup_s))
    (1e3 *. Harness.median r.calibrations)
    (1e3 *. Harness.reference_s)
    (1e3 *. per_input_median (List.map (fun s -> (s.input, s.wall)) r.samples))
    Workloads.jobs
    (if Workloads.jobs < 2 then " (one core: parallel metrics unmeasured)" else "")
    (String.concat ""
       (List.map (fun m -> "\n  FAILED " ^ m)
          (r.oracle_failures @ List.filteri (fun i _ -> i < 5) r.failures)))
