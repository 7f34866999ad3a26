(* Observability layer: span discipline under exceptions, domain-merged
   counters, Chrome-trace export well-formedness, and zero impact on
   compiler output when tracing is disabled. *)

(* Tracing state is process-global; every test restores disabled+empty
   so the rest of the suite (and golden output tests) see the seed
   behaviour. *)
let with_tracing f =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
    f

exception Boom

let find_event name evs =
  match List.find_opt (fun e -> e.Obs.Trace.ev_name = name) evs with
  | Some e -> e
  | None -> Alcotest.failf "no event named %s" name

let test_span_balance_under_exceptions () =
  with_tracing (fun () ->
      (try
         Obs.Trace.with_span "outer" (fun () ->
             Obs.Trace.with_span "inner" (fun () -> raise Boom))
       with Boom -> ());
      Obs.Trace.with_span "after" (fun () -> ());
      let evs = Obs.Trace.events () in
      Alcotest.(check int) "all three spans closed" 3 (List.length evs);
      let outer = find_event "outer" evs
      and inner = find_event "inner" evs
      and after = find_event "after" evs in
      Alcotest.(check int) "outer is top-level" 0 outer.Obs.Trace.ev_depth;
      Alcotest.(check int) "inner nests under outer" 1 inner.Obs.Trace.ev_depth;
      (* the exception unwound both spans, so depth is back to 0 *)
      Alcotest.(check int) "depth restored after unwind" 0
        after.Obs.Trace.ev_depth;
      Alcotest.(check bool) "inner carries the error attr" true
        (List.mem_assoc "error" inner.Obs.Trace.ev_attrs);
      Alcotest.(check bool) "outer carries the error attr" true
        (List.mem_assoc "error" outer.Obs.Trace.ev_attrs);
      (* interval containment: outer brackets inner *)
      Alcotest.(check bool) "outer starts before inner" true
        (outer.Obs.Trace.ev_ts <= inner.Obs.Trace.ev_ts);
      Alcotest.(check bool) "outer ends after inner" true
        (outer.Obs.Trace.ev_ts +. outer.Obs.Trace.ev_dur
        >= inner.Obs.Trace.ev_ts +. inner.Obs.Trace.ev_dur))

let test_with_span_reraises () =
  with_tracing (fun () ->
      Alcotest.check_raises "exception propagates" Boom (fun () ->
          Obs.Trace.with_span "raiser" (fun () -> raise Boom)))

(* Counter updates merge across worker domains: the total is
   order-independent and jobs:4 agrees with jobs:1. *)
let test_counters_domain_merged () =
  let c = Obs.Metrics.counter "test.obs.merged" in
  let items = List.init 40 (fun i -> i + 1) in
  let run jobs =
    let before = Obs.Metrics.counter_value c in
    List.iter
      (function
        | Ok () -> ()
        | Error e -> Alcotest.failf "pool failed: %s" e.Parallel.Pool.message)
      (Parallel.Pool.map ~jobs (fun i -> Obs.Metrics.add c i) items);
    Obs.Metrics.counter_value c - before
  in
  let expected = List.fold_left ( + ) 0 items in
  let seq = run 1 in
  Alcotest.(check int) "jobs:1 total" expected seq;
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "jobs:%d equals jobs:1" jobs)
        seq (run jobs))
    [ 2; 4 ]

let number k e =
  match Obs.Json.member k e with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "event missing numeric %S" k

(* The exported Chrome trace round-trips through our own parser and has
   strictly monotone ts per tid, including events recorded by worker
   domains. *)
let test_chrome_trace_wellformed () =
  with_tracing (fun () ->
      List.iter
        (function
          | Ok _ -> ()
          | Error e -> Alcotest.failf "pool failed: %s" e.Parallel.Pool.message)
        (Parallel.Pool.map ~jobs:4
           (fun i -> Obs.Trace.with_span "worker-span" (fun () -> i * i))
           (List.init 12 (fun i -> i)));
      let rendered = Obs.Json.to_string (Obs.Export.chrome_trace ()) in
      let t =
        match Obs.Json.parse rendered with
        | Ok t -> t
        | Error msg -> Alcotest.failf "trace does not parse back: %s" msg
      in
      let evs =
        match Obs.Json.member "traceEvents" t with
        | Some (Obs.Json.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "trace has events" true (evs <> []);
      let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
      let counter_tracks = ref [] in
      List.iter
        (fun e ->
          match Obs.Json.member "ph" e with
          | Some (Obs.Json.String "X") ->
              Alcotest.(check bool)
                "dur is non-negative" true (number "dur" e >= 0.);
              let tid = int_of_float (number "tid" e) in
              let ts = number "ts" e in
              (match Hashtbl.find_opt last_ts tid with
              | Some prev ->
                  Alcotest.(check bool)
                    (Printf.sprintf "ts strictly monotone on tid %d" tid)
                    true (ts > prev)
              | None -> ());
              Hashtbl.replace last_ts tid ts
          | Some (Obs.Json.String "C") -> (
              (* final-value counter samples: cache.*, pool.tasks *)
              (match Obs.Json.member "name" e with
              | Some (Obs.Json.String n) ->
                  counter_tracks := n :: !counter_tracks
              | _ -> Alcotest.fail "counter sample has no name");
              match Obs.Json.member "args" e with
              | Some (Obs.Json.Obj [ ("value", Obs.Json.Int _) ]) -> ()
              | _ -> Alcotest.fail "counter sample args is {value: int}")
          | _ -> Alcotest.fail "every event is a span (ph:X) or counter (ph:C)")
        evs;
      Alcotest.(check bool) "several tids recorded" true
        (Hashtbl.length last_ts > 1);
      (* the pool ran, so its task counter must be exported as a track *)
      Alcotest.(check bool) "pool.tasks counter track present" true
        (List.mem "pool.tasks" !counter_tracks))

(* Metrics JSON export round-trips and carries registered counters. *)
let test_metrics_export () =
  let c = Obs.Metrics.counter "test.obs.export.hits" in
  Obs.Metrics.add c 3;
  let h = Obs.Metrics.histogram "test.obs.export.hist" in
  Obs.Metrics.observe h 2.0;
  Obs.Metrics.observe h 4.0;
  let rendered = Obs.Json.to_string (Obs.Export.metrics ()) in
  let t =
    match Obs.Json.parse rendered with
    | Ok t -> t
    | Error msg -> Alcotest.failf "metrics does not parse back: %s" msg
  in
  (match Obs.Json.member "counters" t with
  | Some (Obs.Json.Obj counters) ->
      (match List.assoc_opt "test.obs.export.hits" counters with
      | Some (Obs.Json.Int n) ->
          Alcotest.(check bool) "counter exported" true (n >= 3)
      | _ -> Alcotest.fail "counter missing from export")
  | _ -> Alcotest.fail "no counters object");
  match Obs.Json.member "histograms" t with
  | Some (Obs.Json.Obj hists) ->
      Alcotest.(check bool) "histogram exported" true
        (List.mem_assoc "test.obs.export.hist" hists)
  | _ -> Alcotest.fail "no histograms object"

(* With tracing disabled the instrumented compiler records nothing and
   produces bit-identical output to a traced run. *)
let test_disabled_is_invisible () =
  Obs.Trace.set_enabled false;
  Obs.Trace.reset ();
  let ast = Cfdlang.Operators.laplacian ~p:5 () in
  let off = Cfd_core.Compile.compile ast in
  Alcotest.(check int) "no events recorded while disabled" 0
    (List.length (Obs.Trace.events ()));
  let on = with_tracing (fun () -> Cfd_core.Compile.compile ast) in
  Alcotest.(check string) "C source bit-identical with tracing on/off"
    off.Cfd_core.Compile.c_source on.Cfd_core.Compile.c_source;
  Alcotest.(check string) "metadata bit-identical with tracing on/off"
    off.Cfd_core.Compile.mnemosyne_metadata
    on.Cfd_core.Compile.mnemosyne_metadata

(* A traced compile produces one span per stage, bracketed by the
   enclosing "compile" span. *)
let test_compile_stage_spans () =
  with_tracing (fun () ->
      ignore
        (Cfd_core.Compile.compile
           ~options:
             {
               Cfd_core.Compile.default_options with
               Cfd_core.Compile.static_check = true;
             }
           (Cfdlang.Operators.mass ~p:4 ()));
      let evs = Obs.Trace.events () in
      let names = List.map (fun e -> e.Obs.Trace.ev_name) evs in
      List.iter
        (fun stage ->
          Alcotest.(check bool) (stage ^ " span present") true
            (List.mem stage names))
        [
          "compile"; "compile.frontend"; "compile.tir"; "compile.lower";
          "compile.liveness"; "compile.mnemosyne"; "compile.codegen";
          "compile.hls"; "compile.static-check";
        ];
      let root = find_event "compile" evs in
      List.iter
        (fun e ->
          if e.Obs.Trace.ev_name <> "compile" then
            Alcotest.(check bool)
              (e.Obs.Trace.ev_name ^ " inside compile") true
              (e.Obs.Trace.ev_ts >= root.Obs.Trace.ev_ts
              && e.Obs.Trace.ev_ts +. e.Obs.Trace.ev_dur
                 <= root.Obs.Trace.ev_ts +. root.Obs.Trace.ev_dur
                    +. 1e-6))
        evs)

(* --- histogram percentiles --------------------------------------------- *)

(* A constant-valued histogram reports the exact value at every
   percentile: the bucket estimate is clamped to [min, max] = {v}. *)
let test_percentiles_constant () =
  let h = Obs.Metrics.histogram "test.obs.pct.const" in
  for _ = 1 to 50 do
    Obs.Metrics.observe h 7.25
  done;
  let s = Obs.Metrics.histogram_snapshot h in
  Alcotest.(check (float 0.0)) "p50 exact" 7.25 s.Obs.Metrics.h_p50;
  Alcotest.(check (float 0.0)) "p95 exact" 7.25 s.Obs.Metrics.h_p95;
  Alcotest.(check (float 0.0)) "p99 exact" 7.25 s.Obs.Metrics.h_p99

(* Geometric buckets (two per octave) estimate any quantile to within a
   factor of sqrt(2), clamped into the observed range. *)
let test_percentiles_tolerance () =
  let h = Obs.Metrics.histogram "test.obs.pct.range" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  let s = Obs.Metrics.histogram_snapshot h in
  let sqrt2 = sqrt 2.0 in
  List.iter
    (fun (label, est, true_q) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within sqrt(2) of %g (got %g)" label true_q est)
        true
        (est >= true_q /. sqrt2 && est <= true_q *. sqrt2);
      Alcotest.(check bool)
        (label ^ " within observed range") true
        (est >= s.Obs.Metrics.h_min && est <= s.Obs.Metrics.h_max))
    [
      ("p50", s.Obs.Metrics.h_p50, 500.);
      ("p95", s.Obs.Metrics.h_p95, 950.);
      ("p99", s.Obs.Metrics.h_p99, 990.);
    ];
  Alcotest.(check bool) "percentiles ordered" true
    (s.Obs.Metrics.h_p50 <= s.Obs.Metrics.h_p95
    && s.Obs.Metrics.h_p95 <= s.Obs.Metrics.h_p99)

(* [observe_n h v n] is [n] calls of [observe h v]: same count, sum,
   min, max and percentile estimates (the values keep every sum exact). *)
let test_observe_n () =
  let bulk = Obs.Metrics.histogram "test.obs.observe_n.bulk"
  and calls = Obs.Metrics.histogram "test.obs.observe_n.calls" in
  let show h =
    let s = Obs.Metrics.histogram_snapshot h in
    Printf.sprintf "n %d, sum %h, min %h, max %h, p50 %h, p95 %h, p99 %h"
      s.Obs.Metrics.h_count s.Obs.Metrics.h_sum s.Obs.Metrics.h_min
      s.Obs.Metrics.h_max s.Obs.Metrics.h_p50 s.Obs.Metrics.h_p95
      s.Obs.Metrics.h_p99
  in
  let both v n =
    Obs.Metrics.observe_n bulk v n;
    for _ = 1 to n do
      Obs.Metrics.observe calls v
    done;
    Alcotest.(check string)
      (Printf.sprintf "after %d x %g" n v)
      (show calls) (show bulk)
  in
  both 5.0 0;
  Alcotest.(check int) "n = 0 on an empty histogram" 0
    (Obs.Metrics.histogram_snapshot bulk).Obs.Metrics.h_count;
  List.iter
    (fun (v, n) -> both v n)
    [ (3.0, 5); (0.5, 0); (1.0, 1); (1024.0, 7); (0.0, 3); (2.5, 4); (3.0, 200) ];
  let before = show bulk in
  Alcotest.check_raises "negative n rejected"
    (Invalid_argument "Obs.Metrics.observe_n: negative count") (fun () ->
      Obs.Metrics.observe_n bulk 1.0 (-1));
  Alcotest.(check string) "a rejected call records nothing" before (show bulk)

let member_exn what k t =
  match Obs.Json.member k t with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" what k

let histogram_export name =
  member_exn name name (member_exn name "histograms" (Obs.Export.metrics ()))

(* An empty histogram has nan percentiles; the exporters must render
   that as JSON null and a summary "(empty)", never the string nan. *)
let test_percentiles_empty () =
  let h = Obs.Metrics.histogram "test.obs.pct.empty" in
  let s = Obs.Metrics.histogram_snapshot h in
  Alcotest.(check int) "count 0" 0 s.Obs.Metrics.h_count;
  List.iter
    (fun (label, v) ->
      Alcotest.(check bool) (label ^ " is nan when empty") true (Float.is_nan v))
    [
      ("min", s.Obs.Metrics.h_min); ("max", s.Obs.Metrics.h_max);
      ("p50", s.Obs.Metrics.h_p50); ("p95", s.Obs.Metrics.h_p95);
      ("p99", s.Obs.Metrics.h_p99);
    ];
  let j = histogram_export "test.obs.pct.empty" in
  List.iter
    (fun k ->
      match Obs.Json.member k j with
      | Some Obs.Json.Null -> ()
      | Some v ->
          Alcotest.failf "empty histogram %s exported as %s, not null" k
            (Obs.Json.to_string v)
      | None -> Alcotest.failf "histogram JSON missing %S" k)
    [ "min"; "max"; "mean"; "p50"; "p95"; "p99" ]

(* Populated histograms carry their percentile estimates into the
   metrics JSON. *)
let test_percentiles_exported () =
  let h = Obs.Metrics.histogram "test.obs.pct.json" in
  List.iter (Obs.Metrics.observe h) [ 3.0; 3.0; 3.0; 3.0 ];
  let j = histogram_export "test.obs.pct.json" in
  List.iter
    (fun k ->
      match Obs.Json.member k j with
      | Some (Obs.Json.Float v) ->
          Alcotest.(check (float 0.0)) (k ^ " exported") 3.0 v
      | Some v ->
          Alcotest.failf "%s exported as %s" k (Obs.Json.to_string v)
      | None -> Alcotest.failf "histogram JSON missing %S" k)
    [ "p50"; "p95"; "p99" ]

(* --- human-summary guards ---------------------------------------------- *)

let summary_lines () =
  String.split_on_char '\n' (Format.asprintf "%a" Obs.Export.pp_summary ())

let find_line needle =
  let re = Str.regexp_string needle in
  match
    List.find_opt
      (fun l ->
        try
          ignore (Str.search_forward re l 0);
          true
        with Not_found -> false)
      (summary_lines ())
  with
  | Some l -> l
  | None -> Alcotest.failf "no summary line mentions %S" needle

let contains ~needle hay =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* Each guarded path of the summary: a non-finite gauge prints n/a, a
   zero-traffic cache prints a 0.0% rate, an empty histogram prints
   (empty) — never nan or inf. *)
let test_summary_guards () =
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "test.obs.guard.gauge") Float.nan;
  ignore (Obs.Metrics.counter "test.obs.guard.cache.hits");
  ignore (Obs.Metrics.counter "test.obs.guard.cache.misses");
  ignore (Obs.Metrics.histogram "test.obs.guard.hist");
  let gauge_line = find_line "test.obs.guard.gauge" in
  Alcotest.(check bool) "nan gauge renders n/a" true
    (contains ~needle:"n/a" gauge_line);
  Alcotest.(check bool) "nan gauge does not print nan" false
    (contains ~needle:"nan" gauge_line);
  let cache_line = find_line "test.obs.guard.cache" in
  Alcotest.(check bool) "0/0 cache rate is 0.0%" true
    (contains ~needle:"0.0%" cache_line);
  Alcotest.(check bool) "cache rate is not nan" false
    (contains ~needle:"nan" cache_line);
  let hist_line = find_line "test.obs.guard.hist" in
  Alcotest.(check bool) "empty histogram renders (empty)" true
    (contains ~needle:"(empty)" hist_line);
  (* an infinite gauge is guarded the same way *)
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge "test.obs.guard.gauge-inf")
    Float.infinity;
  let inf_line = find_line "test.obs.guard.gauge-inf" in
  Alcotest.(check bool) "inf gauge renders n/a" true
    (contains ~needle:"n/a" inf_line);
  Alcotest.(check bool) "inf gauge does not print inf" false
    (contains ~needle:"  inf" inf_line)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span balance and nesting under exceptions" `Quick
          test_span_balance_under_exceptions;
        Alcotest.test_case "with_span re-raises" `Quick test_with_span_reraises;
        Alcotest.test_case "counters merge across domains" `Quick
          test_counters_domain_merged;
        Alcotest.test_case "chrome trace is well-formed" `Quick
          test_chrome_trace_wellformed;
        Alcotest.test_case "metrics export round-trips" `Quick
          test_metrics_export;
        Alcotest.test_case "disabled tracing is invisible" `Quick
          test_disabled_is_invisible;
        Alcotest.test_case "compile emits stage spans" `Quick
          test_compile_stage_spans;
        Alcotest.test_case "constant histogram percentiles exact" `Quick
          test_percentiles_constant;
        Alcotest.test_case "percentiles within sqrt(2)" `Quick
          test_percentiles_tolerance;
        Alcotest.test_case "empty histogram percentiles are null/n-a" `Quick
          test_percentiles_empty;
        Alcotest.test_case "percentiles exported in metrics JSON" `Quick
          test_percentiles_exported;
        Alcotest.test_case "observe_n = n observe calls" `Quick test_observe_n;
        Alcotest.test_case "summary guards: no nan/inf ever printed" `Quick
          test_summary_guards;
      ] );
  ]
