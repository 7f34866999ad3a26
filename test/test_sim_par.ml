(* Differential and stress tests for the parallel functional simulator.

   The element-sharded strategy of {!Sim.Functional} must be observably
   indistinguishable from the controller-round-faithful round-scheduled
   strategy — bit-identical per-element results and identical [sim.*]
   schedule counters — at every job count, including padded tails and
   job counts exceeding the element count (qcheck over a matrix of
   compiled systems).

   Error paths must be deterministic under parallelism: a missing
   input, a wrong word count or an engine trap surfaces as
   {!Sim.Functional.Error} naming the {e element} (never the
   jobs-dependent shard), with the same message at every job count and
   the worker's backtrace preserved; a failed run never poisons a
   subsequent one.

   Plus unit tests for the strategy-aware jobs default, the
   [Memprof.Record] DMA ledger (keyed by each element's PLM set under
   both strategies), and the [sim.shard] span / [sim.shards] counter
   telemetry.

   All randomized tests draw from the fixed suite seed ({!Test_seed}). *)

let case name f = Alcotest.test_case name `Quick f

let sort_bindings l = List.sort (fun (a, _) (b, _) -> compare a b) l

let buffers_identical got expected =
  let got = sort_bindings got and expected = sort_bindings expected in
  List.length got = List.length expected
  && List.for_all2
       (fun (n1, (b1 : float array)) (n2, b2) ->
         n1 = n2
         && Array.length b1 = Array.length b2
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              b1 b2)
       got expected

let results_identical ~what a b =
  Alcotest.(check int) (what ^ ": element count") (Array.length a)
    (Array.length b);
  Array.iteri
    (fun e bindings ->
      if not (buffers_identical bindings b.(e)) then
        Alcotest.failf "%s: element %d differs" what e)
    a

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Systems under test: a (p, k, m) matrix of compiled pipelines        *)
(* ------------------------------------------------------------------ *)

type sut = {
  label : string;
  result : Cfd_core.Compile.result;
  system : Sysgen.System.t;
}

let suts =
  List.concat_map
    (fun p ->
      let r = Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p ()) in
      List.filter_map
        (fun (k, m) ->
          match Cfd_core.Compile.build_system ~force_k:k ~force_m:m
                  ~n_elements:32 r
          with
          | sys ->
              Some
                {
                  label = Printf.sprintf "p=%d k=%d m=%d" p k m;
                  result = r;
                  system = sys;
                }
          | exception Sysgen.Replicate.Infeasible _ -> None)
        [ (1, 1); (1, 2); (2, 2); (2, 4) ])
    [ 2; 3 ]

let () = assert (suts <> [])

(* A k=2 system with several PLM sets per accelerator, for the error
   and telemetry tests. *)
let error_sut =
  match List.find_opt (fun s -> contains ~sub:"k=2 m=4" s.label) suts with
  | Some s -> s
  | None -> List.hd suts

(* Pure per-element inputs: every call derives its stream from
   (seed, element) alone, so worker domains can call it concurrently
   and every strategy sees identical data. *)
let pure_inputs (sys : Sysgen.System.t) ~seed =
  let shapes =
    List.map
      (fun (tr : Sysgen.System.transfer) ->
        (tr.Sysgen.System.array, tr.Sysgen.System.bytes / 8))
      sys.Sysgen.System.host.Sysgen.System.per_element_in
  in
  fun e ->
    let st = Random.State.make [| Test_seed.seed; seed; e |] in
    List.map
      (fun (name, size) ->
        (name, Array.init size (fun _ -> Random.State.float st 2.0 -. 1.0)))
      shapes

let run ?jobs ?strategy ?inputs ?(seed = 7) ~n sut =
  let inputs =
    match inputs with Some i -> i | None -> pure_inputs sut.system ~seed
  in
  Sim.Functional.run ?jobs ?strategy ~system:sut.system
    ~proc:sut.result.Cfd_core.Compile.proc ~inputs ~n ()

let error_message f =
  match f () with
  | _ -> Alcotest.fail "expected Sim.Functional.Error"
  | exception Sim.Functional.Error m -> m

(* ------------------------------------------------------------------ *)
(* Differential: strategies and job counts are bit-identical           *)
(* ------------------------------------------------------------------ *)

(* The schedule counters (not sim.shards, which deliberately depends on
   the job count) must advance identically for every strategy. *)
let schedule_counters =
  List.map Obs.Metrics.counter
    [
      "sim.elements";
      "sim.kernel-runs";
      "sim.rounds";
      "sim.padded-skips";
      "sim.dma.bytes_in";
      "sim.dma.bytes_out";
    ]

let with_counter_deltas f =
  let before = List.map Obs.Metrics.counter_value schedule_counters in
  let r = f () in
  let after = List.map Obs.Metrics.counter_value schedule_counters in
  (r, List.map2 ( - ) after before)

let qcheck_strategies_agree =
  QCheck.Test.make ~count:25
    ~name:"sharded = round-scheduled, bit for bit, any jobs"
    QCheck.(
      quad
        (int_range 0 (List.length suts - 1))
        (int_range 1 32) (int_range 2 5) (int_range 0 1000))
    (fun (si, n, jobs, seed) ->
      let sut = List.nth suts si in
      let inputs = pure_inputs sut.system ~seed in
      let leg ~strategy ~jobs =
        with_counter_deltas (fun () -> run sut ~strategy ~jobs ~inputs ~n)
      in
      let ref_r, ref_d =
        leg ~strategy:Sim.Functional.Round_scheduled ~jobs:1
      in
      List.iter
        (fun (strategy, jobs) ->
          let r, d = leg ~strategy ~jobs in
          if d <> ref_d then
            QCheck.Test.fail_reportf
              "%s n=%d: sim.* counters differ under %s jobs:%d" sut.label n
              (Sim.Functional.strategy_name strategy)
              jobs;
          Array.iteri
            (fun e bindings ->
              if not (buffers_identical bindings r.(e)) then
                QCheck.Test.fail_reportf
                  "%s n=%d: element %d differs under %s jobs:%d" sut.label n e
                  (Sim.Functional.strategy_name strategy)
                  jobs)
            ref_r)
        [
          (Sim.Functional.Sharded, 1);
          (Sim.Functional.Sharded, jobs);
          (Sim.Functional.Round_scheduled, jobs);
        ];
      true)

(* A single deterministic stress point, big enough that every worker
   domain processes several blocks of a padded element range. *)
let test_stress_large_n () =
  let sut = error_sut in
  let inputs = pure_inputs sut.system ~seed:42 in
  let seq = run sut ~strategy:Sim.Functional.Round_scheduled ~jobs:1 ~inputs ~n:150 in
  List.iter
    (fun jobs ->
      results_identical
        ~what:(Printf.sprintf "n=150 sharded jobs:%d" jobs)
        seq
        (run sut ~strategy:Sim.Functional.Sharded ~jobs ~inputs ~n:150))
    [ 1; 4; 7 ]

(* More worker slots than elements: shards clamp to n and the tail
   domains simply get nothing. *)
let test_more_jobs_than_elements () =
  let sut = List.hd suts in
  let inputs = pure_inputs sut.system ~seed:3 in
  results_identical ~what:"jobs:64 over 7 elements"
    (run sut ~strategy:Sim.Functional.Sharded ~jobs:1 ~inputs ~n:7)
    (run sut ~strategy:Sim.Functional.Sharded ~jobs:64 ~inputs ~n:7)

(* ------------------------------------------------------------------ *)
(* Deterministic error surface under parallelism                       *)
(* ------------------------------------------------------------------ *)

(* Every job count must produce the same Error text, naming the lowest
   failing element — shards are jobs-dependent, elements are not. *)
let check_error_invariant ~what ~element ?(extra = []) ~inputs ~n sut =
  let messages =
    List.map
      (fun jobs ->
        error_message (fun () ->
            run sut ~strategy:Sim.Functional.Sharded ~jobs ~inputs ~n))
      [ 1; 2; 4 ]
  in
  let first = List.hd messages in
  List.iter
    (fun m -> Alcotest.(check string) (what ^ ": same message at every jobs") first m)
    messages;
  List.iter
    (fun sub ->
      if not (contains ~sub first) then
        Alcotest.failf "%s: error %S does not mention %S" what first sub)
    (Printf.sprintf "element %d" element :: extra)

let test_missing_input () =
  let sut = error_sut in
  let base = pure_inputs sut.system ~seed:11 in
  let inputs e = if e = 5 then List.tl (base e) else base e in
  check_error_invariant ~what:"missing input" ~element:5
    ~extra:[ "missing input" ] ~inputs ~n:12 sut

let test_wrong_word_count () =
  let sut = error_sut in
  let base = pure_inputs sut.system ~seed:13 in
  let inputs e =
    match base e with
    | (name, a) :: rest when e = 3 ->
        (name, Array.sub a 0 (Array.length a - 1)) :: rest
    | b -> b
  in
  check_error_invariant ~what:"wrong word count" ~element:3
    ~extra:[ "words"; "expected" ] ~inputs ~n:12 sut

(* An out-of-bounds store appended to the kernel: the static verifier
   refuses the unchecked license, so the compiled engine traps at run
   time — inside a worker domain under jobs > 1. *)
let trap_proc (proc : Loopir.Prog.proc) =
  let out =
    List.find (fun p -> p.Loopir.Prog.dir = Loopir.Prog.Out)
      proc.Loopir.Prog.params
  in
  {
    proc with
    Loopir.Prog.body =
      proc.Loopir.Prog.body
      @ [
          Loopir.Prog.Store
            {
              array = out.Loopir.Prog.name;
              index = Loopir.Ix.const out.Loopir.Prog.size;
              value = Loopir.Prog.Const 0.0;
            };
        ];
  }

let run_trap ~jobs sut ~n =
  Sim.Functional.run ~jobs ~strategy:Sim.Functional.Sharded ~system:sut.system
    ~proc:(trap_proc sut.result.Cfd_core.Compile.proc)
    ~inputs:(pure_inputs sut.system ~seed:17)
    ~n ()

let test_engine_trap () =
  let sut = error_sut in
  let messages =
    List.map
      (fun jobs -> error_message (fun () -> run_trap ~jobs sut ~n:12))
      [ 1; 2; 4 ]
  in
  let first = List.hd messages in
  List.iter
    (fun m -> Alcotest.(check string) "trap: same message at every jobs" first m)
    messages;
  if not (contains ~sub:"element 0" first) then
    Alcotest.failf "trap error %S does not name element 0" first

let test_trap_backtrace_preserved () =
  Printexc.record_backtrace true;
  match run_trap ~jobs:4 error_sut ~n:12 with
  | _ -> Alcotest.fail "expected Sim.Functional.Error"
  | exception Sim.Functional.Error _ ->
      Alcotest.(check bool) "worker raise site survives the join" true
        (Printexc.raw_backtrace_length (Printexc.get_raw_backtrace ()) > 0)

(* A failed parallel run must not poison the next one: the same sut and
   engine, rerun with good inputs, still matches the sequential leg. *)
let test_failure_leaves_no_corruption () =
  let sut = error_sut in
  let base = pure_inputs sut.system ~seed:19 in
  let bad e = if e = 5 then [] else base e in
  (match run sut ~strategy:Sim.Functional.Sharded ~jobs:4 ~inputs:bad ~n:12 with
  | _ -> Alcotest.fail "expected Sim.Functional.Error"
  | exception Sim.Functional.Error _ -> ());
  results_identical ~what:"rerun after failure"
    (run sut ~strategy:Sim.Functional.Round_scheduled ~jobs:1 ~inputs:base ~n:12)
    (run sut ~strategy:Sim.Functional.Sharded ~jobs:4 ~inputs:base ~n:12)

(* ------------------------------------------------------------------ *)
(* Jobs default and validation                                         *)
(* ------------------------------------------------------------------ *)

let test_default_jobs_formula () =
  let cores = Parallel.Pool.default_jobs () in
  Alcotest.(check int) "sharded parallelism is capped by n, not k" 1
    (Sim.Functional.default_jobs ~strategy:Sim.Functional.Sharded ~n:1 ~k:8);
  Alcotest.(check int) "sharded ignores the accelerator count"
    (Sim.Functional.default_jobs ~strategy:Sim.Functional.Sharded ~n:100 ~k:64)
    (Sim.Functional.default_jobs ~strategy:Sim.Functional.Sharded ~n:100 ~k:1);
  Alcotest.(check int) "sharded = min n cores"
    (max 1 (min 100 cores))
    (Sim.Functional.default_jobs ~strategy:Sim.Functional.Sharded ~n:100 ~k:1);
  Alcotest.(check int) "round-scheduled is still capped by k"
    (max 1 (min 2 cores))
    (Sim.Functional.default_jobs ~strategy:Sim.Functional.Round_scheduled
       ~n:100 ~k:2)

let test_jobs_rejected_both_strategies () =
  List.iter
    (fun strategy ->
      let m =
        error_message (fun () -> run (List.hd suts) ~strategy ~jobs:0 ~n:8)
      in
      if not (contains ~sub:"jobs" m) then
        Alcotest.failf "jobs:0 error %S does not mention jobs" m)
    [ Sim.Functional.Sharded; Sim.Functional.Round_scheduled ]

(* ------------------------------------------------------------------ *)
(* Recorder DMA ledger: one ledger whichever strategy stages the data  *)
(* ------------------------------------------------------------------ *)

(* n = 10 on k = 2, m = 4: a padded final block, and three shards at
   jobs:3 whose frame slots are not the elements' PLM sets. Both
   strategies must file element e under set e mod m. *)
let test_memprof_dma_ledger () =
  let sut = error_sut in
  let n = 10 and m = sut.system.Sysgen.System.solution.Sysgen.Replicate.m in
  let words trs =
    List.fold_left
      (fun acc (tr : Sysgen.System.transfer) ->
        acc + (tr.Sysgen.System.bytes / 8))
      0 trs
  in
  let host = sut.system.Sysgen.System.host in
  let w_in = words host.Sysgen.System.per_element_in
  and w_out = words host.Sysgen.System.per_element_out in
  let expected =
    List.init m (fun set ->
        let elements = (n - set + m - 1) / m in
        (set, elements * w_in, elements * w_out))
  in
  let ledger strategy ~jobs =
    Memprof.Record.enable ();
    Fun.protect
      ~finally:(fun () ->
        Memprof.Record.disable ();
        Memprof.Record.reset ())
      (fun () ->
        let _ = run sut ~strategy ~jobs ~n in
        List.map
          (fun (d : Memprof.Record.dma_stats) ->
            (d.Memprof.Record.d_set, d.Memprof.Record.d_words_in,
             d.Memprof.Record.d_words_out))
          (Memprof.Record.snapshot ()).Memprof.Record.sn_dma)
  in
  List.iter
    (fun (strategy, jobs) ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "%s jobs:%d: (set, words in, words out)"
           (Sim.Functional.strategy_name strategy) jobs)
        expected (ledger strategy ~jobs))
    [
      (Sim.Functional.Round_scheduled, 1);
      (Sim.Functional.Sharded, 1);
      (Sim.Functional.Sharded, 3);
    ]

(* ------------------------------------------------------------------ *)
(* Telemetry: sim.shard spans and the sim.shards counter               *)
(* ------------------------------------------------------------------ *)

let test_shard_telemetry () =
  let sut = error_sut in
  let c_shards = Obs.Metrics.counter "sim.shards" in
  let before = Obs.Metrics.counter_value c_shards in
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
    (fun () ->
      let _ = run sut ~strategy:Sim.Functional.Sharded ~jobs:4 ~n:10 in
      let events = Obs.Trace.events () in
      let shard_spans =
        List.filter (fun e -> e.Obs.Trace.ev_name = "sim.shard") events
      in
      Alcotest.(check int) "one sim.shard span per worker" 4
        (List.length shard_spans);
      Alcotest.(check int) "sim.shards counts the run's shards" 4
        (Obs.Metrics.counter_value c_shards - before);
      let root =
        List.find (fun e -> e.Obs.Trace.ev_name = "sim.functional") events
      in
      Alcotest.(check (option string)) "root span carries the strategy"
        (Some "sharded")
        (List.assoc_opt "strategy" root.Obs.Trace.ev_attrs))

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "sim.par.differential",
      [
        Test_seed.to_alcotest qcheck_strategies_agree;
        case "n=150 stress across jobs" test_stress_large_n;
        case "more jobs than elements" test_more_jobs_than_elements;
      ] );
    ( "sim.par.errors",
      [
        case "missing input names the element at every jobs"
          test_missing_input;
        case "wrong word count names the element at every jobs"
          test_wrong_word_count;
        case "engine trap names the element at every jobs" test_engine_trap;
        case "worker backtrace preserved" test_trap_backtrace_preserved;
        case "failed run does not poison the next"
          test_failure_leaves_no_corruption;
      ] );
    ( "sim.par.jobs",
      [
        case "default jobs formula per strategy" test_default_jobs_formula;
        case "jobs:0 rejected by both strategies"
          test_jobs_rejected_both_strategies;
      ] );
    ( "sim.par.memprof",
      [
        case "both strategies feed the same DMA ledger"
          test_memprof_dma_ledger;
      ] );
    ( "sim.par.obs",
      [ case "shard spans and counter" test_shard_telemetry ] );
  ]
