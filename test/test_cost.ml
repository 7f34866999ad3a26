(* Static cost model: deterministic and QCheck differentials against the
   sim/memprof instrumentation, bit-exact cycle-model equality with
   Sim.Perf across forced shapes, the share-ports port-demand witness,
   drift-detector mutations (each perturbed observation fires exactly its
   rule), the sweep static pre-filter equivalence, the verify-once span
   count, and a doc-drift check against docs/ANALYSIS.md's rule
   catalogue. *)

open Cfd_core
module Cost = Analysis.Cost
module D = Analysis.Diagnostic

let case name f = Alcotest.test_case name `Quick f

let kernels_dir () =
  if Sys.file_exists "../kernels" then "../kernels" else "kernels"

let kernel_files () =
  Sys.readdir (kernels_dir ())
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cfd")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let compile_kernel ?(options = Compile.default_options) file =
  match
    Compile.compile_source ~options
      (read_file (Filename.concat (kernels_dir ()) file))
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" file m

let board = Sysgen.Replicate.(default_config.board)
let rules ds = List.sort_uniq compare (List.map (fun d -> d.D.rule) ds)

(* ------------------------------------------------------------------ *)
(* Deterministic differential: every kernel, both sharing modes        *)
(* ------------------------------------------------------------------ *)

let check_no_drift ~what (rep : Costing.report) =
  (match rep.Costing.infeasible with
  | Some m -> Alcotest.failf "%s: infeasible: %s" what m
  | None -> ());
  Alcotest.(check bool)
    (what ^ ": has probe sites")
    true
    (rep.Costing.cost.Cost.sites <> []);
  match rep.Costing.drift with
  | Some [] -> ()
  | Some ds ->
      Alcotest.failf "%s: %d drift diagnostics, first: %s" what
        (List.length ds)
        (Format.asprintf "%a" D.pp (List.hd ds))
  | None -> Alcotest.fail (what ^ ": the differential did not run")

let test_kernel_differential file () =
  List.iter
    (fun sharing ->
      let options = { Compile.default_options with sharing } in
      let r = compile_kernel ~options file in
      check_no_drift
        ~what:(Printf.sprintf "%s sharing:%b" file sharing)
        (Costing.analyze ~diff:true ~sim_n:3 ~n_elements:32 r))
    [ true; false ]

let qcheck_static_dynamic =
  QCheck.Test.make ~count:10
    ~name:"cost: static = dynamic over (p, sharing, unroll, n)"
    QCheck.(quad (int_range 3 5) bool (int_range 1 2) (int_range 1 6))
    (fun (p, sharing, unroll, sim_n) ->
      let options =
        {
          Compile.default_options with
          sharing;
          unroll = (if unroll = 1 then None else Some unroll);
        }
      in
      let r = Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p ()) in
      let rep = Costing.analyze ~diff:true ~sim_n ~n_elements:64 r in
      match rep.Costing.drift with
      | Some [] -> true
      | Some (d :: _) ->
          QCheck.Test.fail_reportf
            "p:%d sharing:%b unroll:%d n:%d drifted: %a" p sharing unroll
            sim_n D.pp d
      | None -> QCheck.Test.fail_reportf "the differential did not run")

(* ------------------------------------------------------------------ *)
(* Cycle model: bit-identical to Sim.Perf across forced shapes         *)
(* ------------------------------------------------------------------ *)

let test_cycle_model_matches_sim () =
  let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:5 ()) in
  let cost = Costing.static r in
  List.iter
    (fun (force_k, force_m, n_elements) ->
      let sys = Compile.build_system ?force_k ?force_m ~n_elements r in
      let est = Costing.estimate ~board ~system:sys r cost in
      let hw = Sim.Perf.run_hw ~system:sys ~board in
      let what =
        Printf.sprintf "k:%s m:%s n:%d"
          (match force_k with Some k -> string_of_int k | None -> "max")
          (match force_m with Some m -> string_of_int m | None -> "max")
          n_elements
      in
      Alcotest.(check int)
        (what ^ ": total cycles")
        hw.Sim.Perf.total_cycles est.Cost.ce_total_cycles;
      Alcotest.(check int)
        (what ^ ": exec cycles")
        hw.Sim.Perf.exec_cycles est.Cost.ce_exec_cycles;
      Alcotest.(check int)
        (what ^ ": transfer cycles")
        hw.Sim.Perf.transfer_cycles est.Cost.ce_transfer_cycles;
      Alcotest.(check (float 0.))
        (what ^ ": seconds")
        hw.Sim.Perf.total_seconds est.Cost.ce_seconds)
    [
      (None, None, 1000);
      (Some 1, Some 1, 37);
      (Some 1, Some 2, 64);
      (Some 2, Some 4, 1000);
    ]

(* The exact cycle total of the default design, pinned: inverse
   Helmholtz at p = 4 over 50,000 elements on the replication solver's
   own k and m. *)
let test_pinned_cycles () =
  let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:4 ()) in
  let sys = Compile.build_system ~n_elements:50_000 r in
  let est = Costing.estimate ~board ~system:sys r (Costing.static r) in
  let hw = Sim.Perf.run_hw ~system:sys ~board in
  Alcotest.(check int) "static estimate" 19_120_179 est.Cost.ce_total_cycles;
  Alcotest.(check int) "Sim.Perf" 19_120_179 hw.Sim.Perf.total_cycles

(* ------------------------------------------------------------------ *)
(* DMA words per PLM set under the round-scheduled host loop           *)
(* ------------------------------------------------------------------ *)

let test_dma_words_per_set () =
  let cost = Costing.static (compile_kernel "mass.cfd") in
  let wi = cost.Cost.words_in and wo = cost.Cost.words_out in
  Alcotest.(check bool) "kernel moves data" true (wi > 0 && wo > 0);
  Alcotest.(check (list (triple int int int)))
    "5 elements over 2 sets: 3/2 split"
    [ (0, 3 * wi, 3 * wo); (1, 2 * wi, 2 * wo) ]
    (Cost.dma_words_per_set cost ~n:5 ~m:2);
  Alcotest.(check (list (triple int int int)))
    "sets receiving no element are omitted"
    [ (0, wi, wo) ]
    (Cost.dma_words_per_set cost ~n:1 ~m:4)

(* ------------------------------------------------------------------ *)
(* Port pressure: share-ports fires at an oversized unroll factor      *)
(* ------------------------------------------------------------------ *)

let sharing_at ?unroll r =
  Analysis.Verify.sharing ?unroll r.Compile.program r.Compile.schedule
    r.Compile.memory

let test_port_overcommit () =
  let r = compile_kernel "inverse_helmholtz.cfd" in
  Alcotest.(check int)
    "the compiled unroll factor fits its port budgets" 0
    (List.length (sharing_at r));
  let ds = sharing_at ~unroll:8 r in
  Alcotest.(check (list string))
    "unroll 8 overcommits exactly the three PLM units"
    [ "plm0"; "plm1"; "plm2" ]
    (List.sort compare (List.map (fun d -> d.D.subject) ds));
  let cost =
    Cost.analyze ~unroll:8 ~program:r.Compile.program ~memory:r.Compile.memory
      ~proc:r.Compile.proc ()
  in
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check string) (d.D.subject ^ ": rule") "share-ports" d.D.rule;
      Alcotest.(check bool)
        (d.D.subject ^ ": a warning, not an error")
        false (D.is_error d);
      let b =
        List.find (fun b -> b.Cost.buf_name = d.D.subject) cost.Cost.buffers
      in
      match d.D.witness with
      | Some (D.Count (demand, budget)) ->
          Alcotest.(check (pair int int))
            (d.D.subject ^ ": witness = (demand, budget)")
            (8, 2) (demand, budget);
          Alcotest.(check (pair int (option int)))
            (d.D.subject ^ ": the cost report shows the same demand and budget")
            (demand, Some budget)
            (b.Cost.buf_port_demand, b.Cost.buf_port_budget)
      | _ -> Alcotest.failf "%s: expected a Count witness" d.D.subject)
    ds

(* ------------------------------------------------------------------ *)
(* Drift detector: every perturbed observation fires exactly its rule  *)
(* ------------------------------------------------------------------ *)

let fixture =
  lazy
    (let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:3 ()) in
     let cost = Costing.static r in
     let sys = Compile.build_system ~n_elements:32 r in
     let est = Costing.estimate ~board ~system:sys r cost in
     (r, cost, est))

let drift_n = 2

let correct_sites (cost : Cost.t) =
  List.map
    (fun (s : Cost.site) ->
      ( s.Cost.site_id,
        s.Cost.site_desc,
        s.Cost.site_trips * drift_n,
        s.Cost.site_reads * s.Cost.site_trips * drift_n,
        s.Cost.site_writes * s.Cost.site_trips * drift_n ))
    cost.Cost.sites

let correct_buffers (cost : Cost.t) =
  List.map
    (fun (b : Cost.buffer) ->
      ( b.Cost.buf_name,
        b.Cost.buf_reads * drift_n,
        b.Cost.buf_writes * drift_n,
        b.Cost.buf_peak_pressure ))
    cost.Cost.buffers

let accessed_buffer (cost : Cost.t) =
  (List.find
     (fun (b : Cost.buffer) ->
       b.Cost.buf_reads + b.Cost.buf_writes > 0)
     cost.Cost.buffers)
    .Cost.buf_name

let test_drift_mutations () =
  let _, cost, est = Lazy.force fixture in
  let n = drift_n in
  let base = Cost.no_observation ~n ~m:2 in
  let check what expected obs =
    Alcotest.(check (list string)) what expected (rules (Cost.drift cost obs))
  in
  check "all-None observation is clean" [] base;
  check "sim.dma.bytes_in perturbed" [ "cost-drift-dma" ]
    { base with Cost.obs_dma_bytes_in = Some ((8 * cost.Cost.words_in * n) + 8) };
  check "per-set DMA words lost" [ "cost-drift-dma" ]
    { base with Cost.obs_dma_sets = Some [] };
  let sites = correct_sites cost and buffers = correct_buffers cost in
  check "correct per-set DMA words are clean" []
    { base with Cost.obs_dma_sets = Some (Cost.dma_words_per_set cost ~n ~m:2) };
  check "correct per-site observation is clean" []
    { base with Cost.obs_sites = Some sites };
  check "correct per-buffer observation is clean" []
    { base with Cost.obs_buffers = Some buffers };
  let perturb_first f = function [] -> [] | x :: tl -> f x :: tl in
  check "site instance count perturbed" [ "cost-drift-trips" ]
    {
      base with
      Cost.obs_sites =
        Some
          (perturb_first
             (fun (id, d, i, rd, wr) -> (id, d, i + 1, rd, wr))
             sites);
    };
  check "site read count perturbed" [ "cost-drift-access" ]
    {
      base with
      Cost.obs_sites =
        Some
          (perturb_first
             (fun (id, d, i, rd, wr) -> (id, d, i, rd + 1, wr))
             sites);
    };
  check "unknown probe site observed" [ "cost-drift-trips" ]
    { base with Cost.obs_sites = Some (sites @ [ (999, "phantom", 1, 0, 0) ]) };
  let perturb name f =
    List.map (fun ((nm, _, _, _) as t) -> if nm = name then f t else t)
  in
  let accessed = accessed_buffer cost in
  check "buffer read count perturbed" [ "cost-drift-access" ]
    {
      base with
      Cost.obs_buffers =
        Some
          (perturb accessed (fun (nm, rd, wr, pk) -> (nm, rd + 1, wr, pk)) buffers);
    };
  check "buffer peak pressure perturbed" [ "cost-drift-pressure" ]
    {
      base with
      Cost.obs_buffers =
        Some
          (perturb accessed (fun (nm, rd, wr, pk) -> (nm, rd, wr, pk + 1)) buffers);
    };
  check "unknown buffer observed" [ "cost-drift-access" ]
    { base with Cost.obs_buffers = Some (("phantom", 1, 0, 1) :: buffers) };
  Alcotest.(check (list string))
    "matching cycle estimate is clean" []
    (rules
       (Cost.drift cost ~cycle_model:est
          { base with Cost.obs_total_cycles = Some est.Cost.ce_total_cycles }));
  Alcotest.(check (list string))
    "cycle estimate perturbed" [ "cost-drift-cycles" ]
    (rules
       (Cost.drift cost ~cycle_model:est
          {
            base with
            Cost.obs_total_cycles = Some (est.Cost.ce_total_cycles + 1);
          }))

(* ------------------------------------------------------------------ *)
(* Explore: verified exactly once, and the static pre-filter is        *)
(* outcome-preserving with strictly fewer simulations                  *)
(* ------------------------------------------------------------------ *)

let count_spans name =
  List.length
    (List.filter (fun e -> e.Obs.Trace.ev_name = name) (Obs.Trace.events ()))

let test_verify_once () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  (* one configuration explicitly asks for the embedded check, which the
     sweep must not let become a second verification *)
  let configurations =
    [
      { Explore.label = "default"; options = Compile.default_options };
      {
        Explore.label = "check-on";
        options = { Compile.default_options with static_check = true };
      };
      {
        Explore.label = "no-sharing";
        options = { Compile.default_options with sharing = false };
      };
    ]
  in
  List.iter
    (fun jobs ->
      Obs.Trace.reset ();
      Obs.Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Trace.set_enabled false;
          Obs.Trace.reset ())
        (fun () ->
          let outcomes =
            Explore.sweep ~jobs ~configurations ~n_elements:256 ast
          in
          Alcotest.(check int)
            (Printf.sprintf "jobs:%d: every configuration reported" jobs)
            3 (List.length outcomes);
          Alcotest.(check int)
            (Printf.sprintf
               "jobs:%d: exactly one verifier pass per configuration" jobs)
            3
            (count_spans "verify.structure")))
    [ 1; 4 ]

let sweep_with_counters ~jobs ~prefilter ~n_elements ast =
  Poly.Memo.clear_all ();
  let runs = Obs.Metrics.counter "sim.perf.runs" in
  let pruned = Obs.Metrics.counter "explore.pruned" in
  let r0 = Obs.Metrics.counter_value runs in
  let p0 = Obs.Metrics.counter_value pruned in
  let outcomes = Explore.sweep ~jobs ~prefilter ~n_elements ast in
  ( outcomes,
    Obs.Metrics.counter_value runs - r0,
    Obs.Metrics.counter_value pruned - p0 )

let test_prefilter_equivalence () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:7 () in
  let n_elements = 1024 in
  let full, full_sims, full_pruned =
    sweep_with_counters ~jobs:1 ~prefilter:false ~n_elements ast
  in
  let filt, filt_sims, filt_pruned =
    sweep_with_counters ~jobs:1 ~prefilter:true ~n_elements ast
  in
  Alcotest.(check int) "unfiltered sweep prunes nothing" 0 full_pruned;
  Alcotest.(check bool)
    "pre-filter pruned at least one configuration" true (filt_pruned > 0);
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer simulations (%d < %d)" filt_sims full_sims)
    true
    (filt_sims < full_sims);
  Alcotest.(check bool)
    "identical outcomes (the static price matches the simulator bit for bit)"
    true (full = filt);
  let labels os =
    List.map (fun o -> o.Explore.configuration.Explore.label) (Explore.pareto os)
  in
  Alcotest.(check (list string))
    "identical Pareto frontier" (labels full) (labels filt);
  let filt4, _, filt4_pruned =
    sweep_with_counters ~jobs:4 ~prefilter:true ~n_elements ast
  in
  Alcotest.(check bool) "jobs:1 = jobs:4 under the pre-filter" true
    (filt = filt4);
  Alcotest.(check int) "jobs:4 prunes the same set" filt_pruned filt4_pruned

(* ------------------------------------------------------------------ *)
(* Doc drift: docs/ANALYSIS.md's cost-*, sim-* and timeline-*          *)
(* catalogue = the emitted rules                                       *)
(* ------------------------------------------------------------------ *)

let documented_rules () =
  let path =
    if Sys.file_exists "../docs/ANALYSIS.md" then "../docs/ANALYSIS.md"
    else "docs/ANALYSIS.md"
  in
  let text = read_file path in
  let re = Str.regexp "\\(cost\\|sim\\|timeline\\)\\(-[a-z]+\\)+" in
  let rec loop pos acc =
    match Str.search_forward re text pos with
    | exception Not_found -> acc
    | i ->
        let m = Str.matched_string text in
        loop (i + String.length m) (m :: acc)
  in
  loop 0 []
  (* the bare family prefix appears in prose as "cost-drift-*"; it is
     never a rule id *)
  |> List.filter (fun m -> m <> "cost-drift")
  |> List.sort_uniq compare

let emitted_rules () =
  let r, cost, est = Lazy.force fixture in
  let acc = ref [] in
  let collect ds = List.iter (fun d -> acc := d.D.rule :: !acc) ds in
  let n = drift_n in
  let base = Cost.no_observation ~n ~m:2 in
  collect
    (Cost.drift cost
       { base with Cost.obs_sites = Some [ (999, "phantom", 1, 0, 0) ] });
  collect
    (Cost.drift cost
       {
         base with
         Cost.obs_dma_bytes_in = Some ((8 * cost.Cost.words_in * n) + 8);
       });
  collect
    (Cost.drift cost { base with Cost.obs_buffers = Some [ ("phantom", 1, 0, 1) ] });
  let accessed = accessed_buffer cost in
  collect
    (Cost.drift cost
       {
         base with
         Cost.obs_buffers =
           Some
             (List.map
                (fun ((nm, rd, wr, pk) as t) ->
                  if nm = accessed then (nm, rd, wr, pk + 1) else t)
                (correct_buffers cost));
       });
  collect
    (Cost.drift cost ~cycle_model:est
       { base with Cost.obs_total_cycles = Some (est.Cost.ce_total_cycles + 1) });
  (* the timeline's only rule: an overlapped leg required on m < 2k *)
  collect
    (Timeline.analyze ~force_k:8 ~force_m:8 ~overlap:Timeline.Require
       ~audit:(Compile.audit r) ~n_elements:64 r)
      .Timeline.tl_diagnostics;
  List.sort_uniq compare !acc

let test_doc_drift () =
  Alcotest.(check (list string))
    "every documented cost-*/sim-*/timeline-* rule is emitted, and vice versa"
    (emitted_rules ()) (documented_rules ())

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "cost.differential",
      List.map
        (fun f ->
          case
            ("static = dynamic: " ^ f ^ " (both sharing modes)")
            (test_kernel_differential f))
        (kernel_files ())
      @ [ Test_seed.to_alcotest qcheck_static_dynamic ] );
    ( "cost.model",
      [
        case "cycle model = Sim.Perf across forced shapes"
          test_cycle_model_matches_sim;
        case "DMA words per PLM set" test_dma_words_per_set;
        case "port overcommit at unroll 8" test_port_overcommit;
        case "pinned cycles: p = 4, 50,000 elements" test_pinned_cycles;
      ] );
    ("cost.drift", [ case "every mutation fires its rule" test_drift_mutations ]);
    ( "cost.explore",
      [
        case "every configuration is verified exactly once" test_verify_once;
        case "static pre-filter preserves outcomes with fewer simulations"
          test_prefilter_equivalence;
      ] );
    ( "cost.docs",
      [ case "ANALYSIS.md rule catalogue matches the analyzer" test_doc_drift ]
    );
  ]
