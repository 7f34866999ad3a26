(* Device-cycle timeline: the captured phase stream sums to the block
   schedule's closed-form totals on every kernel in the tree (plain and
   overlapped legs), the overlap pipeline law (steady block =
   max(transfers, compute)), the m >= 2k
   double-buffering diagnostic at both the Sim.Perf and policy layers,
   byte-deterministic Chrome trace export, and the disabled gate's zero
   footprint — bit-identical hw results, no allocation. *)

open Cfd_core
module TL = Obs.Timeline
module Timeline = Cfd_core.Timeline
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

let compile_kernel file =
  match
    Compile.compile_source (read_file (Filename.concat (kernels_dir ()) file))
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" file m

let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board

let contains needle haystack =
  try
    ignore (Str.search_forward (Str.regexp_string needle) haystack 0);
    true
  with Not_found -> false

let rules ds = List.sort_uniq compare (List.map (fun d -> d.D.rule) ds)

(* ------------------------------------------------------------------ *)
(* Phase sums = schedule totals: every kernel, both legs              *)
(* ------------------------------------------------------------------ *)

(* The schedule's phase iterator and its closed-form totals are two
   readings of one layout: on every kernel in the tree, under both
   run_hw and run_hw_overlapped, the busy sums of the emitted phases
   must equal the totals exactly (host = total, ctrl = exec,
   dma = transfer), and the leg's hw_result must be those totals. *)
let test_every_kernel_phase_sums () =
  let files = kernel_files () in
  Alcotest.(check bool) "found kernels" true (files <> []);
  List.iter
    (fun file ->
      let r = compile_kernel file in
      let report =
        Timeline.analyze ~audit:(Compile.audit r) ~n_elements:512 r
      in
      Alcotest.(check bool) (file ^ ": passed") true (Timeline.passed report);
      (match Timeline.find_leg report "plain" with
      | None -> Alcotest.failf "%s: no plain leg" file
      | Some _ -> ());
      List.iter
        (fun (leg : Timeline.leg) ->
          let cap = leg.Timeline.leg_capture in
          let s = leg.Timeline.leg_schedule in
          let what = Printf.sprintf "%s %s: " file leg.Timeline.leg_label in
          Alcotest.(check int)
            (what ^ "host busy = total")
            (Sim.Perf.Schedule.total_cycles s)
            (TL.busy cap "host");
          Alcotest.(check int)
            (what ^ "ctrl busy = exec")
            (Sim.Perf.Schedule.exec_cycles s)
            (TL.busy cap "ctrl");
          Alcotest.(check int)
            (what ^ "dma busy = transfer")
            (Sim.Perf.Schedule.transfer_cycles s)
            (TL.busy cap "dma");
          Alcotest.(check bool)
            (what ^ "hw_result = schedule totals")
            true
            (Stdlib.compare leg.Timeline.leg_hw (Sim.Perf.result ~board s) = 0))
        report.Timeline.tl_legs)
    files

(* The shares the CLI reports are consistent: on the plain leg compute
   and transfer shares partition the total; under overlap they sum past
   1 (that is the point of pipelining) and the efficiency is in [0,1]. *)
let test_derived_metrics_consistent () =
  let r = compile_kernel "inverse_helmholtz.cfd" in
  let report =
    Timeline.analyze ~force_k:8 ~force_m:16 ~overlap:Timeline.Require
      ~audit:(Compile.audit r) ~n_elements:2048 r
  in
  Alcotest.(check bool) "passed" true (Timeline.passed report);
  let leg label =
    match Timeline.find_leg report label with
    | Some l -> l
    | None -> Alcotest.failf "missing leg %s" label
  in
  let plain = leg "plain" and ov = leg "overlapped" in
  let pd = plain.Timeline.leg_derived and od = ov.Timeline.leg_derived in
  Alcotest.(check bool) "plain shares partition the total" true
    (Float.abs
       (pd.Timeline.d_compute_share +. pd.Timeline.d_transfer_share -. 1.0)
    < 1e-9);
  Alcotest.(check bool) "plain leg has no overlap" true
    (pd.Timeline.d_overlap_efficiency = 0.0);
  Alcotest.(check bool) "overlapped shares exceed 1" true
    (od.Timeline.d_compute_share +. od.Timeline.d_transfer_share > 1.0);
  Alcotest.(check bool) "overlap efficiency in [0,1]" true
    (od.Timeline.d_overlap_efficiency >= 0.0
    && od.Timeline.d_overlap_efficiency <= 1.0);
  Alcotest.(check bool) "same shape: overlap no slower" true
    (od.Timeline.d_total_cycles <= pd.Timeline.d_total_cycles)

(* ------------------------------------------------------------------ *)
(* Overlap law: steady block = max(transfers, compute)                 *)
(* ------------------------------------------------------------------ *)

let overlap_law_holds ~(plain : Sim.Perf.hw_result)
    ~(ov : Sim.Perf.hw_result) ~blocks =
  let io = plain.Sim.Perf.transfer_cycles / blocks in
  let comp = plain.Sim.Perf.exec_cycles / blocks in
  plain.Sim.Perf.transfer_cycles mod blocks = 0
  && plain.Sim.Perf.exec_cycles mod blocks = 0
  && ov.Sim.Perf.total_cycles = io + (blocks * max io comp)

let test_overlap_law () =
  let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let sys = Compile.build_system ~force_k:8 ~force_m:16 ~n_elements:4096 r in
  let plain = Sim.Perf.run_hw ~system:sys ~board in
  let ov = Sim.Perf.run_hw_overlapped ~system:sys ~board in
  let blocks = 4096 / 16 in
  Alcotest.(check int) "exec cycles are mode-independent"
    plain.Sim.Perf.exec_cycles ov.Sim.Perf.exec_cycles;
  Alcotest.(check int) "transfer cycles are mode-independent"
    plain.Sim.Perf.transfer_cycles ov.Sim.Perf.transfer_cycles;
  Alcotest.(check bool) "total = io_block + blocks * max(io, compute)" true
    (overlap_law_holds ~plain ~ov ~blocks);
  (* this kernel is compute-bound at p=11: every transfer except the
     first block's fill hides behind compute, so the overlapped total
     collapses to one io block plus the full execution *)
  let io = plain.Sim.Perf.transfer_cycles / blocks in
  let comp = plain.Sim.Perf.exec_cycles / blocks in
  Alcotest.(check bool) "compute dominates at p=11" true (comp > io);
  Alcotest.(check int) "total collapses to io_block + exec"
    (io + plain.Sim.Perf.exec_cycles)
    ov.Sim.Perf.total_cycles

(* The exact device-cycle totals of one shape, pinned: inverse
   Helmholtz at p = 4 with k = 8 accelerators over m = 16 PLM sets
   (m = 2k, so both legs run on it) and 2,048 elements. *)
let test_pinned_cycles () =
  let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:4 ()) in
  let report =
    Timeline.analyze ~force_k:8 ~force_m:16 ~overlap:Timeline.Require
      ~audit:(Compile.audit r) ~n_elements:2048 r
  in
  Alcotest.(check bool) "passed" true (Timeline.passed report);
  List.iter
    (fun (label, cycles) ->
      match Timeline.find_leg report label with
      | None -> Alcotest.failf "missing leg %s" label
      | Some leg ->
          Alcotest.(check int) (label ^ " total cycles") cycles
            leg.Timeline.leg_derived.Timeline.d_total_cycles;
          Alcotest.(check int) (label ^ " = Sim.Perf") cycles
            leg.Timeline.leg_hw.Sim.Perf.total_cycles)
    [ ("plain", 2_054_016); ("overlapped", 1_697_527) ]

(* Randomized: for any feasible shape the overlapped run obeys the
   pipeline law and never loses to the plain run on the same shape. *)
let qcheck_overlap_law =
  let compiled = Hashtbl.create 4 in
  let compile_p p =
    match Hashtbl.find_opt compiled p with
    | Some r -> r
    | None ->
        let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p ()) in
        Hashtbl.add compiled p r;
        r
  in
  QCheck.Test.make
    ~name:"overlapped <= plain and steady block = max(io, compute)" ~count:30
    QCheck.(
      quad (int_range 2 4) (int_range 1 3) (int_range 2 4) (int_range 1 3))
    (fun (p, k, batch, blocks) ->
      let m = k * batch in
      let n = m * blocks in
      let r = compile_p p in
      match Compile.build_system ~force_k:k ~force_m:m ~n_elements:n r with
      | exception Sysgen.Replicate.Infeasible _ -> true
      | sys ->
          let plain = Sim.Perf.run_hw ~system:sys ~board in
          let ov = Sim.Perf.run_hw_overlapped ~system:sys ~board in
          (ov.Sim.Perf.total_cycles <= plain.Sim.Perf.total_cycles
          && overlap_law_holds ~plain ~ov ~blocks)
          || QCheck.Test.fail_reportf
               "p=%d k=%d m=%d n=%d: plain=%d overlapped=%d" p k m n
               plain.Sim.Perf.total_cycles ov.Sim.Perf.total_cycles)

(* ------------------------------------------------------------------ *)
(* m >= 2k: stable diagnostic at every layer                           *)
(* ------------------------------------------------------------------ *)

let test_overlap_requirement_message () =
  (match Sim.Perf.overlap_requirement ~k:8 ~m:16 with
  | None -> ()
  | Some msg -> Alcotest.failf "m = 2k should be feasible: %s" msg);
  (match Sim.Perf.overlap_requirement ~k:8 ~m:8 with
  | None -> Alcotest.fail "m < 2k should be rejected"
  | Some msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "message names %S" needle)
            true (contains needle msg))
        [ "m >= 2k"; "m=8"; "2k=16"; "k=8" ]);
  let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let sys = Compile.build_system ~force_k:8 ~force_m:8 ~n_elements:64 r in
  match Sim.Perf.run_hw_overlapped ~system:sys ~board with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "exception carries the requirement" true
        (contains "m >= 2k" msg && contains "m=8" msg)

(* Require policy: an infeasible shape is a diagnostic, not an
   exception, and the plain leg still runs. *)
let test_require_policy_diagnostic () =
  let r = compile_kernel "inverse_helmholtz.cfd" in
  let report =
    Timeline.analyze ~force_k:8 ~force_m:8 ~overlap:Timeline.Require
      ~audit:(Compile.audit r) ~n_elements:64 r
  in
  Alcotest.(check bool) "overlapped leg withheld" true
    (Timeline.find_leg report "overlapped" = None);
  Alcotest.(check bool) "plain leg still present" true
    (Timeline.find_leg report "plain" <> None);
  Alcotest.(check (list string))
    "sim-overlap-infeasible error" [ "sim-overlap-infeasible" ]
    (rules (D.errors report.Timeline.tl_diagnostics));
  Alcotest.(check bool) "report fails" false (Timeline.passed report)

(* Auto policy: same infeasible shape, but the leg runs on a reshaped
   k (largest divisor of m with 2k <= m). *)
let test_auto_policy_reshapes () =
  let r = compile_kernel "inverse_helmholtz.cfd" in
  let report =
    Timeline.analyze ~force_k:8 ~force_m:8 ~audit:(Compile.audit r)
      ~n_elements:64 r
  in
  Alcotest.(check bool) "passed" true (Timeline.passed report);
  match Timeline.find_leg report "overlapped" with
  | None -> Alcotest.fail "Auto policy should reshape, not skip"
  | Some leg ->
      Alcotest.(check int) "m kept" 8
        leg.Timeline.leg_shape.Analysis.Cost.sh_m;
      Alcotest.(check int) "k shrunk to the largest feasible divisor" 4
        leg.Timeline.leg_shape.Analysis.Cost.sh_k

(* ------------------------------------------------------------------ *)
(* Chrome trace export: byte determinism                               *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_deterministic () =
  let r = compile_kernel "mass.cfd" in
  let render () =
    let report =
      Timeline.analyze ~audit:(Compile.audit r) ~n_elements:128 r
    in
    ( Obs.Json.to_string (Timeline.chrome_trace report),
      Obs.Json.to_string (Timeline.to_json report) )
  in
  let trace1, json1 = render () in
  let trace2, json2 = render () in
  Alcotest.(check string) "trace byte-identical across runs" trace1 trace2;
  Alcotest.(check string) "report JSON byte-identical across runs" json1
    json2;
  match Obs.Json.parse trace1 with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok j -> (
      match Obs.Json.member "traceEvents" j with
      | Some (Obs.Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "traceEvents missing or empty")

(* ------------------------------------------------------------------ *)
(* Disabled gate: bit-identical results, zero allocation               *)
(* ------------------------------------------------------------------ *)

(* The timeline must be a pure observer: running the performance model
   with the gate on yields the same hw_result, bit for bit, as with the
   gate off — and the disabled store stays empty. *)
let test_disabled_gate_identical () =
  let r = Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:4 ()) in
  let sys = Compile.build_system ~force_k:2 ~force_m:4 ~n_elements:8 r in
  let run f =
    TL.set_enabled false;
    TL.reset ();
    let off = f () in
    let on =
      TL.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          TL.set_enabled false;
          TL.reset ())
        f
    in
    (off, on)
  in
  let off, on = run (fun () -> Sim.Perf.run_hw ~system:sys ~board) in
  Alcotest.(check bool) "run_hw bit-identical under the gate" true
    (Stdlib.compare off on = 0);
  let off, on =
    run (fun () -> Sim.Perf.run_hw_overlapped ~system:sys ~board)
  in
  Alcotest.(check bool) "run_hw_overlapped bit-identical under the gate" true
    (Stdlib.compare off on = 0);
  TL.set_enabled false;
  TL.reset ();
  ignore (Sim.Perf.run_hw ~system:sys ~board);
  let cap = TL.capture () in
  Alcotest.(check int) "disabled run records no phases" 0
    (List.length cap.TL.cap_phases)

(* Same contract as the flight recorder (test_flight.ml): the disabled
   emitters are one branch — 10k calls must not move the minor heap by
   more than the measurement's own constant. *)
let test_disabled_zero_alloc () =
  TL.set_enabled false;
  let iters = 10_000 in
  let measure f =
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let phase_words =
    measure (fun () ->
        TL.phase ~track:"host" ~name:"dma-in" ~start:0 ~dur:1 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "disabled phase allocates nothing (%.0f words)"
       phase_words)
    true
    (phase_words < 1_000.0);
  let sample_words =
    measure (fun () ->
        TL.sample ~track:"plm:u" ~series:"port-pressure" ~cycle:0 ~value:1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "disabled sample allocates nothing (%.0f words)"
       sample_words)
    true
    (sample_words < 1_000.0)

let suite =
  [
    ( "timeline.reconcile",
      [
        case "every kernel, both legs, phase sums = schedule totals"
          test_every_kernel_phase_sums;
        case "derived metrics are consistent" test_derived_metrics_consistent;
      ] );
    ( "timeline.overlap",
      [
        case "steady block = max(transfers, compute)" test_overlap_law;
        QCheck_alcotest.to_alcotest qcheck_overlap_law;
        case "m < 2k: stable requirement message"
          test_overlap_requirement_message;
        case "Require policy: diagnostic not exception"
          test_require_policy_diagnostic;
        case "Auto policy: reshapes k under m" test_auto_policy_reshapes;
        case "pinned cycles: p = 4, k = 8, m = 16" test_pinned_cycles;
      ] );
    ( "timeline.export",
      [ case "Chrome trace byte-deterministic" test_chrome_trace_deterministic ]
    );
    ( "timeline.disabled",
      [
        case "gate off: bit-identical hw results" test_disabled_gate_identical;
        case "gate off: emitters allocate nothing" test_disabled_zero_alloc;
      ] );
  ]
