(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI), plus the ablations called out in DESIGN.md.

   Default: run every experiment and print the paper-shaped tables.
     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe table1     # one experiment
     (targets: table1 fig5 fig8 fig9 fig10 batch
               ablate-factorize ablate-decouple ablate-reserve
               ablate-overlap ablate-unroll ablate-ii operators sem
               exec cache)

   Two experiments are timed rather than modeled, and each writes one
   record for scripts/check_bench_exec.py: `exec` (compiled engine and
   element-sharded functional simulation) writes BENCH_exec.json, and
   `cache` (cold vs warm compile + check) writes BENCH_cache.json.
   --jobs=N sets the parallel fan-out of `exec` (default:
   Domain.recommended_domain_count); malformed values are rejected.
   --exec-p=N sets the polynomial order of the `exec` and `cache`
   kernels (default 11). --out=DIR redirects every file the harness
   writes -- the BENCH_*.json records and the per-experiment span traces
   (TRACE_<target>.json, Chrome trace-event format) -- into DIR instead
   of the cwd. --no-trace turns span recording off for timing runs. *)

let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board
let n_elements = 50000

let compile ?(p = 11) ?(factorize = true) ?(decoupled = true) ~sharing () =
  let options =
    {
      Cfd_core.Compile.default_options with
      Cfd_core.Compile.factorize;
      decoupled;
      sharing;
    }
  in
  Cfd_core.Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p ())

let shared = lazy (compile ~sharing:true ())
let unshared = lazy (compile ~sharing:false ())

let hw ?r k =
  let r = match r with Some r -> r | None -> Lazy.force shared in
  let sys = Cfd_core.Compile.build_system ~force_k:k ~n_elements r in
  Sysgen.System.validate sys;
  Sim.Perf.run_hw ~system:sys ~board

let sw_ref =
  lazy
    (Sim.Perf.run_sw ~variant:`Reference
       ~flops_per_element:(Tensor.Helmholtz.flops_factorized 11)
       ~n_elements ~board)

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

(* ---------------- E1: Table I ---------------- *)

let table1 () =
  header
    "Table I: resource utilization, no-sharing vs sharing architectures\n\
     (paper: LUT 11,318..77,235; FF 9,523..55,053; DSP 15m)";
  let cap = board.Fpga_platform.Board.capacity in
  let row r m =
    match Cfd_core.Compile.build_system ~force_k:m ~n_elements r with
    | sys ->
        let u = sys.Sysgen.System.total_resources in
        Printf.printf "  %2d | %s\n" m
          (Format.asprintf "%a" (Fpga_platform.Resource.pp_with_capacity ~capacity:cap) u)
    | exception Sysgen.Replicate.Infeasible _ ->
        Printf.printf "  %2d | does not fit\n" m
  in
  Printf.printf "No sharing (m = k):\n";
  List.iter (row (Lazy.force unshared)) [ 1; 2; 4; 8; 16 ];
  Printf.printf "Sharing (m = k):\n";
  List.iter (row (Lazy.force shared)) [ 1; 2; 4; 8; 16 ]

(* ---------------- E6: Figure 5 ---------------- *)

let fig5 () =
  header
    "Figure 5: memory-interface and address-space compatibility graph\n\
     (paper: interface arrays grouped left; t, r internal)";
  let r = Lazy.force shared in
  Format.printf "%a@." Liveness.Analysis.pp r.Cfd_core.Compile.liveness;
  Format.printf "%a@." Liveness.Analysis.pp_graph
    (Liveness.Analysis.compatibility_graph r.Cfd_core.Compile.liveness)

(* ---------------- E2: Figure 8 ---------------- *)

let fig8 () =
  header
    "Figure 8: BRAM utilization of parallel accelerators w/ and w/o sharing\n\
     (paper: 31 vs 18 BRAM per kernel; no-sharing caps at m=8, sharing at 16;\n\
     temporaries-inside variant: 24 accel + 9 memory = 33)";
  let per_kernel r =
    r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams
    + r.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.bram18
  in
  Printf.printf "per-kernel BRAM18: no sharing %d | sharing %d | temporaries-in-HLS %d\n"
    (per_kernel (Lazy.force unshared))
    (per_kernel (Lazy.force shared))
    (per_kernel (compile ~decoupled:false ~sharing:false ()));
  Printf.printf "\n   m | no-sharing BRAM | sharing BRAM   (board: 624 BRAM18, reserve 132)\n";
  List.iter
    (fun m ->
      let total r =
        match Cfd_core.Compile.build_system ~force_k:m ~n_elements r with
        | sys ->
            string_of_int
              sys.Sysgen.System.total_resources.Fpga_platform.Resource.bram18
        | exception Sysgen.Replicate.Infeasible _ -> "-"
      in
      Printf.printf "  %2d | %15s | %12s\n" m
        (total (Lazy.force unshared))
        (total (Lazy.force shared)))
    [ 1; 2; 4; 8; 16 ]

(* ---------------- E3: Figure 9 ---------------- *)

let fig9 () =
  header
    "Figure 9: accelerator and total speedup of parallel architectures\n\
     (paper: accel ~ideal k; total 7.09x at k=8, 12.58x at k=16)";
  let hw1 = hw 1 in
  Printf.printf "   k | accel speedup | total speedup\n";
  List.iter
    (fun k ->
      let r = hw k in
      Printf.printf "  %2d | %13.2f | %13.2f\n" k
        (Sim.Perf.accel_speedup ~baseline:hw1 r)
        (Sim.Perf.total_speedup ~baseline:hw1 r))
    [ 1; 2; 4; 8; 16 ]

(* ---------------- E4: Figure 10 ---------------- *)

let fig10 () =
  header
    "Figure 10: speedup vs software execution on the ARM A53\n\
     (paper: SW HLS-code < SW Ref; HW k=1 ~0.7x; HW k=16 8.62x)";
  let sw = Lazy.force sw_ref in
  let sw_hls =
    Sim.Perf.run_sw ~variant:`Hls_code
      ~flops_per_element:(Tensor.Helmholtz.flops_factorized 11)
      ~n_elements ~board
  in
  Printf.printf "  %-12s | speedup vs SW Ref\n" "variant";
  Printf.printf "  %-12s | %6.2f\n" "SW Ref" 1.0;
  Printf.printf "  %-12s | %6.2f\n" "SW HLS code"
    (sw.Sim.Perf.seconds /. sw_hls.Sim.Perf.seconds);
  List.iter
    (fun k ->
      Printf.printf "  %-12s | %6.2f\n"
        (Printf.sprintf "HW k=%d" k)
        (Sim.Perf.speedup_vs_sw ~sw (hw k)))
    [ 1; 8; 16 ]

(* ---------------- E5: k < m batching ---------------- *)

let batch () =
  header
    "Section VI k<m experiments: batching PLMs per accelerator\n\
     (paper: no improvement -- transfers are not amortized)";
  let r = Lazy.force shared in
  Printf.printf "   k |  m | batch | total s\n";
  List.iter
    (fun (k, m) ->
      match Cfd_core.Compile.build_system ~force_k:k ~force_m:m ~n_elements r with
      | sys ->
          Sysgen.System.validate sys;
          let res = Sim.Perf.run_hw ~system:sys ~board in
          Printf.printf "  %2d | %2d | %5d | %7.2f\n" k m (m / k)
            res.Sim.Perf.total_seconds
      | exception Sysgen.Replicate.Infeasible msg ->
          Printf.printf "  %2d | %2d | infeasible: %s\n" k m msg)
    [ (1, 1); (1, 2); (1, 4); (2, 2); (2, 4); (2, 8); (4, 4); (4, 8); (4, 16); (8, 8); (8, 16) ]

(* ---------------- A1: factorization ablation ---------------- *)

let ablate_factorize () =
  header
    "Ablation A1: contraction factorization (O(p^6) direct vs O(p^4) factorized)";
  Printf.printf "   p | direct cycles | factorized cycles | ratio | DSP direct/fact\n";
  List.iter
    (fun p ->
      let d = compile ~p ~factorize:false ~sharing:true () in
      let f = compile ~p ~factorize:true ~sharing:true () in
      let dl = d.Cfd_core.Compile.hls.Hls.Model.latency_cycles in
      let fl = f.Cfd_core.Compile.hls.Hls.Model.latency_cycles in
      Printf.printf "  %2d | %13d | %17d | %5.1f | %d / %d\n" p dl fl
        (float_of_int dl /. float_of_int fl)
        d.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.dsp
        f.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.dsp)
    [ 4; 6; 8; 10; 11; 12 ]

(* ---------------- A2: decoupling ablation ---------------- *)

let ablate_decouple () =
  header
    "Ablation A2: decoupled PLMs vs temporaries inside the accelerator\n\
     (paper: 33 total when inside vs 31/18 decoupled)";
  let show label r =
    let plm = r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams in
    let internal =
      r.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.bram18
    in
    Printf.printf "  %-34s: memory %2d + accelerator %2d = %2d BRAM18\n" label plm
      internal (plm + internal)
  in
  show "decoupled, sharing" (Lazy.force shared);
  show "decoupled, no sharing" (Lazy.force unshared);
  show "temporaries inside HLS, no sharing" (compile ~decoupled:false ~sharing:false ());
  show "temporaries inside HLS, sharing" (compile ~decoupled:false ~sharing:true ())

(* ---------------- A3: interface reserve sweep ---------------- *)

let ablate_reserve () =
  header
    "Ablation A3: interface BRAM reserve vs maximum replicas\n\
     (where the no-sharing design stops fitting 16 kernels)";
  Printf.printf "  reserve | max m no-sharing | max m sharing\n";
  let kernel = (Lazy.force shared).Cfd_core.Compile.hls.Hls.Model.resources in
  List.iter
    (fun reserve ->
      let config =
        {
          Sysgen.Replicate.default_config with
          Sysgen.Replicate.interface_reserve =
            Fpga_platform.Resource.make ~lut:6896 ~ff:6498 ~dsp:0 ~bram18:reserve;
        }
      in
      Printf.printf "  %7d | %16d | %13d\n" reserve
        (Sysgen.Replicate.max_m ~config ~kernel ~plm_brams:31 ())
        (Sysgen.Replicate.max_m ~config ~kernel ~plm_brams:18 ()))
    [ 0; 64; 128; 132; 192; 256; 336 ]

(* ---------------- A4: overlapped transfers (future work) ---------------- *)

let ablate_overlap () =
  header
    "Ablation A4: double-buffered transfers (paper future work)\n\
     (what the Section-VI k<m experiments would have shown with overlap)";
  let r = Lazy.force shared in
  Printf.printf "   k |  m | no overlap s | overlapped s\n";
  List.iter
    (fun (k, m) ->
      match Cfd_core.Compile.build_system ~force_k:k ~force_m:m ~n_elements r with
      | sys ->
          let plain = Sim.Perf.run_hw ~system:sys ~board in
          let overlapped =
            if m >= 2 * k then
              Printf.sprintf "%12.2f"
                (Sim.Perf.run_hw_overlapped ~system:sys ~board).Sim.Perf.total_seconds
            else "           -"
          in
          Printf.printf "  %2d | %2d | %12.2f | %s\n" k m
            plain.Sim.Perf.total_seconds overlapped
      | exception Sysgen.Replicate.Infeasible _ ->
          Printf.printf "  %2d | %2d | infeasible\n" k m)
    [ (1, 2); (2, 4); (4, 8); (8, 16); (16, 16) ]

(* ---------------- A5: unroll sweep ---------------- *)

let ablate_unroll () =
  header
    "Ablation A5: innermost-loop unrolling (operators & ports vs cycles)";
  Printf.printf
    "  unroll | cycles/elt |  DSP | PLM BRAM | max m | total s (50k elts)\n";
  List.iter
    (fun u ->
      let options =
        {
          Cfd_core.Compile.default_options with
          Cfd_core.Compile.unroll = (if u = 1 then None else Some u);
        }
      in
      let r =
        Cfd_core.Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p:11 ())
      in
      match Cfd_core.Compile.build_system ~n_elements r with
      | sys ->
          let hw = Sim.Perf.run_hw ~system:sys ~board in
          Printf.printf "  %6d | %10d | %4d | %8d | %5d | %7.2f\n" u
            r.Cfd_core.Compile.hls.Hls.Model.latency_cycles
            r.Cfd_core.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.dsp
            r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams
            sys.Sysgen.System.solution.Sysgen.Replicate.m
            hw.Sim.Perf.total_seconds
      | exception Sysgen.Replicate.Infeasible msg ->
          Printf.printf "  %6d | infeasible: %s\n" u msg)
    [ 1; 2; 4; 8 ]

(* ---------------- A6: initiation interval ---------------- *)

let ablate_ii () =
  header
    "Ablation A6: pipeline initiation interval\n\
     (II=1 assumes partial-sum interleaving of the f64 accumulation;\n\
     II=7 is the naive loop-carried dependence)";
  Printf.printf "  II | cycles/elt | total s (50k elts, k=16)\n";
  List.iter
    (fun ii ->
      let options =
        {
          Cfd_core.Compile.default_options with
          Cfd_core.Compile.pipeline_ii = Some ii;
        }
      in
      let r =
        Cfd_core.Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p:11 ())
      in
      let sys = Cfd_core.Compile.build_system ~force_k:16 ~n_elements r in
      let hw = Sim.Perf.run_hw ~system:sys ~board in
      Printf.printf "  %2d | %10d | %7.2f\n" ii
        r.Cfd_core.Compile.hls.Hls.Model.latency_cycles
        hw.Sim.Perf.total_seconds)
    [ 1; 2; 4; 7 ]

(* ---------------- operator suite ---------------- *)

let operators () =
  header "SEM operator suite through the full flow (p = 11)";
  Printf.printf "  %-18s %10s %7s %5s %8s\n" "operator" "cycles/elt" "LUT" "DSP"
    "PLM BRAM";
  List.iter
    (fun (name, program) ->
      let r = Cfd_core.Compile.compile program in
      let hls = r.Cfd_core.Compile.hls in
      Printf.printf "  %-18s %10d %7d %5d %8d\n" name
        hls.Hls.Model.latency_cycles
        hls.Hls.Model.resources.Fpga_platform.Resource.lut
        hls.Hls.Model.resources.Fpga_platform.Resource.dsp
        r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams)
    (Cfdlang.Operators.all ~p:11 ())

(* ---------------- SEM solver convergence ---------------- *)

let sem () =
  header
    "SEM application: CG Helmholtz solve with the compiled accelerator\n\
     kernel in the loop (manufactured solution, spectral convergence)";
  let pi = Float.pi in
  let exact x y z = sin (pi *. x) *. sin (pi *. y) *. sin (pi *. z) in
  let forcing x y z = (1.0 +. (3.0 *. pi *. pi)) *. exact x y z in
  Printf.printf "  ne |  n | CG iters | max error (accelerated backend)\n";
  List.iter
    (fun (ne, n) ->
      let mesh = Sem.Mesh.create ~ne ~n in
      let operator = Sem.Operator.create ~lambda:1.0 ~mesh () in
      let u, stats =
        Sem.Solver.solve ~backend:Sem.Solver.Accelerator ~mesh ~operator
          ~f:forcing ()
      in
      Printf.printf "  %2d | %2d | %8d | %.3e\n" ne n
        stats.Sem.Solver.iterations
        (Sem.Solver.max_error mesh u ~exact))
    [ (1, 4); (1, 6); (1, 8); (2, 4); (2, 5); (2, 6) ]

(* ---------------- Timed experiments: exec and cache ---------------- *)

let jobs_flag = ref 0
let exec_p = ref 11
let out_dir = ref "."

let out_path name = Filename.concat !out_dir name

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let effective_jobs () =
  if !jobs_flag > 0 then !jobs_flag else Parallel.Pool.default_jobs ()

let write_record name json =
  let path = out_path name in
  Obs.Json.to_file path json;
  Printf.printf "  wrote %s\n" path

(* ---------------- Execution engine micro-benchmark ---------------- *)

(* Adaptive timing: doubles the repetition count until a batch takes at
   least ~0.25 s, then reports seconds per run. *)
let time_per_run f =
  f ();
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.25 && reps < 1 lsl 22 then go (reps * 2)
    else dt /. float_of_int reps
  in
  go 1

(* Noise-robust timing for the functional-simulation matrix: one warmup,
   repetitions calibrated so a sample is >= ~60 ms, then the minimum per-
   run time over three samples (the minimum filters scheduler noise,
   which only ever adds time). *)
let time_min f =
  f ();
  let sample reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let rec calib reps =
    let per = sample reps in
    if per *. float_of_int reps < 0.06 && reps < 1 lsl 20 then calib (reps * 2)
    else (reps, per)
  in
  let reps, first = calib 1 in
  Float.min first (Float.min (sample reps) (sample reps))

let exec () =
  let p = !exec_p in
  let jobs = effective_jobs () in
  header
    (Printf.sprintf
       "Execution engine: tree-walking interpreter vs compiled LoopIR\n\
        (p=%d Inverse Helmholtz, ns per element; parallel at %d jobs)"
       p jobs);
  let r = compile ~p ~sharing:true () in
  let proc = r.Cfd_core.Compile.proc in
  let mode = Analysis.Verify.execution_mode proc in
  let mode_name =
    match mode with
    | Loopir.Compiled.Unchecked -> "unchecked"
    | Loopir.Compiled.Checked -> "checked"
    | Loopir.Compiled.Debug -> "debug"
  in
  let engine = Loopir.Compiled.compile ~mode proc in
  let storage = r.Cfd_core.Compile.memory.Mnemosyne.Memgen.storage in
  let buffer_of name =
    match List.assoc_opt name storage with
    | Some (b, off) -> (b, off)
    | None -> (name, 0)
  in
  let inputs = Cfdlang.Eval.random_inputs ~seed:1 r.Cfd_core.Compile.checked in
  (* One interpreter memory and one compiled frame, staged identically. *)
  let memory = Hashtbl.create 16 in
  List.iter
    (fun (prm : Loopir.Prog.param) ->
      Hashtbl.replace memory prm.Loopir.Prog.name
        (Array.make prm.Loopir.Prog.size 0.0))
    proc.Loopir.Prog.params;
  let stage_frame frame =
    List.iter
      (fun (name, tensor) ->
        let buf, off = buffer_of name in
        let data = Tensor.Dense.to_array tensor in
        Array.blit data 0
          (Loopir.Compiled.buffer engine frame buf)
          off (Array.length data))
      inputs
  in
  let frame = Loopir.Compiled.make_frame engine in
  stage_frame frame;
  List.iter
    (fun (name, tensor) ->
      let buf, off = buffer_of name in
      let data = Tensor.Dense.to_array tensor in
      Array.blit data 0 (Hashtbl.find memory buf) off (Array.length data))
    inputs;
  let t_interp = time_per_run (fun () -> Loopir.Interp.run proc memory) in
  let t_compiled = time_per_run (fun () -> Loopir.Compiled.run engine frame) in
  (* Parallel leg: [jobs] frames driven concurrently, as the functional
     simulator drives the k accelerators of a controller round. *)
  let par_frames =
    List.init jobs (fun _ ->
        let f = Loopir.Compiled.make_frame engine in
        stage_frame f;
        f)
  in
  let reps_inner = max 1 (int_of_float (0.25 /. Float.max t_compiled 1e-9)) in
  let t0 = Unix.gettimeofday () in
  List.iter
    (function
      | Ok () -> ()
      | Error (e : Parallel.Pool.error) -> failwith e.Parallel.Pool.message)
    (Parallel.Pool.map ~jobs
       (fun f ->
         for _ = 1 to reps_inner do
           Loopir.Compiled.run engine f
         done)
       par_frames);
  let t_parallel =
    (Unix.gettimeofday () -. t0) /. float_of_int (jobs * reps_inner)
  in
  let ns t = t *. 1e9 in
  Printf.printf "  engine mode: %s (verifier license)\n" mode_name;
  Printf.printf "  %-22s %14.0f ns/element\n" "tree-walking" (ns t_interp);
  Printf.printf "  %-22s %14.0f ns/element  (%.2fx)\n" "compiled" (ns t_compiled)
    (t_interp /. t_compiled);
  Printf.printf "  %-22s %14.0f ns/element  (%.2fx, %d jobs, %d host core%s)\n"
    "compiled+parallel" (ns t_parallel) (t_interp /. t_parallel) jobs
    (Parallel.Pool.default_jobs ())
    (if Parallel.Pool.default_jobs () = 1 then "" else "s");
  (* Functional simulation of the full system: a jobs x elements matrix
     over both scheduling strategies. The sequential baseline is the
     round-scheduled strategy at jobs:1 (the controller-round-faithful
     host loop with no helper domains); the parallel story is the element-sharded
     strategy, whose single dispatch amortizes pool costs over the whole
     run. *)
  let n_headline = 1024 in
  let sys = Cfd_core.Compile.build_system ~n_elements:n_headline r in
  Sysgen.System.validate sys;
  let sol = sys.Sysgen.System.solution in
  Printf.printf "  system: k=%d accelerators, m=%d PLM sets, batch=%d\n"
    sol.Sysgen.Replicate.k sol.Sysgen.Replicate.m sol.Sysgen.Replicate.batch;
  let element_inputs =
    List.map (fun (n, t) -> (n, Tensor.Dense.to_array t)) inputs
  in
  let sim_time ~strategy ~jobs n =
    time_min (fun () ->
        ignore
          (Sim.Functional.run ~jobs ~strategy ~system:sys ~proc
             ~inputs:(fun _ -> element_inputs)
             ~n ()))
  in
  (* The headline parallel leg runs at the effective job count: forcing
     jobs > cores would only measure the runtime's stop-the-world GC
     synchronizing oversubscribed domains, not the simulator. The matrix
     still carries the fixed jobs 2 and 4 legs for cross-host
     trajectory comparison. *)
  let jobs_par = jobs in
  let jobs_list = List.sort_uniq compare [ 1; 2; 4; jobs_par ] in
  let elements_list = [ 64; 256; n_headline ] in
  Printf.printf
    "  functional simulation (min-of-3 timing; speedup vs round-scheduled \
     jobs:1):\n";
  Printf.printf "    %8s | %-15s | %4s | %10s | %7s\n" "elements" "strategy"
    "jobs" "seconds" "speedup";
  let matrix =
    List.concat_map
      (fun n ->
        let t_seq = sim_time ~strategy:Sim.Functional.Round_scheduled ~jobs:1 n in
        let legs =
          ((Sim.Functional.Round_scheduled, 1), t_seq)
          :: List.map
               (fun j ->
                 ((Sim.Functional.Sharded, j),
                  sim_time ~strategy:Sim.Functional.Sharded ~jobs:j n))
               jobs_list
          @
          if jobs_par = 1 then []
          else
            [
              ((Sim.Functional.Round_scheduled, jobs_par),
               sim_time ~strategy:Sim.Functional.Round_scheduled ~jobs:jobs_par n);
            ]
        in
        List.map
          (fun ((strategy, j), t) ->
            let speedup = t_seq /. t in
            Printf.printf "    %8d | %-15s | %4d | %10.4f | %6.2fx\n" n
              (Sim.Functional.strategy_name strategy)
              j t speedup;
            (n, strategy, j, t, speedup))
          legs)
      elements_list
  in
  let find ~strategy ~jobs n =
    let _, _, _, t, speedup =
      List.find
        (fun (n', s, j, _, _) -> n' = n && s = strategy && j = jobs)
        matrix
    in
    (t, speedup)
  in
  let t_sim_seq, _ = find ~strategy:Sim.Functional.Round_scheduled ~jobs:1 n_headline in
  let t_shard1, _ = find ~strategy:Sim.Functional.Sharded ~jobs:1 n_headline in
  let t_sim_par, sim_par_speedup =
    find ~strategy:Sim.Functional.Sharded ~jobs:jobs_par n_headline
  in
  let shard1_overhead = (t_shard1 /. t_sim_seq) -. 1.0 in
  Printf.printf
    "  headline (%d elements): seq %.4f s | sharded jobs:1 %.4f s (%+.1f%% \
     overhead) | sharded jobs:%d %.4f s (%.2fx)\n"
    n_headline t_sim_seq t_shard1 (100. *. shard1_overhead) jobs_par t_sim_par
    sim_par_speedup;
  let matrix_json =
    Obs.Json.List
      (List.map
         (fun (n, strategy, j, t, speedup) ->
           Obs.Json.Obj
             [
               ("elements", Obs.Json.Int n);
               ( "strategy",
                 Obs.Json.String (Sim.Functional.strategy_name strategy) );
               ("jobs", Obs.Json.Int j);
               ("seconds", Obs.Json.Float t);
               ("speedup_vs_seq", Obs.Json.Float speedup);
             ])
         matrix)
  in
  (* Machine-readable record, stamped with the run's provenance manifest
     (build identity, argv, host, platform). *)
  write_record "BENCH_exec.json"
    (Obs.Json.Obj
       [
         ("benchmark", Obs.Json.String "exec");
         ("kernel", Obs.Json.String "inverse_helmholtz");
         ("p", Obs.Json.Int p);
         ("mode", Obs.Json.String mode_name);
         ("treewalk_ns_per_element", Obs.Json.Float (ns t_interp));
         ("compiled_ns_per_element", Obs.Json.Float (ns t_compiled));
         ("compiled_speedup", Obs.Json.Float (t_interp /. t_compiled));
         ("host_cores", Obs.Json.Int (Parallel.Pool.default_jobs ()));
         ("parallel_jobs", Obs.Json.Int jobs);
         ("parallel_ns_per_element", Obs.Json.Float (ns t_parallel));
         ("parallel_speedup", Obs.Json.Float (t_interp /. t_parallel));
         ("functional_sim_elements", Obs.Json.Int n_headline);
         ("functional_sim_strategy", Obs.Json.String "sharded");
         ("functional_sim_jobs", Obs.Json.Int jobs_par);
         ("functional_sim_seq_seconds", Obs.Json.Float t_sim_seq);
         ("functional_sim_shard1_seconds", Obs.Json.Float t_shard1);
         ("functional_sim_shard1_overhead", Obs.Json.Float shard1_overhead);
         ("functional_sim_par_seconds", Obs.Json.Float t_sim_par);
         ("functional_sim_par_speedup", Obs.Json.Float sim_par_speedup);
         ("functional_sim_matrix", matrix_json);
         ("manifest", Cfd_core.Version.manifest ());
       ])

(* ---------------- Artifact cache ---------------- *)

(* Compile + check cold (emptied store, so the run is a miss plus a
   store) vs warm (hit), min-of-3 with the polyhedral memos cleared
   before every rep so both legs pay the identical front-half cost and
   the delta is exactly the cached back half and verdict. That a hit
   reproduces the miss is tested in cache.pipeline; this leg only
   times it. *)
let cache_bench () =
  let p = !exec_p in
  header
    (Printf.sprintf
       "Artifact cache: cold vs warm compilation and verification\n\
        (p=%d Inverse Helmholtz)"
       p);
  let ast = Cfdlang.Ast.inverse_helmholtz ~p () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cfdc-bench-cache-%d" (Unix.getpid ()))
  in
  let store = Cache.Store.create ~dir () in
  let compile_and_check () =
    let r = Cfd_core.Compile.compile ~cache:store ast in
    ignore (Cfd_core.Compile.check ~cache:store r)
  in
  let min3 ~prep =
    let sample () =
      prep ();
      Poly.Memo.clear_all ();
      let t0 = Unix.gettimeofday () in
      compile_and_check ();
      Unix.gettimeofday () -. t0
    in
    let t1 = sample () in
    let t2 = sample () in
    Float.min t1 (Float.min t2 (sample ()))
  in
  let t_cold = min3 ~prep:(fun () -> ignore (Cache.Store.clear store)) in
  let t_warm = min3 ~prep:(fun () -> ()) in
  let compile_speedup = t_cold /. t_warm in
  Printf.printf "  compile+check: cold %.4f s | warm %.4f s | %.1fx\n" t_cold
    t_warm compile_speedup;
  write_record "BENCH_cache.json"
    (Obs.Json.Obj
       [
         ( "cache",
           Obs.Json.Obj
             [
               ("p", Obs.Json.Int p);
               ("cold_compile_seconds", Obs.Json.Float t_cold);
               ("warm_compile_seconds", Obs.Json.Float t_warm);
               ("compile_speedup", Obs.Json.Float compile_speedup);
             ] );
       ]);
  ignore (Cache.Store.clear store);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* ---------------- driver ---------------- *)

let experiments =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("batch", batch);
    ("ablate-factorize", ablate_factorize);
    ("ablate-decouple", ablate_decouple);
    ("ablate-reserve", ablate_reserve);
    ("ablate-overlap", ablate_overlap);
    ("ablate-unroll", ablate_unroll);
    ("ablate-ii", ablate_ii);
    ("operators", operators);
    ("sem", sem);
    ("exec", exec);
    ("cache", cache_bench);
  ]

(* Each experiment runs under its own trace window: buffers are cleared
   before and exported after, so TRACE_<target>.json holds exactly that
   target's spans. --no-trace turns the span recording off entirely for
   clean timing runs (the counters still aggregate; they are O(1) per
   engine run). *)
let run_experiment ~traced (name, f) =
  if not traced then f ()
  else begin
    Obs.Trace.set_enabled true;
    Obs.Trace.reset ();
    f ();
    let path = out_path ("TRACE_" ^ name ^ ".json") in
    Obs.Export.write_chrome_trace ~path ();
    Obs.Trace.reset ();
    Printf.printf "  wrote %s\n" path
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let named, flags =
    List.partition
      (fun a -> not (String.length a > 2 && String.sub a 0 2 = "--"))
      args
  in
  let positive_int key value =
    match int_of_string_opt value with
    | Some v when v >= 1 -> v
    | Some _ | None ->
        Printf.eprintf "%s expects a positive integer, got %S\n" key value;
        exit 2
  in
  List.iter
    (fun f ->
      match String.index_opt f '=' with
      | Some i -> (
          let key = String.sub f 0 i in
          let value = String.sub f (i + 1) (String.length f - i - 1) in
          match key with
          | "--jobs" -> jobs_flag := positive_int key value
          | "--exec-p" -> exec_p := positive_int key value
          | "--out" -> out_dir := value
          | _ ->
              Printf.eprintf "unknown flag %s\n" f;
              exit 2)
      | None ->
          if f <> "--no-trace" then begin
            Printf.eprintf "unknown flag %s\n" f;
            exit 2
          end)
    flags;
  let traced = not (List.mem "--no-trace" flags) in
  mkdir_p !out_dir;
  (match named with
  | [] -> List.iter (fun (n, f) -> run_experiment ~traced (n, f)) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment ~traced (name, f)
          | None ->
              Printf.eprintf "unknown experiment %s (available: %s)\n" name
                (String.concat " " (List.map fst experiments));
              exit 1)
        names)
