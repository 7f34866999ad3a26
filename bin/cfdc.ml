(* cfdc: the CFDlang-to-accelerator command-line compiler.

   Drives the full Figure-3 flow on a .cfd source file: emits the
   HLS-ready C99 kernel, the Mnemosyne metadata, the liveness /
   compatibility report, the PLM architecture, the system description for
   a chosen board, and a performance estimate. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise ~ii ~unroll =
  {
    Cfd_core.Compile.kernel_name = name;
    factorize;
    fuse_pointwise;
    decoupled;
    sharing;
    pipeline_ii = (if ii <= 0 then None else Some ii);
    unroll;
    static_check = false;
  }

let print_front_warnings ~name r =
  List.iter
    (fun w ->
      Format.eprintf "%a@." Analysis.Diagnostic.pp
        (Analysis.Diagnostic.warning ~rule:"front-unused" ~subject:name w))
    (Cfdlang.Check.warnings r.Cfd_core.Compile.checked)

(* Fatal exit: when the flight recorder is on, a fatal diagnostic dumps
   the post-mortem bundle (recent spans and log events, metrics, cache
   stats, provenance) before the process dies, same as an uncaught
   exception at the top level. *)
let fatal ?(code = 1) reason =
  (if Obs.Flight.enabled () then
     match Obs.Flight.write_crash ~reason () with
     | Some path -> Printf.eprintf "cfdc: crash report: %s\n%!" path
     | None -> ());
  exit code

let compile_result ?cache src options =
  match Cfd_core.Compile.compile_source ?cache ~options src with
  | Ok r -> r
  | Error msg ->
      prerr_endline ("cfdc: " ^ msg);
      fatal ("compile failed: " ^ msg)

(* ---- artifact cache (shared by the subcommands) ---- *)

let default_cache_dir = ".cfdc-cache"

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Warm-start from the content-addressed artifact cache at \
               $(docv), creating it if missing (see docs/CACHING.md). \
               Defaults to $(b,CFDC_CACHE_DIR) when that is set; with \
               neither, no cache is used")

(* Live store statistics as a crash-bundle section, registered when a
   subcommand opens a cache so a post-mortem names the store it died
   with. *)
let cache_stats_json store =
  let s = Cache.Store.stats store in
  Obs.Json.Obj
    [
      ("dir", Obs.Json.String (Option.value ~default:"" (Cache.Store.dir store)));
      ("disk_entries", Obs.Json.Int s.Cache.Store.st_disk_entries);
      ("disk_bytes", Obs.Json.Int s.Cache.Store.st_disk_bytes);
      ("hits", Obs.Json.Int s.Cache.Store.st_hits);
      ("misses", Obs.Json.Int s.Cache.Store.st_misses);
      ("evictions", Obs.Json.Int s.Cache.Store.st_evictions);
      ( "kinds",
        Obs.Json.Obj
          (List.map
             (fun (k : Cache.Store.kind_stats) ->
               ( k.Cache.Store.k_kind,
                 Obs.Json.Obj
                   [
                     ("entries", Obs.Json.Int k.Cache.Store.k_entries);
                     ("bytes", Obs.Json.Int k.Cache.Store.k_bytes);
                   ] ))
             s.Cache.Store.st_kinds) );
    ]

(* --cache-dir beats CFDC_CACHE_DIR beats no cache. *)
let cache_of dir_flag =
  let dir =
    match dir_flag with
    | Some d -> Some d
    | None -> (
        match Sys.getenv_opt "CFDC_CACHE_DIR" with
        | Some "" | None -> None
        | Some d -> Some d)
  in
  Option.map
    (fun dir ->
      let store = Cache.Store.create ~dir () in
      Obs.Flight.add_section "cache" (fun () -> cache_stats_json store);
      store)
    dir

(* ---- observability sinks (shared by the subcommands) ---- *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON (loadable in Perfetto or \
               chrome://tracing) to $(docv) on exit")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the metrics registry (counters, gauges, histograms) as \
               JSON to $(docv) on exit")

let summary_arg =
  Arg.(value & flag & info [ "summary" ]
         ~doc:"Print a human-readable span-timing and metrics summary on exit")

let log_arg =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
         ~doc:"Append structured log events (leveled, span-correlated) to \
               $(docv) as JSON lines")

let log_level_arg =
  Arg.(value
       & opt (some (enum
                [ ("debug", Obs.Log.Debug); ("info", Obs.Log.Info);
                  ("warn", Obs.Log.Warn); ("error", Obs.Log.Error) ]))
           None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Minimum level recorded by the event log (default: warn)")

let flight_arg =
  Arg.(value & flag & info [ "flight" ]
         ~doc:"Keep the flight recorder on: retain the most recent spans and \
               log events per domain in a bounded ring and dump a crash \
               report on fatal exit (also enabled by $(b,CFDC_FLIGHT=1); \
               report directory from $(b,CFDC_CRASH_DIR), default \
               crash-reports/)")

type obs_opts = {
  oo_trace : string option;
  oo_metrics : string option;
  oo_summary : bool;
  oo_log : string option;
  oo_log_level : Obs.Log.level option;
  oo_flight : bool;
}

let obs_opts_term =
  let mk oo_trace oo_metrics oo_summary oo_log oo_log_level oo_flight =
    { oo_trace; oo_metrics; oo_summary; oo_log; oo_log_level; oo_flight }
  in
  Term.(
    const mk $ trace_arg $ metrics_arg $ summary_arg $ log_arg $ log_level_arg
    $ flight_arg)

(* The sinks run via [at_exit] so the files are written even when a
   subcommand exits non-zero (check failures, infeasible systems). *)
let obs_setup ?(force_summary = false) oo =
  let summary = oo.oo_summary || force_summary in
  (match oo.oo_log_level with
  | Some l -> Obs.Log.set_level l
  | None -> ());
  (match oo.oo_log with
  | Some path ->
      Obs.Log.set_sink (Some (open_out path));
      at_exit (fun () -> Obs.Log.set_sink None)
  | None -> ());
  if oo.oo_flight then Obs.Flight.set_enabled true;
  if oo.oo_trace <> None || summary then Obs.Trace.set_enabled true;
  if oo.oo_trace <> None || oo.oo_metrics <> None || summary then
    at_exit (fun () ->
        (match oo.oo_trace with
        | Some path -> Obs.Export.write_chrome_trace ~path ()
        | None -> ());
        (match oo.oo_metrics with
        | Some path -> Obs.Export.write_metrics ~path ()
        | None -> ());
        if summary then Format.printf "%a@?" Obs.Export.pp_summary ())

(* ---- compile command ---- *)

let do_compile file out_dir name factorize decoupled sharing fuse_pointwise ii
    unroll verify cache_dir oo =
  obs_setup oo;
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise ~ii ~unroll
  in
  let r = compile_result ?cache:(cache_of cache_dir) src options in
  print_front_warnings ~name r;
  (match out_dir with
  | None -> print_string r.Cfd_core.Compile.c_source
  | Some dir ->
      mkdir_p dir;
      write_file (Filename.concat dir (name ^ ".c")) r.Cfd_core.Compile.c_source;
      write_file
        (Filename.concat dir (name ^ ".mnemosyne"))
        r.Cfd_core.Compile.mnemosyne_metadata;
      write_file
        (Filename.concat dir (name ^ ".plm"))
        (Format.asprintf "%a"
           Mnemosyne.Memgen.pp_architecture r.Cfd_core.Compile.memory);
      Printf.printf "wrote %s/{%s.c, %s.mnemosyne, %s.plm}\n" dir name name name);
  if verify then
    if Cfd_core.Compile.verify r then print_endline "verify: OK"
    else begin
      print_endline "verify: FAILED";
      exit 1
    end;
  Format.printf "%a@." Hls.Model.pp_report r.Cfd_core.Compile.hls

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"CFDlang source file")

let out_dir_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
         ~doc:"Output directory for generated artifacts (default: print C to stdout)")

let name_arg =
  Arg.(value & opt string "kernel" & info [ "name" ] ~doc:"Kernel name")

let factorize_arg =
  Arg.(value & opt bool true & info [ "factorize" ] ~doc:"Factorize contractions (Section IV-A)")

let decoupled_arg =
  Arg.(value & opt bool true & info [ "decoupled" ] ~doc:"Export temporaries to PLMs (Section V-A)")

let sharing_arg =
  Arg.(value & opt bool true & info [ "sharing" ] ~doc:"Enable Mnemosyne memory sharing")

let fuse_pointwise_arg =
  Arg.(value & flag & info [ "fuse-pointwise" ] ~doc:"Fuse element-wise consumers into producer loops")

let ii_arg =
  Arg.(value & opt int 1 & info [ "ii" ] ~doc:"Pipeline initiation interval (0 disables pipelining)")

let unroll_arg =
  Arg.(value & opt (some int) None & info [ "unroll" ] ~doc:"Unroll factor for innermost loops")

let verify_arg =
  Arg.(value & flag & info [ "verify" ] ~doc:"Execute the generated kernel against the DSL semantics")

let compile_cmd =
  let doc = "compile a CFDlang kernel to HLS-ready C99 + memory metadata" in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const do_compile $ file_arg $ out_dir_arg $ name_arg $ factorize_arg
      $ decoupled_arg $ sharing_arg $ fuse_pointwise_arg $ ii_arg $ unroll_arg
      $ verify_arg $ cache_dir_arg $ obs_opts_term)

(* ---- check command ---- *)

let do_check file name factorize decoupled sharing fuse_pointwise ii unroll
    fail_on_warning stats cache_dir oo =
  obs_setup oo;
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise ~ii ~unroll
  in
  let cache = cache_of cache_dir in
  let r = compile_result ?cache src options in
  let diags = Cfd_core.Compile.check ?cache r in
  List.iter (fun d -> Format.printf "%a@." Analysis.Diagnostic.pp d) diags;
  if stats then Format.printf "%a" Obs.Export.pp_metrics ();
  if diags = [] then print_endline "check: OK"
  else Format.printf "check: %s@." (Analysis.Diagnostic.summary diags);
  if
    Analysis.Diagnostic.errors diags <> []
    || (fail_on_warning && Analysis.Diagnostic.warnings diags <> [])
  then fatal ("check failed: " ^ Analysis.Diagnostic.summary diags)

let fail_on_warning_arg =
  Arg.(value & flag & info [ "fail-on-warning" ]
         ~doc:"Exit non-zero on warnings, not just errors")

let check_stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print polyhedral cache hit/miss statistics after the check")

let check_cmd =
  let doc = "statically verify the compiled pipeline: dependence \
             preservation, affine bounds, PLM sharing soundness, \
             use-before-def (see docs/ANALYSIS.md)" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const do_check $ file_arg $ name_arg $ factorize_arg $ decoupled_arg
      $ sharing_arg $ fuse_pointwise_arg $ ii_arg $ unroll_arg
      $ fail_on_warning_arg $ check_stats_arg $ cache_dir_arg $ obs_opts_term)

(* ---- report command ---- *)

let do_report file name factorize decoupled sharing =
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise:false ~ii:1
      ~unroll:None
  in
  let r = compile_result src options in
  (match Cfdlang.Check.warnings r.Cfd_core.Compile.checked with
  | [] -> ()
  | ws -> List.iter (fun w -> Format.printf "warning: %s@." w) ws);
  Format.printf "=== tensor IR ===@.%a@." Tir.Ir.pp_kernel r.Cfd_core.Compile.tir;
  Format.printf "=== liveness ===@.%a@." Liveness.Analysis.pp r.Cfd_core.Compile.liveness;
  Format.printf "=== compatibility graph (Figure 5) ===@.%a@."
    Liveness.Analysis.pp_graph
    (Liveness.Analysis.compatibility_graph r.Cfd_core.Compile.liveness);
  Format.printf "=== PLM architecture ===@.%a@."
    Mnemosyne.Memgen.pp_architecture r.Cfd_core.Compile.memory;
  Format.printf "=== HLS report ===@.%a@." Hls.Model.pp_report r.Cfd_core.Compile.hls

let report_cmd =
  let doc = "print the analysis artifacts (IR, liveness, compatibility, PLM, HLS)" in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const do_report $ file_arg $ name_arg $ factorize_arg $ decoupled_arg
      $ sharing_arg)

(* ---- system command ---- *)

let do_system file name factorize decoupled sharing elements k m oo =
  obs_setup oo;
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise:false ~ii:1
      ~unroll:None
  in
  let r = compile_result src options in
  match
    Cfd_core.Compile.build_system ?force_k:k ?force_m:m ~n_elements:elements r
  with
  | sys ->
      Sysgen.System.validate sys;
      Format.printf "%a@." Sysgen.System.pp sys;
      let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board in
      let hw = Sim.Perf.run_hw ~system:sys ~board in
      Format.printf "performance: %a@." Sim.Perf.pp_hw hw;
      Format.printf "bottleneck: %a@." Sim.Bottleneck.pp
        (Sim.Bottleneck.analyze ~system:sys ~board ())
  | exception Sysgen.Replicate.Infeasible msg ->
      prerr_endline ("cfdc: infeasible: " ^ msg);
      fatal ("infeasible: " ^ msg)

(* An element count: a run over fewer than one element has no meaning. *)
let elements_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> Error (`Msg (Printf.sprintf "%d is below 1" n))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let elements_arg =
  Arg.(value & opt elements_conv 50000 & info [ "elements" ]
         ~doc:"Number of CFD elements to simulate")

let k_arg = Arg.(value & opt (some int) None & info [ "k" ] ~doc:"Force k accelerators")
let m_arg = Arg.(value & opt (some int) None & info [ "m" ] ~doc:"Force m PLM sets")

let system_cmd =
  let doc = "solve Equation (3), build the system description, and estimate performance" in
  Cmd.v (Cmd.info "system" ~doc)
    Term.(
      const do_system $ file_arg $ name_arg $ factorize_arg $ decoupled_arg
      $ sharing_arg $ elements_arg $ k_arg $ m_arg $ obs_opts_term)

(* ---- emit command: system artifacts ---- *)

let do_emit file out_dir name factorize decoupled sharing elements k m =
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise:false ~ii:1
      ~unroll:None
  in
  let r = compile_result src options in
  match
    Cfd_core.Compile.build_system ?force_k:k ?force_m:m ~n_elements:elements r
  with
  | exception Sysgen.Replicate.Infeasible msg ->
      prerr_endline ("cfdc: infeasible: " ^ msg);
      fatal ("infeasible: " ^ msg)
  | sys ->
      Sysgen.System.validate sys;
      mkdir_p out_dir;
      let out suffix contents =
        write_file (Filename.concat out_dir (name ^ suffix)) contents
      in
      out ".c" r.Cfd_core.Compile.c_source;
      out ".mnemosyne" r.Cfd_core.Compile.mnemosyne_metadata;
      out "_host.c" (Sysgen.Host_emit.c_host_source ~kernel_name:name sys);
      out "_host.h" (Sysgen.Host_emit.c_header ~kernel_name:name sys);
      out "_ctrl.v"
        (Sysgen.Hdl_emit.controller_verilog
           ~k:sys.Sysgen.System.solution.Sysgen.Replicate.k
           ~batch:sys.Sysgen.System.solution.Sysgen.Replicate.batch);
      out "_system.v" (Sysgen.Hdl_emit.top_verilog ~kernel_name:name sys);
      out "_plm.v" (Mnemosyne.Plm_emit.verilog r.Cfd_core.Compile.memory);
      out "_accel.hpp" (Sysgen.Bindings_emit.cpp_header ~kernel_name:name sys);
      out "_accel.f90" (Sysgen.Bindings_emit.fortran_module ~kernel_name:name sys);
      Printf.printf
        "wrote %s/%s{.c,.mnemosyne,_host.c,_host.h,_ctrl.v,_system.v,_plm.v,_accel.hpp,_accel.f90}\n"
        out_dir name

let emit_out_dir_arg =
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
         ~doc:"Output directory for the system artifacts")

let emit_cmd =
  let doc = "emit every system artifact: kernel C, Mnemosyne metadata, host \
             driver, controller and top-level Verilog, Fortran/C++ handles" in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(
      const do_emit $ file_arg $ emit_out_dir_arg $ name_arg $ factorize_arg
      $ decoupled_arg $ sharing_arg $ elements_arg $ k_arg $ m_arg)

(* ---- explore command ---- *)

let do_explore file elements jobs prefilter stats cache_dir oo =
  obs_setup oo;
  let src = read_file file in
  let ast =
    match Cfdlang.Parser.parse src with
    | ast -> ast
    | exception Cfdlang.Parser.Error (pos, msg) ->
        prerr_endline
          (Printf.sprintf "cfdc: parse error at %d:%d: %s" pos.Cfdlang.Lexer.line
             pos.Cfdlang.Lexer.col msg);
        fatal ("parse error: " ^ msg)
  in
  let jobs = if jobs <= 0 then Parallel.Pool.default_jobs () else jobs in
  let pruned_counter = Obs.Metrics.counter "explore.pruned" in
  let pruned0 = Obs.Metrics.counter_value pruned_counter in
  let outcomes =
    Cfd_core.Explore.sweep ~jobs ~prefilter
      ?cache:(cache_of cache_dir)
      ~n_elements:elements ast
  in
  Format.printf "design space (%d elements, %d jobs%s):@." elements jobs
    (if prefilter then ", static prefilter" else "");
  List.iter (fun o -> Format.printf "  %a@." Cfd_core.Explore.pp_outcome o) outcomes;
  Format.printf "Pareto front:@.";
  List.iter
    (fun o -> Format.printf "  %a@." Cfd_core.Explore.pp_outcome o)
    (Cfd_core.Explore.pareto outcomes);
  if prefilter then
    Format.printf "pruned without simulation: %d@."
      (Obs.Metrics.counter_value pruned_counter - pruned0);
  if stats then Format.printf "%a" Obs.Export.pp_metrics ()

let jobs_arg =
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Evaluate configurations on $(docv) domains in parallel \
               (0 = one per recommended core; 1 = sequential)")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print polyhedral cache hit/miss statistics after the sweep")

let prefilter_arg =
  Arg.(value & flag & info [ "prefilter" ]
         ~doc:"Skip simulating configurations whose static cost estimate is \
               dominated by another configuration (the Pareto front is \
               unchanged; the pruned count is reported)")

let explore_cmd =
  let doc = "sweep the memory/compute configurations and print the Pareto front" in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const do_explore $ file_arg $ elements_arg $ jobs_arg $ prefilter_arg
      $ stats_arg $ cache_dir_arg $ obs_opts_term)

(* ---- memprof command ---- *)

let simulation_failed msg =
  prerr_endline ("cfdc: functional simulation failed: " ^ msg);
  fatal ("functional simulation failed: " ^ msg)

(* The recorded simulation leg as (elements, snapshot); [None] when no
   feasible system exists (the audits do not need one). *)
let recorded_sim_leg r ~elements ~sim_n =
  match Cfd_core.Compile.build_system ~n_elements:elements r with
  | exception Sysgen.Replicate.Infeasible msg ->
      Format.eprintf "cfdc: memprof: skipping simulation leg (infeasible: %s)@."
        msg;
      None
  | sys -> (
      Sysgen.System.validate sys;
      match Cfd_core.Costing.recorded_sim ~system:sys ~n:sim_n r with
      | snap -> Some (sim_n, snap)
      | exception Sim.Functional.Error msg -> simulation_failed msg)

(* Each memgen mode audited once under the compile options in force, as
   (mode, audit), no-sharing first. *)
let run_audits r =
  List.map
    (fun mode -> (mode, Cfd_core.Compile.audit ~mode r))
    [ Mnemosyne.Memgen.No_sharing; Mnemosyne.Memgen.Sharing ]

let do_memprof file name factorize decoupled sharing elements sim_n json_out
    trace_out log log_level flight =
  obs_setup
    {
      oo_trace = None;
      oo_metrics = None;
      oo_summary = false;
      oo_log = log;
      oo_log_level = log_level;
      oo_flight = flight;
    };
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise:false ~ii:1
      ~unroll:None
  in
  let r = compile_result src options in
  print_front_warnings ~name r;
  let audits = List.map snd (run_audits r) in
  let sim = recorded_sim_leg r ~elements ~sim_n in
  let report = Memprof.Report.make ~kernel:name ?sim audits in
  Format.printf "%a@?" Memprof.Report.pp report;
  (match json_out with
  | Some path ->
      write_file path (Obs.Json.to_string (Memprof.Report.to_json report));
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match trace_out with
  | Some path ->
      write_file path
        (Obs.Json.to_string (Memprof.Report.chrome_counters report));
      Printf.printf "wrote %s\n" path
  | None -> ());
  if not (Memprof.Report.passed report) then fatal "memprof audit failed"

let memprof_json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the full memory profile (per-unit occupancy, BRAM \
               counts, pressure percentiles, audit diagnostics) as JSON to \
               $(docv)")

let memprof_trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write Chrome-trace counter tracks (port pressure and PLM \
               occupancy per unit, loadable in Perfetto) to $(docv)")

let memprof_sim_elements_arg =
  Arg.(value & opt int 8 & info [ "sim-elements" ] ~docv:"N"
         ~doc:"Number of elements to run through the recorded functional \
               simulation leg")

let memprof_cmd =
  let doc = "profile a kernel's PLM memory behaviour dynamically and audit \
             the observed live intervals against the static model that \
             licensed the architecture (both memgen modes)" in
  Cmd.v (Cmd.info "memprof" ~doc)
    Term.(
      const do_memprof $ file_arg $ name_arg $ factorize_arg $ decoupled_arg
      $ sharing_arg $ elements_arg $ memprof_sim_elements_arg
      $ memprof_json_arg $ memprof_trace_arg $ log_arg $ log_level_arg
      $ flight_arg)

(* ---- timeline command ---- *)

(* The phases and the totals come from one schedule, so the only way a
   timeline fails is an overlapped leg the shape cannot double-buffer. *)
let timeline_failed () =
  let reason =
    "timeline: overlapped leg infeasible (sim-overlap-infeasible: m < 2k)"
  in
  prerr_endline ("cfdc: " ^ reason);
  fatal reason

let do_timeline file name factorize decoupled sharing elements k m overlap
    trace_out json log log_level flight =
  obs_setup
    {
      oo_trace = None;
      oo_metrics = None;
      oo_summary = false;
      oo_log = log;
      oo_log_level = log_level;
      oo_flight = flight;
    };
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise:false ~ii:1
      ~unroll:None
  in
  let r = compile_result src options in
  print_front_warnings ~name r;
  let report =
    match
      Cfd_core.Timeline.analyze ?force_k:k ?force_m:m ~overlap
        ~audit:(lazy (Cfd_core.Compile.audit r)) ~n_elements:elements r
    with
    | report -> report
    | exception Sysgen.Replicate.Infeasible msg ->
        prerr_endline ("cfdc: infeasible: " ^ msg);
        fatal ("infeasible: " ^ msg)
  in
  (match trace_out with
  | Some path ->
      write_file path
        (Obs.Json.to_string (Cfd_core.Timeline.chrome_trace report));
      (* stderr: with --json, stdout is the machine-readable document *)
      Printf.eprintf "wrote %s\n%!" path
  | None -> ());
  if json then
    print_endline (Obs.Json.to_string (Cfd_core.Timeline.to_json report))
  else Format.printf "%a@?" Cfd_core.Timeline.pp_report report;
  if not (Cfd_core.Timeline.passed report) then timeline_failed ()

let timeline_elements_arg =
  Arg.(value & opt elements_conv 2048 & info [ "elements" ] ~docv:"N"
         ~doc:"Number of CFD elements the modeled run covers (bounds the \
               event count: every block contributes its phase instances)")

let overlap_policy_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", Cfd_core.Timeline.Auto);
             ("require", Cfd_core.Timeline.Require);
             ("off", Cfd_core.Timeline.Off);
           ])
        Cfd_core.Timeline.Auto
    & info [ "overlap" ] ~docv:"POLICY"
        ~doc:"Overlapped (double-buffered) leg policy: $(b,auto) reshapes \
              k to the largest divisor of m with m >= 2k when the solved \
              shape cannot double-buffer; $(b,require) fails with a \
              $(b,sim-overlap-infeasible) diagnostic instead of reshaping; \
              $(b,off) runs the plain leg only")

let timeline_trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the combined Chrome trace (one virtual thread per \
               accelerator / DMA engine / controller / PLM buffer, cycle \
               count as the timestamp domain, legs prefixed plain/ and \
               overlapped/) to $(docv); load it in Perfetto")

let timeline_json_flag =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the derived utilization metrics (per-leg cycle counts, \
               compute/transfer shares, overlap efficiency, idle cycles per \
               accelerator, port peak/mean) as JSON on stdout for scripting")

let timeline_cmd =
  let doc = "trace the simulated accelerator on its own cycle clock: emit \
             every modeled phase (DMA bursts, controller rounds, kernel \
             executions, the double-buffered pipeline) as a Chrome trace \
             plus derived utilization metrics; the phases are laid out by \
             the same block schedule the performance model totals, and an \
             overlapped leg the shape cannot double-buffer exits non-zero \
             with sim-overlap-infeasible under --overlap require" in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(
      const do_timeline $ file_arg $ name_arg $ factorize_arg $ decoupled_arg
      $ sharing_arg $ timeline_elements_arg $ k_arg $ m_arg
      $ overlap_policy_arg $ timeline_trace_arg $ timeline_json_flag
      $ log_arg $ log_level_arg $ flight_arg)

(* ---- profile command ---- *)

let do_profile file name factorize decoupled sharing elements sim_n jobs
    timeline_out oo =
  (* Tracing is always on for a profile run; the human summary prints
     unless the caller asked only for file sinks. *)
  obs_setup ~force_summary:(oo.oo_trace = None && oo.oo_metrics = None) oo;
  Obs.Trace.set_enabled true;
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise:false ~ii:1
      ~unroll:None
  in
  let r = compile_result src options in
  let diags =
    Obs.Trace.with_span "check" (fun () -> Cfd_core.Compile.check r)
  in
  (match
     Cfd_core.Compile.build_system ~n_elements:elements r
   with
  | exception Sysgen.Replicate.Infeasible msg ->
      prerr_endline ("cfdc: infeasible: " ^ msg);
      fatal ("infeasible: " ^ msg)
  | sys ->
      Sysgen.System.validate sys;
      let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board in
      let hw = Sim.Perf.run_hw ~system:sys ~board in
      (* Functional simulation of a small batch: enough to light up the
         engine, pool and DMA counters without replaying the full element
         count. It doubles as the memprof recorder run. *)
      let jobs = if jobs <= 0 then None else Some jobs in
      let snap =
        match Cfd_core.Costing.recorded_sim ?jobs ~system:sys ~n:sim_n r with
        | snap -> snap
        | exception Sim.Functional.Error msg -> simulation_failed msg
      in
      let audits = run_audits r in
      let mreport =
        Memprof.Report.make ~kernel:name ~sim:(sim_n, snap)
          (List.map snd audits)
      in
      Format.printf "kernel: %s (%s)@." name file;
      Format.printf "%a@." Hls.Model.pp_report r.Cfd_core.Compile.hls;
      (if diags = [] then Format.printf "check: OK@."
       else Format.printf "check: %s@." (Analysis.Diagnostic.summary diags));
      Format.printf "performance (%d elements): %a@." elements Sim.Perf.pp_hw hw;
      Format.printf "functional simulation: %d elements OK@." sim_n;
      Format.printf "%a@?" Memprof.Report.pp mreport;
      if not (Memprof.Report.passed mreport) then fatal "memprof audit failed";
      (* Device-cycle timeline leg: its PLM tracks join the audit of the
         compiled memgen mode run above. *)
      let treport =
        Cfd_core.Timeline.analyze
          ~audit:
            (Lazy.from_val
               (List.assoc r.Cfd_core.Compile.memory.Mnemosyne.Memgen.arch_mode
                  audits))
          ~n_elements:elements r
      in
      Format.printf "%a@?" Cfd_core.Timeline.pp_report treport;
      (match timeline_out with
      | Some path ->
          write_file path
            (Obs.Json.to_string (Cfd_core.Timeline.chrome_trace treport));
          Printf.printf "wrote %s\n" path
      | None -> ());
      if not (Cfd_core.Timeline.passed treport) then timeline_failed ())

let sim_elements_arg =
  Arg.(value & opt int 16 & info [ "sim-elements" ] ~docv:"N"
         ~doc:"Number of elements to run through the functional simulation")

let profile_timeline_arg =
  Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE"
         ~doc:"Write the device-cycle Chrome trace of the timeline leg to \
               $(docv) (see $(b,cfdc timeline))")

let profile_cmd =
  let doc = "compile, verify and simulate a kernel in one shot, and emit the \
             full telemetry breakdown (spans, counters, histograms) plus the \
             device-cycle timeline leg" in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const do_profile $ file_arg $ name_arg $ factorize_arg $ decoupled_arg
      $ sharing_arg $ elements_arg $ sim_elements_arg $ jobs_arg
      $ profile_timeline_arg $ obs_opts_term)

(* ---- cost command ---- *)

let do_cost file name factorize decoupled sharing fuse_pointwise ii unroll
    elements sim_n diff json_out cache_dir oo =
  obs_setup oo;
  let src = read_file file in
  let options =
    options_of ~name ~factorize ~decoupled ~sharing ~fuse_pointwise ~ii ~unroll
  in
  let cache = cache_of cache_dir in
  let r = compile_result ?cache src options in
  print_front_warnings ~name r;
  let report =
    match
      Cfd_core.Costing.analyze ~diff ~sim_n ?cache ~n_elements:elements r
    with
    | report -> report
    | exception Sim.Functional.Error msg ->
        prerr_endline ("cfdc: functional simulation failed: " ^ msg);
        fatal ("functional simulation failed: " ^ msg)
  in
  (match json_out with
  | Some path ->
      write_file path (Obs.Json.to_string (Cfd_core.Costing.to_json report));
      Printf.printf "wrote %s\n" path
  | None -> ());
  Format.printf "%a@?" Cfd_core.Costing.pp_report report;
  if Option.value ~default:[] report.Cfd_core.Costing.drift <> [] then
    fatal "cost drift"

let cost_diff_arg =
  Arg.(value & flag & info [ "diff" ]
         ~doc:"Cross-validate the static predictions against a recorded \
               functional simulation, the cycle-accurate performance model \
               and the memory profiler; any mismatch is a $(b,cost-drift-*) \
               diagnostic and the command exits non-zero")

let cost_json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write the full cost report (per-site trip counts, per-buffer \
               access and port-pressure predictions, DMA words, cycle \
               estimate, drift verdict) as JSON to $(docv)")

let cost_sim_elements_arg =
  Arg.(value & opt int 4 & info [ "sim-elements" ] ~docv:"N"
         ~doc:"Number of elements to run through the recorded functional \
               simulation when $(b,--diff) is given")

let cost_cmd =
  let doc = "statically predict a kernel's cost — trip counts, memory \
             traffic, port pressure, cycles — from the loop nest's \
             extents, and optionally cross-validate against the dynamic \
             instrumentation (see docs/ANALYSIS.md)" in
  Cmd.v (Cmd.info "cost" ~doc)
    Term.(
      const do_cost $ file_arg $ name_arg $ factorize_arg $ decoupled_arg
      $ sharing_arg $ fuse_pointwise_arg $ ii_arg $ unroll_arg $ elements_arg
      $ cost_sim_elements_arg $ cost_diff_arg $ cost_json_arg $ cache_dir_arg
      $ obs_opts_term)

(* ---- cache command ---- *)

let do_cache action dir_flag max_bytes =
  let dir =
    match dir_flag with
    | Some d -> d
    | None -> (
        match Sys.getenv_opt "CFDC_CACHE_DIR" with
        | Some d when d <> "" -> d
        | _ -> default_cache_dir)
  in
  let store = Cache.Store.create ~dir () in
  let print_stats () =
    let s = Cache.Store.stats store in
    Printf.printf "cache: %s\n" dir;
    Printf.printf "disk: %d entries, %d bytes\n" s.Cache.Store.st_disk_entries
      s.Cache.Store.st_disk_bytes;
    List.iter
      (fun (k : Cache.Store.kind_stats) ->
        Printf.printf "  %-14s %5d entries  %9d bytes\n" k.Cache.Store.k_kind
          k.Cache.Store.k_entries k.Cache.Store.k_bytes)
      s.Cache.Store.st_kinds;
    Printf.printf "session: %d hits, %d misses, %d evictions\n"
      s.Cache.Store.st_hits s.Cache.Store.st_misses s.Cache.Store.st_evictions
  in
  match action with
  | `Stat -> print_stats ()
  | `Gc ->
      let removed = Cache.Store.gc ?max_bytes store in
      Printf.printf "gc: removed %d file%s\n" removed
        (if removed = 1 then "" else "s");
      print_stats ()
  | `Clear ->
      let removed = Cache.Store.clear store in
      Printf.printf "clear: removed %d file%s\n" removed
        (if removed = 1 then "" else "s")

let cache_action_arg =
  Arg.(
    required
    & pos 0
        (some (enum [ ("stat", `Stat); ("gc", `Gc); ("clear", `Clear) ]))
        None
    & info [] ~docv:"ACTION"
        ~doc:"$(b,stat) prints the store's size by artifact kind plus this \
              session's hit/miss counters; $(b,gc) removes stale temp files \
              and, under $(b,--max-bytes), whole entries oldest-first until \
              the store fits; $(b,clear) empties the store")

let cache_max_bytes_arg =
  Arg.(value & opt (some int) None & info [ "max-bytes" ] ~docv:"N"
         ~doc:"Target size for $(b,gc): entries are removed oldest-first \
               until the store is at most $(docv) bytes")

let cache_cmd =
  let doc = "inspect and maintain the content-addressed artifact cache \
             (see docs/CACHING.md); the directory is $(b,--cache-dir), else \
             $(b,CFDC_CACHE_DIR), else .cfdc-cache" in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(const do_cache $ cache_action_arg $ cache_dir_arg $ cache_max_bytes_arg)

(* ---- version command ---- *)

let do_version json =
  if json then print_endline (Obs.Json.to_string (Cfd_core.Version.build_info ()))
  else Format.printf "%a@?" Cfd_core.Version.pp ()

let version_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the build identity as JSON (the object embedded in \
               provenance manifests and crash reports)")

let version_cmd =
  let doc = "print the tool version and the schema dialects it writes: cache \
             key framing, options fingerprint" in
  Cmd.v (Cmd.info "version" ~doc) Term.(const do_version $ version_json_arg)

(* ---- flight command ---- *)

let newest_crash_file dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             Filename.check_suffix n ".json"
             && String.length n >= 6
             && String.sub n 0 6 = "crash-")
      |> List.filter_map (fun n ->
             let path = Filename.concat dir n in
             match Unix.stat path with
             | st -> Some (st.Unix.st_mtime, path)
             | exception Unix.Unix_error _ -> None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> function [] -> None | (_, path) :: _ -> Some path

let show_bundle path =
  match Obs.Json.of_file path with
  | Error msg ->
      prerr_endline ("cfdc: flight: " ^ path ^ ": " ^ msg);
      exit 1
  | Ok t ->
      let str k =
        match Obs.Json.member k t with
        | Some (Obs.Json.String s) -> s
        | _ -> "?"
      in
      Printf.printf "bundle:  %s\n" path;
      Printf.printf "reason:  %s\n" (str "reason");
      (match Obs.Json.member "written_unix_time" t with
      | Some (Obs.Json.Float ts) -> Printf.printf "written: %.3f\n" ts
      | _ -> ());
      (match Obs.Json.member "provenance" t with
      | Some (Obs.Json.Obj _ as p) ->
          Printf.printf "provenance: %s\n" (Obs.Json.to_string p)
      | _ -> Printf.printf "provenance: (none)\n");
      (match Obs.Json.member "entries" t with
      | Some (Obs.Json.List es) ->
          Printf.printf "entries: %d\n" (List.length es);
          List.iter
            (fun e ->
              let f k =
                match Obs.Json.member k e with
                | Some (Obs.Json.String s) -> s
                | Some (Obs.Json.Int i) -> string_of_int i
                | Some (Obs.Json.Float x) -> Printf.sprintf "%.3f" x
                | _ -> "?"
              in
              match Obs.Json.member "kind" e with
              | Some (Obs.Json.String "span") ->
                  Printf.printf "  [span ] %8s us  tid %s  %s (%s us)\n"
                    (f "ts") (f "tid") (f "name") (f "dur")
              | Some (Obs.Json.String "log") ->
                  Printf.printf "  [%-5s] %8s us  tid %s  %s: %s\n" (f "level")
                    (f "ts") (f "tid") (f "scope") (f "msg")
              | _ -> Printf.printf "  [?    ] %s\n" (Obs.Json.to_string e))
            es
      | _ -> Printf.printf "entries: (none)\n");
      (match Obs.Json.member "metrics" t with
      | Some m -> (
          match Obs.Json.member "counters" m with
          | Some (Obs.Json.Obj cs) ->
              Printf.printf "metrics: %d counters\n" (List.length cs)
          | _ -> ())
      | None -> ())

let do_flight action file out =
  match action with
  | `Dump -> (
      let written =
        match out with
        | Some path ->
            Obs.Json.to_file path (Obs.Flight.bundle ~reason:"manual dump" ());
            Some path
        | None -> Obs.Flight.write_crash ~reason:"manual dump" ()
      in
      match written with
      | Some path -> Printf.printf "wrote %s\n" path
      | None ->
          prerr_endline "cfdc: flight: dump failed";
          exit 1)
  | `Show -> (
      match file with
      | Some path -> show_bundle path
      | None -> (
          match newest_crash_file (Obs.Flight.crash_dir ()) with
          | Some path -> show_bundle path
          | None ->
              prerr_endline
                ("cfdc: flight: no crash reports under "
                ^ Obs.Flight.crash_dir ());
              exit 1))

let flight_action_arg =
  Arg.(
    required
    & pos 0 (some (enum [ ("dump", `Dump); ("show", `Show) ])) None
    & info [] ~docv:"ACTION"
        ~doc:"$(b,dump) writes the recorder's current state as a bundle \
              (to $(b,--out), else a fresh file under the crash directory); \
              $(b,show) pretty-prints a bundle (the newest crash report when \
              no file is given)")

let flight_file_arg =
  Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE"
         ~doc:"Crash-report bundle to show")

let flight_out_arg =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Write the dump to $(docv) instead of the crash directory")

let flight_cmd =
  let doc = "dump or inspect flight-recorder bundles (crash reports); the \
             directory is $(b,CFDC_CRASH_DIR), else crash-reports/" in
  Cmd.v (Cmd.info "flight" ~doc)
    Term.(const do_flight $ flight_action_arg $ flight_file_arg $ flight_out_arg)

(* ---- entry point ---- *)

let build_info_flag =
  Arg.(value & flag & info [ "build-info" ]
         ~doc:"Print the build identity (tool version, cache key schema, \
               options fingerprint dialect) as JSON and exit")

let default_term =
  Term.(
    ret
      (const (fun build_info ->
           if build_info then begin
             print_endline
               (Obs.Json.to_string (Cfd_core.Version.build_info ()));
             `Ok ()
           end
           else `Help (`Auto, None))
      $ build_info_flag))

let main =
  let doc = "CFDlang-to-FPGA accelerator compiler (CLUSTER'21 reproduction)" in
  Cmd.group
    (Cmd.info "cfdc" ~version:Cfd_core.Version.tool ~doc)
    ~default:default_term
    [
      compile_cmd;
      check_cmd;
      report_cmd;
      system_cmd;
      emit_cmd;
      explore_cmd;
      cost_cmd;
      timeline_cmd;
      profile_cmd;
      memprof_cmd;
      cache_cmd;
      version_cmd;
      flight_cmd;
    ]

(* [~catch:false] so an uncaught exception reaches this top-level guard:
   with the flight recorder on it dumps the post-mortem bundle — recent
   spans (including a trapped pool worker's failing task), log events,
   metrics, cache stats, provenance — before the runtime reports the
   exception and the process dies. *)
let () =
  (match Sys.getenv_opt "CFDC_FLIGHT" with
  | Some ("1" | "true" | "on") -> Obs.Flight.set_enabled true
  | _ -> ());
  Obs.Flight.set_provenance (Some (Cfd_core.Version.manifest ()));
  try exit (Cmd.eval ~catch:false main)
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (if Obs.Flight.enabled () then
       match
         Obs.Flight.write_crash ~reason:("uncaught: " ^ Printexc.to_string e) ()
       with
       | Some path -> Printf.eprintf "cfdc: crash report: %s\n%!" path
       | None -> ());
    Printexc.raise_with_backtrace e bt
