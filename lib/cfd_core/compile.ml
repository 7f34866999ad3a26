type options = {
  kernel_name : string;
  factorize : bool;
  fuse_pointwise : bool;
  decoupled : bool;
  sharing : bool;
  pipeline_ii : int option;
  unroll : int option;
  static_check : bool;
}

let default_options =
  {
    kernel_name = "kernel";
    factorize = true;
    fuse_pointwise = false;
    decoupled = true;
    sharing = true;
    pipeline_ii = Some 1;
    unroll = None;
    static_check = false;
  }

type result = {
  opts : options;
  checked : Cfdlang.Check.checked;
  tir : Tir.Ir.kernel;
  program : Lower.Flow.program;
  schedule : Lower.Schedule.t;
  liveness : Liveness.Analysis.t;
  memory : Mnemosyne.Memgen.architecture;
  proc : Loopir.Prog.proc;
  c_source : string;
  hls : Hls.Model.report;
  mnemosyne_metadata : string;
}

exception Error of string

let validate_options o =
  (match o.unroll with
  | Some u when u < 1 ->
      raise (Error (Printf.sprintf "invalid unroll factor %d (must be >= 1)" u))
  | _ -> ());
  match o.pipeline_ii with
  | Some ii when ii < 1 ->
      raise
        (Error (Printf.sprintf "invalid pipeline II %d (must be >= 1)" ii))
  | _ -> ()

(* The Mnemosyne parameters the options select: the compile's own
   architecture and every PLM audit of it are generated under these. *)
let memgen_scope o =
  if o.decoupled then Mnemosyne.Memgen.All else Mnemosyne.Memgen.Interface_only

let memgen_mode o =
  if o.sharing then Mnemosyne.Memgen.Sharing else Mnemosyne.Memgen.No_sharing

let c_compile_runs = Obs.Metrics.counter "compile.runs"

(* One span per pipeline stage, nested under an outer "compile" span, so
   a trace of any driver shows where compilation time goes. A debug log
   event marks each stage entry so `--log --log-level debug` narrates
   the pipeline even in sinks that drop spans. *)
let stage name f =
  Obs.Log.debug ~scope:"compile" "stage %s" name;
  Obs.Trace.with_span ("compile." ^ name) f

(* Everything the board and simulator constants contribute to compiled
   artifacts and verdicts. The platform is process-wide today (one board
   model, one constant set), so the fingerprint is a constant string —
   but it still participates in every cache key, so a recalibration or a
   board-model change re-addresses the whole cache instead of serving
   stale artifacts. *)
let platform_fingerprint =
  let b = Fpga_platform.Board.zcu106 in
  let cap = b.Fpga_platform.Board.capacity in
  Printf.sprintf
    "board=%s part=%s lut=%d ff=%d dsp=%d bram18=%d fmax=%d host=%d axi=%d \
     bram-bits=%d bram-word=%d bram-depth=%d bram-ports=%d axi-eff=%.9g \
     arm-cpf=%.9g hls-pen=%.9g handshake=%d"
    b.Fpga_platform.Board.board_name b.Fpga_platform.Board.part
    cap.Fpga_platform.Resource.lut cap.Fpga_platform.Resource.ff
    cap.Fpga_platform.Resource.dsp cap.Fpga_platform.Resource.bram18
    b.Fpga_platform.Board.fmax_mhz b.Fpga_platform.Board.host_clock_mhz
    b.Fpga_platform.Board.axi_bytes_per_cycle Fpga_platform.Bram.bits
    Fpga_platform.Bram.word_width Fpga_platform.Bram.depth
    Fpga_platform.Bram.ports Sim.Constants.axi_efficiency
    Sim.Constants.arm_cycles_per_flop Sim.Constants.hls_code_cpu_penalty
    Sim.Constants.controller_handshake_cycles

(* Bumped whenever the rendering below changes shape (a field added,
   removed or reordered), so provenance manifests and crash reports can
   say which fingerprint dialect they embed. *)
let options_fingerprint_version = 1

(* [static_check] is deliberately absent: it selects whether the verdict
   is consulted during [compile], not what any artifact contains. *)
let options_fingerprint o =
  Printf.sprintf
    "kernel=%s factorize=%b fuse=%b decoupled=%b sharing=%b ii=%s unroll=%s"
    o.kernel_name o.factorize o.fuse_pointwise o.decoupled o.sharing
    (match o.pipeline_ii with None -> "none" | Some ii -> string_of_int ii)
    (match o.unroll with None -> "none" | Some u -> string_of_int u)

let cache_key ?(extra = []) ~options ast =
  Cache.Key.make
    ([
       ("source", Cfdlang.Ast.to_string ast);
       ("options", options_fingerprint options);
       ("platform", platform_fingerprint);
     ]
    @ extra)

let rec compile ?cache ?(options = default_options) ast =
  Obs.Metrics.incr c_compile_runs;
  Obs.Trace.with_span
    ~attrs:[ ("kernel", options.kernel_name) ]
    "compile"
    (fun () ->
      let r = compile_cached ?cache ~options ast in
      Obs.Log.info ~scope:"compile" "compiled kernel %s" options.kernel_name;
      r)

(* The cache stores only the pure back-half products; the front half
   (typed AST through liveness) carries hash-consed [Poly.Basic_set]
   values whose ids are process-local, so a warm compile recomputes it
   and grafts the cached products on — bit-identical to a cold compile
   because every back-half stage is a deterministic function of the
   (source, options, platform) triple the key digests. *)
and compile_cached ?cache ~options ast =
  validate_options options;
  let result =
    match cache with
    | None -> compile_stages ~options ast
    | Some store -> (
        let key = cache_key ~options ast in
        match Cache.Artifact.find_products store key with
        | Some p ->
            let checked, tir, program, schedule, liveness =
              front_stages ~options ast
            in
            {
              opts = options;
              checked;
              tir;
              program;
              schedule;
              liveness;
              memory = p.Cache.Artifact.a_memory;
              proc = p.Cache.Artifact.a_proc;
              c_source = p.Cache.Artifact.a_c_source;
              hls = p.Cache.Artifact.a_hls;
              mnemosyne_metadata = p.Cache.Artifact.a_metadata;
            }
        | None ->
            let r = compile_stages ~options ast in
            Cache.Artifact.store_products store key
              {
                Cache.Artifact.a_memory = r.memory;
                a_proc = r.proc;
                a_c_source = r.c_source;
                a_hls = r.hls;
                a_metadata = r.mnemosyne_metadata;
              };
            r)
  in
  if options.static_check then begin
    let errors =
      stage "static-check" (fun () ->
          Analysis.Diagnostic.errors (check ?cache result))
    in
    if errors <> [] then
      raise
        (Error
           (Format.asprintf "static check failed: %s@\n%a"
              (Analysis.Diagnostic.summary errors)
              (Format.pp_print_list Analysis.Diagnostic.pp)
              errors))
  end;
  result

and front_stages ~options ast =
  let checked =
    stage "frontend" (fun () ->
        match Cfdlang.Check.check ast with
        | Ok c -> c
        | Error e -> raise (Error (Format.asprintf "%a" Cfdlang.Check.pp_error e)))
  in
  let tir =
    stage "tir" (fun () ->
        let tir = Tir.Builder.build ~name:options.kernel_name checked in
        Tir.Transform.optimize ~factorize_contractions:options.factorize tir)
  in
  let program =
    stage "lower" (fun () ->
        let program = Lower.Flow.of_kernel ~name:options.kernel_name tir in
        Lower.Flow.validate program;
        program)
  in
  let resched_options =
    {
      Lower.Reschedule.default with
      Lower.Reschedule.fuse_pointwise = options.fuse_pointwise;
    }
  in
  let schedule =
    stage "reschedule" (fun () ->
        Lower.Reschedule.compute ~options:resched_options program)
  in
  let liveness =
    stage "liveness" (fun () -> Liveness.Analysis.analyze program schedule)
  in
  (checked, tir, program, schedule, liveness)

and compile_stages ~options ast =
  let checked, tir, program, schedule, liveness = front_stages ~options ast in
  let memory =
    stage "mnemosyne" (fun () ->
        Mnemosyne.Memgen.generate ~scope:(memgen_scope options)
          ~unroll:(Option.value ~default:1 options.unroll)
          ~mode:(memgen_mode options) program schedule)
  in
  let codegen_options =
    {
      Lower.Codegen.exported_temps = options.decoupled;
      pipeline_ii = options.pipeline_ii;
      unroll = options.unroll;
    }
  in
  let proc =
    stage "codegen" (fun () ->
        Lower.Codegen.generate ~options:codegen_options
          ~storage:memory.Mnemosyne.Memgen.storage program schedule)
  in
  let proc = stage "scalarize" (fun () -> Loopir.Scalarize.optimize proc) in
  let header =
    Printf.sprintf
      "Generated by cfd_accel from CFDlang kernel '%s'\n\
       factorize=%b decoupled=%b sharing=%b"
      options.kernel_name options.factorize options.decoupled options.sharing
  in
  let c_source = stage "emit-c" (fun () -> Loopir.Emit.c_source ~header proc) in
  let hls = stage "hls" (fun () -> Hls.Model.analyze proc) in
  let mnemosyne_metadata =
    stage "metadata" (fun () -> Mnemosyne.Memgen.metadata program schedule)
  in
  {
    opts = options;
    checked;
    tir;
    program;
    schedule;
    liveness;
    memory;
    proc;
    c_source;
    hls;
    mnemosyne_metadata;
  }

and check ?cache result =
  let verdict =
    match cache with
    | None -> check_fresh result
    | Some store -> (
        let key =
          cache_key ~options:result.opts result.checked.Cfdlang.Check.program
        in
        match Cache.Artifact.find_verdict store key with
        | Some verdict -> verdict
        | None ->
            let verdict = check_fresh result in
            Cache.Artifact.store_verdict store key verdict;
            verdict)
  in
  Obs.Log.info ~scope:"verify" "checked kernel %s: %d diagnostic(s)"
    result.opts.kernel_name (List.length verdict);
  verdict

and check_fresh result =
  let front =
    List.map
      (fun w ->
        Analysis.Diagnostic.warning ~rule:"front-unused"
          ~subject:result.opts.kernel_name w)
      (Cfdlang.Check.warnings result.checked)
  in
  front
  @ Analysis.Verify.all
      ~unroll:(Option.value ~default:1 result.opts.unroll)
      ~program:result.program ~schedule:result.schedule ~memory:result.memory
      ~proc:result.proc ()

let compile_source ?cache ?options src =
  match Cfdlang.Parser.parse src with
  | exception Cfdlang.Parser.Error (pos, msg) ->
      Result.Error
        (Printf.sprintf "parse error at %d:%d: %s" pos.Cfdlang.Lexer.line
           pos.Cfdlang.Lexer.col msg)
  | exception Cfdlang.Lexer.Error (pos, msg) ->
      Result.Error
        (Printf.sprintf "lexical error at %d:%d: %s" pos.Cfdlang.Lexer.line
           pos.Cfdlang.Lexer.col msg)
  | ast -> (
      match compile ?cache ?options ast with
      | r -> Result.Ok r
      | exception Error msg -> Result.Error msg)

let buffer_of result array =
  match List.assoc_opt array result.memory.Mnemosyne.Memgen.storage with
  | Some (buffer, offset) -> (buffer, offset)
  | None -> (array, 0)

let audit ?mode result =
  Memprof.Audit.run ~scope:(memgen_scope result.opts)
    ~unroll:(Option.value ~default:1 result.opts.unroll)
    ~mode:(Option.value mode ~default:(memgen_mode result.opts))
    result.program result.schedule

let engine result =
  Loopir.Compiled.compile
    ~mode:(Analysis.Verify.execution_mode result.proc)
    result.proc

let verify ?(seed = 0) ?(tol = 1e-8) result =
  let inputs = Cfdlang.Eval.random_inputs ~seed result.checked in
  let expected = Cfdlang.Eval.run result.checked inputs in
  (* Stage each input into its storage buffer at its offset and run the
     compiled engine (Loopir.Interp is the reference semantics; the two
     are differentially tested bit-identical). *)
  let exec = engine result in
  let frame = Loopir.Compiled.make_frame exec in
  let frame_buffer buffer =
    match Loopir.Compiled.buffer exec frame buffer with
    | buf -> Some buf
    | exception Loopir.Compiled.Error _ -> None
  in
  List.iter
    (fun (name, tensor) ->
      let buffer, offset = buffer_of result name in
      match frame_buffer buffer with
      | None -> raise (Error ("input buffer missing: " ^ buffer))
      | Some buf ->
          let data = Tensor.Dense.to_array tensor in
          Array.blit data 0 buf offset (Array.length data))
    inputs;
  Loopir.Compiled.run exec frame;
  List.for_all
    (fun (name, expected_tensor) ->
      let buffer, offset = buffer_of result name in
      match frame_buffer buffer with
      | None -> false
      | Some buf ->
          let shape = Tensor.Dense.shape expected_tensor in
          let n = Tensor.Shape.num_elements shape in
          let got = Tensor.Dense.of_array shape (Array.sub buf offset n) in
          Tensor.Dense.equal ~tol got expected_tensor)
    expected

let build_system ?config ?force_k ?force_m ~n_elements result =
  Sysgen.System.build ?config ?force_k ?force_m ~kernel:result.hls
    ~memory:result.memory ~program:result.program ~n_elements ()

let emit_all result (sys : Sysgen.System.t) =
  let name = result.opts.kernel_name in
  [
    (name ^ ".c", result.c_source);
    (name ^ ".mnemosyne", result.mnemosyne_metadata);
    (name ^ "_plm.v", Mnemosyne.Plm_emit.verilog result.memory);
    (name ^ "_host.c", Sysgen.Host_emit.c_host_source ~kernel_name:name sys);
    (name ^ "_host.h", Sysgen.Host_emit.c_header ~kernel_name:name sys);
    ( name ^ "_ctrl.v",
      Sysgen.Hdl_emit.controller_verilog
        ~k:sys.Sysgen.System.solution.Sysgen.Replicate.k
        ~batch:sys.Sysgen.System.solution.Sysgen.Replicate.batch );
    (name ^ "_system.v", Sysgen.Hdl_emit.top_verilog ~kernel_name:name sys);
    (name ^ "_accel.hpp", Sysgen.Bindings_emit.cpp_header ~kernel_name:name sys);
    (name ^ "_accel.f90", Sysgen.Bindings_emit.fortran_module ~kernel_name:name sys);
  ]

let simulate ?config ?force_k ?force_m ~n_elements result =
  let system = build_system ?config ?force_k ?force_m ~n_elements result in
  Sysgen.System.validate system;
  let board =
    match config with
    | Some c -> c.Sysgen.Replicate.board
    | None -> Sysgen.Replicate.default_config.Sysgen.Replicate.board
  in
  Sim.Perf.run_hw ~system ~board
