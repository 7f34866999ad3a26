(* The benchmark's workloads: what one operation is, the inputs it draws
   from, and the oracle its outputs are checked against. Every call goes
   through the public API of cfd_core, cache, sim and memprof; traced
   operations additionally replay the flow stage by stage so each layer's
   time is seen where it is paid. *)

module Compile = Cfd_core.Compile
module Costing = Cfd_core.Costing
module Explore = Cfd_core.Explore

let span = Harness.span
let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board

(* The element count of the paper's CFD simulation; every flow request
   and sweep sizes its system for it. *)
let n_elements = 50_000

(* The domains of the parallel variants that traced rounds add: never
   more than the host has cores. End-to-end operations run in one
   domain: on a shared two-core host a two-domain operation waits for
   whichever core another tenant is slowing, and its time varies run to
   run by more than any bound worth gating on. *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---------- inputs ---------- *)

type source = { label : string; kernel : string; text : string }

(* kernels/helmholtz.cfd (the p = 11 instance) at any extent. *)
let helmholtz_text p =
  let dims k =
    "[" ^ String.concat " " (List.init k (fun _ -> string_of_int p)) ^ "]"
  in
  String.concat "\n"
    [
      Printf.sprintf "// helmholtz operator (p = %d): mass term plus laplacian" p;
      "var input A : " ^ dims 2;
      "var input Id : " ^ dims 2;
      "var input W : " ^ dims 3;
      "var input u : " ^ dims 3;
      "var output v : " ^ dims 3;
      "var t1 : " ^ dims 3;
      "var t2 : " ^ dims 3;
      "var t3 : " ^ dims 3;
      "var m : " ^ dims 3;
      "t1 = A # u . [[1 2]]";
      "t2 = Id # A # u . [[1 4] [3 5]]";
      "t3 = Id # Id # A # u . [[1 6] [3 7] [5 8]]";
      "m = W * u";
      "v = m + t1 + t2 + t3";
      "";
    ]

let source kernel p text =
  { label = Printf.sprintf "%s@p%d" kernel p; kernel; text }

let operator_sources p =
  List.map
    (fun (kernel, ast) -> source kernel p (Cfdlang.Ast.to_string ast))
    (Cfdlang.Operators.all ~p ())

(* Sixteen kernels a cfdc user compiles: every library operator at three
   polynomial extents, plus the helmholtz kernel shipped in kernels/. *)
let flow_sources () =
  List.concat_map operator_sources [ 7; 9; 11 ]
  @ [ source "helmholtz" 11 (helmholtz_text 11) ]

(* p = 6 keeps one sweep near a quarter of a second, so a run holds
   enough sweeps of every kernel for a median and a tail; at p = 11 one
   sweep of inverse_helmholtz alone takes seconds. *)
let sweep_sources () =
  source "helmholtz" 6 (helmholtz_text 6)
  :: List.filter
       (fun s ->
         List.mem s.kernel [ "inverse_helmholtz"; "laplacian"; "interpolation" ])
       (operator_sources 6)

let sim_kernels = [ "inverse_helmholtz"; "laplacian"; "interpolation" ]
let options_for kernel = { Compile.default_options with Compile.kernel_name = kernel }

(* ---------- the oracle ---------- *)

let expected =
  lazy
    (match Obs.Json.parse Expected_json.contents with
    | Ok j -> j
    | Error e -> failwith ("benchmark/expected.json: " ^ e))

(* [None] when [actual] is the pinned value at [section.key]. *)
let mismatch section key actual =
  match
    Option.bind (Obs.Json.member section (Lazy.force expected)) (Obs.Json.member key)
  with
  | Some e when e = actual -> None
  | Some e ->
      Some
        (Printf.sprintf "%s: expected %s, got %s" key (Obs.Json.to_string e)
           (Obs.Json.to_string actual))
  | None -> Some (Printf.sprintf "%s: nothing pinned in %s" key section)

(* The paper's reproduction: 31 -> 18 BRAM18 per kernel from Mnemosyne
   sharing, and 7.10x / 12.58x total speedup at k = 8 / 16 over k = 1,
   for inverse_helmholtz at p = 11. *)
let paper_model () =
  let ast = Cfdlang.Operators.inverse_helmholtz ~p:11 () in
  let compile sharing =
    Compile.compile
      ~options:{ (options_for "inverse_helmholtz") with Compile.sharing }
      ast
  in
  let shared = compile true in
  let brams r = Obs.Json.Int r.Compile.memory.Mnemosyne.Memgen.total_brams in
  let hw k =
    Sim.Perf.run_hw ~board
      ~system:(Compile.build_system ~force_k:k ~n_elements shared)
  in
  let baseline = hw 1 in
  let speedup k =
    Obs.Json.Float
      (Float.round (Sim.Perf.total_speedup ~baseline (hw k) *. 100.) /. 100.)
  in
  [
    ("bram18_no_sharing", brams (compile false));
    ("bram18_sharing", brams shared);
    ("total_speedup_k8", speedup 8);
    ("total_speedup_k16", speedup 16);
  ]

let paper_failures () =
  List.filter_map (fun (key, v) -> mismatch "paper" key v) (paper_model ())

let bit_identical a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let close a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= 1e-8 *. Float.max 1. (Float.abs y))
       a b

(* ---------- workload interface ---------- *)

type op = {
  wall : float;  (** seconds *)
  scale : float;  (** to the reference host, see {!Harness.scaled} *)
  work : int;
  failures : string list;
}

type instance = {
  inputs : string array;  (** one label per distinct input *)
  oracle : unit -> string list;
      (** the checks made once per set-up, outside the timed region *)
  op : traced:bool -> int -> op;
  replica_identical : unit -> bool;
      (** every traced replica so far produced the untraced path's
          outputs *)
  designs : unit -> (int * int) list;
      (** (modeled total cycles, BRAM18 per kernel) of each distinct
          design served so far *)
}

type t = {
  name : string;
  root : string;  (** the span around one operation *)
  primary : string;
      (** the span that times the same work as an untraced operation *)
  setup : seed:int -> dir:string -> instance;
}

(* ---------- flows ---------- *)

type product = {
  result : Compile.result;
  verdict : Analysis.Diagnostic.t list;
  estimate : Analysis.Cost.cycle_estimate;
  hw : Sim.Perf.hw_result;
  files : (string * string) list;
}

let bram18 (r : Compile.result) =
  r.Compile.memory.Mnemosyne.Memgen.total_brams
  + r.Compile.hls.Hls.Model.resources.Fpga_platform.Resource.bram18

(* Everything after the verdict, in the order cfdc runs it. *)
let back_half ~verdict result =
  let cost = span "analysis.cost" (fun () -> Costing.static result) in
  let system =
    span "sysgen.build" (fun () ->
        let system = Compile.build_system ~n_elements result in
        Sysgen.System.validate system;
        system)
  in
  let estimate =
    span "analysis.cost" (fun () -> Costing.estimate ~board ~system result cost)
  in
  let hw = span "sim.perf" (fun () -> Sim.Perf.run_hw ~system ~board) in
  let files = span "sysgen.emit" (fun () -> Compile.emit_all result system) in
  { result; verdict; estimate; hw; files }

(* One cfdc request as a user's process pays for it. *)
let request ?store ~options text =
  match Compile.compile_source ?cache:store ~options text with
  | Error msg -> failwith msg
  | Ok result -> back_half ~verdict:(Compile.check ?cache:store result) result

(* The C header Compile.compile writes, which the replica must reproduce
   for its products to be identical. *)
let c_header (o : Compile.options) =
  Printf.sprintf
    "Generated by cfd_accel from CFDlang kernel '%s'\n\
     factorize=%b decoupled=%b sharing=%b"
    o.Compile.kernel_name o.Compile.factorize o.Compile.decoupled
    o.Compile.sharing

(* The same request with every stage Compile.compile and Compile.check
   compose called one by one, each in its own span. *)
let replica ~store ~(options : Compile.options) text =
  let name = options.Compile.kernel_name in
  let ast = span "cfdlang.parse" (fun () -> Cfdlang.Parser.parse text) in
  let checked =
    span "cfdlang.check" (fun () ->
        match Cfdlang.Check.check ast with
        | Ok c -> c
        | Error e -> failwith (Format.asprintf "%a" Cfdlang.Check.pp_error e))
  in
  let tir =
    span "tir.build" (fun () ->
        Tir.Transform.optimize ~factorize_contractions:options.Compile.factorize
          (Tir.Builder.build ~name checked))
  in
  let program =
    span "lower.flow" (fun () ->
        let program = Lower.Flow.of_kernel ~name tir in
        Lower.Flow.validate program;
        program)
  in
  let schedule =
    span "lower.reschedule" (fun () ->
        Lower.Reschedule.compute
          ~options:
            {
              Lower.Reschedule.default with
              Lower.Reschedule.fuse_pointwise = options.Compile.fuse_pointwise;
            }
          program)
  in
  let liveness =
    span "liveness.analyze" (fun () -> Liveness.Analysis.analyze program schedule)
  in
  let key = Compile.cache_key ~options ast in
  let unroll = Option.value ~default:1 options.Compile.unroll in
  let products =
    match span "cache.lookup" (fun () -> Cache.Artifact.find_products store key) with
    | Some p -> p
    | None ->
        let memory =
          span "mnemosyne.generate" (fun () ->
              Mnemosyne.Memgen.generate
                ~scope:
                  (if options.Compile.decoupled then Mnemosyne.Memgen.All
                   else Mnemosyne.Memgen.Interface_only)
                ~unroll
                ~mode:
                  (if options.Compile.sharing then Mnemosyne.Memgen.Sharing
                   else Mnemosyne.Memgen.No_sharing)
                program schedule)
        in
        let proc =
          span "lower.codegen" (fun () ->
              Lower.Codegen.generate
                ~options:
                  {
                    Lower.Codegen.exported_temps = options.Compile.decoupled;
                    pipeline_ii = options.Compile.pipeline_ii;
                    unroll = options.Compile.unroll;
                  }
                ~storage:memory.Mnemosyne.Memgen.storage program schedule)
        in
        let proc = span "loopir.scalarize" (fun () -> Loopir.Scalarize.optimize proc) in
        let c_source =
          span "loopir.emit_c" (fun () ->
              Loopir.Emit.c_source ~header:(c_header options) proc)
        in
        let hls = span "hls.analyze" (fun () -> Hls.Model.analyze proc) in
        let metadata =
          span "mnemosyne.metadata" (fun () ->
              Mnemosyne.Memgen.metadata program schedule)
        in
        let p =
          {
            Cache.Artifact.a_memory = memory;
            a_proc = proc;
            a_c_source = c_source;
            a_hls = hls;
            a_metadata = metadata;
          }
        in
        span "cache.store" (fun () -> Cache.Artifact.store_products store key p);
        p
  in
  let result =
    {
      Compile.opts = options;
      checked;
      tir;
      program;
      schedule;
      liveness;
      memory = products.Cache.Artifact.a_memory;
      proc = products.Cache.Artifact.a_proc;
      c_source = products.Cache.Artifact.a_c_source;
      hls = products.Cache.Artifact.a_hls;
      mnemosyne_metadata = products.Cache.Artifact.a_metadata;
    }
  in
  let verdict =
    match span "cache.lookup" (fun () -> Cache.Artifact.find_verdict store key) with
    | Some v -> v
    | None ->
        let v =
          span "analysis.verify" (fun () ->
              List.map
                (fun w ->
                  Analysis.Diagnostic.warning ~rule:"front-unused" ~subject:name w)
                (Cfdlang.Check.warnings checked)
              @ Analysis.Verify.all ~unroll ~program ~schedule
                  ~memory:result.Compile.memory ~proc:result.Compile.proc ())
        in
        span "cache.store" (fun () -> Cache.Artifact.store_verdict store key v);
        v
  in
  back_half ~verdict result

(* The products a user sees; the front half (hash-consed polyhedral
   state) has no stable identity across compiles and is left out. *)
let same_product a b =
  let r = a.result and r' = b.result in
  compare
    ( r.Compile.memory,
      r.Compile.proc,
      r.Compile.c_source,
      r.Compile.hls,
      r.Compile.mnemosyne_metadata )
    ( r'.Compile.memory,
      r'.Compile.proc,
      r'.Compile.c_source,
      r'.Compile.hls,
      r'.Compile.mnemosyne_metadata )
  = 0
  && compare (a.verdict, a.estimate, a.hw, a.files) (b.verdict, b.estimate, b.hw, b.files)
     = 0

let flow_model p =
  Obs.Json.Obj
    [
      ("total_cycles", Obs.Json.Int p.hw.Sim.Perf.total_cycles);
      ("k", Obs.Json.Int p.hw.Sim.Perf.k);
      ("m", Obs.Json.Int p.hw.Sim.Perf.m);
      ("bram18", Obs.Json.Int (bram18 p.result));
    ]

let flow_failures s p =
  List.filter_map Fun.id
    [
      (match Analysis.Diagnostic.errors p.verdict with
      | [] -> None
      | errors -> Some ("static check failed: " ^ Analysis.Diagnostic.summary errors));
      (if p.estimate.Analysis.Cost.ce_total_cycles = p.hw.Sim.Perf.total_cycles
       then None
       else Some "cost estimate disagrees with Sim.Perf");
      mismatch "flows" s.label (flow_model p);
      (if List.length p.files = 9 && List.for_all (fun (_, c) -> c <> "") p.files
       then None
       else Some "emit_all: missing or empty artifact");
    ]
  |> List.map (fun m -> s.label ^ ": " ^ m)

(* flow-cold empties the artifact store before every request (outside the
   timed region); flow-warm fills it once in set-up and opens it afresh in
   every request, so each lookup is a disk-tier hit. *)
let flow ~warm ~seed:_ ~dir =
  let sources = Array.of_list (flow_sources ()) in
  let store_dir = Filename.concat dir "store" in
  let store = Cache.Store.create ~dir:store_dir () in
  if warm then
    Array.iter
      (fun s ->
        match Compile.compile_source ~cache:store ~options:(options_for s.kernel) s.text with
        | Ok r -> ignore (Compile.check ~cache:store r)
        | Error msg -> failwith (s.label ^ ": " ^ msg))
      sources;
  let verified = Array.make (Array.length sources) false in
  let compared = Array.make (Array.length sources) false in
  let identical = ref true in
  let designs = Hashtbl.create 16 in
  let op ~traced i =
    let s = sources.(i) in
    let options = options_for s.kernel in
    if not warm then ignore (Cache.Store.clear store);
    Poly.Memo.clear_all ();
    let wall, scale, p =
      Harness.timed "request" (fun () ->
          let store = if warm then Cache.Store.create ~dir:store_dir () else store in
          if traced then replica ~store ~options s.text
          else request ~store ~options s.text)
    in
    Hashtbl.replace designs i (p.hw.Sim.Perf.total_cycles, bram18 p.result);
    let failures = flow_failures s p in
    let failures =
      if verified.(i) then failures
      else begin
        verified.(i) <- true;
        if Compile.verify p.result then failures
        else (s.label ^ ": generated kernel disagrees with Cfdlang.Eval") :: failures
      end
    in
    if traced && not compared.(i) then begin
      compared.(i) <- true;
      Poly.Memo.clear_all ();
      if not (same_product p (Harness.untraced (fun () -> request ~options s.text)))
      then begin
        identical := false;
        prerr_endline (s.label ^ ": traced replica differs from Compile.compile")
      end
    end;
    { wall; scale; work = 1; failures }
  in
  {
    inputs = Array.map (fun s -> s.label) sources;
    oracle = paper_failures;
    op;
    replica_identical = (fun () -> !identical);
    designs = (fun () -> Hashtbl.fold (fun _ d acc -> d :: acc) designs []);
  }

(* ---------- design-space sweeps ---------- *)

let sweep_model outcomes =
  let label (o : Explore.outcome) = Obs.Json.String o.Explore.configuration.Explore.label in
  Obs.Json.Obj
    [
      ("pareto", Obs.Json.List (List.map label (Explore.pareto outcomes)));
      ( "outcomes",
        Obs.Json.List
          (List.map
             (fun (o : Explore.outcome) ->
               Obs.Json.Obj
                 [
                   ("label", label o);
                   ("feasible", Obs.Json.Bool o.Explore.feasible);
                   ("max_replicas", Obs.Json.Int o.Explore.max_replicas);
                   ("plm_brams", Obs.Json.Int o.Explore.plm_brams);
                 ])
             outcomes) );
    ]

(* One configuration of a sweep, stage by stage: pool tasks are not
   visible from outside, so the traced sweep replays each configuration
   sequentially. [None] when the configuration is pruned or infeasible. *)
let replica_configuration ast (c : Explore.configuration) =
  span "explore.config" (fun () ->
      let options = { c.Explore.options with Compile.static_check = false } in
      match
        let r = span "cfd_core.compile" (fun () -> Compile.compile ~options ast) in
        match Analysis.Diagnostic.errors (span "analysis.verify" (fun () -> Compile.check r)) with
        | _ :: _ -> None
        | [] ->
            let system =
              span "sysgen.build" (fun () ->
                  let system = Compile.build_system ~n_elements r in
                  Sysgen.System.validate system;
                  system)
            in
            ignore
              (span "analysis.cost" (fun () ->
                   Costing.estimate ~board ~system r (Costing.static r)));
            let hw = span "sim.perf" (fun () -> Sim.Perf.run_hw ~system ~board) in
            Some (r, system, hw)
      with
      | v -> v
      | exception _ -> None)

let same_outcome (o : Explore.outcome) = function
  | None -> not o.Explore.feasible
  | Some (r, system, hw) ->
      o.Explore.feasible
      && o.Explore.plm_brams = r.Compile.memory.Mnemosyne.Memgen.total_brams
      && o.Explore.max_replicas
         = system.Sysgen.System.solution.Sysgen.Replicate.m
      && o.Explore.seconds = hw.Sim.Perf.total_seconds

let sweep ~seed:_ ~dir:_ =
  let sources = Array.of_list (sweep_sources ()) in
  let asts = Array.map (fun s -> Cfdlang.Parser.parse s.text) sources in
  let identical = ref true in
  let designs = Hashtbl.create 32 in
  let op ~traced i =
    let s = sources.(i) and ast = asts.(i) in
    Poly.Memo.clear_all ();
    let wall, scale, (outcomes, parallel) =
      Harness.timed "sweep" (fun () ->
          let outcomes =
            span "explore.sweep" (fun () -> Explore.sweep ~jobs:1 ~n_elements ast)
          in
          let parallel =
            if traced && jobs > 1 then begin
              Poly.Memo.clear_all ();
              Some
                (span "explore.sweep_parallel" (fun () ->
                     Explore.sweep ~jobs ~n_elements ast))
            end
            else None
          in
          if traced then begin
            Poly.Memo.clear_all ();
            let replicas =
              List.map (replica_configuration ast) Explore.standard_configurations
            in
            List.iteri
              (fun j -> function
                | Some (r, _, hw) ->
                    Hashtbl.replace designs (i, j) (hw.Sim.Perf.total_cycles, bram18 r)
                | None -> ())
              replicas;
            if not (List.for_all2 same_outcome outcomes replicas) then begin
              identical := false;
              prerr_endline (s.label ^ ": traced replica differs from Explore.sweep")
            end
          end;
          (outcomes, parallel))
    in
    (match parallel with
    | Some p when p <> outcomes ->
        identical := false;
        prerr_endline (s.label ^ ": the parallel sweep differs from jobs:1")
    | _ -> ());
    {
      wall;
      scale;
      work = List.length outcomes;
      failures =
        Option.to_list
          (Option.map
             (fun m -> s.label ^ ": " ^ m)
             (mismatch "sweeps" s.label (sweep_model outcomes)));
    }
  in
  {
    inputs = Array.map (fun s -> s.label) sources;
    oracle = paper_failures;
    op;
    replica_identical = (fun () -> !identical);
    designs = (fun () -> Hashtbl.fold (fun _ d acc -> d :: acc) designs []);
  }

(* ---------- functional simulation ---------- *)

(* Elements draw their inputs from a small seeded pool so the reference
   outputs can be computed once per run: element [e] gets entry
   [e mod pool_size]. *)
let pool_size = 2

type sim_kernel = {
  kernel : string;
  result : Compile.result;
  pool : Cfdlang.Eval.bindings array;
  arrays : (string * float array) list array;
  engine : Loopir.Compiled.t;
  frame : Loopir.Compiled.frame;  (** staged with pool entry 0 *)
  mutable reference : (string * float array) list array;
}

let to_arrays = List.map (fun (n, t) -> (n, Tensor.Dense.to_array t))

let sim_kernel ~seed name =
  let ast = List.assoc name (Cfdlang.Operators.all ~p:11 ()) in
  let result = Compile.compile ~options:(options_for name) ast in
  let pool =
    Array.init pool_size (fun j ->
        Cfdlang.Eval.random_inputs ~seed:(Hashtbl.hash (seed, name, j))
          result.Compile.checked)
  in
  let engine = span "loopir.engine_compile" (fun () -> Compile.engine result) in
  let frame = Loopir.Compiled.make_frame engine in
  List.iter
    (fun (array, data) ->
      let buffer, offset =
        Option.value ~default:(array, 0)
          (List.assoc_opt array result.Compile.memory.Mnemosyne.Memgen.storage)
      in
      Array.blit data 0 (Loopir.Compiled.buffer engine frame buffer) offset
        (Array.length data))
    (to_arrays pool.(0));
  {
    kernel = name;
    result;
    pool;
    arrays = Array.map to_arrays pool;
    engine;
    frame;
    reference = [||];
  }

let sim_cases ~seed ~sizes =
  List.concat_map
    (fun name ->
      let k = sim_kernel ~seed name in
      List.map
        (fun n ->
          let system = Compile.build_system ~n_elements:n k.result in
          Sysgen.System.validate system;
          (k, n, system))
        sizes)
    sim_kernels
  |> Array.of_list

(* Reference outputs of the pool from Cfdlang.Eval, and the paper
   numbers. *)
let sim_oracle cases () =
  Array.iter
    (fun (k, _, _) ->
      if Array.length k.reference = 0 then
        k.reference <-
          Array.map
            (fun inputs -> to_arrays (Cfdlang.Eval.run k.result.Compile.checked inputs))
            k.pool)
    cases;
  paper_failures ()

(* The first and last element of a batch against the reference. *)
let output_failures k (results : (string * float array) list array) n =
  List.filter_map
    (fun e ->
      let ok =
        List.for_all
          (fun (array, want) ->
            match List.assoc_opt array results.(e) with
            | Some got -> close got want
            | None -> false)
          k.reference.(e mod pool_size)
      in
      if ok then None
      else Some (Printf.sprintf "%s: element %d disagrees with Cfdlang.Eval" k.kernel e))
    (List.sort_uniq compare [ 0; n - 1 ])

let all_bit_identical a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         List.length x = List.length y
         && List.for_all2
              (fun (n, u) (n', v) -> n = n' && bit_identical u v)
              x y)
       a b

let sim_instance cases op =
  {
    inputs = Array.map (fun (k, n, _) -> Printf.sprintf "%s/n%d" k.kernel n) cases;
    oracle = sim_oracle cases;
    op;
    replica_identical = (fun () -> true);
    designs =
      (fun () ->
        Array.to_list cases
        |> List.map (fun (k, _, system) ->
               ((Sim.Perf.run_hw ~system ~board).Sim.Perf.total_cycles, bram18 k.result)));
  }

let sharded ~jobs (k, n, system) =
  Sim.Functional.run ~jobs ~strategy:Sim.Functional.Sharded ~system
    ~proc:k.result.Compile.proc
    ~inputs:(fun e -> k.arrays.(e mod pool_size))
    ~n ()

(* Per traced batch, this many single-element runs of the engine are
   timed on their own. *)
let element_runs = 4

(* Element-sharded batches at n = 64, where the per-batch cost (engine
   compile, frames) weighs, and n = 1024, where it is amortized. Traced
   batches also run sharded over [jobs] domains, for the scaling ratio
   and a bit-identity check, and time single elements. *)
let sim ~seed ~dir:_ =
  let cases = sim_cases ~seed ~sizes:[ 64; 1024 ] in
  let identical = ref true in
  let op ~traced i =
    let ((k, n, _) as case) = cases.(i) in
    let wall, scale, (results, parallel) =
      Harness.timed "batch" (fun () ->
          let results =
            span "sim.functional_sharded" (fun () -> sharded ~jobs:1 case)
          in
          let parallel =
            if traced && jobs > 1 then
              Some (span "sim.functional_sharded_parallel" (fun () -> sharded ~jobs case))
            else None
          in
          if traced then
            for _ = 1 to element_runs do
              span "loopir.run" (fun () -> Loopir.Compiled.run k.engine k.frame)
            done;
          (results, parallel))
    in
    (match parallel with
    | Some p when not (all_bit_identical results p) ->
        identical := false;
        prerr_endline (k.kernel ^ ": the parallel batch differs from jobs:1")
    | _ -> ());
    { wall; scale; work = n; failures = output_failures k results n }
  in
  { (sim_instance cases op) with replica_identical = (fun () -> !identical) }

(* Round-scheduled jobs:1 batches of n = 8 with the PLM access recorder
   on, what cfdc memprof, cost --diff and profile run. The recorded
   outputs must equal an element-sharded run's bit for bit. *)
let memprof ~seed ~dir:_ =
  let cases = sim_cases ~seed ~sizes:[ 8 ] in
  let op ~traced:_ i =
    let ((k, n, system) as case) = cases.(i) in
    let wall, scale, (recorded, snapshot) =
      Harness.timed "batch" (fun () ->
          let recorded =
            span "sim.functional_recorded" (fun () ->
                Memprof.Record.enable ();
                Fun.protect ~finally:Memprof.Record.disable (fun () ->
                    Sim.Functional.run ~jobs:1
                      ~strategy:Sim.Functional.Round_scheduled ~system
                      ~proc:k.result.Compile.proc
                      ~inputs:(fun e -> k.arrays.(e mod pool_size))
                      ~n ()))
          in
          (recorded, span "memprof.snapshot" Memprof.Record.snapshot))
    in
    let plain = span "sim.functional_sharded" (fun () -> sharded ~jobs:1 case) in
    let failures =
      output_failures k recorded n
      @ (if all_bit_identical recorded plain then []
         else [ k.kernel ^ ": recorded outputs differ from sharded outputs" ])
      @
      if snapshot.Memprof.Record.sn_accesses > 0 then []
      else [ k.kernel ^ ": the recorder saw no PLM access" ]
    in
    { wall; scale; work = n; failures }
  in
  sim_instance cases op

let all =
  [
    { name = "flow-cold"; root = "request"; primary = "request"; setup = flow ~warm:false };
    { name = "flow-warm"; root = "request"; primary = "request"; setup = flow ~warm:true };
    { name = "sweep"; root = "sweep"; primary = "explore.sweep"; setup = sweep };
    { name = "sim"; root = "batch"; primary = "sim.functional_sharded"; setup = sim };
    {
      name = "sim-memprof";
      root = "batch";
      primary = "sim.functional_recorded";
      setup = memprof;
    };
  ]

(* ---------- regenerating the oracle ---------- *)

(* benchmark/expected.json: one line per pinned entry. *)
let expected_json () =
  let section (name, entries) =
    Printf.sprintf "  %S: {\n%s\n  }" name
      (String.concat ",\n"
         (List.map
            (fun (key, v) -> Printf.sprintf "    %S: %s" key (Obs.Json.to_string v))
            entries))
  in
  let flows =
    List.map
      (fun s ->
        Poly.Memo.clear_all ();
        (s.label, flow_model (request ~options:(options_for s.kernel) s.text)))
      (flow_sources ())
  in
  let sweeps =
    List.map
      (fun s ->
        Poly.Memo.clear_all ();
        ( s.label,
          sweep_model (Explore.sweep ~jobs:1 ~n_elements (Cfdlang.Parser.parse s.text)) ))
      (sweep_sources ())
  in
  "{\n"
  ^ String.concat ",\n"
      (List.map section
         [ ("paper", paper_model ()); ("flows", flows); ("sweeps", sweeps) ])
  ^ "\n}\n"
