type configuration = { label : string; options : Compile.options }

type outcome = {
  configuration : configuration;
  feasible : bool;
  max_replicas : int;
  plm_brams : int;
  resources : Fpga_platform.Resource.t;
  seconds : float;
  diagnostic : string option;
}

let standard_configurations =
  let base = Compile.default_options in
  [
    { label = "factorized + decoupled + sharing"; options = base };
    {
      label = "factorized + decoupled, no sharing";
      options = { base with Compile.sharing = false };
    };
    {
      label = "factorized, temporaries in HLS";
      options = { base with Compile.decoupled = false; sharing = false };
    };
    {
      label = "direct contraction + sharing";
      options = { base with Compile.factorize = false };
    };
    {
      label = "factorized + sharing + unroll 2";
      options = { base with Compile.unroll = Some 2 };
    };
  ]

let pruned_counter = Obs.Metrics.counter "explore.pruned"

(* The content address of one configuration's sweep outcome: the compile
   key of its options over this source, extended with everything else
   the outcome depends on — the replication solver's inputs and the
   element count. The label is deliberately excluded (it names the
   point, it does not change it); a cached outcome is re-labeled with
   the caller's configuration on the way out. *)
let outcome_kind = "sweep-outcome"

let res_fp (r : Fpga_platform.Resource.t) =
  Printf.sprintf "%d/%d/%d/%d" r.Fpga_platform.Resource.lut
    r.Fpga_platform.Resource.ff r.Fpga_platform.Resource.dsp
    r.Fpga_platform.Resource.bram18

let outcome_key ~(config : Sysgen.Replicate.config) ~n_elements ast
    configuration =
  Compile.cache_key ~options:configuration.options ast
    ~extra:
      [
        ( "sweep",
          Printf.sprintf "n=%d board=%s reserve=%s glue=%s" n_elements
            config.Sysgen.Replicate.board.Fpga_platform.Board.board_name
            (res_fp config.Sysgen.Replicate.interface_reserve)
            (res_fp config.Sysgen.Replicate.glue_per_kernel) );
      ]

let infeasible ?(plm_brams = 0) configuration diagnostic =
  (* Structured, not printed: infeasible configurations are a normal
     part of a sweep, so this stays below the stderr mirror — but with
     the log level at [Info] (or the flight recorder on) each pruned
     config is visible with its options fingerprint and diagnostic. *)
  Obs.Log.info ~scope:"explore"
    ~attrs:[ ("options", Compile.options_fingerprint configuration.options) ]
    "config infeasible: %s" diagnostic;
  {
    configuration;
    feasible = false;
    max_replicas = 0;
    plm_brams;
    resources = Fpga_platform.Resource.zero;
    seconds = Float.infinity;
    diagnostic = Some diagnostic;
  }

(* Phase A of a sweep, one configuration in isolation: compile, verify
   exactly once, build and validate the system, and predict performance
   statically. Any exception — an infeasible board, but also a crash
   anywhere in the pipeline — becomes an infeasible outcome carrying the
   diagnostic, so a single bad configuration can never abort the rest of
   the sweep. *)
type ready = {
  r_configuration : configuration;
  r_plm_brams : int;
  r_system : Sysgen.System.t;
  r_estimate : Analysis.Cost.cycle_estimate;
}

type prepared = Ready of ready | Settled of outcome

let prepare ?cache ~config ~n_elements ast configuration =
  (* The verifier runs exactly once per configuration, here: the compile
     itself goes with the embedded check off (a caller-supplied
     [static_check = true] would otherwise verify the same pipeline a
     second time inside [Compile.compile]), and a pipeline failing a
     proof is pruned as infeasible before any system is built. *)
  let options = { configuration.options with Compile.static_check = false } in
  match Compile.compile ?cache ~options ast with
  | exception e -> Settled (infeasible configuration (Printexc.to_string e))
  | r -> (
      let plm_brams = r.Compile.memory.Mnemosyne.Memgen.total_brams in
      match Analysis.Diagnostic.errors (Compile.check ?cache r) with
      | _ :: _ as errors ->
          Settled
            (infeasible ~plm_brams configuration
               ("static check failed: " ^ Analysis.Diagnostic.summary errors))
      | [] -> (
          match
            let sys = Compile.build_system ~config ~n_elements r in
            Sysgen.System.validate sys;
            sys
          with
          | sys ->
              Ready
                {
                  r_configuration = configuration;
                  r_plm_brams = plm_brams;
                  r_system = sys;
                  r_estimate =
                    Costing.estimate ~board:config.Sysgen.Replicate.board
                      ~system:sys r (Costing.static r);
                }
          | exception Sysgen.Replicate.Infeasible msg ->
              Settled (infeasible ~plm_brams configuration ("infeasible: " ^ msg))
          | exception e ->
              Settled (infeasible ~plm_brams configuration (Printexc.to_string e))))

let outcome_of_ready ~seconds ready =
  {
    configuration = ready.r_configuration;
    feasible = true;
    max_replicas = ready.r_system.Sysgen.System.solution.Sysgen.Replicate.m;
    plm_brams = ready.r_plm_brams;
    resources = ready.r_system.Sysgen.System.total_resources;
    seconds;
    diagnostic = None;
  }

let dominates a b =
  (* a dominates b: no worse on all three axes, strictly better on one *)
  a.resources.Fpga_platform.Resource.lut <= b.resources.Fpga_platform.Resource.lut
  && a.resources.Fpga_platform.Resource.bram18
     <= b.resources.Fpga_platform.Resource.bram18
  && a.seconds <= b.seconds
  && (a.resources.Fpga_platform.Resource.lut < b.resources.Fpga_platform.Resource.lut
     || a.resources.Fpga_platform.Resource.bram18
        < b.resources.Fpga_platform.Resource.bram18
     || a.seconds < b.seconds)

let sweep ?jobs ?(config = Sysgen.Replicate.default_config)
    ?(configurations = standard_configurations) ?(prefilter = false) ?cache
    ~n_elements ast =
  (* A warm start never changes what a sweep returns, only what it
     recomputes: cached outcomes are final per-configuration results
     (settled failures or simulated successes — never prefilter-pruned
     static prices, whose value depends on the competing configurations),
     stored as each one settles so an interrupted sweep resumes where it
     died. *)
  let find_cached configuration =
    match cache with
    | None -> None
    | Some store ->
        Option.map
          (fun o -> { o with configuration })
          (Cache.Store.find store ~kind:outcome_kind
             (outcome_key ~config ~n_elements ast configuration)
             ~decode:(Cache.Codec.decode ~kind:outcome_kind))
  in
  let store_outcome (o : outcome) =
    match cache with
    | None -> ()
    | Some store ->
        Cache.Store.store store ~kind:outcome_kind
          (outcome_key ~config ~n_elements ast o.configuration)
          ~encode:(Cache.Codec.encode ~kind:outcome_kind)
          o
  in
  let lookups = List.map (fun c -> (c, find_cached c)) configurations in
  let misses =
    List.filter_map (function c, None -> Some c | _ -> None) lookups
  in
  let miss_preps =
    Parallel.Pool.map ?jobs (prepare ?cache ~config ~n_elements ast) misses
    |> List.map2
         (fun configuration -> function
           | Ok prepared -> prepared
           | Error { Parallel.Pool.message; _ } ->
               Settled (infeasible configuration message))
         misses
  in
  (* Cached outcomes and fresh preparations, re-interleaved in input
     order. *)
  let rec stitch lookups preps =
    match (lookups, preps) with
    | [], [] -> []
    | (_, Some o) :: lookups, preps -> `Cached o :: stitch lookups preps
    | (_, None) :: lookups, p :: preps -> `Fresh p :: stitch lookups preps
    | _ -> assert false
  in
  let items = stitch lookups miss_preps in
  (* The static outcome prices a Ready configuration by Sim.Perf's
     schedule at the closed-form round — for uniform latencies that is
     bit-identical to what run_hw reports, which makes pruning on it sound: a
     configuration statically dominated on (LUT, BRAM, seconds) cannot
     enter the Pareto frontier, so the filtered sweep returns the same
     frontier while simulating strictly fewer systems. Cached outcomes
     join the domination pool on the same footing. *)
  let statics =
    List.map
      (function
        | `Cached o | `Fresh (Settled o) -> o
        | `Fresh (Ready r) ->
            outcome_of_ready ~seconds:r.r_estimate.Analysis.Cost.ce_seconds r)
      items
  in
  let plan =
    List.map2
      (fun item static ->
        match item with
        | `Cached o -> `Done o
        | `Fresh (Settled o) ->
            store_outcome o;
            `Done o
        | `Fresh (Ready r) ->
            if
              prefilter
              && List.exists
                   (fun other -> other.feasible && dominates other static)
                   statics
            then begin
              Obs.Metrics.incr pruned_counter;
              `Done static
            end
            else `Sim r)
      items statics
  in
  let to_sim = List.filter_map (function `Sim r -> Some r | `Done _ -> None) plan in
  let simulated =
    Parallel.Pool.map ?jobs
      (fun r ->
        let hw =
          Sim.Perf.run_hw ~system:r.r_system
            ~board:config.Sysgen.Replicate.board
        in
        let o = outcome_of_ready ~seconds:hw.Sim.Perf.total_seconds r in
        store_outcome o;
        o)
      to_sim
    |> List.map2
         (fun r -> function
           | Ok o -> o
           | Error { Parallel.Pool.message; _ } ->
               infeasible r.r_configuration message)
         to_sim
  in
  let rec interleave plan simulated =
    match (plan, simulated) with
    | [], _ -> []
    | `Done o :: plan, simulated -> o :: interleave plan simulated
    | `Sim _ :: plan, o :: simulated -> o :: interleave plan simulated
    | `Sim _ :: _, [] -> assert false
  in
  interleave plan simulated

let pareto outcomes =
  let feasible = List.filter (fun o -> o.feasible) outcomes in
  List.filter
    (fun o -> not (List.exists (fun other -> dominates other o) feasible))
    feasible

let pp_outcome ppf o =
  if o.feasible then
    Format.fprintf ppf "%-36s m=%2d PLM=%2d BRAM  %a  %.2f s"
      o.configuration.label o.max_replicas o.plm_brams
      Fpga_platform.Resource.pp o.resources o.seconds
  else
    Format.fprintf ppf "%-36s infeasible%s" o.configuration.label
      (match o.diagnostic with
      | Some d when d <> "" -> " (" ^ d ^ ")"
      | _ -> "")
