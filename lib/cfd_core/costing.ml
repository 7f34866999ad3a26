module Cost = Analysis.Cost
module D = Analysis.Diagnostic

type residents = (string * (string * Poly.Lex.interval option) list) list

type report = {
  kernel : string;
  cost : Cost.t;
  buffer_residents : residents;
  shape : Cost.shape option;
  estimate : Cost.cycle_estimate option;
  infeasible : string option;
  drift : D.t list option;
  sim_elements : int option;
}

let shape_of (sys : Sysgen.System.t) =
  let host = sys.Sysgen.System.host in
  {
    Cost.sh_n_elements = host.Sysgen.System.n_elements;
    sh_k = sys.Sysgen.System.solution.Sysgen.Replicate.k;
    sh_m = sys.Sysgen.System.solution.Sysgen.Replicate.m;
    sh_batch = host.Sysgen.System.rounds_per_block;
  }

let static (r : Compile.result) =
  Cost.analyze
    ~unroll:(Option.value ~default:1 r.Compile.opts.Compile.unroll)
    ~program:r.Compile.program ~memory:r.Compile.memory ~proc:r.Compile.proc ()

(* Sim.Perf's schedule at the closed-form round length: the controller
   FSM is not stepped, so cost-drift-cycles compares two independent
   derivations of the round. *)
let estimate ~board ~system (r : Compile.result) (_ : Cost.t) =
  let s =
    Sim.Perf.Schedule.make ~overlap:false ~system ~board
      ~round_cycles:
        (r.Compile.hls.Hls.Model.latency_cycles
        + Sim.Constants.controller_handshake_cycles)
  in
  let hw = Sim.Perf.result ~board s in
  {
    Cost.ce_round_cycles = s.Sim.Perf.Schedule.round_cycles;
    ce_blocks = s.Sim.Perf.Schedule.blocks;
    ce_exec_cycles = hw.Sim.Perf.exec_cycles;
    ce_transfer_cycles = hw.Sim.Perf.transfer_cycles;
    ce_total_cycles = hw.Sim.Perf.total_cycles;
    ce_seconds = hw.Sim.Perf.total_seconds;
  }

(* Affine kernels have data-independent access patterns, so any finite
   values do. *)
let synthetic_inputs (sys : Sysgen.System.t) =
  let shapes =
    List.map
      (fun (tr : Sysgen.System.transfer) ->
        (tr.Sysgen.System.array, tr.Sysgen.System.bytes / 8))
      sys.Sysgen.System.host.Sysgen.System.per_element_in
  in
  fun e ->
    List.map
      (fun (nm, words) ->
        ( nm,
          Array.init words (fun i ->
              float_of_int ((((e + 1) * 31) + i) mod 97) /. 97.) ))
      shapes

(* The recorder's probe gate is at compile time, so the engine must be
   compiled inside the enabled window — Functional.run does that. *)
let recorded_sim ?jobs ~system ~n (r : Compile.result) =
  Memprof.Record.enable ();
  Fun.protect
    ~finally:(fun () -> Memprof.Record.disable ())
    (fun () ->
      ignore
        (Sim.Functional.run ?jobs ~system ~proc:r.Compile.proc
           ~inputs:(synthetic_inputs system) ~n ());
      Memprof.Record.snapshot ())

let observe ?(sim_n = 4) ~system ~board (r : Compile.result) =
  let proc = r.Compile.proc in
  let v name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let in0 = v "sim.dma.bytes_in" and out0 = v "sim.dma.bytes_out" in
  let snap = recorded_sim ~system ~n:sim_n r in
  let hw = Sim.Perf.run_hw ~system ~board in
  {
    Cost.obs_elements = sim_n;
    obs_m = system.Sysgen.System.solution.Sysgen.Replicate.m;
    obs_dma_bytes_in = Some (v "sim.dma.bytes_in" - in0);
    obs_dma_bytes_out = Some (v "sim.dma.bytes_out" - out0);
    obs_dma_sets =
      Some
        (List.map
           (fun (d : Memprof.Record.dma_stats) ->
             ( d.Memprof.Record.d_set,
               d.Memprof.Record.d_words_in,
               d.Memprof.Record.d_words_out ))
           snap.Memprof.Record.sn_dma);
    obs_sites =
      Some
        (List.filter_map
           (fun (s : Memprof.Record.site_stats) ->
             if s.Memprof.Record.s_proc = proc.Loopir.Prog.name then
               Some
                 ( s.Memprof.Record.s_site,
                   s.Memprof.Record.s_desc,
                   s.Memprof.Record.s_instances,
                   s.Memprof.Record.s_reads,
                   s.Memprof.Record.s_writes )
             else None)
           snap.Memprof.Record.sn_sites);
    obs_buffers =
      Some
        (List.map
           (fun (b : Memprof.Record.buffer_stats) ->
             ( b.Memprof.Record.b_buffer,
               b.Memprof.Record.b_reads,
               b.Memprof.Record.b_writes,
               b.Memprof.Record.b_max_pressure ))
           snap.Memprof.Record.sn_buffers);
    obs_total_cycles = Some hw.Sim.Perf.total_cycles;
  }

(* Resident arrays per cost buffer: the storage map sends each logical
   array to its backing buffer (unlisted arrays back themselves), and the
   liveness analysis — when it knows the array — contributes the live
   interval the sharing proof was built on. *)
let residents_of (r : Compile.result) (cost : Cost.t) =
  let storage = r.Compile.memory.Mnemosyne.Memgen.storage in
  let backing name =
    match List.assoc_opt name storage with Some (buf, _) -> buf | None -> name
  in
  List.map
    (fun (b : Cost.buffer) ->
      ( b.Cost.buf_name,
        List.filter_map
          (fun (a : Lower.Flow.array_info) ->
            let name = a.Lower.Flow.array_name in
            if backing name = b.Cost.buf_name then
              Some
                ( name,
                  Option.map
                    (fun (i : Liveness.Analysis.array_liveness) ->
                      i.Liveness.Analysis.interval)
                    (Liveness.Analysis.find_opt r.Compile.liveness name) )
            else None)
          r.Compile.program.Lower.Flow.arrays ))
    cost.Cost.buffers

(* The static cost record is a function of the compile key's triple
   alone, so it is cached under that key (in its own kind). The dynamic
   legs (system solve, drift simulation) stay live: they are the
   measurement side of the drift check and must never be replayed from
   a cache. *)
let cached_static ?cache (r : Compile.result) =
  match cache with
  | None -> static r
  | Some store -> (
      let key =
        Compile.cache_key ~options:r.Compile.opts
          r.Compile.checked.Cfdlang.Check.program
      in
      match Cache.Artifact.find_cost store key with
      | Some cost -> cost
      | None ->
          let cost = static r in
          Cache.Artifact.store_cost store key cost;
          cost)

let analyze ?(config = Sysgen.Replicate.default_config) ?(diff = false)
    ?sim_n ?cache ~n_elements (r : Compile.result) =
  let cost = cached_static ?cache r in
  let board = config.Sysgen.Replicate.board in
  let base =
    {
      kernel = r.Compile.proc.Loopir.Prog.name;
      cost;
      buffer_residents = residents_of r cost;
      shape = None;
      estimate = None;
      infeasible = None;
      drift = None;
      sim_elements = None;
    }
  in
  match Compile.build_system ~config ~n_elements r with
  | exception Sysgen.Replicate.Infeasible msg ->
      (* No system, no simulation: nothing observed, nothing drifts. *)
      {
        base with
        infeasible = Some msg;
        drift = (if diff then Some [] else None);
      }
  | sys ->
      Sysgen.System.validate sys;
      let est = estimate ~board ~system:sys r cost in
      let drift, sim_elements =
        if diff then
          let obs = observe ?sim_n ~system:sys ~board r in
          ( Some (Cost.drift cost ~cycle_model:est obs),
            Some obs.Cost.obs_elements )
        else (None, None)
      in
      {
        base with
        shape = Some (shape_of sys);
        estimate = Some est;
        drift;
        sim_elements;
      }

let json_opt f = function None -> Obs.Json.Null | Some x -> f x

(* The liveness brackets interface arrays with virtual host first/last
   timestamps; print those as words, not as min_int/max_int sentinels. *)
let pp_ts ppf ts =
  if ts = [| min_int |] then Format.pp_print_string ppf "host-first"
  else if ts = [| max_int |] then Format.pp_print_string ppf "host-last"
  else Poly.Lex.pp_timestamp ppf ts

let pp_interval ppf (iv : Poly.Lex.interval) =
  Format.fprintf ppf "[%a .. %a]" pp_ts iv.Poly.Lex.first pp_ts iv.Poly.Lex.last

let json_interval (iv : Poly.Lex.interval) =
  Obs.Json.String (Format.asprintf "%a" pp_interval iv)

let json_diag (d : D.t) =
  Obs.Json.Obj
    [
      ( "severity",
        Obs.Json.String (match d.D.severity with D.Error -> "error" | D.Warning -> "warning") );
      ("rule", Obs.Json.String d.D.rule);
      ("subject", Obs.Json.String d.D.subject);
      ("message", Obs.Json.String d.D.message);
    ]

let to_json t =
  let c = t.cost in
  let residents_json name =
    match List.assoc_opt name t.buffer_residents with
    | None | Some [] -> Obs.Json.List []
    | Some rs ->
        Obs.Json.List
          (List.map
             (fun (a, iv) ->
               Obs.Json.Obj
                 [ ("array", Obs.Json.String a); ("interval", json_opt json_interval iv) ])
             rs)
  in
  Obs.Json.Obj
    [
      ("kernel", Obs.Json.String t.kernel);
      ("feasible", Obs.Json.Bool (t.infeasible = None));
      ("infeasible", json_opt (fun m -> Obs.Json.String m) t.infeasible);
      ("statements", Obs.Json.Int c.Cost.statements);
      ("iterations", Obs.Json.Int c.Cost.iterations);
      ("reads", Obs.Json.Int c.Cost.reads);
      ("writes", Obs.Json.Int c.Cost.writes);
      ("words_in", Obs.Json.Int c.Cost.words_in);
      ("words_out", Obs.Json.Int c.Cost.words_out);
      ( "sites",
        Obs.Json.List
          (List.map
             (fun (s : Cost.site) ->
               Obs.Json.Obj
                 [
                   ("site", Obs.Json.Int s.Cost.site_id);
                   ("desc", Obs.Json.String s.Cost.site_desc);
                   ("trips", Obs.Json.Int s.Cost.site_trips);
                   ("reads", Obs.Json.Int s.Cost.site_reads);
                   ("writes", Obs.Json.Int s.Cost.site_writes);
                 ])
             c.Cost.sites) );
      ( "buffers",
        Obs.Json.List
          (List.map
             (fun (b : Cost.buffer) ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String b.Cost.buf_name);
                   ("reads", Obs.Json.Int b.Cost.buf_reads);
                   ("writes", Obs.Json.Int b.Cost.buf_writes);
                   ("peak_pressure", Obs.Json.Int b.Cost.buf_peak_pressure);
                   ("port_demand", Obs.Json.Int b.Cost.buf_port_demand);
                   ( "port_budget",
                     json_opt (fun p -> Obs.Json.Int p) b.Cost.buf_port_budget );
                   ("residents", residents_json b.Cost.buf_name);
                 ])
             c.Cost.buffers) );
      ( "shape",
        json_opt
          (fun (s : Cost.shape) ->
            Obs.Json.Obj
              [
                ("n_elements", Obs.Json.Int s.Cost.sh_n_elements);
                ("k", Obs.Json.Int s.Cost.sh_k);
                ("m", Obs.Json.Int s.Cost.sh_m);
                ("batch", Obs.Json.Int s.Cost.sh_batch);
              ])
          t.shape );
      ( "estimate",
        json_opt
          (fun (e : Cost.cycle_estimate) ->
            Obs.Json.Obj
              [
                ("round_cycles", Obs.Json.Int e.Cost.ce_round_cycles);
                ("blocks", Obs.Json.Int e.Cost.ce_blocks);
                ("exec_cycles", Obs.Json.Int e.Cost.ce_exec_cycles);
                ("transfer_cycles", Obs.Json.Int e.Cost.ce_transfer_cycles);
                ("total_cycles", Obs.Json.Int e.Cost.ce_total_cycles);
                ("seconds", Obs.Json.Float e.Cost.ce_seconds);
              ])
          t.estimate );
      ("drift", json_opt (fun ds -> Obs.Json.List (List.map json_diag ds)) t.drift);
      ("sim_elements", json_opt (fun n -> Obs.Json.Int n) t.sim_elements);
    ]

let pp_report ppf t =
  Cost.pp ppf t.cost;
  (match t.infeasible with
  | Some msg -> Format.fprintf ppf "system: infeasible (%s)@\n" msg
  | None -> ());
  (match (t.shape, t.estimate) with
  | Some s, Some e ->
      Format.fprintf ppf "system: n=%d k=%d m=%d batch=%d@\n"
        s.Cost.sh_n_elements s.Cost.sh_k s.Cost.sh_m s.Cost.sh_batch;
      Format.fprintf ppf "%a@\n" Cost.pp_cycle_estimate e
  | _ -> ());
  List.iter
    (fun (buf, rs) ->
      match rs with
      | [] | [ _ ] when List.for_all (fun (a, _) -> a = buf) rs -> ()
      | rs ->
          Format.fprintf ppf "residents %-8s %a@\n" buf
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               (fun ppf (a, iv) ->
                 match iv with
                 | None -> Format.pp_print_string ppf a
                 | Some iv -> Format.fprintf ppf "%s %a" a pp_interval iv))
            rs)
    t.buffer_residents;
  match t.drift with
  | None -> ()
  | Some [] ->
      Format.fprintf ppf "drift: none (simulated %d element%s)@\n"
        (Option.value ~default:0 t.sim_elements)
        (if t.sim_elements = Some 1 then "" else "s")
  | Some ds ->
      Format.fprintf ppf "drift:@\n";
      List.iter (fun d -> Format.fprintf ppf "  %a@\n" D.pp d) ds
