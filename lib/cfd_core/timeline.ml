(* Device-cycle timeline orchestration: runs the performance model with
   [Obs.Timeline] enabled, so [Sim.Perf]'s block schedule lays its phases
   out on the cycle clock, joins Memprof's port-pressure audit as
   per-buffer counter tracks, and derives the utilization metrics. The
   engine behind [cfdc timeline] and the timeline leg of
   [cfdc profile]. *)

module Cost = Analysis.Cost
module D = Analysis.Diagnostic
module TL = Obs.Timeline

type overlap_policy = Auto | Require | Off

type derived = {
  d_total_cycles : int;
  d_exec_cycles : int;
  d_transfer_cycles : int;
  d_compute_share : float;
  d_transfer_share : float;
  d_overlap_efficiency : float;
  d_idle_cycles_per_acc : (string * int) list;
  d_port_peak_mean : (string * string * int * float) list;
}

type leg = {
  leg_label : string;
  leg_overlap : bool;
  leg_shape : Cost.shape;
  leg_schedule : Sim.Perf.Schedule.t;
  leg_hw : Sim.Perf.hw_result;
  leg_capture : TL.capture;
  leg_derived : derived;
}

type report = {
  tl_kernel : string;
  tl_n_elements : int;
  tl_legs : leg list;
  tl_diagnostics : D.t list;
}

let passed t = D.errors t.tl_diagnostics = []

(* --- memprof join ------------------------------------------------------- *)

(* The audit's pressure series live on the kernel-instance sequence
   number; the timeline lives on the cycle clock. Both modes place the
   first kernel execution at cycle [block_in] (plain: block 0's compute;
   overlapped: steady slot 0), so the join maps the sequence domain
   [0, instances) affinely onto that first execution's latency window —
   the port profile every subsequent round repeats. *)
let inject_port_samples ~start ~latency (a : Memprof.Audit.result) =
  let instances = max 1 a.Memprof.Audit.r_instances in
  List.iter
    (fun (unit_name, series) ->
      Array.iter
        (fun (seq, v) ->
          TL.sample
            ~track:("plm:" ^ unit_name)
            ~series:"port-pressure"
            ~cycle:(start + (seq * latency / instances))
            ~value:v)
        (Memprof.Audit.downsample series))
    a.Memprof.Audit.r_pressure_series

(* --- one leg ------------------------------------------------------------ *)

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

let derive ~overlap ~(hw : Sim.Perf.hw_result) cap =
  let total = hw.Sim.Perf.total_cycles in
  let exec = hw.Sim.Perf.exec_cycles in
  let transfer = hw.Sim.Perf.transfer_cycles in
  let ftotal = float_of_int (max 1 total) in
  let idle =
    List.filter_map
      (fun track ->
        if String.length track >= 3 && String.sub track 0 3 = "acc" then
          Some (track, total - TL.busy cap track)
        else None)
      (TL.tracks cap)
  in
  let overlap_eff =
    if not overlap then 0.0
    else
      (* cycles actually hidden / cycles that could be hidden: 1.0 when
         the whole shorter side disappears behind the longer one *)
      let hidden = exec + transfer - total in
      let hideable = min exec transfer in
      if hideable <= 0 then 0.0
      else clamp01 (float_of_int hidden /. float_of_int hideable)
  in
  {
    d_total_cycles = total;
    d_exec_cycles = exec;
    d_transfer_cycles = transfer;
    d_compute_share = float_of_int exec /. ftotal;
    d_transfer_share = float_of_int transfer /. ftotal;
    d_overlap_efficiency = overlap_eff;
    d_idle_cycles_per_acc = idle;
    d_port_peak_mean = TL.series_stats cap;
  }

let run_leg ~label ~overlap ~board ~audit (r : Compile.result)
    (sys : Sysgen.System.t) =
  let sched = Sim.Perf.schedule ~overlap ~system:sys ~board in
  let was = TL.enabled () in
  TL.set_enabled true;
  TL.reset ();
  let hw, cap =
    Fun.protect
      ~finally:(fun () ->
        TL.reset ();
        TL.set_enabled was)
      (fun () ->
        let run =
          if overlap then Sim.Perf.run_hw_overlapped else Sim.Perf.run_hw
        in
        let hw = run ~system:sys ~board in
        inject_port_samples ~start:sched.Sim.Perf.Schedule.block_in
          ~latency:r.Compile.hls.Hls.Model.latency_cycles audit;
        (hw, TL.capture ()))
  in
  {
    leg_label = label;
    leg_overlap = overlap;
    leg_shape = Costing.shape_of sys;
    leg_schedule = sched;
    leg_hw = hw;
    leg_capture = cap;
    leg_derived = derive ~overlap ~hw cap;
  }

(* --- overlap reshaping -------------------------------------------------- *)

(* Overlap needs m >= 2k. The replicator's own solution may sit at
   k = m (every element set has its accelerator); keep the block size m
   and drop k to the largest divisor of m with 2k <= m, so the round
   structure stays exact (m mod k = 0 as the controller requires). *)
let overlap_k ~m =
  let rec search d = if d < 1 then None else if m mod d = 0 then Some d else search (d - 1) in
  search (m / 2)

(* --- the report --------------------------------------------------------- *)

let analyze ?(config = Sysgen.Replicate.default_config) ?force_k ?force_m
    ?(overlap = Auto) ~audit ~n_elements (r : Compile.result) =
  let board = config.Sysgen.Replicate.board in
  let sys = Compile.build_system ~config ?force_k ?force_m ~n_elements r in
  Sysgen.System.validate sys;
  let audit = Lazy.force audit in
  let plain = run_leg ~label:"plain" ~overlap:false ~board ~audit r sys in
  let k = sys.Sysgen.System.solution.Sysgen.Replicate.k in
  let m = sys.Sysgen.System.solution.Sysgen.Replicate.m in
  let overlap_legs, top_diags =
    match (overlap, Sim.Perf.overlap_requirement ~k ~m) with
    | Off, _ -> ([], [])
    | _, None ->
        ([ run_leg ~label:"overlapped" ~overlap:true ~board ~audit r sys ], [])
    | Require, Some msg ->
        ( [],
          [
            D.error ~rule:"sim-overlap-infeasible"
              ~subject:(r.Compile.proc.Loopir.Prog.name)
              ~witness:(D.Count (m, 2 * k))
              msg;
          ] )
    | Auto, Some msg -> (
        (* keep m, shrink k to a divisor that satisfies double buffering *)
        match overlap_k ~m with
        | None ->
            ( [],
              [
                D.warning ~rule:"sim-overlap-infeasible"
                  ~subject:(r.Compile.proc.Loopir.Prog.name)
                  ~witness:(D.Count (m, 2 * k))
                  (msg ^ "; no k' divides m with m >= 2k', overlapped leg \
                          skipped");
              ] )
        | Some k' -> (
            match
              Compile.build_system ~config ~force_k:k' ~force_m:m ~n_elements r
            with
            | exception Sysgen.Replicate.Infeasible imsg ->
                ( [],
                  [
                    D.warning ~rule:"sim-overlap-infeasible"
                      ~subject:(r.Compile.proc.Loopir.Prog.name)
                      ~witness:(D.Count (m, 2 * k))
                      (Printf.sprintf
                         "%s; reshaped k=%d m=%d is infeasible (%s), \
                          overlapped leg skipped"
                         msg k' m imsg);
                  ] )
            | sys' ->
                Sysgen.System.validate sys';
                ( [ run_leg ~label:"overlapped" ~overlap:true ~board ~audit r sys' ],
                  [] )))
  in
  {
    tl_kernel = r.Compile.proc.Loopir.Prog.name;
    tl_n_elements = n_elements;
    tl_legs = plain :: overlap_legs;
    tl_diagnostics = top_diags;
  }

let find_leg t label = List.find_opt (fun l -> l.leg_label = label) t.tl_legs

let chrome_trace t =
  TL.chrome_trace
    (TL.merge (List.map (fun l -> TL.prefixed l.leg_label l.leg_capture) t.tl_legs))

(* --- rendering ---------------------------------------------------------- *)

let json_diag (d : D.t) =
  Obs.Json.Obj
    [
      ( "severity",
        Obs.Json.String
          (match d.D.severity with D.Error -> "error" | D.Warning -> "warning")
      );
      ("rule", Obs.Json.String d.D.rule);
      ("subject", Obs.Json.String d.D.subject);
      ("message", Obs.Json.String d.D.message);
    ]

let leg_json l =
  let d = l.leg_derived in
  Obs.Json.Obj
    [
      ("label", Obs.Json.String l.leg_label);
      ("overlap", Obs.Json.Bool l.leg_overlap);
      ( "shape",
        Obs.Json.Obj
          [
            ("n_elements", Obs.Json.Int l.leg_shape.Cost.sh_n_elements);
            ("k", Obs.Json.Int l.leg_shape.Cost.sh_k);
            ("m", Obs.Json.Int l.leg_shape.Cost.sh_m);
            ("batch", Obs.Json.Int l.leg_shape.Cost.sh_batch);
          ] );
      ("total_cycles", Obs.Json.Int d.d_total_cycles);
      ("exec_cycles", Obs.Json.Int d.d_exec_cycles);
      ("transfer_cycles", Obs.Json.Int d.d_transfer_cycles);
      ("compute_share", Obs.Json.Float d.d_compute_share);
      ("transfer_share", Obs.Json.Float d.d_transfer_share);
      ("overlap_efficiency", Obs.Json.Float d.d_overlap_efficiency);
      ( "idle_cycles_per_acc",
        Obs.Json.Obj
          (List.map (fun (t, c) -> (t, Obs.Json.Int c)) d.d_idle_cycles_per_acc)
      );
      ( "port_utilization",
        Obs.Json.List
          (List.map
             (fun (track, series, peak, mean) ->
               Obs.Json.Obj
                 [
                   ("track", Obs.Json.String track);
                   ("series", Obs.Json.String series);
                   ("peak", Obs.Json.Int peak);
                   ("mean", Obs.Json.Float mean);
                 ])
             d.d_port_peak_mean) );
      ("phases", Obs.Json.Int (List.length l.leg_capture.TL.cap_phases));
      ("samples", Obs.Json.Int (List.length l.leg_capture.TL.cap_samples));
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("kernel", Obs.Json.String t.tl_kernel);
      ("n_elements", Obs.Json.Int t.tl_n_elements);
      ("legs", Obs.Json.List (List.map leg_json t.tl_legs));
      ("diagnostics", Obs.Json.List (List.map json_diag t.tl_diagnostics));
      ("passed", Obs.Json.Bool (passed t));
    ]

let pp_report ppf t =
  Format.fprintf ppf "timeline: %s (%d elements)@." t.tl_kernel t.tl_n_elements;
  List.iter
    (fun l ->
      let d = l.leg_derived in
      Format.fprintf ppf
        "  %-10s k=%d m=%d batch=%d: %d cycles (compute %.1f%%, transfer \
         %.1f%%%s)@."
        l.leg_label l.leg_shape.Cost.sh_k l.leg_shape.Cost.sh_m
        l.leg_shape.Cost.sh_batch d.d_total_cycles
        (100. *. d.d_compute_share)
        (100. *. d.d_transfer_share)
        (if l.leg_overlap then
           Printf.sprintf ", overlap efficiency %.1f%%"
             (100. *. d.d_overlap_efficiency)
         else "");
      (match d.d_idle_cycles_per_acc with
      | [] -> ()
      | idle ->
          Format.fprintf ppf "    idle cycles per accelerator: %a@."
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               (fun ppf (t, c) -> Format.fprintf ppf "%s=%d" t c))
            idle);
      List.iter
        (fun (track, series, peak, mean) ->
          Format.fprintf ppf "    %s %s: peak %d, mean %.2f@." track series
            peak mean)
        d.d_port_peak_mean;
      Format.fprintf ppf "    phases %d, samples %d@."
        (List.length l.leg_capture.TL.cap_phases)
        (List.length l.leg_capture.TL.cap_samples))
    t.tl_legs;
  match t.tl_diagnostics with
  | [] -> ()
  | ds -> D.pp_report ppf ds
