(* Memory evaluation report: joins the dynamic audits (both memgen
   modes) and the production-path recorder snapshot into the paper's
   memory numbers — per-unit word occupancy, BRAM18 counts (31 -> 18 on
   the factorized Inverse Helmholtz), sharing savings and DMA words per
   PLM set — as a human summary, a JSON document and Chrome-trace
   counter tracks (BRAM occupancy and port pressure over the instance
   sequence). *)

module D = Analysis.Diagnostic
module Memgen = Mnemosyne.Memgen

type t = {
  rep_kernel : string;
  rep_audits : Audit.result list;
  rep_sim : (int * Record.snapshot) option;
      (* (elements simulated, recorder snapshot) *)
}

let make ~kernel ?sim audits =
  { rep_kernel = kernel; rep_audits = audits; rep_sim = sim }

let diagnostics t = List.concat_map (fun a -> a.Audit.r_diagnostics) t.rep_audits
let passed t = D.errors (diagnostics t) = []

let find_mode t label =
  List.find_opt (fun a -> a.Audit.r_label = label) t.rep_audits

let total_brams a =
  match a.Audit.r_arch with
  | Some arch -> Some arch.Memgen.total_brams
  | None -> None

(* BRAM18s saved by sharing, when both modes were audited *)
let savings t =
  match (find_mode t "no-sharing", find_mode t "sharing") with
  | Some ns, Some sh -> (
      match (total_brams ns, total_brams sh) with
      | Some a, Some b -> Some (a, b, a - b)
      | _ -> None)
  | _ -> None

(* --- JSON --------------------------------------------------------------- *)

let ts_json (ts : Poly.Lex.timestamp) =
  if Poly.Lex.equal ts Liveness.Analysis.virtual_first then
    Obs.Json.String "virtual-first"
  else if Poly.Lex.equal ts Liveness.Analysis.virtual_last then
    Obs.Json.String "virtual-last"
  else Obs.Json.List (Array.to_list (Array.map (fun i -> Obs.Json.Int i) ts))

let interval_json (iv : Poly.Lex.interval) =
  Obs.Json.Obj
    [ ("first", ts_json iv.Poly.Lex.first); ("last", ts_json iv.Poly.Lex.last) ]

let diag_json (d : D.t) =
  Obs.Json.Obj
    [
      ( "severity",
        Obs.Json.String (match d.D.severity with D.Error -> "error" | D.Warning -> "warning") );
      ("rule", Obs.Json.String d.D.rule);
      ("subject", Obs.Json.String d.D.subject);
      ("message", Obs.Json.String d.D.message);
    ]

let pressure_hist label unit_name =
  Obs.Metrics.histogram_snapshot
    (Obs.Metrics.histogram
       (Printf.sprintf "memprof.%s.pressure.%s" label unit_name))

let num f = if Float.is_finite f then Obs.Json.Float f else Obs.Json.Null

let unit_json label (u : Audit.unit_stat) =
  let h = pressure_hist label u.Audit.u_name in
  Obs.Json.Obj
    [
      ("name", Obs.Json.String u.Audit.u_name);
      ("words", Obs.Json.Int u.Audit.u_words);
      ("brams", Obs.Json.Int u.Audit.u_brams);
      ("copies", Obs.Json.Int u.Audit.u_copies);
      ("port_budget", Obs.Json.Int u.Audit.u_port_budget);
      ("reads", Obs.Json.Int u.Audit.u_reads);
      ("writes", Obs.Json.Int u.Audit.u_writes);
      ("words_touched", Obs.Json.Int u.Audit.u_words_touched);
      ("max_pressure", Obs.Json.Int u.Audit.u_max_pressure);
      ("pressure_p50", num h.Obs.Metrics.h_p50);
      ("pressure_p95", num h.Obs.Metrics.h_p95);
      ("pressure_p99", num h.Obs.Metrics.h_p99);
      ( "residents",
        Obs.Json.List
          (List.map (fun r -> Obs.Json.String r) u.Audit.u_residents) );
    ]

let array_json (o : Audit.array_obs) =
  Obs.Json.Obj
    [
      ("array", Obs.Json.String o.Audit.o_array);
      ("static", interval_json o.Audit.o_static);
      ( "observed",
        match o.Audit.o_observed with
        | None -> Obs.Json.Null
        | Some iv -> interval_json iv );
      ("contained", Obs.Json.Bool o.Audit.o_contained);
    ]

let audit_json (a : Audit.result) =
  Obs.Json.Obj
    ([
       ("label", Obs.Json.String a.Audit.r_label);
       ("instances", Obs.Json.Int a.Audit.r_instances);
       ("accesses", Obs.Json.Int a.Audit.r_accesses);
       ( "units",
         Obs.Json.List (List.map (unit_json a.Audit.r_label) a.Audit.r_units) );
       ("arrays", Obs.Json.List (List.map array_json a.Audit.r_arrays));
       ( "diagnostics",
         Obs.Json.List (List.map diag_json a.Audit.r_diagnostics) );
     ]
    @
    match total_brams a with
    | Some n -> [ ("total_brams", Obs.Json.Int n) ]
    | None -> [])

let sim_json (elements, (sn : Record.snapshot)) =
  Obs.Json.Obj
    [
      ("elements", Obs.Json.Int elements);
      ("instances", Obs.Json.Int sn.Record.sn_instances);
      ("accesses", Obs.Json.Int sn.Record.sn_accesses);
      ( "dma",
        Obs.Json.List
          (List.map
             (fun (d : Record.dma_stats) ->
               Obs.Json.Obj
                 [
                   ("set", Obs.Json.Int d.Record.d_set);
                   ("words_in", Obs.Json.Int d.Record.d_words_in);
                   ("words_out", Obs.Json.Int d.Record.d_words_out);
                 ])
             sn.Record.sn_dma) );
      ( "buffers",
        Obs.Json.List
          (List.map
             (fun (b : Record.buffer_stats) ->
               Obs.Json.Obj
                 [
                   ("buffer", Obs.Json.String b.Record.b_buffer);
                   ("reads", Obs.Json.Int b.Record.b_reads);
                   ("writes", Obs.Json.Int b.Record.b_writes);
                   ("words_touched", Obs.Json.Int b.Record.b_words_touched);
                   ("max_pressure", Obs.Json.Int b.Record.b_max_pressure);
                 ])
             sn.Record.sn_buffers) );
    ]

let to_json t =
  Obs.Json.Obj
    ([
       ("kernel", Obs.Json.String t.rep_kernel);
       ("modes", Obs.Json.List (List.map audit_json t.rep_audits));
       ("audit_passed", Obs.Json.Bool (passed t));
     ]
    @ (match savings t with
      | Some (ns, sh, saved) ->
          [
            ("no_sharing_brams", Obs.Json.Int ns);
            ("sharing_brams", Obs.Json.Int sh);
            ("sharing_savings_brams", Obs.Json.Int saved);
          ]
      | None -> [])
    @
    match t.rep_sim with
    | Some sim -> [ ("functional_sim", sim_json sim) ]
    | None -> [])

(* --- Chrome-trace counter tracks ---------------------------------------- *)

(* Counter ("ph":"C") events over the instance sequence number as the
   time axis; every series is downsampled ({!Audit.downsample}). *)
let counter_events ~tid ~name ~arg (s : Audit.series) =
  Array.to_list
    (Array.map
       (fun (seq, v) ->
         Obs.Json.Obj
           [
             ("name", Obs.Json.String name);
             ("cat", Obs.Json.String "memprof");
             ("ph", Obs.Json.String "C");
             ("ts", Obs.Json.Int seq);
             ("pid", Obs.Json.Int 1);
             ("tid", Obs.Json.Int tid);
             ("args", Obs.Json.Obj [ (arg, Obs.Json.Int v) ]);
           ])
       s)

let chrome_counters t =
  let events =
    List.concat
      (List.mapi
         (fun tid (a : Audit.result) ->
           List.concat_map
             (fun (u, s) ->
               counter_events ~tid
                 ~name:
                   (Printf.sprintf "port-pressure %s (%s)" u a.Audit.r_label)
                 ~arg:"pressure" (Audit.downsample s))
             a.Audit.r_pressure_series
           @ List.concat_map
               (fun (u, s) ->
                 counter_events ~tid
                   ~name:
                     (Printf.sprintf "plm-occupancy %s (%s)" u a.Audit.r_label)
                   ~arg:"words" (Audit.downsample s))
               a.Audit.r_occupancy_series)
         t.rep_audits)
  in
  Obs.Json.Obj
    [
      ("traceEvents", Obs.Json.List events);
      ("displayTimeUnit", Obs.Json.String "ms");
    ]

(* --- human summary ------------------------------------------------------ *)

let pp_pct ppf (part, whole) =
  if whole = 0 then Format.pp_print_string ppf "n/a"
  else Format.fprintf ppf "%.1f%%" (100. *. float_of_int part /. float_of_int whole)

let pp_num ppf v =
  if Float.is_finite v then Format.fprintf ppf "%g" v
  else Format.pp_print_string ppf "n/a"

let pp ppf t =
  Format.fprintf ppf "memprof report: %s@." t.rep_kernel;
  List.iter
    (fun (a : Audit.result) ->
      (match total_brams a with
      | Some brams ->
          Format.fprintf ppf "  mode %-12s %d units, %d BRAM18@."
            a.Audit.r_label
            (List.length a.Audit.r_units)
            brams
      | None -> Format.fprintf ppf "  audit %s@." a.Audit.r_label);
      List.iter
        (fun (u : Audit.unit_stat) ->
          let h = pressure_hist a.Audit.r_label u.Audit.u_name in
          Format.fprintf ppf
            "    %-10s %5d words  %2d bram  x%d  occupancy %5d/%-5d (%a)  \
             reads %8d  writes %7d  pressure max %d/%d p50 %a p95 %a p99 %a@."
            u.Audit.u_name u.Audit.u_words u.Audit.u_brams u.Audit.u_copies
            u.Audit.u_words_touched u.Audit.u_words pp_pct
            (u.Audit.u_words_touched, u.Audit.u_words)
            u.Audit.u_reads u.Audit.u_writes u.Audit.u_max_pressure
            u.Audit.u_port_budget pp_num h.Obs.Metrics.h_p50 pp_num
            h.Obs.Metrics.h_p95 pp_num h.Obs.Metrics.h_p99)
        a.Audit.r_units;
      Format.fprintf ppf "    audited %d instances, %d accesses@."
        a.Audit.r_instances a.Audit.r_accesses)
    t.rep_audits;
  (match savings t with
  | Some (ns, sh, saved) ->
      Format.fprintf ppf "  sharing: %d -> %d BRAM18, saves %d (%a)@." ns sh
        saved pp_pct (saved, ns)
  | None -> ());
  (match t.rep_sim with
  | Some (elements, sn) ->
      Format.fprintf ppf
        "  functional sim (%d elements): %d instances, %d accesses@." elements
        sn.Record.sn_instances sn.Record.sn_accesses;
      List.iter
        (fun (d : Record.dma_stats) ->
          Format.fprintf ppf
            "    plm set %d: dma in %d words (%d bytes), out %d words (%d \
             bytes)@."
            d.Record.d_set d.Record.d_words_in
            (d.Record.d_words_in * 8)
            d.Record.d_words_out
            (d.Record.d_words_out * 8))
        sn.Record.sn_dma
  | None -> ());
  let ds = diagnostics t in
  if ds = [] then Format.fprintf ppf "  audit: PASS (no diagnostics)@."
  else begin
    Format.fprintf ppf "  audit: FAIL@.";
    D.pp_report ppf ds
  end
