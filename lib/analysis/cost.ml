module D = Diagnostic
module P = Loopir.Prog

type site = {
  site_id : int;
  site_desc : string;
  site_trips : int;
  site_reads : int;
  site_writes : int;
}

type buffer = {
  buf_name : string;
  buf_reads : int;
  buf_writes : int;
  buf_peak_pressure : int;
  buf_port_demand : int;
  buf_port_budget : int option;
}

type t = {
  kernel : string;
  sites : site list;
  statements : int;
  iterations : int;
  reads : int;
  writes : int;
  buffers : buffer list;
  words_in : int;
  words_out : int;
}

(* ------------------------------------------------------------------ *)
(* The counting walk over the loop nest                                *)
(* ------------------------------------------------------------------ *)

let rec expr_loads acc = function
  | P.Const _ | P.Scalar _ -> acc
  | P.Load (a, _) ->
      let prev = Option.value ~default:0 (List.assoc_opt a acc) in
      (a, prev + 1) :: List.remove_assoc a acc
  | P.Add (x, y) | P.Sub (x, y) | P.Mul (x, y) | P.Div (x, y) ->
      expr_loads (expr_loads acc x) y

let analyze ?(unroll = 1) ~(program : Lower.Flow.program)
    ~(memory : Mnemosyne.Memgen.architecture) ~(proc : P.proc) () =
  (* per leaf in pre-order: (site record, per-buffer loads, write target) *)
  let leaves = ref [] in
  let next = ref 0 in
  let leaf trips stmt =
    let id = !next in
    incr next;
    let value, write =
      match stmt with
      | P.Store { array; value; _ } | P.Accum { array; value; _ } ->
          (value, Some array)
      | P.Set_scalar { value; _ } | P.Acc_scalar { value; _ } -> (value, None)
      | P.For _ -> assert false
    in
    let loads = expr_loads [] value in
    let s =
      {
        site_id = id;
        site_desc = P.leaf_desc stmt;
        site_trips = trips;
        site_reads = List.fold_left (fun a (_, c) -> a + c) 0 loads;
        site_writes = (if write = None then 0 else 1);
      }
    in
    leaves := (s, loads, write) :: !leaves
  in
  (* a leaf runs once per point of its enclosing loops' box *)
  let rec walk trips = function
    | P.For l -> List.iter (walk (trips * max 0 (l.P.hi - l.P.lo))) l.P.body
    | stmt -> leaf trips stmt
  in
  List.iter (walk 1) proc.P.body;
  let leaves = List.rev !leaves in
  let sites = List.map (fun (s, _, _) -> s) leaves in
  let sum f = List.fold_left (fun acc s -> acc + (s.site_trips * f s)) 0 sites in
  let statements, iterations = P.run_totals proc in
  (* Per-buffer accounting over every declared buffer. *)
  let buffer_names =
    List.map (fun (p : P.param) -> p.P.name) proc.P.params
    @ List.map fst proc.P.locals
  in
  (* Port demand is Mnemosyne's per-array formula; two residents of one
     unit are never read in the same instance (rule share-interface), so
     a buffer's demand is the max over its resident arrays. *)
  let backing a =
    match List.assoc_opt a memory.Mnemosyne.Memgen.storage with
    | Some (buf, _) -> buf
    | None -> a
  in
  let buffer_demand name =
    List.fold_left
      (fun acc (a : Lower.Flow.array_info) ->
        let a = a.Lower.Flow.array_name in
        if backing a = name then
          max acc (Mnemosyne.Memgen.ports_with_unroll program ~unroll a)
        else acc)
      0 program.Lower.Flow.arrays
  in
  let buffers =
    List.map
      (fun name ->
        let reads = ref 0 and writes = ref 0 and pressure = ref 0 in
        List.iter
          (fun ((s : site), loads, write) ->
            let l = Option.value ~default:0 (List.assoc_opt name loads) in
            let w = if write = Some name then 1 else 0 in
            reads := !reads + (l * s.site_trips);
            writes := !writes + (w * s.site_trips);
            if l + w > 0 && s.site_trips > 0 then
              pressure := max !pressure (l + w))
          leaves;
        {
          buf_name = name;
          buf_reads = !reads;
          buf_writes = !writes;
          buf_peak_pressure = !pressure;
          buf_port_demand = buffer_demand name;
          buf_port_budget =
            Option.map Mnemosyne.Memgen.port_budget
              (Mnemosyne.Memgen.unit_of_buffer memory name);
        })
      (List.sort_uniq compare buffer_names)
  in
  let words kind =
    List.fold_left
      (fun acc (a : Lower.Flow.array_info) ->
        if a.Lower.Flow.kind = kind then acc + a.Lower.Flow.size else acc)
      0 program.Lower.Flow.arrays
  in
  {
    kernel = proc.P.name;
    sites;
    statements;
    iterations;
    reads = sum (fun s -> s.site_reads);
    writes = sum (fun s -> s.site_writes);
    buffers;
    words_in = words Lower.Flow.Input;
    words_out = words Lower.Flow.Output;
  }

(* ------------------------------------------------------------------ *)
(* Cycle estimate records                                              *)
(* ------------------------------------------------------------------ *)

type shape = { sh_n_elements : int; sh_k : int; sh_m : int; sh_batch : int }

type cycle_estimate = {
  ce_round_cycles : int;
  ce_blocks : int;
  ce_exec_cycles : int;
  ce_transfer_cycles : int;
  ce_total_cycles : int;
  ce_seconds : float;
}

let dma_words_per_set t ~n ~m =
  let sets = ref [] in
  for s = m - 1 downto 0 do
    (* elements e < n with e mod m = s *)
    let elems = if s >= n then 0 else ((n - 1 - s) / m) + 1 in
    if elems > 0 then
      sets := (s, elems * t.words_in, elems * t.words_out) :: !sets
  done;
  !sets

(* ------------------------------------------------------------------ *)
(* Drift detection                                                     *)
(* ------------------------------------------------------------------ *)

type observed = {
  obs_elements : int;
  obs_m : int;
  obs_dma_bytes_in : int option;
  obs_dma_bytes_out : int option;
  obs_dma_sets : (int * int * int) list option;
  obs_sites : (int * string * int * int * int) list option;
  obs_buffers : (string * int * int * int) list option;
  obs_total_cycles : int option;
}

let no_observation ~n ~m =
  {
    obs_elements = n;
    obs_m = m;
    obs_dma_bytes_in = None;
    obs_dma_bytes_out = None;
    obs_dma_sets = None;
    obs_sites = None;
    obs_buffers = None;
    obs_total_cycles = None;
  }

let drift t ?cycle_model obs =
  let diags = ref [] in
  let fail ~rule ~subject ~got ~expected fmt =
    Format.kasprintf
      (fun message ->
        diags :=
          D.error ~rule ~subject ~witness:(D.Count (got, expected)) message
          :: !diags)
      fmt
  in
  let n = obs.obs_elements in
  let check ~rule ~subject ~what ~expected = function
    | None -> ()
    | Some got ->
        if got <> expected then
          fail ~rule ~subject ~got ~expected
            "dynamic %s is %d over %d kernel runs but the static model \
             predicts %d"
            what got n expected
  in
  check ~rule:"cost-drift-dma" ~subject:t.kernel ~what:"sim.dma.bytes_in"
    ~expected:(n * 8 * t.words_in) obs.obs_dma_bytes_in;
  check ~rule:"cost-drift-dma" ~subject:t.kernel ~what:"sim.dma.bytes_out"
    ~expected:(n * 8 * t.words_out) obs.obs_dma_bytes_out;
  (match obs.obs_dma_sets with
  | None -> ()
  | Some got_sets ->
      let expected_sets = dma_words_per_set t ~n ~m:obs.obs_m in
      let norm = List.sort compare in
      if norm got_sets <> norm expected_sets then
        let summarize l =
          String.concat "; "
            (List.map
               (fun (s, wi, wo) -> Format.sprintf "set %d: %d in / %d out" s wi wo)
               (norm l))
        in
        fail ~rule:"cost-drift-dma" ~subject:t.kernel
          ~got:(List.length got_sets) ~expected:(List.length expected_sets)
          "per-set DMA words disagree: recorded [%s], predicted [%s]"
          (summarize got_sets) (summarize expected_sets));
  (match obs.obs_sites with
  | None -> ()
  | Some got_sites ->
      List.iter
        (fun s ->
          let subject = Format.sprintf "site %d (%s)" s.site_id s.site_desc in
          let instances = s.site_trips * n in
          match
            List.find_opt (fun (id, _, _, _, _) -> id = s.site_id) got_sites
          with
          | None ->
              if instances > 0 then
                fail ~rule:"cost-drift-trips" ~subject ~got:0
                  ~expected:instances
                  "site never observed but predicted %d instances" instances
          | Some (_, desc, got_instances, reads, writes) ->
              if desc <> s.site_desc then
                fail ~rule:"cost-drift-trips" ~subject ~got:0 ~expected:0
                  "site numbering disagrees: observed %S at this site" desc;
              if got_instances <> instances then
                fail ~rule:"cost-drift-trips" ~subject ~got:got_instances
                  ~expected:instances "observed %d instances, predicted %d"
                  got_instances instances;
              if reads <> s.site_reads * instances then
                fail ~rule:"cost-drift-access" ~subject ~got:reads
                  ~expected:(s.site_reads * instances)
                  "observed %d reads, predicted %d" reads
                  (s.site_reads * instances);
              if writes <> s.site_writes * instances then
                fail ~rule:"cost-drift-access" ~subject ~got:writes
                  ~expected:(s.site_writes * instances)
                  "observed %d writes, predicted %d" writes
                  (s.site_writes * instances))
        t.sites;
      List.iter
        (fun (id, desc, _, _, _) ->
          if not (List.exists (fun s -> s.site_id = id) t.sites) then
            fail ~rule:"cost-drift-trips"
              ~subject:(Format.sprintf "site %d (%s)" id desc) ~got:id
              ~expected:(List.length t.sites)
              "observed a probe site the static model does not know")
        got_sites);
  (match obs.obs_buffers with
  | None -> ()
  | Some got_buffers ->
      List.iter
        (fun b ->
          let got_reads, got_writes, got_pressure =
            match
              List.find_opt (fun (nm, _, _, _) -> nm = b.buf_name) got_buffers
            with
            | Some (_, r, w, p) -> (r, w, p)
            | None -> (0, 0, 0)
          in
          if got_reads <> b.buf_reads * n then
            fail ~rule:"cost-drift-access" ~subject:b.buf_name ~got:got_reads
              ~expected:(b.buf_reads * n) "observed %d reads, predicted %d"
              got_reads (b.buf_reads * n);
          if got_writes <> b.buf_writes * n then
            fail ~rule:"cost-drift-access" ~subject:b.buf_name ~got:got_writes
              ~expected:(b.buf_writes * n) "observed %d writes, predicted %d"
              got_writes (b.buf_writes * n);
          (* The recorder only sees pressure on buffers that were
             actually accessed; a never-touched buffer has no entry. *)
          if
            n > 0
            && (got_reads > 0 || got_writes > 0
                || b.buf_reads + b.buf_writes > 0)
            && got_pressure <> b.buf_peak_pressure
          then
            fail ~rule:"cost-drift-pressure" ~subject:b.buf_name
              ~got:got_pressure ~expected:b.buf_peak_pressure
              "observed peak per-instance pressure %d, predicted %d"
              got_pressure b.buf_peak_pressure)
        t.buffers;
      List.iter
        (fun (nm, _, _, _) ->
          if not (List.exists (fun b -> b.buf_name = nm) t.buffers) then
            fail ~rule:"cost-drift-access" ~subject:nm ~got:1 ~expected:0
              "observed accesses to a buffer the static model does not know")
        got_buffers);
  (match (cycle_model, obs.obs_total_cycles) with
  | Some ce, Some got when got <> ce.ce_total_cycles ->
      fail ~rule:"cost-drift-cycles" ~subject:t.kernel ~got
        ~expected:ce.ce_total_cycles
        "simulated controller reports %d total cycles, the closed form \
         predicts %d"
        got ce.ce_total_cycles
  | _ -> ());
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp ppf t =
  Format.fprintf ppf "static cost of %s:@." t.kernel;
  Format.fprintf ppf "  statements/run: %d   loop iterations/run: %d@."
    t.statements t.iterations;
  Format.fprintf ppf "  reads/run: %d   writes/run: %d@." t.reads t.writes;
  Format.fprintf ppf "  DMA words/element: %d in, %d out@." t.words_in
    t.words_out;
  Format.fprintf ppf "  sites:@.";
  List.iter
    (fun s ->
      Format.fprintf ppf "    %3d %-24s trips %d, %d reads + %d writes per trip@."
        s.site_id s.site_desc s.site_trips s.site_reads s.site_writes)
    t.sites;
  Format.fprintf ppf "  buffers:@.";
  List.iter
    (fun b ->
      Format.fprintf ppf
        "    %-12s reads %d, writes %d, peak pressure %d, port demand %d%s@."
        b.buf_name b.buf_reads b.buf_writes b.buf_peak_pressure
        b.buf_port_demand
        (match b.buf_port_budget with
        | Some bud -> Format.sprintf " / budget %d" bud
        | None -> " (kernel-local)"))
    t.buffers

let pp_cycle_estimate ppf ce =
  Format.fprintf ppf
    "round %d cycles, %d blocks: exec %d + transfer %d = %d cycles (%.6f s)"
    ce.ce_round_cycles ce.ce_blocks ce.ce_exec_cycles ce.ce_transfer_cycles
    ce.ce_total_cycles ce.ce_seconds
