module D = Diagnostic
module BS = Poly.Basic_set
module Aff = Poly.Aff
module Space = Poly.Space
module P = Loopir.Prog

type count = { value : int; exact : bool }

type site = {
  site_id : int;
  site_desc : string;
  site_trips : count;
  site_reads : int;
  site_writes : int;
}

type buffer = {
  buf_name : string;
  buf_reads : count;
  buf_writes : count;
  buf_peak_pressure : int;
  buf_port_demand : int;
  buf_port_budget : int option;
}

type t = {
  kernel : string;
  sites : site list;
  statements : count;
  iterations : count;
  reads : count;
  writes : count;
  buffers : buffer list;
  words_in : int;
  words_out : int;
  brams : int;
  diagnostics : Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Point counting                                                      *)
(* ------------------------------------------------------------------ *)

let default_budget = 100_000

let count_points ?(budget = default_budget) ~subject (set : BS.t) =
  let n = BS.arity set in
  if n = 0 then
    (* a leaf outside any loop: one point iff the (trivial) constraints
       are satisfiable *)
    ((if BS.is_empty set then { value = 0; exact = true }
      else { value = 1; exact = true }),
     [])
  else if BS.is_empty set then ({ value = 0; exact = true }, [])
  else
    match BS.bounding_box set with
    | None ->
        ( { value = 0; exact = false },
          [
            D.error ~rule:"cost-unbounded" ~subject
              (Format.asprintf "iteration domain is unbounded: %a" BS.pp set);
          ] )
    | Some box ->
        let volume =
          Array.fold_left (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1)) 1 box
        in
        (* Constraints touching at most one variable each describe a
           product of intervals: the bounding-box volume is the exact
           point count. *)
        let is_box =
          List.for_all
            (fun c ->
              let aff = match c with BS.Eq a | BS.Ge a -> a in
              let nz = ref 0 in
              for i = 0 to n - 1 do
                if Aff.coeff aff i <> 0 then incr nz
              done;
              !nz <= 1)
            (BS.constraints set)
        in
        if is_box then ({ value = volume; exact = true }, [])
        else if volume <= budget then
          ({ value = List.length (BS.enumerate set); exact = true }, [])
        else
          ( { value = volume; exact = false },
            [
              D.warning ~rule:"cost-inexact" ~subject
                ~witness:(D.Count (volume, budget))
                (Format.sprintf
                   "domain too large to enumerate (bounding box %d points > \
                    budget %d); using the Fourier-Motzkin bound product as an \
                    upper bound"
                   volume budget);
            ] )

(* ------------------------------------------------------------------ *)
(* The counting walk over the loop nest                                *)
(* ------------------------------------------------------------------ *)

(* env: enclosing loops, outermost first, with exclusive upper bounds *)
let set_of_env env =
  let n = List.length env in
  let box =
    List.concat
      (List.mapi
         (fun i (_, lo, hi) ->
           [
             BS.Ge (Aff.add_const (Aff.var n i) (-lo));
             BS.Ge (Aff.sub (Aff.const n (hi - 1)) (Aff.var n i));
           ])
         env)
  in
  BS.of_constraints (Space.anonymous n) box

let leaf_desc = function
  | P.Store { array; _ } -> "store " ^ array
  | P.Accum { array; _ } -> "accum " ^ array
  | P.Set_scalar { name; _ } -> "set " ^ name
  | P.Acc_scalar { name; _ } -> "acc " ^ name
  | P.For _ -> invalid_arg "leaf_desc: not a leaf"

let rec expr_loads acc = function
  | P.Const _ | P.Scalar _ -> acc
  | P.Load (a, _) ->
      let prev = Option.value ~default:0 (List.assoc_opt a acc) in
      (a, prev + 1) :: List.remove_assoc a acc
  | P.Add (x, y) | P.Sub (x, y) | P.Mul (x, y) | P.Div (x, y) ->
      expr_loads (expr_loads acc x) y

(* Loop-head iteration totals with [Loopir.Compiled]'s accounting: a
   loop running t times contributes t head iterations plus t executions
   of whatever its body contributes. Bounds are constant, so this is
   exact by construction. *)
let iteration_total body =
  let rec iters = function
    | P.For l ->
        let trip = max 0 (l.P.hi - l.P.lo) in
        let bi = List.fold_left (fun a s -> a + iters s) 0 l.P.body in
        trip + (trip * bi)
    | _ -> 0
  in
  List.fold_left (fun a s -> a + iters s) 0 body

let analyze ?budget ?(unroll = 1) ~(program : Lower.Flow.program)
    ~(memory : Mnemosyne.Memgen.architecture) ~(proc : P.proc) () =
  let diags = ref [] in
  let sites = ref [] in
  (* per leaf: (site record, per-buffer loads, write target option) *)
  let leaves = ref [] in
  let next = ref 0 in
  let leaf env stmt =
    let id = !next in
    incr next;
    let desc = leaf_desc stmt in
    let trips, ds =
      if env = [] then ({ value = 1; exact = true }, [])
      else count_points ?budget ~subject:desc (set_of_env env)
    in
    diags := !diags @ ds;
    let value, write =
      match stmt with
      | P.Store { array; value; _ } | P.Accum { array; value; _ } ->
          (value, Some array)
      | P.Set_scalar { value; _ } | P.Acc_scalar { value; _ } -> (value, None)
      | P.For _ -> assert false
    in
    let loads = expr_loads [] value in
    let total_reads = List.fold_left (fun a (_, c) -> a + c) 0 loads in
    let s =
      {
        site_id = id;
        site_desc = desc;
        site_trips = trips;
        site_reads = total_reads;
        site_writes = (if write = None then 0 else 1);
      }
    in
    sites := s :: !sites;
    leaves := (s, loads, write) :: !leaves
  in
  let rec walk env = function
    | P.For l -> List.iter (walk (env @ [ (l.P.var, l.P.lo, l.P.hi) ])) l.P.body
    | stmt -> leaf env stmt
  in
  List.iter (walk []) proc.P.body;
  let sites = List.rev !sites in
  let leaves = List.rev !leaves in
  let sum_counts f =
    List.fold_left
      (fun acc s ->
        {
          value = acc.value + (s.site_trips.value * f s);
          exact = acc.exact && s.site_trips.exact;
        })
      { value = 0; exact = true } sites
  in
  let statements = sum_counts (fun _ -> 1) in
  let reads = sum_counts (fun s -> s.site_reads) in
  let writes = sum_counts (fun s -> s.site_writes) in
  (* Per-buffer accounting over every declared buffer. *)
  let buffer_names =
    List.map (fun (p : P.param) -> p.P.name) proc.P.params
    @ List.map fst proc.P.locals
  in
  (* Port demand follows Mnemosyne's own per-array accounting (the same
     formula the share-ports rule checks the bank provisioning against):
     each unrolled lane issues its own reads, the register-accumulated
     write does not replicate, and two residents of one unit are never
     read in the same instance (rule share-interface), so a buffer's
     demand is the max over its resident arrays. *)
  let backing a =
    match List.assoc_opt a memory.Mnemosyne.Memgen.storage with
    | Some (buf, _) -> buf
    | None -> a
  in
  let flow_ports a =
    List.fold_left
      (fun acc (stmt : Lower.Flow.statement) ->
        let reads =
          List.length
            (List.filter
               (fun (r : Lower.Flow.access) -> r.Lower.Flow.array = a)
               (Lower.Flow.reads stmt))
        in
        let w = if stmt.Lower.Flow.write.Lower.Flow.array = a then 1 else 0 in
        max acc ((reads * unroll) + w))
      0 program.Lower.Flow.stmts
  in
  let buffer_demand name =
    List.fold_left
      (fun acc (a : Lower.Flow.array_info) ->
        if backing a.Lower.Flow.array_name = name then
          max acc (flow_ports a.Lower.Flow.array_name)
        else acc)
      0 program.Lower.Flow.arrays
  in
  let buffers =
    List.map
      (fun name ->
        let reads = ref { value = 0; exact = true } in
        let writes = ref { value = 0; exact = true } in
        let pressure = ref 0 in
        let demand = buffer_demand name in
        List.iter
          (fun ((s : site), loads, write) ->
            let l = Option.value ~default:0 (List.assoc_opt name loads) in
            let w = if write = Some name then 1 else 0 in
            if l > 0 then
              reads :=
                {
                  value = !reads.value + (l * s.site_trips.value);
                  exact = !reads.exact && s.site_trips.exact;
                };
            if w > 0 then
              writes :=
                {
                  value = !writes.value + s.site_trips.value;
                  exact = !writes.exact && s.site_trips.exact;
                };
            if l + w > 0 && s.site_trips.value > 0 then
              pressure := max !pressure (l + w))
          leaves;
        let budget =
          Option.map Mnemosyne.Memgen.port_budget
            (Mnemosyne.Memgen.unit_of_buffer memory name)
        in
        (match budget with
        | Some b when demand > b ->
            let u =
              match Mnemosyne.Memgen.unit_of_buffer memory name with
              | Some u -> u
              | None -> assert false
            in
            diags :=
              !diags
              @ [
                  D.warning ~rule:"cost-port-overcommit" ~subject:name
                    ~witness:(D.Count (demand, b))
                    (Format.sprintf
                       "worst per-instance port demand %d at unroll %d exceeds \
                        the unit budget %d (%d ports x %d copies)"
                       demand unroll b Fpga_platform.Bram.ports
                       u.Mnemosyne.Memgen.copies);
                ]
        | _ -> ());
        {
          buf_name = name;
          buf_reads = !reads;
          buf_writes = !writes;
          buf_peak_pressure = !pressure;
          buf_port_demand = demand;
          buf_port_budget = budget;
        })
      (List.sort_uniq compare buffer_names)
  in
  let words kind =
    List.fold_left
      (fun acc (a : Lower.Flow.array_info) ->
        if a.Lower.Flow.kind = kind then acc + a.Lower.Flow.size else acc)
      0 program.Lower.Flow.arrays
  in
  let brams =
    List.fold_left
      (fun acc (u : Mnemosyne.Memgen.plm_unit) ->
        acc
        + u.Mnemosyne.Memgen.copies
          * Fpga_platform.Bram.count_array ~words:u.Mnemosyne.Memgen.unit_words)
      0 memory.Mnemosyne.Memgen.units
  in
  {
    kernel = proc.P.name;
    sites;
    statements;
    iterations = { value = iteration_total proc.P.body; exact = true };
    reads;
    writes;
    buffers;
    words_in = words Lower.Flow.Input;
    words_out = words Lower.Flow.Output;
    brams;
    diagnostics = !diags;
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
  obs_statements : int option;
  obs_iterations : int option;
  obs_dma_bytes_in : int option;
  obs_dma_bytes_out : int option;
  obs_dma_sets : (int * int * int) list option;
  obs_sites : (int * string * int * int * int) list option;
  obs_buffers : (string * int * int * int) list option;
  obs_total_cycles : int option;
  obs_total_brams : int option;
}

let no_observation ~n ~m =
  {
    obs_elements = n;
    obs_m = m;
    obs_statements = None;
    obs_iterations = None;
    obs_dma_bytes_in = None;
    obs_dma_bytes_out = None;
    obs_dma_sets = None;
    obs_sites = None;
    obs_buffers = None;
    obs_total_cycles = None;
    obs_total_brams = None;
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
  if t.statements.exact then
    check ~rule:"cost-drift-trips" ~subject:t.kernel ~what:"exec.statements"
      ~expected:(t.statements.value * n) obs.obs_statements;
  check ~rule:"cost-drift-trips" ~subject:t.kernel ~what:"exec.iterations"
    ~expected:(t.iterations.value * n) obs.obs_iterations;
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
          if s.site_trips.exact then
            let subject = Format.sprintf "site %d (%s)" s.site_id s.site_desc in
            match
              List.find_opt (fun (id, _, _, _, _) -> id = s.site_id) got_sites
            with
            | None ->
                if s.site_trips.value * n > 0 then
                  fail ~rule:"cost-drift-trips" ~subject ~got:0
                    ~expected:(s.site_trips.value * n)
                    "site never observed but predicted %d instances"
                    (s.site_trips.value * n)
            | Some (_, desc, instances, reads, writes) ->
                if desc <> s.site_desc then
                  fail ~rule:"cost-drift-trips" ~subject ~got:0 ~expected:0
                    "site numbering disagrees: observed %S at this site" desc;
                if instances <> s.site_trips.value * n then
                  fail ~rule:"cost-drift-trips" ~subject ~got:instances
                    ~expected:(s.site_trips.value * n)
                    "observed %d instances, predicted %d" instances
                    (s.site_trips.value * n);
                if reads <> s.site_reads * s.site_trips.value * n then
                  fail ~rule:"cost-drift-access" ~subject ~got:reads
                    ~expected:(s.site_reads * s.site_trips.value * n)
                    "observed %d reads, predicted %d" reads
                    (s.site_reads * s.site_trips.value * n);
                if writes <> s.site_writes * s.site_trips.value * n then
                  fail ~rule:"cost-drift-access" ~subject ~got:writes
                    ~expected:(s.site_writes * s.site_trips.value * n)
                    "observed %d writes, predicted %d" writes
                    (s.site_writes * s.site_trips.value * n))
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
          if b.buf_reads.exact && got_reads <> b.buf_reads.value * n then
            fail ~rule:"cost-drift-access" ~subject:b.buf_name ~got:got_reads
              ~expected:(b.buf_reads.value * n) "observed %d reads, predicted %d"
              got_reads (b.buf_reads.value * n);
          if b.buf_writes.exact && got_writes <> b.buf_writes.value * n then
            fail ~rule:"cost-drift-access" ~subject:b.buf_name ~got:got_writes
              ~expected:(b.buf_writes.value * n)
              "observed %d writes, predicted %d" got_writes
              (b.buf_writes.value * n);
          (* The recorder only sees pressure on buffers that were
             actually accessed; a never-touched buffer has no entry. *)
          if
            t.statements.exact && n > 0
            && (got_reads > 0 || got_writes > 0
                || b.buf_reads.value + b.buf_writes.value > 0)
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
  (match obs.obs_total_brams with
  | None -> ()
  | Some got ->
      if got <> t.brams then
        fail ~rule:"cost-drift-brams" ~subject:t.kernel ~got ~expected:t.brams
          "architecture claims %d BRAM18 but the platform rule gives %d" got
          t.brams);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_count ppf c =
  Format.fprintf ppf "%d%s" c.value (if c.exact then "" else " (upper bound)")

let pp ppf t =
  Format.fprintf ppf "static cost of %s:@." t.kernel;
  Format.fprintf ppf "  statements/run: %a   loop iterations/run: %a@."
    pp_count t.statements pp_count t.iterations;
  Format.fprintf ppf "  reads/run: %a   writes/run: %a@." pp_count t.reads
    pp_count t.writes;
  Format.fprintf ppf "  DMA words/element: %d in, %d out@." t.words_in
    t.words_out;
  Format.fprintf ppf "  PLM BRAM18 (platform rule): %d@." t.brams;
  Format.fprintf ppf "  sites:@.";
  List.iter
    (fun s ->
      Format.fprintf ppf "    %3d %-24s trips %a, %d reads + %d writes per trip@."
        s.site_id s.site_desc pp_count s.site_trips s.site_reads s.site_writes)
    t.sites;
  Format.fprintf ppf "  buffers:@.";
  List.iter
    (fun b ->
      Format.fprintf ppf
        "    %-12s reads %a, writes %a, peak pressure %d, port demand %d%s@."
        b.buf_name pp_count b.buf_reads pp_count b.buf_writes
        b.buf_peak_pressure b.buf_port_demand
        (match b.buf_port_budget with
        | Some bud -> Format.sprintf " / budget %d" bud
        | None -> " (kernel-local)"))
    t.buffers;
  match t.diagnostics with
  | [] -> ()
  | ds ->
      Format.fprintf ppf "  diagnostics:@.";
      List.iter (fun d -> Format.fprintf ppf "    %a@." D.pp d) ds

let pp_cycle_estimate ppf ce =
  Format.fprintf ppf
    "round %d cycles, %d blocks: exec %d + transfer %d = %d cycles (%.6f s)"
    ce.ce_round_cycles ce.ce_blocks ce.ce_exec_cycles ce.ce_transfer_cycles
    ce.ce_total_cycles ce.ce_seconds
