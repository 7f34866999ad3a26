(* Dynamic live-interval audit: run a kernel once under an instrumented
   engine and check its *observed* memory behaviour against the static
   model that licensed the PLM architecture.

   The audit regenerates the (unscalarized) loop nest from the
   polyhedral program with [Lower.Codegen.generate_with_provenance], so
   every probe site maps back to a Flow statement and its loop variables.
   At run time each leaf instance reconstructs its exact schedule-space
   timestamp (Kelly tuple via [Lower.Schedule.timestamp]); every array
   access is then attributed to the storage residents whose static
   per-element live interval ([Liveness.Analysis.element_intervals])
   contains that timestamp. Three rules fall out:

   - [memprof-live-escape]: an access touched a word of the buffer at a
     timestamp where no resident's static element interval was live —
     the observed behaviour escapes the static liveness model;
   - [memprof-slot-conflict]: two residents of one buffer were observed
     live on the same physical word at overlapping times — the
     address-space sharing decision is dynamically refuted (this is what
     a forced illegal [Sharing.merge_storage ~force:true] provokes);
   - [memprof-port-pressure]: some leaf instance performed more
     simultaneous accesses to a PLM unit (reads x unroll + writes,
     Mnemosyne's own accounting) than the unit's physical budget of
     [Fpga_platform.Bram.ports * copies].

   Access patterns of this affine IR are data-independent, so one run
   over deterministic synthetic inputs observes every access the
   schedule will ever perform. *)

module D = Analysis.Diagnostic
module L = Liveness.Analysis
module Memgen = Mnemosyne.Memgen

exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Keep diagnostic floods bounded: report at most this many witnesses
   per rule, then a summary count. *)
let max_reported = 4

type resident = {
  res_array : string;
  res_kind : Lower.Flow.array_kind;
  res_offset : int;
  res_size : int;
  res_static : (int, Poly.Lex.interval) Hashtbl.t;  (* element offset *)
  res_obs : Poly.Lex.interval option array;  (* observed hull per element *)
}

type unit_stat = {
  u_name : string;
  u_words : int;
  u_brams : int;
  u_copies : int;
  u_port_budget : int;
  u_reads : int;
  u_writes : int;
  u_words_touched : int;
  u_max_pressure : int;
  u_max_at : (string * int array) option;  (* instance of the maximum *)
  u_residents : string list;
}

type array_obs = {
  o_array : string;
  o_static : Poly.Lex.interval;
  o_observed : Poly.Lex.interval option;  (* None when never accessed *)
  o_contained : bool;
}

type series = (int * int) array
(* (instance sequence number, value) samples *)

type result = {
  r_label : string;
  r_arch : Memgen.architecture option;
  r_diagnostics : D.t list;
  r_units : unit_stat list;
  r_arrays : array_obs list;
  r_instances : int;
  r_accesses : int;
  r_pressure_series : (string * series) list;  (* per unit *)
  r_occupancy_series : (string * series) list;  (* per unit, cumulative *)
}

let resolve storage a =
  match List.assoc_opt a storage with Some x -> x | None -> (a, 0)

(* Mutable per-unit accumulator while the instrumented run executes. *)
type u_acc = {
  ua_unit : Memgen.plm_unit;
  ua_hist : Obs.Metrics.histogram option;
  mutable ua_reads : int;
  mutable ua_writes : int;
  mutable ua_tally_r : int;  (* current instance *)
  mutable ua_tally_w : int;
  ua_touched : (int, unit) Hashtbl.t;
  mutable ua_max : int;
  mutable ua_max_at : (string * int array) option;
  mutable ua_pressure : (int * int) list;  (* reversed series *)
  mutable ua_occupancy : (int * int) list;  (* reversed series *)
}

type site_meta = {
  sm_stmt : string;
  sm_sched : Lower.Schedule.sched1;
  sm_perm : int array;  (* domain dim -> position among enclosing vars *)
}

let bracket kind (iv : Poly.Lex.interval) =
  let first =
    match kind with Lower.Flow.Input -> L.virtual_first | _ -> iv.Poly.Lex.first
  in
  let last =
    match kind with Lower.Flow.Output -> L.virtual_last | _ -> iv.Poly.Lex.last
  in
  Poly.Lex.interval first last

let observed_at r off =
  match r.res_obs.(off) with
  | None -> None
  | Some iv -> Some (bracket r.res_kind iv)

let run_core ~label ~(units : Memgen.plm_unit list) ~unroll ~options ~storage
    (program : Lower.Flow.program) schedule =
  let live = L.analyze program schedule in
  (* residents per storage buffer, with exact static element liveness *)
  let residents : (string, resident list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : Lower.Flow.array_info) ->
      let buffer, offset = resolve storage a.Lower.Flow.array_name in
      let elem = Hashtbl.create (max 16 a.Lower.Flow.size) in
      List.iter
        (fun (off, iv) -> Hashtbl.replace elem off iv)
        (L.element_intervals program schedule a.Lower.Flow.array_name);
      let r =
        {
          res_array = a.Lower.Flow.array_name;
          res_kind = a.Lower.Flow.kind;
          res_offset = offset;
          res_size = a.Lower.Flow.size;
          res_static = elem;
          res_obs = Array.make a.Lower.Flow.size None;
        }
      in
      Hashtbl.replace residents buffer
        (r :: Option.value ~default:[] (Hashtbl.find_opt residents buffer)))
    program.Lower.Flow.arrays;
  let proc, leaves =
    Lower.Codegen.generate_with_provenance ~options ~storage program schedule
  in
  let leaves = Array.of_list leaves in
  let stmt_by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : Lower.Flow.statement) ->
      Hashtbl.replace stmt_by_name s.Lower.Flow.stmt_name s)
    program.Lower.Flow.stmts;
  (* per-unit accumulators keyed by buffer name *)
  let uaccs : (string, u_acc) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (u : Memgen.plm_unit) ->
      Hashtbl.replace uaccs u.Memgen.unit_name
        {
          ua_unit = u;
          ua_hist =
            Some
              (Obs.Metrics.histogram
                 (Printf.sprintf "memprof.%s.pressure.%s" label
                    u.Memgen.unit_name));
          ua_reads = 0;
          ua_writes = 0;
          ua_tally_r = 0;
          ua_tally_w = 0;
          ua_touched = Hashtbl.create 64;
          ua_max = 0;
          ua_max_at = None;
          ua_pressure = [];
          ua_occupancy = [];
        })
    units;
  (* probe state: the current instance *)
  let site_meta : site_meta option array = Array.make (Array.length leaves) None in
  let seq = ref 0 in
  let cur_ts = ref [||] in
  let cur_stmt = ref "" in
  let cur_x = ref [||] in
  let accesses = ref 0 in
  let escapes = ref 0 in
  let escape_diags = ref [] in
  let flush_tally () =
    Hashtbl.iter
      (fun _ ua ->
        if ua.ua_tally_r > 0 || ua.ua_tally_w > 0 then begin
          let pressure = (ua.ua_tally_r * unroll) + ua.ua_tally_w in
          (match ua.ua_hist with
          | Some h -> Obs.Metrics.observe h (float_of_int pressure)
          | None -> ());
          ua.ua_pressure <- (!seq, pressure) :: ua.ua_pressure;
          if pressure > ua.ua_max then begin
            ua.ua_max <- pressure;
            ua.ua_max_at <- Some (!cur_stmt, Array.copy !cur_x)
          end;
          ua.ua_tally_r <- 0;
          ua.ua_tally_w <- 0
        end)
      uaccs
  in
  let on_site ~site ~vars ~stmt =
    ignore stmt;
    if site >= Array.length leaves then
      errf "probe site %d beyond codegen provenance (%d leaves)" site
        (Array.length leaves);
    let leaf = leaves.(site) in
    let rank = Array.length leaf.Lower.Codegen.leaf_vars in
    let perm =
      Array.init rank (fun d ->
          let name = leaf.Lower.Codegen.leaf_vars.(d) in
          let found = ref (-1) in
          Array.iteri (fun j v -> if v = name then found := j) vars;
          if !found < 0 then
            errf "provenance mismatch at site %d: loop %s of %s not enclosing"
              site name leaf.Lower.Codegen.leaf_stmt;
          !found)
    in
    if not (Hashtbl.mem stmt_by_name leaf.Lower.Codegen.leaf_stmt) then
      errf "provenance names unknown statement %s" leaf.Lower.Codegen.leaf_stmt;
    site_meta.(site) <-
      Some
        {
          sm_stmt = leaf.Lower.Codegen.leaf_stmt;
          sm_sched = Lower.Schedule.find schedule leaf.Lower.Codegen.leaf_stmt;
          sm_perm = perm;
        }
  in
  let on_instance ~site ~values =
    flush_tally ();
    incr seq;
    match site_meta.(site) with
    | None -> errf "instance at unregistered probe site %d" site
    | Some m ->
        let x = Array.map (fun j -> values.(j)) m.sm_perm in
        cur_ts := Lower.Schedule.timestamp schedule m.sm_sched x;
        cur_stmt := m.sm_stmt;
        cur_x := x
  in
  let slot_names = Array.map fst (Loopir.Compiled.array_slots proc) in
  let on_access ~site:_ ~slot ~index ~write =
    let buffer = slot_names.(slot) in
    incr accesses;
    let ts = !cur_ts in
    let rs = Option.value ~default:[] (Hashtbl.find_opt residents buffer) in
    let covering =
      List.filter
        (fun r -> index >= r.res_offset && index < r.res_offset + r.res_size)
        rs
    in
    let live_rs =
      List.filter
        (fun r ->
          match Hashtbl.find_opt r.res_static (index - r.res_offset) with
          | Some iv -> Poly.Lex.contains (bracket r.res_kind iv) ts
          | None -> false)
        covering
    in
    if live_rs = [] then begin
      incr escapes;
      if !escapes <= max_reported then
        escape_diags :=
          D.error ~rule:"memprof-live-escape" ~subject:buffer
            ~witness:(D.Element (buffer, index))
            (Format.asprintf
               "%s of %s[%d] by %s%a at t=%a outside every resident's static \
                live interval (residents: %s)"
               (if write then "write" else "read")
               buffer index !cur_stmt
               (fun ppf x ->
                 Format.fprintf ppf "(%s)"
                   (String.concat ","
                      (Array.to_list (Array.map string_of_int x))))
               !cur_x Poly.Lex.pp_timestamp ts
               (match covering with
               | [] -> "none cover this word"
               | l -> String.concat ", " (List.map (fun r -> r.res_array) l)))
          :: !escape_diags
    end
    else
      List.iter
        (fun r ->
          let off = index - r.res_offset in
          let s = Poly.Lex.singleton ts in
          r.res_obs.(off) <-
            (match r.res_obs.(off) with
            | None -> Some s
            | Some iv -> Some (Poly.Lex.hull iv s)))
        live_rs;
    match Hashtbl.find_opt uaccs buffer with
    | None -> ()
    | Some ua ->
        if write then begin
          ua.ua_writes <- ua.ua_writes + 1;
          ua.ua_tally_w <- ua.ua_tally_w + 1
        end
        else begin
          ua.ua_reads <- ua.ua_reads + 1;
          ua.ua_tally_r <- ua.ua_tally_r + 1
        end;
        if not (Hashtbl.mem ua.ua_touched index) then begin
          Hashtbl.replace ua.ua_touched index ();
          ua.ua_occupancy <- (!seq, Hashtbl.length ua.ua_touched) :: ua.ua_occupancy
        end
  in
  let probe = { Loopir.Compiled.on_site; on_instance; on_access } in
  let t = Loopir.Compiled.compile ~mode:Loopir.Compiled.Checked ~probe proc in
  let fr = Loopir.Compiled.make_frame t in
  (* deterministic synthetic inputs; access patterns are data-independent *)
  List.iter
    (fun (p : Loopir.Prog.param) ->
      if p.Loopir.Prog.dir = Loopir.Prog.In then begin
        let buf = Loopir.Compiled.buffer t fr p.Loopir.Prog.name in
        Array.iteri
          (fun i _ ->
            buf.(i) <- (float_of_int (((i + 1) * 13) mod 89) /. 89.) +. 0.5)
          buf
      end)
    proc.Loopir.Prog.params;
  Loopir.Compiled.run t fr;
  flush_tally ();
  (* every site must have fired on_site during compilation *)
  Array.iteri
    (fun i m -> if m = None then errf "probe site %d never registered" i)
    site_meta;
  let diags = ref (List.rev !escape_diags) in
  if !escapes > max_reported then
    diags :=
      !diags
      @ [
          D.error ~rule:"memprof-live-escape" ~subject:program.Lower.Flow.prog_name
            (Printf.sprintf "%d further live-interval escapes not listed"
               (!escapes - max_reported));
        ];
  (* observed array hulls vs the array-level static intervals *)
  let arrays_obs =
    List.map
      (fun (a : Lower.Flow.array_info) ->
        let name = a.Lower.Flow.array_name in
        let buffer, _ = resolve storage name in
        let r =
          List.find
            (fun r -> r.res_array = name)
            (Hashtbl.find residents buffer)
        in
        let observed =
          Array.fold_left
            (fun acc obs ->
              match obs with
              | None -> acc
              | Some iv -> (
                  let iv = bracket r.res_kind iv in
                  match acc with
                  | None -> Some iv
                  | Some h -> Some (Poly.Lex.hull h iv)))
            None r.res_obs
        in
        let static = (L.find live name).L.interval in
        let contained =
          match observed with
          | None -> true
          | Some o ->
              Poly.Lex.le static.Poly.Lex.first o.Poly.Lex.first
              && Poly.Lex.le o.Poly.Lex.last static.Poly.Lex.last
        in
        if not contained then
          diags :=
            !diags
            @ [
                D.error ~rule:"memprof-live-escape" ~subject:name
                  ~witness:
                    (D.Intervals (static, Option.get observed))
                  (Printf.sprintf
                     "observed live interval of %s escapes its static interval"
                     name);
              ];
        { o_array = name; o_static = static; o_observed = observed;
          o_contained = contained })
      program.Lower.Flow.arrays
  in
  (* slot conflicts: two residents observed live on one physical word *)
  let conflicts = ref 0 in
  Hashtbl.iter
    (fun buffer rs ->
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                let lo = max a.res_offset b.res_offset in
                let hi =
                  min (a.res_offset + a.res_size) (b.res_offset + b.res_size)
                in
                let found = ref false in
                let w = ref lo in
                while (not !found) && !w < hi do
                  (match
                     ( observed_at a (!w - a.res_offset),
                       observed_at b (!w - b.res_offset) )
                   with
                  | Some ia, Some ib when Poly.Lex.overlap ia ib ->
                      found := true;
                      incr conflicts;
                      if !conflicts <= max_reported then
                        diags :=
                          !diags
                          @ [
                              D.error ~rule:"memprof-slot-conflict"
                                ~subject:buffer
                                ~witness:(D.Intervals (ia, ib))
                                (Printf.sprintf
                                   "%s and %s observed simultaneously live \
                                    on word %d of %s"
                                   a.res_array b.res_array !w buffer);
                            ]
                  | _ -> ());
                  incr w
                done)
              rest;
            pairs rest
      in
      pairs rs)
    residents;
  if !conflicts > max_reported then
    diags :=
      !diags
      @ [
          D.error ~rule:"memprof-slot-conflict"
            ~subject:program.Lower.Flow.prog_name
            (Printf.sprintf "%d further slot conflicts not listed"
               (!conflicts - max_reported));
        ];
  (* port pressure vs the physical budget *)
  let unit_stats =
    List.map
      (fun (u : Memgen.plm_unit) ->
        let ua = Hashtbl.find uaccs u.Memgen.unit_name in
        let budget = Memgen.port_budget u in
        if ua.ua_max > budget then
          diags :=
            !diags
            @ [
                D.error ~rule:"memprof-port-pressure" ~subject:u.Memgen.unit_name
                  ?witness:
                    (Option.map
                       (fun (s, x) -> D.Instance (s, x))
                       ua.ua_max_at)
                  (Printf.sprintf
                     "observed %d simultaneous accesses to %s, budget is %d \
                      (%d ports x %d copies)"
                     ua.ua_max u.Memgen.unit_name budget
                     Fpga_platform.Bram.ports u.Memgen.copies);
              ];
        {
          u_name = u.Memgen.unit_name;
          u_words = u.Memgen.unit_words;
          u_brams = u.Memgen.brams;
          u_copies = u.Memgen.copies;
          u_port_budget = budget;
          u_reads = ua.ua_reads;
          u_writes = ua.ua_writes;
          u_words_touched = Hashtbl.length ua.ua_touched;
          u_max_pressure = ua.ua_max;
          u_max_at = ua.ua_max_at;
          u_residents =
            List.concat_map
              (fun (s : Memgen.slot) -> s.Memgen.residents)
              u.Memgen.slots;
        })
      units
  in
  (* sorted by unit name: the order the report's counter tracks and the
     device timeline's PLM tracks are emitted in *)
  let series sel =
    List.map
      (fun (u : Memgen.plm_unit) ->
        let ua = Hashtbl.find uaccs u.Memgen.unit_name in
        (u.Memgen.unit_name, Array.of_list (List.rev (sel ua))))
      units
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* One structured warning per failing audit (witness details stay in
     the diagnostics themselves): visible on stderr, counted, and
     retained by the flight recorder next to the run's spans. *)
  (if !diags <> [] then
     Obs.Log.warn ~scope:"memprof"
       ~attrs:[ ("label", label) ]
       "audit %s: %d diagnostic%s" label (List.length !diags)
       (if List.length !diags = 1 then "" else "s"));
  {
    r_label = label;
    r_arch = None;
    r_diagnostics = !diags;
    r_units = unit_stats;
    r_arrays = arrays_obs;
    r_instances = !seq;
    r_accesses = !accesses;
    r_pressure_series = series (fun ua -> ua.ua_pressure);
    r_occupancy_series = series (fun ua -> ua.ua_occupancy);
  }

(* At most [max_samples] samples, keeping each bucket's maximum — the
   audit-relevant value of a pressure series. *)
let max_samples = 1024

let downsample (s : series) =
  let n = Array.length s in
  if n <= max_samples then s
  else
    Array.init max_samples (fun b ->
        let lo = b * n / max_samples and hi = ((b + 1) * n / max_samples) - 1 in
        let best = ref s.(lo) in
        for i = lo + 1 to hi do
          if snd s.(i) > snd !best then best := s.(i)
        done;
        !best)

let mode_label = function
  | Memgen.No_sharing -> "no-sharing"
  | Memgen.Sharing -> "sharing"

let run ?(scope = Memgen.All) ?(unroll = 1) ~mode program schedule =
  let label = mode_label mode in
  Obs.Trace.with_span ~attrs:[ ("label", label) ] "memprof.audit" (fun () ->
      let arch = Memgen.generate ~scope ~unroll ~mode program schedule in
      let options =
        { Lower.Codegen.default with
          Lower.Codegen.exported_temps = scope = Memgen.All }
      in
      let r =
        run_core ~label ~units:arch.Memgen.units ~unroll ~options
          ~storage:arch.Memgen.storage program schedule
      in
      { r with r_arch = Some arch })

let audit_storage ?(label = "custom") ~storage program schedule =
  let r =
    run_core ~label ~units:[] ~unroll:1 ~options:Lower.Codegen.default ~storage
      program schedule
  in
  r.r_diagnostics
