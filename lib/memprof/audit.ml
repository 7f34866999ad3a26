(* Dynamic live-interval audit: run a kernel once under an instrumented
   engine and check its *observed* memory behaviour against the static
   model that licensed the PLM architecture.

   The audit runs the kernel that ships: the scalarized loop nest of
   [Lower.Codegen.scalarized_with_provenance], which the simulator and
   the recorder run too, so every probe site maps back to a Flow
   statement and its loop variables. At run time each leaf instance
   rebuilds its exact schedule-space timestamp (Kelly tuple) in one
   reused array; the store that spills a scalarized accumulator after
   its nest takes the timestamp of the reduction's last instance, its
   reduction dimensions pinned at their upper bound. Every array access is
   then attributed to the storage residents whose static per-element
   live interval ([Analysis.Verify.element_liveness], bracketed by the
   virtual first/last statements for interface arrays) contains that
   timestamp. Timestamps stay flat, [tuple_arity] ints per element,
   compared in place; they become [Poly.Lex] intervals only in
   diagnostics and the report. Three rules fall out:

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
module V = Analysis.Verify
module Memgen = Mnemosyne.Memgen

exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Keep diagnostic floods bounded: report at most this many witnesses
   per rule, then a summary count. *)
let max_reported = 4

(* One array in its storage buffer: its static element liveness and,
   per element, the first and last timestamps the run attributed to it
   ([tuple_arity] ints each; [max_int]s and [min_int]s until the first). *)
type resident = {
  res_array : string;
  res_kind : Lower.Flow.array_kind;
  res_buffer : string;
  res_offset : int;
  res_size : int;
  res_static : V.element_stamps;
  res_first : int array;
  res_last : int array;
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

(* (instance sequence number, value) samples, interleaved in one
   growing int array until the run ends. *)
type samples = { mutable buf : int array; mutable len : int }

let push s at value =
  if s.len = Array.length s.buf then
    s.buf <- Array.append s.buf (Array.make (s.len + 2) 0);
  s.buf.(s.len) <- at;
  s.buf.(s.len + 1) <- value;
  s.len <- s.len + 2

let to_series s : series =
  Array.init (s.len / 2) (fun i -> (s.buf.(2 * i), s.buf.((2 * i) + 1)))

(* Mutable per-unit accumulator while the instrumented run executes. *)
type u_acc = {
  ua_unit : Memgen.plm_unit;
  ua_hist : Obs.Metrics.histogram;
  mutable ua_reads : int;
  mutable ua_writes : int;
  mutable ua_tally_r : int;  (* current instance *)
  mutable ua_tally_w : int;
  ua_touched : Bytes.t;  (* per word of the unit's buffer *)
  mutable ua_words_touched : int;
  mutable ua_max : int;
  mutable ua_max_at : (string * int array) option;
  ua_pressure : samples;
  ua_occupancy : samples;
}

(* A probe site's statement, its timestamp, the enclosing-loop position
   of each domain dimension (-1 for a fixed coordinate), and its
   instance point, rebuilt in place at each instance. *)
type site = {
  s_stmt : string;
  s_stamp : V.stamp;
  s_perm : int array;
  s_x : int array;
}

(* Lexicographic comparison of the [n]-int timestamps at [a.(i)] and
   [b.(j)]. *)
let compare_at n (a : int array) i (b : int array) j =
  let p = ref 0 in
  while !p < n && a.(i + !p) = b.(j + !p) do
    incr p
  done;
  if !p = n then 0 else compare a.(i + !p) b.(j + !p)

(* Whether [ts] lies in resident [r]'s static live interval on element
   [e]: from its first write (the virtual first for an input) to its last
   access (the virtual last for an output). *)
let statically_live n r e ts =
  let s = r.res_static and base = e * n in
  (r.res_kind = Lower.Flow.Input
  || (Bytes.get s.V.written e = '\001' && compare_at n ts 0 s.V.first_write base >= 0))
  && (r.res_kind = Lower.Flow.Output || compare_at n ts 0 s.V.last_access base <= 0)

let set_at n (a : int array) base (ts : int array) =
  for p = 0 to n - 1 do
    a.(base + p) <- ts.(p)
  done

let observe n r e ts =
  let base = e * n in
  if compare_at n ts 0 r.res_first base < 0 then set_at n r.res_first base ts;
  if compare_at n ts 0 r.res_last base > 0 then set_at n r.res_last base ts

let seen n r e = r.res_first.(e * n) <> max_int

(* Whether [a]'s observed interval on element [ea] starts no later than
   [b]'s ends on [eb], the virtual bracket included. *)
let starts_by n a ea b eb =
  a.res_kind = Lower.Flow.Input
  || b.res_kind = Lower.Flow.Output
  || compare_at n a.res_first (ea * n) b.res_last (eb * n) <= 0

(* The observed interval from element [first]'s first to element
   [last]'s last timestamp, bracketed for interface arrays. *)
let observed_interval n r ~first ~last =
  Poly.Lex.interval
    (if r.res_kind = Lower.Flow.Input then L.virtual_first
     else Array.sub r.res_first (first * n) n)
    (if r.res_kind = Lower.Flow.Output then L.virtual_last
     else Array.sub r.res_last (last * n) n)

let run_core ~label ~(units : Memgen.plm_unit list) ~unroll ~options ~storage
    (program : Lower.Flow.program) schedule =
  let n = Lower.Schedule.tuple_arity schedule in
  let live = L.analyze program schedule in
  let residents =
    List.map
      (fun (name, stamps) ->
        let a = Lower.Flow.array_info program name in
        let buffer, offset = resolve storage name in
        let size = a.Lower.Flow.size in
        {
          res_array = name;
          res_kind = a.Lower.Flow.kind;
          res_buffer = buffer;
          res_offset = offset;
          res_size = size;
          res_static = stamps;
          res_first = Array.make (size * n) max_int;
          res_last = Array.make (size * n) min_int;
        })
      (V.element_liveness program schedule)
  in
  let proc, leaves =
    Lower.Codegen.scalarized_with_provenance ~options ~storage program schedule
  in
  let leaves = Array.of_list leaves in
  (* per array slot: its residents, latest-declared first, and its PLM
     unit's accumulator *)
  let slots = Loopir.Compiled.array_slots proc in
  let slot_residents =
    Array.map
      (fun (buffer, _) ->
        Array.of_list
          (List.rev (List.filter (fun r -> r.res_buffer = buffer) residents)))
      slots
  in
  let uaccs =
    Array.map
      (fun (u : Memgen.plm_unit) ->
        let words =
          Array.fold_left
            (fun acc (b, size) -> if b = u.Memgen.unit_name then size else acc)
            0 slots
        in
        {
          ua_unit = u;
          ua_hist =
            Obs.Metrics.histogram
              (Printf.sprintf "memprof.%s.pressure.%s" label u.Memgen.unit_name);
          ua_reads = 0;
          ua_writes = 0;
          ua_tally_r = 0;
          ua_tally_w = 0;
          ua_touched = Bytes.make words '\000';
          ua_words_touched = 0;
          ua_max = 0;
          ua_max_at = None;
          ua_pressure = { buf = [||]; len = 0 };
          ua_occupancy = { buf = [||]; len = 0 };
        })
      (Array.of_list units)
  in
  let slot_unit =
    Array.map
      (fun (buffer, _) ->
        Array.find_opt (fun ua -> ua.ua_unit.Memgen.unit_name = buffer) uaccs)
      slots
  in
  (* probe state: the current instance *)
  let sites : site option array = Array.make (Array.length leaves) None in
  let seq = ref 0 in
  let ts = Array.make n 0 in
  let cur_stmt = ref "" in
  let cur_x = ref [||] in
  let accesses = ref 0 in
  let escapes = ref 0 in
  let escape_diags = ref [] in
  let flush_tally () =
    for i = 0 to Array.length uaccs - 1 do
      let ua = uaccs.(i) in
      if ua.ua_tally_r > 0 || ua.ua_tally_w > 0 then begin
        let pressure = (ua.ua_tally_r * unroll) + ua.ua_tally_w in
        push ua.ua_pressure !seq pressure;
        if pressure > ua.ua_max then begin
          ua.ua_max <- pressure;
          ua.ua_max_at <- Some (!cur_stmt, Array.copy !cur_x)
        end;
        ua.ua_tally_r <- 0;
        ua.ua_tally_w <- 0
      end
    done
  in
  let on_site ~site ~vars ~stmt =
    ignore stmt;
    if site >= Array.length leaves then
      errf "probe site %d beyond codegen provenance (%d leaves)" site
        (Array.length leaves);
    let leaf = leaves.(site) in
    let name = leaf.Lower.Codegen.leaf_stmt in
    let coords = leaf.Lower.Codegen.leaf_coords in
    let x = Array.make (Array.length coords) 0 in
    let perm =
      Array.mapi
        (fun d -> function
          | Lower.Codegen.Fixed v ->
              x.(d) <- v;
              -1
          | Lower.Codegen.Loop var ->
              let found = ref (-1) in
              Array.iteri (fun j v -> if v = var then found := j) vars;
              if !found < 0 then
                errf "provenance mismatch at site %d: loop %s of %s not enclosing"
                  site var name;
              !found)
        coords
    in
    sites.(site) <-
      Some
        {
          s_stmt = name;
          s_stamp = V.stamp ~tuple_arity:n (Lower.Schedule.find schedule name);
          s_perm = perm;
          s_x = x;
        }
  in
  let on_instance ~site ~values =
    flush_tally ();
    incr seq;
    match sites.(site) with
    | None -> errf "instance at unregistered probe site %d" site
    | Some s ->
        for d = 0 to Array.length s.s_perm - 1 do
          let j = s.s_perm.(d) in
          if j >= 0 then s.s_x.(d) <- values.(j)
        done;
        V.store s.s_stamp s.s_x ts 0;
        cur_stmt := s.s_stmt;
        cur_x := s.s_x
  in
  let escape buffer index write rs =
    incr escapes;
    if !escapes <= max_reported then
      let covering =
        List.filter
          (fun r -> index >= r.res_offset && index < r.res_offset + r.res_size)
          (Array.to_list rs)
      in
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
                 (String.concat "," (Array.to_list (Array.map string_of_int x))))
             !cur_x Poly.Lex.pp_timestamp ts
             (match covering with
             | [] -> "none cover this word"
             | l -> String.concat ", " (List.map (fun r -> r.res_array) l)))
        :: !escape_diags
  in
  let on_access ~site:_ ~slot ~index ~write =
    incr accesses;
    let rs = slot_residents.(slot) in
    let attributed = ref false in
    for i = 0 to Array.length rs - 1 do
      let r = rs.(i) in
      let e = index - r.res_offset in
      if e >= 0 && e < r.res_size && statically_live n r e ts then begin
        attributed := true;
        observe n r e ts
      end
    done;
    if not !attributed then escape (fst slots.(slot)) index write rs;
    match slot_unit.(slot) with
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
        if Bytes.get ua.ua_touched index = '\000' then begin
          Bytes.set ua.ua_touched index '\001';
          ua.ua_words_touched <- ua.ua_words_touched + 1;
          push ua.ua_occupancy !seq ua.ua_words_touched
        end
  in
  (* a Checked compile fuses no loop *)
  let fused what site =
    errf "fused %s event at probe site %d in a checked audit run" what site
  in
  let on_mac ~site ~values:_ ~lo:_ ~count:_ ~x:_ ~ix:_ ~dx:_ ~y:_ ~iy:_ ~dy:_ =
    fused "MAC" site
  in
  let on_nest ~site ~values:_ ~lo:_ ~count:_ ~mac_lo:_ ~mac_count:_ ~x:_ ~ix:_
      ~ox:_ ~dx:_ ~y:_ ~iy:_ ~oy:_ ~dy:_ ~a:_ ~ia:_ ~oa:_ =
    fused "nest" site
  in
  let on_pointwise ~site ~values:_ ~lo:_ ~count:_ ~x:_ ~ix:_ ~dx:_ ~y:_ ~iy:_
      ~dy:_ ~a:_ ~ia:_ ~da:_ =
    fused "pointwise" site
  in
  let probe =
    {
      Loopir.Compiled.on_site;
      on_instance;
      on_access;
      on_mac;
      on_nest;
      on_pointwise;
    }
  in
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
  (* each unit's pressures into its histogram, one lock per value *)
  Array.iter
    (fun ua ->
      let counts = Array.make (ua.ua_max + 1) 0 in
      for i = 0 to (ua.ua_pressure.len / 2) - 1 do
        let p = ua.ua_pressure.buf.((2 * i) + 1) in
        counts.(p) <- counts.(p) + 1
      done;
      Array.iteri
        (fun p c -> Obs.Metrics.observe_n ua.ua_hist (float_of_int p) c)
        counts)
    uaccs;
  (* every site must have fired on_site during compilation *)
  Array.iteri
    (fun i s -> if s = None then errf "probe site %d never registered" i)
    sites;
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
      (fun r ->
        let first = ref 0 and last = ref 0 in
        for e = 1 to r.res_size - 1 do
          if compare_at n r.res_first (e * n) r.res_first (!first * n) < 0 then first := e;
          if compare_at n r.res_last (e * n) r.res_last (!last * n) > 0 then last := e
        done;
        let observed =
          if r.res_size = 0 || not (seen n r !first) then None
          else Some (observed_interval n r ~first:!first ~last:!last)
        in
        let static = (L.find live r.res_array).L.interval in
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
                D.error ~rule:"memprof-live-escape" ~subject:r.res_array
                  ~witness:(D.Intervals (static, Option.get observed))
                  (Printf.sprintf
                     "observed live interval of %s escapes its static interval"
                     r.res_array);
              ];
        { o_array = r.res_array; o_static = static; o_observed = observed;
          o_contained = contained })
      residents
  in
  (* slot conflicts: two residents observed live on one physical word *)
  let conflicts = ref 0 in
  Array.iteri
    (fun slot rs ->
      let buffer = fst slots.(slot) in
      Array.iteri
        (fun i a ->
          for j = i + 1 to Array.length rs - 1 do
            let b = rs.(j) in
            let lo = max a.res_offset b.res_offset in
            let hi = min (a.res_offset + a.res_size) (b.res_offset + b.res_size) in
            let w = ref lo in
            while !w < hi do
              let ea = !w - a.res_offset and eb = !w - b.res_offset in
              if
                seen n a ea && seen n b eb
                && starts_by n a ea b eb
                && starts_by n b eb a ea
              then begin
                incr conflicts;
                if !conflicts <= max_reported then
                  diags :=
                    !diags
                    @ [
                        D.error ~rule:"memprof-slot-conflict" ~subject:buffer
                          ~witness:
                            (D.Intervals
                               ( observed_interval n a ~first:ea ~last:ea,
                                 observed_interval n b ~first:eb ~last:eb ))
                          (Printf.sprintf
                             "%s and %s observed simultaneously live on word %d of %s"
                             a.res_array b.res_array !w buffer);
                      ];
                w := hi
              end
              else incr w
            done
          done)
        rs)
    slot_residents;
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
      (fun ua ->
        let u = ua.ua_unit in
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
          u_words_touched = ua.ua_words_touched;
          u_max_pressure = ua.ua_max;
          u_max_at = ua.ua_max_at;
          u_residents =
            List.concat_map
              (fun (s : Memgen.slot) -> s.Memgen.residents)
              u.Memgen.slots;
        })
      (Array.to_list uaccs)
  in
  (* sorted by unit name: the order the report's counter tracks and the
     device timeline's PLM tracks are emitted in *)
  let series sel =
    List.map
      (fun ua -> (ua.ua_unit.Memgen.unit_name, to_series (sel ua)))
      (Array.to_list uaccs)
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
