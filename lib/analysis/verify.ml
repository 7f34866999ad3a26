module BS = Poly.Basic_set
module Aff = Poly.Aff
module Space = Poly.Space
module Lex = Poly.Lex
module Flow = Lower.Flow
module Schedule = Lower.Schedule
module D = Diagnostic

let shift_constr by n = function
  | BS.Eq e -> BS.Eq (Aff.shift e by n)
  | BS.Ge e -> BS.Ge (Aff.shift e by n)

(* The 2d+1 schedule tuple of [s1] as affine expressions over an
   [n]-variable space in which the statement's instance variables occupy
   positions [at .. at+d-1]. Rebuilt here from the raw beta/dims vectors
   so the verdict does not depend on [Schedule.to_aff_map]. *)
let sched_exprs ~tuple_arity ~at ~n (s1 : Schedule.sched1) =
  let d = Array.length s1.dims in
  Array.init tuple_arity (fun pos ->
      if pos mod 2 = 0 then
        let i = pos / 2 in
        Aff.const n (if i <= d then s1.betas.(i) else 0)
      else
        let i = pos / 2 in
        if i < d then Aff.var n (at + s1.dims.(i)) else Aff.const n 0)

(* Witness of [ts_later <= ts_earlier] (lexicographically, i.e. the
   strict order demanded of the dependence is violated) inside [base].
   Decomposed level by level: at each level either the strict reversal
   holds under equality of all earlier levels, or — after the last level —
   the two tuples are identical. Constant-vs-constant components are
   resolved without touching the solver, which settles most statement
   pairs purely on their beta vectors. *)
let order_violation base earlier later =
  if BS.is_empty base then None
  else
    let space = BS.space base in
    let candidate prefix extra =
      let cs = List.rev_append prefix extra in
      let s =
        if cs = [] then base else BS.intersect base (BS.of_constraints space cs)
      in
      BS.lexmin s
    in
    let levels = Array.length earlier in
    let rec go l prefix =
      if l >= levels then candidate prefix []
      else
        let diff = Aff.sub earlier.(l) later.(l) in
        if Aff.is_constant diff then
          let c = Aff.constant diff in
          if c < 0 then None (* earlier < later at l: ordered, prefixes below dead *)
          else if c > 0 then candidate prefix [] (* later < earlier at l *)
          else go (l + 1) prefix
        else
          match candidate prefix [ BS.Ge (Aff.add_const diff (-1)) ] with
          | Some w -> Some w
          | None -> go (l + 1) (BS.Eq diff :: prefix)
    in
    go 0 []

(* Conflict set of two accesses: both instance domains side by side plus
   equality of the accessed tensor element. *)
let conflict_base (s : Flow.statement) (t : Flow.statement)
    (amap : Poly.Aff_map.t) (bmap : Poly.Aff_map.t) =
  let ds = BS.arity s.Flow.domain and dt = BS.arity t.Flow.domain in
  let n = ds + dt in
  let cs =
    List.map (shift_constr 0 n) (BS.constraints s.Flow.domain)
    @ List.map (shift_constr ds n) (BS.constraints t.Flow.domain)
    @ Array.to_list
        (Array.map2
           (fun ea eb -> BS.Eq (Aff.sub (Aff.shift ea 0 n) (Aff.shift eb ds n)))
           (Poly.Aff_map.exprs amap) (Poly.Aff_map.exprs bmap))
  in
  BS.of_constraints (Space.anonymous n) cs

(* Self-dependence variant: both sides are instances x, y of one
   statement, the reference source is the domain-lexicographically earlier
   instance, so the violation search runs under each "x < y first at
   domain level m" wedge. *)
let self_violation base d earlier later =
  let n = BS.arity base in
  let space = BS.space base in
  let rec go m prefix =
    if m >= d then None
    else
      let diff = Aff.sub (Aff.var n (d + m)) (Aff.var n m) in
      let wedge =
        BS.intersect base
          (BS.of_constraints space
             (List.rev (BS.Ge (Aff.add_const diff (-1)) :: prefix)))
      in
      match order_violation wedge earlier later with
      | Some w -> Some w
      | None -> go (m + 1) (BS.Eq diff :: prefix)
  in
  go 0 []

let is_mac (s : Flow.statement) =
  match s.Flow.compute with Flow.Mac _ -> true | _ -> false

let dep_rule = function
  | `Raw -> ("dep-raw", "RAW", "the read is not scheduled strictly after the write")
  | `War ->
      ("dep-war", "WAR", "the overwrite is not scheduled strictly after the read")
  | `Waw -> ("dep-waw", "WAW", "the writes are not scheduled in reference order")

let schedule_deps (program : Flow.program) (schedule : Schedule.t) =
  let tuple_arity = Schedule.tuple_arity schedule in
  let stmts = Array.of_list program.Flow.stmts in
  let n_stmts = Array.length stmts in
  let diags = ref [] in
  let report kind array (s : Flow.statement) (t : Flow.statement) w =
    let ds = BS.arity s.Flow.domain in
    let x = Array.sub w 0 ds and y = Array.sub w ds (Array.length w - ds) in
    let rule, label, why = dep_rule kind in
    let subject =
      if s.Flow.stmt_name = t.Flow.stmt_name then s.Flow.stmt_name
      else s.Flow.stmt_name ^ " -> " ^ t.Flow.stmt_name
    in
    diags :=
      D.error ~rule ~subject
        ~witness:(D.Instance_pair ((s.Flow.stmt_name, x), (t.Flow.stmt_name, y)))
        (Format.sprintf "%s dependence on %s is not preserved: %s" label array why)
      :: !diags
  in
  for i = 0 to n_stmts - 1 do
    let s = stmts.(i) in
    let s1s = Schedule.find schedule s.Flow.stmt_name in
    let ds = BS.arity s.Flow.domain in
    (* cross-statement dependences: s precedes t in reference order *)
    for j = i + 1 to n_stmts - 1 do
      let t = stmts.(j) in
      let s1t = Schedule.find schedule t.Flow.stmt_name in
      let dt = BS.arity t.Flow.domain in
      let n = ds + dt in
      let earlier = sched_exprs ~tuple_arity ~at:0 ~n s1s in
      let later = sched_exprs ~tuple_arity ~at:ds ~n s1t in
      let seen = ref [] in
      let conflict kind (a : Flow.access) (b : Flow.access) =
        if not (List.mem (kind, a.Flow.array) !seen) then
          match order_violation (conflict_base s t a.Flow.map b.Flow.map) earlier later with
          | None -> ()
          | Some w ->
              seen := (kind, a.Flow.array) :: !seen;
              report kind a.Flow.array s t w
      in
      List.iter
        (fun (r : Flow.access) ->
          if r.Flow.array = s.Flow.write.Flow.array then conflict `Raw s.Flow.write r)
        (Flow.reads t);
      List.iter
        (fun (r : Flow.access) ->
          if r.Flow.array = t.Flow.write.Flow.array then conflict `War r t.Flow.write)
        (Flow.reads s);
      if
        s.Flow.write.Flow.array = t.Flow.write.Flow.array
        && not (is_mac s && is_mac t)
      then conflict `Waw s.Flow.write t.Flow.write
    done;
    (* intra-statement dependences between distinct instances *)
    if ds > 0 then begin
      let n = 2 * ds in
      let earlier = sched_exprs ~tuple_arity ~at:0 ~n s1s in
      let later = sched_exprs ~tuple_arity ~at:ds ~n s1s in
      let self kind amap bmap =
        match self_violation (conflict_base s s amap bmap) ds earlier later with
        | None -> ()
        | Some w -> report kind s.Flow.write.Flow.array s s w
      in
      List.iter
        (fun (r : Flow.access) ->
          if r.Flow.array = s.Flow.write.Flow.array then begin
            self `Raw s.Flow.write.Flow.map r.Flow.map;
            self `War r.Flow.map s.Flow.write.Flow.map
          end)
        (Flow.reads s);
      if
        (not (is_mac s))
        && not (Poly.Aff_map.is_injective_on s.Flow.write.Flow.map s.Flow.domain)
      then self `Waw s.Flow.write.Flow.map s.Flow.write.Flow.map
    end
  done;
  List.rev !diags

(* A statement's schedule timestamp read straight off an instance point,
   as [Schedule.timestamp] builds it: component [p] is the point's
   coordinate [x.(src.(p))] where [src.(p) >= 0], else [fixed.(p)] (a
   beta or padding position). *)
type stamp = { src : int array; fixed : int array }

let stamp ~tuple_arity (s1 : Schedule.sched1) =
  let d = Array.length s1.Schedule.dims in
  let src = Array.make tuple_arity (-1) and fixed = Array.make tuple_arity 0 in
  for i = 0 to d - 1 do
    fixed.(2 * i) <- s1.Schedule.betas.(i);
    src.((2 * i) + 1) <- s1.Schedule.dims.(i)
  done;
  fixed.(2 * d) <- s1.Schedule.betas.(d);
  { src; fixed }

let[@inline] stamp_at st (x : int array) p =
  let s = st.src.(p) in
  if s >= 0 then x.(s) else st.fixed.(p)

(* Lexicographic comparison of instance [x]'s timestamp with the one
   stored in [tbl] from [base] on. *)
let compare_stored st x (tbl : int array) base =
  let n = Array.length st.src in
  let p = ref 0 in
  while !p < n && stamp_at st x !p = tbl.(base + !p) do
    incr p
  done;
  if !p = n then 0 else compare (stamp_at st x !p) tbl.(base + !p)

let store st x tbl base =
  for p = 0 to Array.length st.src - 1 do
    tbl.(base + p) <- stamp_at st x p
  done

(* Visit the instances [x] of [stmt] with the flat offset [access]
   touches there, pinned as [BS.walk ~pin]; returns the instances
   covered and the instances visited.

   On a box domain the pinned instances suffice. Take any instance x and
   a dimension the offset does not depend on; setting that coordinate to
   its lower bound keeps x in the domain and on the same element, and
   cannot raise x's timestamp, each of whose components is a constant or
   a coordinate. So each element's first write is met at [`Low]; so is
   the domain-order-first read at or before it, the witness, since the
   lowered instance is also earlier in walk order; and each element's
   last access is met at [`High]. *)
let walk_access ~pin program (stmt : Flow.statement) access visit =
  let off = (Poly.Aff_map.exprs (Flow.array_access program access)).(0) in
  let visits = ref 0 in
  let covered =
    BS.walk ~pin stmt.Flow.domain [| off |] (fun x v ->
        incr visits;
        visit x v.(0))
  in
  (covered, !visits)

type element_stamps = {
  first_write : int array;
  last_access : int array;
  written : Bytes.t;
}

(* The per-element liveness table: one walk per statement write, pinned
   low, keeps each element's lexicographically first write; with
   [~last], one more walk per statement access, pinned high, keeps its
   last access. Offsets outside an array are skipped (the bounds check
   reports them). Returns the table, which gives an all-unwritten entry
   for an array no statement writes, and the instances the write walks
   covered and visited. *)
let element_table ~last (program : Flow.program) (schedule : Schedule.t) =
  let tuple_arity = Schedule.tuple_arity schedule in
  let arrays : (string, element_stamps) Hashtbl.t = Hashtbl.create 16 in
  let table name =
    match Hashtbl.find_opt arrays name with
    | Some t -> t
    | None ->
        let size = max (Flow.array_info program name).Flow.size 0 in
        let t =
          {
            first_write = Array.make (size * tuple_arity) 0;
            last_access =
              (if last then Array.make (size * tuple_arity) min_int else [||]);
            written = Bytes.make size '\000';
          }
        in
        Hashtbl.replace arrays name t;
        t
  in
  let points = ref 0 and visits = ref 0 in
  List.iter
    (fun (stmt : Flow.statement) ->
      let st = stamp ~tuple_arity (Schedule.find schedule stmt.Flow.stmt_name) in
      let t = table stmt.Flow.write.Flow.array in
      let covered, visited =
        walk_access ~pin:`Low program stmt stmt.Flow.write (fun x off ->
            if
              off >= 0
              && off < Bytes.length t.written
              && (Bytes.get t.written off = '\000'
                 || compare_stored st x t.first_write (off * tuple_arity) < 0)
            then begin
              Bytes.set t.written off '\001';
              store st x t.first_write (off * tuple_arity)
            end)
      in
      points := !points + covered;
      visits := !visits + visited;
      if last then
        List.iter
          (fun (access : Flow.access) ->
            let t = table access.Flow.array in
            ignore
              (walk_access ~pin:`High program stmt access (fun x off ->
                   if
                     off >= 0
                     && off < Bytes.length t.written
                     && compare_stored st x t.last_access (off * tuple_arity) > 0
                   then store st x t.last_access (off * tuple_arity))))
          (stmt.Flow.write :: Flow.reads stmt))
    program.Flow.stmts;
  (table, !points, !visits)

let element_liveness (program : Flow.program) (schedule : Schedule.t) =
  let table, _, _ = element_table ~last:true program schedule in
  List.map
    (fun (a : Flow.array_info) -> (a.Flow.array_name, table a.Flow.array_name))
    program.Flow.arrays

let c_ubd_points = Obs.Metrics.counter "verify.ubd.points"
let c_ubd_visits = Obs.Metrics.counter "verify.ubd.visits"

let use_before_def (program : Flow.program) (schedule : Schedule.t) =
  let tuple_arity = Schedule.tuple_arity schedule in
  let diags = ref [] in
  (* pass 1: lexicographically first write per element *)
  let table, points, visits = element_table ~last:false program schedule in
  let points = ref points and visits = ref visits in
  (* pass 2: every read must land strictly after its element's first
     write. A Mac's += is a read-modify-write of its accumulator, so the
     write access joins the read list: a missing initialization makes the
     first accumulation read its own (garbage) first-write timestamp. *)
  List.iter
    (fun (stmt : Flow.statement) ->
      let st = stamp ~tuple_arity (Schedule.find schedule stmt.Flow.stmt_name) in
      let reads =
        Flow.reads stmt
        @ (match stmt.Flow.compute with
          | Flow.Mac _ -> [ stmt.Flow.write ]
          | _ -> [])
      in
      let flagged = ref [] in
      List.iter
        (fun (r : Flow.access) ->
          let info = Flow.array_info program r.Flow.array in
          if info.Flow.kind <> Flow.Input && not (List.mem r.Flow.array !flagged)
          then begin
            let t = table r.Flow.array in
            let witness = ref None in
            let covered, visited =
              walk_access ~pin:`Low program stmt r (fun x off ->
                  if off >= 0 && off < Bytes.length t.written then
                    let bad why =
                      witness := Some (Array.copy x, off, why);
                      raise Exit
                    in
                    if Bytes.get t.written off = '\000' then
                      bad "the element is never written"
                    else if
                      compare_stored st x t.first_write (off * tuple_arity) <= 0
                    then bad "the read is scheduled at or before its first write")
            in
            points := !points + covered;
            visits := !visits + visited;
            match !witness with
            | None -> ()
            | Some (x, off, why) ->
                flagged := r.Flow.array :: !flagged;
                diags :=
                  D.error ~rule:"use-before-def" ~subject:stmt.Flow.stmt_name
                    ~witness:(D.Instance (stmt.Flow.stmt_name, x))
                    (Format.sprintf "reads %s@%d before it is defined: %s"
                       r.Flow.array off why)
                  :: !diags
          end)
        reads)
    program.Flow.stmts;
  Obs.Metrics.add c_ubd_points !points;
  Obs.Metrics.add c_ubd_visits !visits;
  Obs.Trace.span_attr "points" (string_of_int !points);
  Obs.Trace.span_attr "visits" (string_of_int !visits);
  List.rev !diags

let bounds (proc : Loopir.Prog.proc) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let sizes = Hashtbl.create 16 in
  List.iter
    (fun (p : Loopir.Prog.param) -> Hashtbl.replace sizes p.Loopir.Prog.name p.Loopir.Prog.size)
    proc.Loopir.Prog.params;
  List.iter (fun (name, size) -> Hashtbl.replace sizes name size) proc.Loopir.Prog.locals;
  (* env: enclosing loops, outermost first, with inclusive value ranges *)
  let check_ref ~rule array (ix : Loopir.Ix.t) env =
    match Hashtbl.find_opt sizes array with
    | None ->
        add
          (D.error ~rule:"bounds-ref" ~subject:array
             (Format.sprintf "reference to undeclared buffer %s" array))
    | Some size ->
        let n = List.length env in
        let positions = List.mapi (fun i (v, _, _) -> (v, i)) env in
        let unresolved =
          List.filter (fun v -> not (List.mem_assoc v positions)) (Loopir.Ix.vars ix)
        in
        if unresolved <> [] then
          add
            (D.error ~rule:"bounds-ref" ~subject:array
               (Format.sprintf "index of %s uses out-of-scope variable %s" array
                  (String.concat ", " unresolved)))
        else begin
          let m = n + 1 in
          (* idx - (terms + const) = 0, with idx as the last variable *)
          let coeffs = Array.make m 0 in
          coeffs.(n) <- 1;
          List.iter
            (fun (c, v) ->
              let i = List.assoc v positions in
              coeffs.(i) <- coeffs.(i) - c)
            ix.Loopir.Ix.terms;
          let eq = BS.Eq (Aff.make coeffs (-ix.Loopir.Ix.const)) in
          let box =
            List.concat
              (List.mapi
                 (fun i (_, lo, hi) ->
                   [
                     BS.Ge (Aff.add_const (Aff.var m i) (-lo));
                     BS.Ge (Aff.sub (Aff.const m hi) (Aff.var m i));
                   ])
                 env)
          in
          let set = BS.of_constraints (Space.anonymous m) (eq :: box) in
          let flag side limit =
            match BS.lexmin (BS.add_constraint set limit) with
            | None -> ()
            | Some w ->
                let valuation =
                  if env = [] then "constant index"
                  else
                    String.concat ", "
                      (List.mapi (fun i (v, _, _) -> Format.sprintf "%s=%d" v w.(i)) env)
                in
                add
                  (D.error ~rule ~subject:array ~witness:(D.Index (w.(n), size))
                     (Format.sprintf "index %a escapes %s bound of [0,%d) at %s"
                        (fun () -> Format.asprintf "%a" Loopir.Ix.pp) ix side size
                        valuation))
          in
          let lo_b, hi_b = BS.var_bounds set n in
          (match lo_b with
          | Some lo when lo >= 0 -> ()
          | _ -> flag "the lower" (BS.Ge (Aff.sub (Aff.const m (-1)) (Aff.var m n))));
          match hi_b with
          | Some hi when hi < size -> ()
          | _ -> flag "the upper" (BS.Ge (Aff.add_const (Aff.var m n) (-size)))
        end
  in
  let rec walk_expr env = function
    | Loopir.Prog.Const _ | Loopir.Prog.Scalar _ -> ()
    | Loopir.Prog.Load (a, ix) -> check_ref ~rule:"bounds-load" a ix env
    | Loopir.Prog.Add (x, y)
    | Loopir.Prog.Sub (x, y)
    | Loopir.Prog.Mul (x, y)
    | Loopir.Prog.Div (x, y) ->
        walk_expr env x;
        walk_expr env y
  in
  let rec walk_stmt env = function
    | Loopir.Prog.For l ->
        if l.Loopir.Prog.lo >= l.Loopir.Prog.hi then
          add
            (D.warning ~rule:"bounds-empty-loop" ~subject:l.Loopir.Prog.var
               (Format.sprintf "loop over [%d,%d) never executes; body not checked"
                  l.Loopir.Prog.lo l.Loopir.Prog.hi))
        else
          List.iter
            (walk_stmt (env @ [ (l.Loopir.Prog.var, l.Loopir.Prog.lo, l.Loopir.Prog.hi - 1) ]))
            l.Loopir.Prog.body
    | Loopir.Prog.Store { array; index; value } ->
        check_ref ~rule:"bounds-store" array index env;
        walk_expr env value
    | Loopir.Prog.Accum { array; index; value } ->
        check_ref ~rule:"bounds-store" array index env;
        walk_expr env value
    | Loopir.Prog.Set_scalar { value; _ } | Loopir.Prog.Acc_scalar { value; _ } ->
        walk_expr env value
  in
  List.iter (walk_stmt []) proc.Loopir.Prog.body;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Sharing soundness                                                   *)
(* ------------------------------------------------------------------ *)

let virtual_first = [| min_int |]
let virtual_last = [| max_int |]

(* Schedule image extrema of one statement, derived by projecting the
   schedule graph onto schedule space and taking symbolic extrema —
   deliberately not [Schedule.image_extrema]. *)
let stmt_extrema ~tuple_arity (stmt : Flow.statement) (s1 : Schedule.sched1) =
  let d = BS.arity stmt.Flow.domain in
  let n = d + tuple_arity in
  let exprs = sched_exprs ~tuple_arity ~at:0 ~n s1 in
  let graph =
    Array.to_list
      (Array.mapi (fun l e -> BS.Eq (Aff.sub (Aff.var n (d + l)) e)) exprs)
  in
  let cs = List.map (shift_constr 0 n) (BS.constraints stmt.Flow.domain) @ graph in
  let g = BS.of_constraints (Space.anonymous n) cs in
  let img = BS.project_out g (List.init d Fun.id) (Space.anonymous tuple_arity) in
  match (BS.lexmin img, BS.lexmax img) with
  | Some lo, Some hi -> Some (lo, hi)
  | _ -> None

(* Array-level live intervals, recomputed from the program and schedule
   with the same granularity the PLM generator decides at: first write to
   last access, bracketed by the virtual host statements for interface
   arrays. Arrays that are never touched get no interval (vacuously
   compatible with everything; use-before-def reports any reads). *)
let derive_intervals (program : Flow.program) (schedule : Schedule.t) =
  let tuple_arity = Schedule.tuple_arity schedule in
  let firsts : (string, Lex.timestamp) Hashtbl.t = Hashtbl.create 16 in
  let lasts : (string, Lex.timestamp) Hashtbl.t = Hashtbl.create 16 in
  let update tbl pick a ts =
    match Hashtbl.find_opt tbl a with
    | None -> Hashtbl.replace tbl a ts
    | Some cur -> Hashtbl.replace tbl a (pick cur ts)
  in
  List.iter
    (fun (stmt : Flow.statement) ->
      let s1 = Schedule.find schedule stmt.Flow.stmt_name in
      match stmt_extrema ~tuple_arity stmt s1 with
      | None -> ()
      | Some (lo, hi) ->
          let w = stmt.Flow.write.Flow.array in
          update firsts Lex.min w lo;
          update lasts Lex.max w hi;
          List.iter
            (fun (r : Flow.access) -> update lasts Lex.max r.Flow.array hi)
            (Flow.reads stmt))
    program.Flow.stmts;
  let tbl : (string, Lex.interval) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : Flow.array_info) ->
      let name = a.Flow.array_name in
      let first =
        match a.Flow.kind with
        | Flow.Input -> Some virtual_first
        | Flow.Output | Flow.Temp -> Hashtbl.find_opt firsts name
      in
      let last =
        match a.Flow.kind with
        | Flow.Output -> Some virtual_last
        | Flow.Input | Flow.Temp -> (
            match Hashtbl.find_opt lasts name with
            | Some ts -> Some ts
            | None -> first)
      in
      match (first, last) with
      | Some f, Some l when Lex.le f l ->
          Hashtbl.replace tbl name (Lex.interval f l)
      | _ -> ())
    program.Flow.arrays;
  tbl

let rec pairs = function
  | [] -> []
  | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest

let sharing ?(unroll = 1) (program : Flow.program) (schedule : Schedule.t)
    (arch : Mnemosyne.Memgen.architecture) =
  let open Mnemosyne.Memgen in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let known a = List.exists (fun (i : Flow.array_info) -> i.Flow.array_name = a) program.Flow.arrays in
  let size_of a = (Flow.array_info program a).Flow.size in
  let intervals = derive_intervals program schedule in
  let interval a = Hashtbl.find_opt intervals a in
  (* which statement reads both arrays in one instance, if any *)
  let read_conflict a b =
    List.find_opt
      (fun (stmt : Flow.statement) ->
        let rs =
          List.sort_uniq compare
            (List.map (fun (r : Flow.access) -> r.Flow.array) (Flow.reads stmt))
        in
        List.mem a rs && List.mem b rs)
      program.Flow.stmts
  in
  (* 1. the storage map must cover every program array, consistently *)
  List.iter
    (fun (a : Flow.array_info) ->
      let name = a.Flow.array_name in
      match List.filter (fun (x, _) -> x = name) arch.storage with
      | [] ->
          add
            (D.error ~rule:"share-storage" ~subject:name
               "array has no storage assignment")
      | [ _ ] -> ()
      | (_, first) :: rest ->
          if List.exists (fun (_, p) -> p <> first) rest then
            add
              (D.error ~rule:"share-storage" ~subject:name
                 "array has conflicting storage assignments"))
    program.Flow.arrays;
  List.iter
    (fun (a, _) ->
      if not (known a) then
        add
          (D.warning ~rule:"share-storage" ~subject:a
             "storage map mentions an array the program does not declare"))
    arch.storage;
  (* 2. address-space soundness, derived from the storage map itself:
     arrays whose word ranges overlap inside one backing buffer must have
     disjoint live intervals *)
  let buffers = Hashtbl.create 16 in
  List.iter
    (fun (a, (buf, off)) ->
      if known a then
        Hashtbl.replace buffers buf ((a, off) :: (Option.value ~default:[] (Hashtbl.find_opt buffers buf))))
    arch.storage;
  Hashtbl.iter
    (fun buf residents ->
      List.iter
        (fun ((a, oa), (b, ob)) ->
          if a <> b then
            let ea = oa + size_of a and eb = ob + size_of b in
            if oa < eb && ob < ea then
              match (interval a, interval b) with
              | Some ia, Some ib when Lex.overlap ia ib ->
                  add
                    (D.error ~rule:"share-address-space"
                       ~subject:(Format.sprintf "%s/%s in %s" a b buf)
                       ~witness:(D.Intervals (ia, ib))
                       "arrays alias overlapping address ranges but are simultaneously live")
              | _ -> ())
        (pairs residents))
    buffers;
  (* 3. per-unit structure: slot layout, storage agreement, interface
     compatibility across slots, port pressure, BRAM accounting *)
  List.iter
    (fun (u : plm_unit) ->
      List.iter
        (fun (s : slot) ->
          if s.slot_offset < 0 || s.slot_offset + s.slot_words > u.unit_words then
            add
              (D.error ~rule:"share-layout" ~subject:u.unit_name
                 (Format.sprintf "slot at +%d (%d words) escapes the unit's %d words"
                    s.slot_offset s.slot_words u.unit_words));
          List.iter
            (fun r ->
              if known r then begin
                if size_of r > s.slot_words then
                  add
                    (D.error ~rule:"share-layout" ~subject:u.unit_name
                       (Format.sprintf "resident %s (%d words) exceeds its slot (%d words)"
                          r (size_of r) s.slot_words));
                match List.assoc_opt r arch.storage with
                | Some (buf, off) when buf = u.unit_name && off = s.slot_offset -> ()
                | _ ->
                    add
                      (D.error ~rule:"share-storage" ~subject:r
                         (Format.sprintf
                            "storage map disagrees with placement in %s at +%d"
                            u.unit_name s.slot_offset))
              end
              else
                add
                  (D.error ~rule:"share-storage" ~subject:r
                     (Format.sprintf "unit %s hosts an undeclared array" u.unit_name)))
            s.residents)
        u.slots;
      List.iter
        (fun ((s1 : slot), (s2 : slot)) ->
          (* distinct slots must occupy disjoint word ranges ... *)
          if
            s1.slot_offset < s2.slot_offset + s2.slot_words
            && s2.slot_offset < s1.slot_offset + s1.slot_words
          then
            add
              (D.error ~rule:"share-layout" ~subject:u.unit_name
                 (Format.sprintf "slots at +%d and +%d overlap" s1.slot_offset
                    s2.slot_offset));
          (* ... and their residents share banks and ports, so every cross
             pair must be memory-interface compatible *)
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if known a && known b && a <> b then
                    match read_conflict a b with
                    | None -> ()
                    | Some stmt ->
                        add
                          (D.error ~rule:"share-interface"
                             ~subject:(Format.sprintf "%s/%s in %s" a b u.unit_name)
                             (Format.sprintf
                                "%s reads both in one instance; they cannot share ports"
                                stmt.Flow.stmt_name)))
                s2.residents)
            s1.residents)
        (pairs u.slots);
      let demand =
        List.fold_left
          (fun acc (s : slot) ->
            List.fold_left
              (fun acc r ->
                if known r then max acc (ports_with_unroll program ~unroll r)
                else acc)
              acc s.residents)
          1 u.slots
      in
      let budget = port_budget u in
      if demand > budget then begin
        let ports = Fpga_platform.Bram.ports in
        add
          (D.warning ~rule:"share-ports" ~subject:u.unit_name
             ~witness:(D.Count (demand, budget))
             (Format.sprintf
                "unit provides %d bank copies but worst-case port demand needs %d"
                u.copies ((demand + ports - 1) / ports)))
      end;
      let expect = u.copies * Fpga_platform.Bram.count_array ~words:u.unit_words in
      if u.brams <> expect then
        add
          (D.warning ~rule:"share-brams" ~subject:u.unit_name
             (Format.sprintf "unit reports %d BRAM18 but the platform rule gives %d"
                u.brams expect)))
    arch.units;
  let total = List.fold_left (fun acc (u : plm_unit) -> acc + u.brams) 0 arch.units in
  if total <> arch.total_brams then
    add
      (D.warning ~rule:"share-brams" ~subject:"total"
         (Format.sprintf "architecture reports %d BRAM18 but its units sum to %d"
            arch.total_brams total));
  List.rev !diags

(* Each rule family runs under its own span, and every diagnostic bumps
   a per-rule-id counter ("verify.diag.dep-raw", "verify.diag.bounds-load",
   ...), so both the time spent per family and the diagnostic mix end up
   in the telemetry sinks. *)
let family span f =
  Obs.Trace.with_span span (fun () ->
      let diags = f () in
      List.iter
        (fun (d : D.t) ->
          Obs.Metrics.incr (Obs.Metrics.counter ("verify.diag." ^ d.D.rule)))
        diags;
      if diags <> [] then
        Obs.Trace.span_attr "diagnostics" (string_of_int (List.length diags));
      diags)

let c_verify_runs = Obs.Metrics.counter "verify.runs"

(* What the dependent families take for granted of every statement and
   [Schedule.validate] does not check: a bounded domain (its instances
   are enumerated) and declared arrays behind every access. *)
let statement_structure (program : Flow.program) =
  List.concat_map
    (fun (stmt : Flow.statement) ->
      let name = stmt.Flow.stmt_name in
      let error fmt =
        Format.kasprintf (D.error ~rule:"schedule-structure" ~subject:name) fmt
      in
      let unbounded =
        if BS.bounding_box stmt.Flow.domain = None then
          [ error "%s: the instance domain is unbounded" name ]
        else []
      in
      let undeclared =
        List.filter_map
          (fun (a : Flow.access) ->
            if
              List.exists
                (fun (i : Flow.array_info) -> i.Flow.array_name = a.Flow.array)
                program.Flow.arrays
            then None
            else Some a.Flow.array)
          (stmt.Flow.write :: Flow.reads stmt)
      in
      unbounded
      @ List.map
          (error "%s: accesses the undeclared array %s" name)
          (List.sort_uniq compare undeclared))
    program.Flow.stmts

let all ?unroll ~(program : Flow.program) ~schedule ?memory ?proc () =
  Obs.Metrics.incr c_verify_runs;
  let structural =
    family "verify.structure" (fun () ->
        (match Schedule.validate program schedule with
        | () -> []
        | exception Schedule.Error msg ->
            [ D.error ~rule:"schedule-structure" ~subject:program.Flow.prog_name msg ]
        | exception Flow.Error msg ->
            [ D.error ~rule:"schedule-structure" ~subject:program.Flow.prog_name msg ])
        @ statement_structure program)
  in
  let bounds_diags =
    match proc with
    | Some p -> family "verify.bounds" (fun () -> bounds p)
    | None -> []
  in
  match structural with
  | _ :: _ -> structural @ bounds_diags
  | [] ->
      family "verify.dep" (fun () -> schedule_deps program schedule)
      @ family "verify.use-before-def" (fun () ->
            use_before_def program schedule)
      @ bounds_diags
      @ (match memory with
        | Some m ->
            family "verify.sharing" (fun () ->
                sharing ?unroll program schedule m)
        | None -> [])

(* ------------------------------------------------------------------ *)
(* Execution-mode license for the compiled engine                      *)
(* ------------------------------------------------------------------ *)

let execution_mode (proc : Loopir.Prog.proc) =
  match Sys.getenv_opt "CFD_EXEC_DEBUG" with
  | Some ("" | "0") | None ->
      (* [bounds] reports only [bounds-*] rules; its one warning, an
         empty loop, makes no access *)
      let licensed = not (List.exists Diagnostic.is_error (bounds proc)) in
      if licensed then Loopir.Compiled.Unchecked else Loopir.Compiled.Checked
  | Some _ -> Loopir.Compiled.Debug
