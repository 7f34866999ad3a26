(* Interval of an index expression given loop-variable bounds
   (inclusive). Unknown variables make the range unbounded (None). *)
let ix_range (bounds : (string * (int * int)) list) (ix : Ix.t) =
  let ok = ref true in
  let lo = ref ix.Ix.const and hi = ref ix.Ix.const in
  List.iter
    (fun (c, v) ->
      match List.assoc_opt v bounds with
      | None -> ok := false
      | Some (vlo, vhi) ->
          if c > 0 then begin
            lo := !lo + (c * vlo);
            hi := !hi + (c * vhi)
          end
          else begin
            lo := !lo + (c * vhi);
            hi := !hi + (c * vlo)
          end)
    ix.Ix.terms;
  if !ok then Some (!lo, !hi) else None

let ranges_disjoint bounds a b =
  match (ix_range bounds a, ix_range bounds b) with
  | Some (alo, ahi), Some (blo, bhi) -> ahi < blo || bhi < alo
  | _ -> false

(* Loads of the stored array are tolerated when their index range is
   provably disjoint from the accumulator's index range (e.g. two logical
   arrays stacked in one shared PLM buffer at different offsets). *)
let rec expr_conflicts bounds array store_ix (e : Prog.fexpr) =
  match e with
  | Prog.Const _ | Prog.Scalar _ -> false
  | Prog.Load (a, ix) ->
      a = array && not (ranges_disjoint bounds ix store_ix)
  | Prog.Add (x, y) | Prog.Sub (x, y) | Prog.Mul (x, y) | Prog.Div (x, y) ->
      expr_conflicts bounds array store_ix x
      || expr_conflicts bounds array store_ix y

(* Check that a loop nest's writes to [array] are exactly accumulations
   into (array, ix), that no conflicting read of [array] occurs, and that
   ix does not depend on the nest's loop variables; rewrite the
   accumulations onto a scalar. *)
let rec try_rewrite_nest bounds array ix acc_name (s : Prog.stmt) =
  match s with
  | Prog.For l ->
      if List.exists (fun v -> v = l.var) (Ix.vars ix) then None
      else begin
        let bounds = (l.var, (l.lo, l.hi - 1)) :: bounds in
        let rec map_body acc = function
          | [] -> Some (List.rev acc)
          | stmt :: rest -> (
              match try_rewrite_nest bounds array ix acc_name stmt with
              | Some stmt' -> map_body (stmt' :: acc) rest
              | None -> None)
        in
        Option.map (fun body -> Prog.For { l with body }) (map_body [] l.body)
      end
  | Prog.Accum { array = a; index; value }
    when a = array && Ix.equal index ix
         && not (expr_conflicts bounds array ix value) ->
      Some (Prog.Acc_scalar { name = acc_name; value })
  | Prog.Accum { array = a; _ } when a = array -> None
  | Prog.Store { array = a; _ } when a = array -> None
  | Prog.Accum { value; _ } | Prog.Store { value; _ } ->
      if expr_conflicts bounds array ix value then None else Some s
  | Prog.Set_scalar { value; _ } | Prog.Acc_scalar { value; _ } ->
      if expr_conflicts bounds array ix value then None else Some s

type origin =
  | Leaf of int
  | Spill of { source : int; last : (string * int) list }

(* Fresh-name and provenance state are per call, not global: the
   parallel design-space sweep runs one compilation per domain, and a
   shared counter/avoid table would race. [leaves] counts the input
   leaves passed so far, in pre-order; [origins] holds one origin per
   output leaf, latest first. *)
type names = {
  mutable counter : int;
  avoid : (string, unit) Hashtbl.t;
  mutable leaves : int;
  mutable origins : origin list;
}

let rec fresh_acc st =
  let name = Printf.sprintf "acc%d" st.counter in
  if Hashtbl.mem st.avoid name then begin
    st.counter <- st.counter + 1;
    fresh_acc st
  end
  else name

(* The next input leaf, kept in place (or rewritten onto a scalar). *)
let keep st =
  st.origins <- Leaf st.leaves :: st.origins;
  st.leaves <- st.leaves + 1

(* The origins of a rewritten nest's leaves, then of the spill after
   it. The spill's source is the nest's last accumulation onto [acc]
   in pre-order, which runs last, with each loop from the nest down to
   it at its final value; a nest that never accumulates leaves the
   spill the init's store, moved, with no loop pinned. *)
let rewritten_nest st ~init acc nest =
  let spill = ref (Spill { source = init; last = [] }) in
  let rec walk path (s : Prog.stmt) =
    match s with
    | Prog.For l -> List.iter (walk ((l.var, l.hi - 1) :: path)) l.body
    | Prog.Acc_scalar { name; _ } when name = acc ->
        spill := Spill { source = st.leaves; last = List.rev path };
        keep st
    | _ -> keep st
  in
  walk [] nest;
  st.origins <- !spill :: st.origins

let rec rewrite_body st bounds stmts =
  match stmts with
  | Prog.Store { array; index; value = Prog.Const c } :: (Prog.For _ as nest) :: rest
    -> (
      let acc_name = fresh_acc st in
      match try_rewrite_nest bounds array index acc_name nest with
      | Some nest' ->
          st.counter <- st.counter + 1;
          let init = st.leaves in
          keep st;
          rewritten_nest st ~init acc_name nest';
          Prog.Set_scalar { name = acc_name; value = Prog.Const c }
          :: nest'
          :: Prog.Store { array; index; value = Prog.Scalar acc_name }
          :: rewrite_body st bounds rest
      | None ->
          keep st;
          Prog.Store { array; index; value = Prog.Const c }
          :: rewrite_body st bounds (nest :: rest))
  | Prog.For l :: rest ->
      let inner = rewrite_body st ((l.var, (l.lo, l.hi - 1)) :: bounds) l.body in
      Prog.For { l with body = inner } :: rewrite_body st bounds rest
  | s :: rest ->
      keep st;
      s :: rewrite_body st bounds rest
  | [] -> []

let optimize_with_origins (proc : Prog.proc) =
  let st =
    { counter = 0; avoid = Hashtbl.create 8; leaves = 0; origins = [] }
  in
  List.iter
    (fun (p : Prog.param) -> Hashtbl.replace st.avoid p.Prog.name ())
    proc.Prog.params;
  List.iter (fun (n, _) -> Hashtbl.replace st.avoid n ()) proc.Prog.locals;
  let proc = { proc with Prog.body = rewrite_body st [] proc.Prog.body } in
  Prog.validate proc;
  (proc, List.rev st.origins)

let optimize proc = fst (optimize_with_origins proc)

let count_accumulators (proc : Prog.proc) =
  let count acc = function Prog.Set_scalar _ -> acc + 1 | _ -> acc in
  let rec walk acc (s : Prog.stmt) =
    let acc = count acc s in
    match s with Prog.For l -> List.fold_left walk acc l.body | _ -> acc
  in
  List.fold_left walk 0 proc.Prog.body
