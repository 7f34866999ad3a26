type options = {
  exported_temps : bool;
  pipeline_ii : int option;
  unroll : int option;
}

let default = { exported_temps = true; pipeline_ii = Some 1; unroll = None }

exception Error of string

type storage = (string * (string * int)) list

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Per-statement code generation state: the schedule record, the loop
   bounds per level, and the variable names assigned along the path. *)
type item = {
  stmt : Flow.statement;
  sched : Schedule.sched1;
  box : (int * int) array; (* per DOMAIN dim *)
  var_names : string array; (* per DOMAIN dim, filled during emission *)
}

let aff_to_ix item (e : Poly.Aff.t) =
  let terms = ref [] in
  for j = 0 to Poly.Aff.arity e - 1 do
    let c = Poly.Aff.coeff e j in
    if c <> 0 then begin
      let v = item.var_names.(j) in
      if v = "" then errf "dimension %d of %s used before its loop" j item.stmt.Flow.stmt_name;
      terms := (c, v) :: !terms
    end
  done;
  Loopir.Ix.of_terms !terms (Poly.Aff.constant e)

(* Storage resolution: logical array -> (buffer, offset). *)
let resolve storage array =
  match List.assoc_opt array storage with
  | Some (buffer, offset) -> (buffer, offset)
  | None -> (array, 0)

let access_ix program storage item (acc : Flow.access) =
  let m = Flow.array_access program acc in
  let _, offset = resolve storage acc.Flow.array in
  Loopir.Ix.add_const (aff_to_ix item (Poly.Aff_map.exprs m).(0)) offset

let rec build_fexpr_product = function
  | [] -> Loopir.Prog.Const 1.0
  | [ x ] -> x
  | x :: rest -> Loopir.Prog.Mul (x, build_fexpr_product rest)

let body_stmt program storage item =
  let stmt = item.stmt in
  let wix = access_ix program storage item stmt.Flow.write in
  let warr, _ = resolve storage stmt.Flow.write.Flow.array in
  let load (r : Flow.access) =
    let buffer, _ = resolve storage r.Flow.array in
    Loopir.Prog.Load (buffer, access_ix program storage item r)
  in
  match stmt.Flow.compute with
  | Flow.Init f -> Loopir.Prog.Store { array = warr; index = wix; value = Loopir.Prog.Const f }
  | Flow.Mac reads ->
      Loopir.Prog.Accum
        { array = warr; index = wix; value = build_fexpr_product (List.map load reads) }
  | Flow.Assign_copy r ->
      Loopir.Prog.Store { array = warr; index = wix; value = load r }
  | Flow.Assign_pointwise (f, a, b) ->
      let la = load a in
      let lb = load b in
      let value =
        match f with
        | Tir.Ir.Add -> Loopir.Prog.Add (la, lb)
        | Tir.Ir.Sub -> Loopir.Prog.Sub (la, lb)
        | Tir.Ir.Mul -> Loopir.Prog.Mul (la, lb)
        | Tir.Ir.Div -> Loopir.Prog.Div (la, lb)
      in
      Loopir.Prog.Store { array = warr; index = wix; value }

type coord = Loop of string | Fixed of int
type leaf = { leaf_stmt : string; leaf_coords : coord array }

(* Emit the statements of [items], which share their schedule prefix up to
   loop [depth]. *)
let generate_with_provenance ?(options = default) ?(storage = [])
    (program : Flow.program) schedule =
  Schedule.validate program schedule;
  (* Loop variable names must not collide with array/buffer identifiers
     (a tensor legitimately named "i0" would otherwise shadow a loop). *)
  let taken =
    List.map (fun (a : Flow.array_info) -> a.Flow.array_name) program.Flow.arrays
    @ List.map (fun (array, (buffer, _)) -> ignore array; buffer) storage
  in
  let counter = ref 0 in
  let rec fresh_var () =
    let v = Printf.sprintf "i%d" !counter in
    incr counter;
    if List.mem v taken then fresh_var () else v
  in
  let items =
    List.map
      (fun (stmt : Flow.statement) ->
        let sched = Schedule.find schedule stmt.Flow.stmt_name in
        let box =
          match Poly.Basic_set.bounding_box stmt.Flow.domain with
          | Some b -> b
          | None -> errf "unbounded domain in %s" stmt.Flow.stmt_name
        in
        {
          stmt;
          sched;
          box;
          var_names = Array.make (Array.length box) "";
        })
      program.Flow.stmts
  in
  let rank item = Array.length item.sched.Schedule.dims in
  (* Provenance: one record per emitted leaf, in emission order — which
     is the pre-order of the final body, because each beta group lists
     its leaves before its nested loops and groups are emitted in beta
     order. The compiled engine numbers probe sites in the same
     pre-order, so index k here is probe site k. *)
  let provenance = ref [] in
  let rec gen items depth : Loopir.Prog.stmt list =
    (* Partition by beta at this depth, preserving beta order. *)
    let betas =
      List.sort_uniq compare
        (List.map (fun it -> it.sched.Schedule.betas.(depth)) items)
    in
    List.concat_map
      (fun beta ->
        let group =
          List.filter (fun it -> it.sched.Schedule.betas.(depth) = beta) items
        in
        let leaves, deeper = List.partition (fun it -> rank it = depth) group in
        let leaf_stmts =
          List.map
            (fun it ->
              provenance :=
                {
                  leaf_stmt = it.stmt.Flow.stmt_name;
                  leaf_coords = Array.map (fun v -> Loop v) it.var_names;
                }
                :: !provenance;
              body_stmt program storage it)
            leaves
        in
        let loop_stmts =
          if deeper = [] then []
          else begin
            (* All deeper statements iterate a loop at this depth; bounds
               must agree for the fusion to be expressible. *)
            let bound it =
              let dim = it.sched.Schedule.dims.(depth) in
              it.box.(dim)
            in
            let lo, hi = bound (List.hd deeper) in
            List.iter
              (fun it ->
                if bound it <> (lo, hi) then
                  errf "fused statements disagree on loop bounds at depth %d" depth)
              deeper;
            let var = fresh_var () in
            List.iter
              (fun it -> it.var_names.(it.sched.Schedule.dims.(depth)) <- var)
              deeper;
            let body = gen deeper (depth + 1) in
            List.iter
              (fun it -> it.var_names.(it.sched.Schedule.dims.(depth)) <- "")
              deeper;
            [ Loopir.Prog.For { var; lo; hi = hi + 1; pragmas = []; body } ]
          end
        in
        leaf_stmts @ loop_stmts)
      betas
  in
  let body = gen items 0 in
  (* Attach pragmas to innermost loops. *)
  let pragmas =
    (match options.pipeline_ii with Some ii -> [ Loopir.Prog.Pipeline ii ] | None -> [])
    @ match options.unroll with Some u -> [ Loopir.Prog.Unroll u ] | None -> []
  in
  let rec tag (s : Loopir.Prog.stmt) =
    match s with
    | Loopir.Prog.For l ->
        let has_inner_loop =
          List.exists (function Loopir.Prog.For _ -> true | _ -> false) l.body
        in
        if has_inner_loop then Loopir.Prog.For { l with body = List.map tag l.body }
        else Loopir.Prog.For { l with pragmas }
    | other -> other
  in
  let body = if pragmas = [] then body else List.map tag body in
  (* Collect buffers: each logical array resolves to (buffer, offset); a
     buffer's size covers every resident, its direction follows the
     residents' kinds. *)
  let buffers : (string, int * Flow.array_kind list) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (a : Flow.array_info) ->
      let buffer, offset = resolve storage a.Flow.array_name in
      let needed = offset + a.Flow.size in
      match Hashtbl.find_opt buffers buffer with
      | None ->
          Hashtbl.add buffers buffer (needed, [ a.Flow.kind ]);
          order := buffer :: !order
      | Some (size, kinds) ->
          Hashtbl.replace buffers buffer (max size needed, a.Flow.kind :: kinds))
    program.Flow.arrays;
  let params, locals =
    List.fold_left
      (fun (params, locals) buffer ->
        let size, kinds = Hashtbl.find buffers buffer in
        let dir =
          if List.for_all (( = ) Flow.Input) kinds then Loopir.Prog.In
          else if List.mem Flow.Output kinds then Loopir.Prog.Out
          else Loopir.Prog.Temp
        in
        let all_temp = List.for_all (( = ) Flow.Temp) kinds in
        if all_temp && not options.exported_temps then
          (params, (buffer, size) :: locals)
        else (({ Loopir.Prog.name = buffer; size; dir }) :: params, locals))
      ([], []) !order
  in
  let proc =
    { Loopir.Prog.name = program.Flow.prog_name; params; locals; body }
  in
  Loopir.Prog.validate proc;
  (proc, List.rev !provenance)

let generate ?options ?storage program schedule =
  fst (generate_with_provenance ?options ?storage program schedule)

(* A kept leaf keeps its provenance; a spill takes its source's, with
   the loops the scalarizer pinned at their final value. *)
let scalarized_with_provenance ?options ?storage program schedule =
  let proc, leaves = generate_with_provenance ?options ?storage program schedule in
  let leaves = Array.of_list leaves in
  let proc, origins = Loopir.Scalarize.optimize_with_origins proc in
  let leaf = function
    | Loopir.Scalarize.Leaf k -> leaves.(k)
    | Loopir.Scalarize.Spill { source; last } ->
        let l = leaves.(source) in
        let pin = function
          | Loop v when List.mem_assoc v last -> Fixed (List.assoc v last)
          | c -> c
        in
        { l with leaf_coords = Array.map pin l.leaf_coords }
  in
  (proc, List.map leaf origins)
