type sched1 = { betas : int array; dims : int array }
type t = (string * sched1) list

exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let reference (program : Flow.program) =
  List.mapi
    (fun k (stmt : Flow.statement) ->
      let d = Poly.Basic_set.arity stmt.Flow.domain in
      let betas = Array.make (d + 1) 0 in
      betas.(0) <- k;
      (stmt.Flow.stmt_name, { betas; dims = Array.init d Fun.id }))
    program.Flow.stmts

let find t name =
  match List.assoc_opt name t with
  | Some s -> s
  | None -> errf "statement %s has no schedule" name

let depth t =
  List.fold_left (fun acc (_, s) -> max acc (Array.length s.dims)) 0 t

let tuple_arity t = (2 * depth t) + 1

let timestamp t sched x =
  let arity = tuple_arity t in
  let d = Array.length sched.dims in
  let ts = Array.make arity 0 in
  for i = 0 to d - 1 do
    ts.(2 * i) <- sched.betas.(i);
    ts.((2 * i) + 1) <- x.(sched.dims.(i))
  done;
  ts.(2 * d) <- sched.betas.(d);
  ts

let to_aff_map t (stmt : Flow.statement) sched =
  let arity = tuple_arity t in
  let n = Poly.Basic_set.arity stmt.Flow.domain in
  let d = Array.length sched.dims in
  let exprs =
    Array.init arity (fun pos ->
        if pos mod 2 = 0 then
          let i = pos / 2 in
          if i <= d then Poly.Aff.const n sched.betas.(i) else Poly.Aff.const n 0
        else
          let i = pos / 2 in
          if i < d then Poly.Aff.var n sched.dims.(i) else Poly.Aff.const n 0)
  in
  Poly.Aff_map.make
    (Poly.Basic_set.space stmt.Flow.domain)
    (Poly.Space.anonymous arity)
    exprs

let image_extrema t sched domain =
  match Poly.Basic_set.bounding_box domain with
  | None -> errf "image_extrema: domain is not a bounded box"
  | Some box ->
      let d = Array.length sched.dims in
      let corner pick =
        let x = Array.make (Array.length box) 0 in
        Array.iteri
          (fun j (lo, hi) -> x.(j) <- (if pick then lo else hi))
          box;
        x
      in
      ignore d;
      ( timestamp t sched (corner true),
        timestamp t sched (corner false) )

let validate (program : Flow.program) t =
  List.iter
    (fun (stmt : Flow.statement) ->
      let s = find t stmt.Flow.stmt_name in
      let d = Poly.Basic_set.arity stmt.Flow.domain in
      if Array.length s.dims <> d then
        errf "%s: schedule has %d loop dims, domain rank %d"
          stmt.Flow.stmt_name (Array.length s.dims) d;
      if Array.length s.betas <> d + 1 then
        errf "%s: schedule needs %d betas" stmt.Flow.stmt_name (d + 1);
      if List.sort compare (Array.to_list s.dims) <> List.init d Fun.id then
        errf "%s: dims is not a permutation" stmt.Flow.stmt_name)
    program.Flow.stmts;
  (* Distinct statements must never produce identical timestamps: their
     beta vectors must differ at or before the depth where their variable
     parts stop coinciding. A cheap sufficient check: full beta lists
     differ pairwise. *)
  let betas_of name = (find t name).betas in
  let rec pairwise = function
    | [] -> ()
    | (a : Flow.statement) :: rest ->
        List.iter
          (fun (b : Flow.statement) ->
            if betas_of a.Flow.stmt_name = betas_of b.Flow.stmt_name then
              errf "%s and %s have identical beta vectors" a.Flow.stmt_name
                b.Flow.stmt_name)
          rest;
        pairwise rest
  in
  pairwise program.Flow.stmts

let pp ppf t =
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "%s: betas [%s] dims [%s]@\n" name
        (String.concat " " (Array.to_list (Array.map string_of_int s.betas)))
        (String.concat " " (Array.to_list (Array.map string_of_int s.dims))))
    t
