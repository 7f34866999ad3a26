type direction = In | Out | Temp

type param = { name : string; size : int; dir : direction }
type pragma = Pipeline of int | Unroll of int

type fexpr =
  | Const of float
  | Load of string * Ix.t
  | Scalar of string
  | Add of fexpr * fexpr
  | Sub of fexpr * fexpr
  | Mul of fexpr * fexpr
  | Div of fexpr * fexpr

type stmt =
  | For of loop
  | Store of { array : string; index : Ix.t; value : fexpr }
  | Accum of { array : string; index : Ix.t; value : fexpr }
  | Set_scalar of { name : string; value : fexpr }
  | Acc_scalar of { name : string; value : fexpr }

and loop = {
  var : string;
  lo : int;
  hi : int;
  pragmas : pragma list;
  body : stmt list;
}

type proc = {
  name : string;
  params : param list;
  locals : (string * int) list;
  body : stmt list;
}

exception Ill_formed of string

let illf fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let rec expr_reads expr acc =
  match expr with
  | Const _ | Scalar _ -> acc
  | Load (a, _) -> a :: acc
  | Add (x, y) | Sub (x, y) | Mul (x, y) | Div (x, y) ->
      expr_reads x (expr_reads y acc)

let rec stmt_fold f acc stmt =
  let acc = f acc stmt in
  match stmt with
  | For { body; _ } -> List.fold_left (stmt_fold f) acc body
  | Store _ | Accum _ | Set_scalar _ | Acc_scalar _ -> acc

let proc_fold f acc proc = List.fold_left (stmt_fold f) acc proc.body

let arrays_read proc =
  proc_fold
    (fun acc stmt ->
      match stmt with
      | Store { value; _ }
      | Accum { value; _ }
      | Set_scalar { value; _ }
      | Acc_scalar { value; _ } -> expr_reads value acc
      | For _ -> acc)
    [] proc
  |> List.sort_uniq compare

let arrays_written proc =
  proc_fold
    (fun acc stmt ->
      match stmt with
      | Store { array; _ } | Accum { array; _ } -> array :: acc
      | Set_scalar _ | Acc_scalar _ | For _ -> acc)
    [] proc
  |> List.sort_uniq compare

let run_totals proc =
  let rec totals (stmts, iters) = function
    | For l ->
        let trip = max 0 (l.hi - l.lo) in
        let s, i = List.fold_left totals (0, 0) l.body in
        (stmts + (trip * s), iters + trip + (trip * i))
    | Store _ | Accum _ | Set_scalar _ | Acc_scalar _ -> (stmts + 1, iters)
  in
  List.fold_left totals (0, 0) proc.body

let leaf_desc = function
  | Store { array; _ } -> "store " ^ array
  | Accum { array; _ } -> "accum " ^ array
  | Set_scalar { name; _ } -> "set " ^ name
  | Acc_scalar { name; _ } -> "acc " ^ name
  | For _ -> "for"

let validate proc =
  let names = Hashtbl.create 16 in
  List.iter
    (fun (p : param) ->
      if Hashtbl.mem names p.name then illf "duplicate parameter %s" p.name;
      if p.size < 1 then illf "parameter %s has size %d" p.name p.size;
      Hashtbl.add names p.name p.dir)
    proc.params;
  List.iter
    (fun (n, size) ->
      if Hashtbl.mem names n then illf "local %s shadows a parameter" n;
      if size < 1 then illf "local %s has size %d" n size;
      Hashtbl.add names n Temp)
    proc.locals;
  let dir_of a =
    match Hashtbl.find_opt names a with
    | Some d -> d
    | None -> illf "reference to undeclared array %s" a
  in
  let check_index loop_vars ix =
    List.iter
      (fun v ->
        if not (List.mem v loop_vars) then
          illf "index uses unbound loop variable %s" v)
      (Ix.vars ix)
  in
  let rec check_expr loop_vars scalars expr =
    match expr with
    | Const _ -> ()
    | Scalar s ->
        if not (List.mem s scalars) then illf "scalar %s read before set" s
    | Load (a, ix) ->
        ignore (dir_of a);
        check_index loop_vars ix
    | Add (x, y) | Sub (x, y) | Mul (x, y) | Div (x, y) ->
        check_expr loop_vars scalars x;
        check_expr loop_vars scalars y
  in
  let rec check_stmt loop_vars scalars stmt =
    match stmt with
    | For l ->
        if List.mem l.var loop_vars then
          illf "loop variable %s shadows an enclosing loop" l.var;
        if l.hi <= l.lo then illf "loop on %s is empty (%d..%d)" l.var l.lo l.hi;
        List.fold_left (check_stmt (l.var :: loop_vars)) scalars l.body
    | Store { array; index; value } | Accum { array; index; value } ->
        if dir_of array = In then illf "write to input array %s" array;
        check_index loop_vars index;
        check_expr loop_vars scalars value;
        scalars
    | Set_scalar { name; value } ->
        check_expr loop_vars scalars value;
        if List.mem name scalars then scalars else name :: scalars
    | Acc_scalar { name; value } ->
        if not (List.mem name scalars) then
          illf "scalar %s accumulated before set" name;
        check_expr loop_vars scalars value;
        scalars
  in
  ignore (List.fold_left (check_stmt []) [] proc.body);
  let written = arrays_written proc in
  List.iter
    (fun (p : param) ->
      if p.dir = Out && not (List.mem p.name written) then
        illf "output %s is never written" p.name)
    proc.params

let prec = function
  | Const _ | Load _ | Scalar _ -> 3
  | Mul _ | Div _ -> 2
  | Add _ | Sub _ -> 1

let rec pp_fexpr ctx ppf e =
  let p = prec e in
  let bracket = p < ctx in
  if bracket then Format.pp_print_char ppf '(';
  (match e with
  | Const f ->
      if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.1f" f
      else Format.fprintf ppf "%.17g" f
  | Load (a, ix) -> Format.fprintf ppf "%s[%a]" a Ix.pp ix
  | Scalar s -> Format.pp_print_string ppf s
  | Add (x, y) -> Format.fprintf ppf "%a + %a" (pp_fexpr 1) x (pp_fexpr 2) y
  | Sub (x, y) -> Format.fprintf ppf "%a - %a" (pp_fexpr 1) x (pp_fexpr 2) y
  | Mul (x, y) -> Format.fprintf ppf "%a * %a" (pp_fexpr 2) x (pp_fexpr 3) y
  | Div (x, y) -> Format.fprintf ppf "%a / %a" (pp_fexpr 2) x (pp_fexpr 3) y);
  if bracket then Format.pp_print_char ppf ')'

let pp_pragma ppf = function
  | Pipeline ii -> Format.fprintf ppf "#pragma HLS pipeline II=%d" ii
  | Unroll f -> Format.fprintf ppf "#pragma HLS unroll factor=%d" f

let rec pp_stmt ppf = function
  | For l ->
      Format.fprintf ppf "@[<v 2>for (int %s = %d; %s < %d; ++%s) {" l.var l.lo
        l.var l.hi l.var;
      List.iter (fun p -> Format.fprintf ppf "@,%a" pp_pragma p) l.pragmas;
      List.iter (fun s -> Format.fprintf ppf "@,%a" pp_stmt s) l.body;
      Format.fprintf ppf "@]@,}"
  | Store { array; index; value } ->
      Format.fprintf ppf "%s[%a] = %a;" array Ix.pp index (pp_fexpr 0) value
  | Accum { array; index; value } ->
      Format.fprintf ppf "%s[%a] += %a;" array Ix.pp index (pp_fexpr 0) value
  | Set_scalar { name; value } ->
      Format.fprintf ppf "double %s = %a;" name (pp_fexpr 0) value
  | Acc_scalar { name; value } ->
      Format.fprintf ppf "%s += %a;" name (pp_fexpr 0) value

let pp_proc ppf proc =
  let param ppf p =
    match p.dir with
    | In -> Format.fprintf ppf "const double %s[%d]" p.name p.size
    | Out | Temp -> Format.fprintf ppf "double %s[%d]" p.name p.size
  in
  Format.fprintf ppf "@[<v>@[<v 2>void %s(%a) {" proc.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       param)
    proc.params;
  List.iter
    (fun (n, size) -> Format.fprintf ppf "@,double %s[%d];" n size)
    proc.locals;
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_stmt s) proc.body;
  Format.fprintf ppf "@]@,}@]"
