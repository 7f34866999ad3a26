type error = { message : string }

exception Type_error of string

let pp_error ppf e = Format.pp_print_string ppf e.message
let errf fmt = Format.kasprintf (fun message -> Error { message }) fmt

let shape_str dims =
  "[" ^ String.concat " " (List.map string_of_int dims) ^ "]"

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Every declared tensor becomes a buffer of its extent product, so a
   declaration past the budget is refused before any TIR is built. 2^24
   words is about 100x the ~160k f64 words of the ZCU106's BRAM.
   Contracted intermediates such as [S # S # S # u] are never
   materialized and are not counted. *)
let max_tensor_words = 1 lsl 24

(* Overflow-safe: extents are >= 1, so [acc * e <= budget] iff
   [acc <= budget / e]. *)
let within_budget dims =
  let rec go acc = function
    | [] -> true
    | e :: rest -> acc <= max_tensor_words / e && go (acc * e) rest
  in
  go 1 dims

let rec infer ~env expr =
  let elementwise op a b =
    let* sa = infer ~env a in
    let* sb = infer ~env b in
    match (sa, sb) with
    | [], s | s, [] -> Ok s (* scalar broadcast *)
    | _ when sa = sb -> Ok sa
    | _ ->
        errf "element-wise %s of mismatched shapes %s and %s" op
          (shape_str sa) (shape_str sb)
  in
  match expr with
  | Ast.Num _ -> Ok []
  | Ast.Var v -> (
      match env v with
      | Some s -> Ok s
      | None -> errf "use of undeclared or not-yet-defined tensor %s" v)
  | Ast.Add (a, b) -> elementwise "+" a b
  | Ast.Sub (a, b) -> elementwise "-" a b
  | Ast.Mul (a, b) -> elementwise "*" a b
  | Ast.Div (a, b) -> elementwise "/" a b
  | Ast.Prod (a, b) ->
      let* sa = infer ~env a in
      let* sb = infer ~env b in
      Ok (sa @ sb)
  | Ast.Contract (a, pairs) -> (
      let* sa = infer ~env a in
      let n = List.length sa in
      let extents = Array.of_list sa in
      let used = Array.make (max n 1) false in
      let rec validate = function
        | [] -> Ok ()
        | (x, y) :: rest ->
            if x < 0 || x >= n || y < 0 || y >= n then
              errf "contraction pair [%d %d] out of range for rank %d" x y n
            else if x = y then errf "contraction pair [%d %d] is degenerate" x y
            else if used.(x) || used.(y) then
              errf "dimension reused in contraction pair [%d %d]" x y
            else if extents.(x) <> extents.(y) then
              errf "contraction pair [%d %d] joins extents %d and %d" x y
                extents.(x) extents.(y)
            else begin
              used.(x) <- true;
              used.(y) <- true;
              validate rest
            end
      in
      match validate pairs with
      | Error _ as e -> e
      | Ok () ->
          Ok
            (List.filteri (fun i _ -> not used.(i)) sa))

type checked = {
  program : Ast.program;
  shape_of : string -> int list;
  stmt_shapes : (string * int list) list;
}

let check (program : Ast.program) =
  (* Declarations: unique names, positive extents within the budget. *)
  let decl_tbl = Hashtbl.create 16 in
  let rec check_decls = function
    | [] -> Ok ()
    | (d : Ast.decl) :: rest ->
        if Hashtbl.mem decl_tbl d.name then
          errf "tensor %s declared twice" d.name
        else if List.exists (fun e -> e < 1) d.dims then
          errf "tensor %s has a non-positive extent" d.name
        else if not (within_budget d.dims) then
          errf "tensor %s : %s exceeds the size budget of %d words" d.name
            (shape_str d.dims) max_tensor_words
        else begin
          Hashtbl.add decl_tbl d.name d;
          check_decls rest
        end
  in
  let* () = check_decls program.decls in
  (* Statements: single assignment, def-before-use, no writes to inputs. *)
  let defined = Hashtbl.create 16 in
  List.iter
    (fun (d : Ast.decl) ->
      if d.io = Ast.Input then Hashtbl.add defined d.name ())
    program.decls;
  let env name =
    if Hashtbl.mem defined name then
      Option.map
        (fun (d : Ast.decl) -> d.dims)
        (Hashtbl.find_opt decl_tbl name)
    else None
  in
  let rec check_stmts acc = function
    | [] -> Ok (List.rev acc)
    | (s : Ast.stmt) :: rest -> (
        match Hashtbl.find_opt decl_tbl s.lhs with
        | None -> errf "assignment to undeclared tensor %s" s.lhs
        | Some d when d.io = Ast.Input -> errf "assignment to input tensor %s" s.lhs
        | Some d ->
            if Hashtbl.mem defined s.lhs && d.io <> Ast.Input then
              errf "tensor %s assigned more than once" s.lhs
            else
              let* shape = infer ~env s.rhs in
              if shape <> d.dims then
                errf "assignment to %s : %s from expression of shape %s" s.lhs
                  (shape_str d.dims) (shape_str shape)
              else begin
                Hashtbl.add defined s.lhs ();
                check_stmts ((s.lhs, shape) :: acc) rest
              end)
  in
  let* stmt_shapes = check_stmts [] program.stmts in
  (* Every output must have been assigned. *)
  let rec check_outputs = function
    | [] -> Ok ()
    | (d : Ast.decl) :: rest ->
        if d.io = Ast.Output && not (Hashtbl.mem defined d.name) then
          errf "output tensor %s is never assigned" d.name
        else check_outputs rest
  in
  let* () = check_outputs program.decls in
  Ok
    {
      program;
      shape_of =
        (fun name ->
          match Hashtbl.find_opt decl_tbl name with
          | Some d -> d.dims
          | None -> raise Not_found);
      stmt_shapes;
    }

let rec expr_uses acc = function
  | Ast.Var v -> v :: acc
  | Ast.Num _ -> acc
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) | Ast.Div (a, b)
  | Ast.Prod (a, b) ->
      expr_uses (expr_uses acc a) b
  | Ast.Contract (a, _) -> expr_uses acc a

let warnings (checked : checked) =
  let program = checked.program in
  let used =
    List.concat_map (fun (s : Ast.stmt) -> expr_uses [] s.rhs) program.stmts
  in
  List.filter_map
    (fun (d : Ast.decl) ->
      let is_used = List.mem d.name used in
      match d.io with
      | Ast.Input when not is_used ->
          Some (Printf.sprintf "input tensor %s is never read" d.name)
      | Ast.Local when not is_used ->
          Some
            (Printf.sprintf "local tensor %s is assigned but never consumed"
               d.name)
      | Ast.Input | Ast.Output | Ast.Local -> None)
    program.decls

let check_exn program =
  match check program with
  | Ok c -> c
  | Error e -> raise (Type_error e.message)

let parse_and_check src =
  match Parser.parse src with
  | program -> check program
  | exception Parser.Error (pos, msg) ->
      errf "parse error at %d:%d: %s" pos.Lexer.line pos.Lexer.col msg
  | exception Lexer.Error (pos, msg) ->
      errf "lexical error at %d:%d: %s" pos.Lexer.line pos.Lexer.col msg
