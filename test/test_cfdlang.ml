(* Tests for lib/cfdlang: lexer, parser, type checker, evaluator. *)

open Cfdlang

let case name f = Alcotest.test_case name `Quick f

let figure1_source =
  {|
// Figure 1: Inverse Helmholtz operator for p = 11
var input  S : [11 11]
var input  D : [11 11 11]
var input  u : [11 11 11]
var output v : [11 11 11]
var t : [11 11 11]
var r : [11 11 11]
t = S # S # S # u . [[1 6] [3 7] [5 8]]
r = D * t
v = S # S # S # r . [[0 6] [2 7] [4 8]]
|}

(* ---------- Lexer ---------- *)

let test_lex_keywords () =
  let toks = List.map fst (Lexer.tokenize "var input output foo 42 3.5") in
  Alcotest.(check bool) "tokens" true
    (toks
    = [
        Lexer.VAR;
        Lexer.INPUT;
        Lexer.OUTPUT;
        Lexer.IDENT "foo";
        Lexer.INT 42;
        Lexer.FLOAT 3.5;
        Lexer.EOF;
      ])

let test_lex_operators () =
  let toks = List.map fst (Lexer.tokenize "# . * / + - = : [ ] ( )") in
  Alcotest.(check int) "count" 13 (List.length toks)

let test_lex_comment () =
  let toks = List.map fst (Lexer.tokenize "a // comment # * [\nb") in
  Alcotest.(check bool) "comment skipped" true
    (toks = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ])

let test_lex_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  (match toks with
  | [ (_, p1); (_, p2); _ ] ->
      Alcotest.(check int) "line a" 1 p1.Lexer.line;
      Alcotest.(check int) "line b" 2 p2.Lexer.line;
      Alcotest.(check int) "col b" 3 p2.Lexer.col
  | _ -> Alcotest.fail "unexpected token count")

let test_lex_error () =
  match Lexer.tokenize "a $ b" with
  | _ -> Alcotest.fail "expected Lexer.Error"
  | exception Lexer.Error (_, _) -> ()

let test_lex_dot_vs_float () =
  (* "u . [" must lex DOT, while "3.5" lexes FLOAT *)
  let toks = List.map fst (Lexer.tokenize "u . 3.5") in
  Alcotest.(check bool) "dot and float" true
    (toks = [ Lexer.IDENT "u"; Lexer.DOT; Lexer.FLOAT 3.5; Lexer.EOF ])

(* ---------- Parser ---------- *)

let test_parse_figure1 () =
  let p = Parser.parse figure1_source in
  Alcotest.(check int) "decls" 6 (List.length p.Ast.decls);
  Alcotest.(check int) "stmts" 3 (List.length p.Ast.stmts);
  let expected = Ast.inverse_helmholtz () in
  Alcotest.(check bool) "matches builtin AST" true (p = expected)

let test_parse_precedence_contract_over_prod () =
  (* '.' binds looser than '#': the whole product is contracted. *)
  let e = Parser.parse_expr "a # b . [[0 1]]" in
  match e with
  | Ast.Contract (Ast.Prod (Ast.Var "a", Ast.Var "b"), [ (0, 1) ]) -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_precedence_mul_over_add () =
  let e = Parser.parse_expr "a + b * c" in
  match e with
  | Ast.Add (Ast.Var "a", Ast.Mul (Ast.Var "b", Ast.Var "c")) -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_left_assoc () =
  let e = Parser.parse_expr "a - b - c" in
  match e with
  | Ast.Sub (Ast.Sub (Ast.Var "a", Ast.Var "b"), Ast.Var "c") -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_parens () =
  let e = Parser.parse_expr "(a + b) * c" in
  match e with
  | Ast.Mul (Ast.Add _, Ast.Var "c") -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_chained_contraction () =
  let e = Parser.parse_expr "a # b . [[0 2]] . [[0 1]]" in
  match e with
  | Ast.Contract (Ast.Contract (Ast.Prod _, [ (0, 2) ]), [ (0, 1) ]) -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_errors () =
  let expect_parse_error src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected parse error for %S" src
    | exception Parser.Error _ -> ()
  in
  expect_parse_error "var : [1]";
  expect_parse_error "var x [1]";
  expect_parse_error "x = ";
  expect_parse_error "x = a . [0 1]";
  expect_parse_error "x = (a";
  expect_parse_error "var x : [1] x = 1 +"

let test_parse_unary_minus () =
  (match Parser.parse_expr "-a" with
  | Ast.Sub (Ast.Num 0.0, Ast.Var "a") -> ()
  | _ -> Alcotest.fail "unary minus");
  (match Parser.parse_expr "-a * b" with
  (* unary minus binds to the atom: (-a) * b *)
  | Ast.Mul (Ast.Sub (Ast.Num 0.0, Ast.Var "a"), Ast.Var "b") -> ()
  | _ -> Alcotest.fail "unary binds tight");
  match Parser.parse_expr "a - -b" with
  | Ast.Sub (Ast.Var "a", Ast.Sub (Ast.Num 0.0, Ast.Var "b")) -> ()
  | _ -> Alcotest.fail "double minus"

let test_parse_scalar_decl () =
  let p = Parser.parse "var input s : []\nvar output o : []\no = s * 2" in
  match p.Ast.decls with
  | [ d1; _ ] -> Alcotest.(check (list int)) "scalar" [] d1.Ast.dims
  | _ -> Alcotest.fail "unexpected decls"

let test_roundtrip_figure1 () =
  let p = Ast.inverse_helmholtz () in
  let printed = Ast.to_string p in
  let reparsed = Parser.parse printed in
  Alcotest.(check bool) "pp/parse round-trip" true (p = reparsed)

(* Random expression generator for pretty-print/parse round-trip. *)
let rec gen_expr depth =
  QCheck.Gen.(
    if depth = 0 then
      oneof [ return (Ast.Var "a"); return (Ast.Var "b"); map (fun n -> Ast.Num (float_of_int n)) (int_range 0 9) ]
    else
      let sub = gen_expr (depth - 1) in
      frequency
        [
          (2, map2 (fun a b -> Ast.Add (a, b)) sub sub);
          (2, map2 (fun a b -> Ast.Sub (a, b)) sub sub);
          (2, map2 (fun a b -> Ast.Mul (a, b)) sub sub);
          (1, map2 (fun a b -> Ast.Div (a, b)) sub sub);
          (2, map2 (fun a b -> Ast.Prod (a, b)) sub sub);
          (1, map (fun a -> Ast.Contract (a, [ (0, 1) ])) sub);
          (1, sub);
        ])

let qcheck_pp_parse_roundtrip =
  QCheck.Test.make ~name:"expression pp/parse round-trip" ~count:200
    (QCheck.make (gen_expr 3))
    (fun e ->
      let printed = Format.asprintf "%a" Ast.pp_expr e in
      match Parser.parse_expr printed with
      | e' -> e = e'
      | exception _ -> false)

(* ---------- Check ---------- *)

let ok_or_fail = function
  | Ok c -> c
  | Error e -> Alcotest.failf "unexpected type error: %a" Check.pp_error e

let expect_type_error src =
  match Check.parse_and_check src with
  | Ok _ -> Alcotest.failf "expected type error in %S" src
  | Error _ -> ()

let test_check_figure1 () =
  let c = ok_or_fail (Check.parse_and_check figure1_source) in
  Alcotest.(check (list int)) "shape of v" [ 11; 11; 11 ] (c.Check.shape_of "v");
  Alcotest.(check int) "stmt shapes" 3 (List.length c.Check.stmt_shapes)

let test_check_contraction_shape () =
  let c =
    ok_or_fail
      (Check.parse_and_check
         "var input A : [3 4]\nvar input x : [4]\nvar output y : [3]\n\
          y = A # x . [[1 2]]")
  in
  Alcotest.(check (list int)) "y" [ 3 ] (c.Check.shape_of "y")

let test_check_errors () =
  expect_type_error "var input a : [2]\nvar output b : [2]\nb = a + c";
  (* undeclared *)
  expect_type_error "var input a : [2]\nvar output b : [3]\nb = a";
  (* shape mismatch *)
  expect_type_error "var input a : [2]\nvar output b : [2]\na = b\nb = a";
  (* assign to input *)
  expect_type_error "var input a : [2]\nvar output b : [2]\nb = a\nb = a";
  (* double assignment *)
  expect_type_error "var input a : [2]\nvar output b : [2]";
  (* output never assigned *)
  expect_type_error "var input a : [2]\nvar input a : [2]\nvar output b : [2]\nb = a";
  (* duplicate decl *)
  expect_type_error "var input a : [2 3]\nvar output b : [2]\nb = a . [[0 1]]";
  (* contraction extent mismatch *)
  expect_type_error "var input a : [2 2]\nvar output b : []\nb = a . [[0 0]]";
  (* degenerate pair *)
  expect_type_error
    "var input a : [2 2]\nvar input c : [2 2]\nvar output b : [2 2]\nb = a + a * c + 1 . [[5 6]]"
  (* pair out of range *)

let test_check_def_before_use () =
  expect_type_error
    "var input a : [2]\nvar output b : [2]\nvar t : [2]\nb = t\nt = a"

let test_check_scalar_broadcast () =
  let c =
    ok_or_fail
      (Check.parse_and_check
         "var input a : [2 2]\nvar output b : [2 2]\nb = a * 2 + a / 4")
  in
  Alcotest.(check (list int)) "b" [ 2; 2 ] (c.Check.shape_of "b")

let test_check_local_used_without_def () =
  expect_type_error "var input a : [2]\nvar output b : [2]\nvar t : [2]\nb = a + t"

let test_check_warnings () =
  let c =
    ok_or_fail
      (Check.parse_and_check
         "var input a : [2]\nvar input unused_in : [2]\nvar output b : [2]\n\
          var dead : [2]\ndead = a + a\nb = a")
  in
  let ws = Check.warnings c in
  Alcotest.(check int) "two warnings" 2 (List.length ws);
  Alcotest.(check bool) "unused input" true
    (List.exists (fun w -> w = "input tensor unused_in is never read") ws);
  Alcotest.(check bool) "dead local" true
    (List.exists (fun w -> w = "local tensor dead is assigned but never consumed") ws)

let test_check_no_warnings_figure1 () =
  let c = ok_or_fail (Check.parse_and_check figure1_source) in
  Alcotest.(check (list string)) "clean" [] (Check.warnings c)

(* Declared tensors are held to the size budget before anything is
   built; a contracted intermediate is never materialized, so figure 1's
   11^9-word [S # S # S # u] still checks. *)
let test_check_size_budget () =
  Alcotest.(check int) "budget is 2^24 words" (1 lsl 24) Check.max_tensor_words;
  let copy dims =
    let shape = "[" ^ String.concat " " dims ^ "]" in
    Printf.sprintf "var input u : [2]\nvar output big : %s\nbig = u # u # u"
      shape
  in
  (match Check.parse_and_check (copy [ "4097"; "4096" ]) with
  | Error e ->
      Alcotest.(check string) "names the tensor and the budget"
        "tensor big : [4097 4096] exceeds the size budget of 16777216 words"
        e.Check.message
  | Ok _ -> Alcotest.fail "2^24 + 2^12 words accepted");
  (* 2^16 to the fourth wraps a plain product to 0; 2^62 - 1 is one
     extent past any allocation *)
  List.iter
    (fun dims ->
      match Check.parse_and_check (copy dims) with
      | Error e ->
          Alcotest.(check bool)
            (String.concat " " dims ^ ": names the tensor")
            true
            (String.starts_with ~prefix:"tensor big " e.Check.message)
      | Ok _ -> Alcotest.failf "[%s] accepted" (String.concat " " dims))
    [ [ "65536"; "65536"; "65536"; "65536" ]; [ "4611686018427387903" ] ];
  (* exactly at the budget: only the shape mismatch is left to report *)
  (match Check.parse_and_check (copy [ "4096"; "4096" ]) with
  | Error e ->
      Alcotest.(check bool) "2^24 words within the budget" true
        (String.starts_with ~prefix:"assignment to big" e.Check.message)
  | Ok _ -> Alcotest.fail "shape mismatch accepted");
  ignore (ok_or_fail (Check.parse_and_check figure1_source));
  List.iter
    (fun p ->
      List.iter
        (fun (name, program) ->
          match Check.check program with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "%s at p = %d: %a" name p Check.pp_error e)
        (Operators.all ~p ()))
    (List.init 22 (fun i -> i + 2))

(* ---------- Eval ---------- *)

open Tensor

let test_eval_figure1_matches_reference () =
  let c = ok_or_fail (Check.parse_and_check figure1_source) in
  let inputs = Helmholtz.make_inputs ~seed:5 11 in
  let bindings = [ ("S", inputs.Helmholtz.s); ("D", inputs.Helmholtz.d); ("u", inputs.Helmholtz.u) ] in
  match Eval.run c bindings with
  | [ ("v", v) ] ->
      let expected = Helmholtz.direct inputs in
      Alcotest.(check bool) "matches tensor reference" true
        (Dense.equal ~tol:1e-9 v expected)
  | _ -> Alcotest.fail "expected single output v"

let test_eval_small_program () =
  let c =
    ok_or_fail
      (Check.parse_and_check
         "var input A : [2 2]\nvar input x : [2]\nvar output y : [2]\n\
          y = A # x . [[1 2]]")
  in
  let a = Dense.of_array (Shape.create [ 2; 2 ]) [| 1.; 2.; 3.; 4. |] in
  let x = Dense.of_array (Shape.create [ 2 ]) [| 1.; 1. |] in
  match Eval.run c [ ("A", a); ("x", x) ] with
  | [ ("y", y) ] ->
      Alcotest.(check bool) "matvec" true
        (Dense.equal y (Dense.of_array (Shape.create [ 2 ]) [| 3.; 7. |]))
  | _ -> Alcotest.fail "expected y"

let test_eval_arith_scalar () =
  let c =
    ok_or_fail
      (Check.parse_and_check
         "var input a : [3]\nvar output b : [3]\nb = (a + a) * 0.5 - a")
  in
  let a = Dense.random ~seed:1 (Shape.create [ 3 ]) in
  match Eval.run c [ ("a", a) ] with
  | [ ("b", b) ] ->
      Alcotest.(check bool) "zero" true
        (Dense.equal ~tol:1e-12 b (Dense.create (Shape.create [ 3 ])))
  | _ -> Alcotest.fail "expected b"

let test_eval_missing_input () =
  let c =
    ok_or_fail (Check.parse_and_check "var input a : [2]\nvar output b : [2]\nb = a")
  in
  match Eval.run c [] with
  | _ -> Alcotest.fail "expected Eval_error"
  | exception Eval.Eval_error _ -> ()

let test_eval_extra_binding_rejected () =
  let c =
    ok_or_fail (Check.parse_and_check "var input a : [2]\nvar output b : [2]\nb = a")
  in
  let a = Dense.random ~seed:1 (Shape.create [ 2 ]) in
  match Eval.run c [ ("a", a); ("zz", a) ] with
  | _ -> Alcotest.fail "expected Eval_error"
  | exception Eval.Eval_error _ -> ()

let test_eval_wrong_shape_input () =
  let c =
    ok_or_fail (Check.parse_and_check "var input a : [2]\nvar output b : [2]\nb = a")
  in
  let bad = Dense.random ~seed:1 (Shape.create [ 3 ]) in
  match Eval.run c [ ("a", bad) ] with
  | _ -> Alcotest.fail "expected Eval_error"
  | exception Eval.Eval_error _ -> ()

let test_eval_interpolation_builtin () =
  let c = ok_or_fail (Check.check (Ast.interpolation ~p:4 ())) in
  let s = Dense.random ~seed:11 (Shape.create [ 4; 4 ]) in
  let u = Dense.random ~seed:12 (Shape.cube 3 4) in
  match Eval.run c [ ("S", s); ("u", u) ] with
  | [ ("v", v) ] ->
      Alcotest.(check bool) "interpolation" true
        (Dense.equal ~tol:1e-9 v (Helmholtz.interpolation s u))
  | _ -> Alcotest.fail "expected v"

let qcheck_eval_add_commutes =
  QCheck.Test.make ~name:"program-level a+b = b+a" ~count:50
    QCheck.(int_range 0 100)
    (fun seed ->
      let src ord =
        Printf.sprintf
          "var input a : [4]\nvar input b : [4]\nvar output c : [4]\nc = %s"
          (if ord then "a + b" else "b + a")
      in
      let run ord =
        let c = Result.get_ok (Check.parse_and_check (src ord)) in
        let a = Dense.random ~seed (Shape.create [ 4 ]) in
        let b = Dense.random ~seed:(seed + 1) (Shape.create [ 4 ]) in
        List.assoc "c" (Eval.run c [ ("a", a); ("b", b) ])
      in
      Dense.equal (run true) (run false))

let suite =
  [
    ( "cfdlang.lexer",
      [
        case "keywords & literals" test_lex_keywords;
        case "operators" test_lex_operators;
        case "comments" test_lex_comment;
        case "positions" test_lex_positions;
        case "lexical error" test_lex_error;
        case "dot vs float" test_lex_dot_vs_float;
      ] );
    ( "cfdlang.parser",
      [
        case "figure 1 program" test_parse_figure1;
        case "contract looser than #" test_parse_precedence_contract_over_prod;
        case "* over +" test_parse_precedence_mul_over_add;
        case "left associativity" test_parse_left_assoc;
        case "parentheses" test_parse_parens;
        case "chained contraction" test_parse_chained_contraction;
        case "syntax errors" test_parse_errors;
        case "unary minus" test_parse_unary_minus;
        case "scalar declaration" test_parse_scalar_decl;
        case "figure 1 round-trip" test_roundtrip_figure1;
        Test_seed.to_alcotest qcheck_pp_parse_roundtrip;
      ] );
    ( "cfdlang.check",
      [
        case "figure 1 checks" test_check_figure1;
        case "contraction shape" test_check_contraction_shape;
        case "rejections" test_check_errors;
        case "def before use" test_check_def_before_use;
        case "scalar broadcast" test_check_scalar_broadcast;
        case "local used without def" test_check_local_used_without_def;
        case "warnings" test_check_warnings;
        case "no warnings on figure 1" test_check_no_warnings_figure1;
        case "size budget" test_check_size_budget;
      ] );
    ( "cfdlang.eval",
      [
        case "figure 1 = tensor reference" test_eval_figure1_matches_reference;
        case "matvec program" test_eval_small_program;
        case "scalar arithmetic" test_eval_arith_scalar;
        case "missing input" test_eval_missing_input;
        case "extra binding rejected" test_eval_extra_binding_rejected;
        case "wrong input shape" test_eval_wrong_shape_input;
        case "interpolation builtin" test_eval_interpolation_builtin;
        Test_seed.to_alcotest qcheck_eval_add_commutes;
      ] );
  ]
