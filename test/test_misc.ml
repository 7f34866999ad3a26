(* Unit tests for smaller corners: index expressions, loop-IR validation,
   interpreter error handling, and report formatting. *)

let case name f = Alcotest.test_case name `Quick f

(* ---------- Ix ---------- *)

let test_ix_normalization () =
  let a = Loopir.Ix.of_terms [ (2, "i"); (3, "i"); (1, "j") ] 4 in
  let b = Loopir.Ix.of_terms [ (1, "j"); (5, "i") ] 4 in
  Alcotest.(check bool) "merged terms" true (Loopir.Ix.equal a b);
  let z = Loopir.Ix.of_terms [ (2, "i"); (-2, "i") ] 0 in
  Alcotest.(check bool) "zero coefficients dropped" true
    (Loopir.Ix.is_const z)

let test_ix_algebra () =
  let open Loopir.Ix in
  let e = add (scaled 3 "i") (add_const (var "j") 5) in
  let env = function "i" -> 2 | "j" -> 7 | _ -> raise Not_found in
  Alcotest.(check int) "eval" ((3 * 2) + 7 + 5) (eval e env);
  Alcotest.(check int) "scale" (2 * ((3 * 2) + 7 + 5)) (eval (scale 2 e) env);
  Alcotest.(check bool) "scale by zero" true (is_const (scale 0 e))

let test_ix_pp () =
  let e = Loopir.Ix.of_terms [ (121, "i"); (11, "j"); (1, "k") ] 0 in
  Alcotest.(check string) "c syntax" "121 * i + 11 * j + k"
    (Format.asprintf "%a" Loopir.Ix.pp e);
  Alcotest.(check string) "negative" "-i - 2"
    (Format.asprintf "%a" Loopir.Ix.pp (Loopir.Ix.of_terms [ (-1, "i") ] (-2)));
  Alcotest.(check string) "constant" "7"
    (Format.asprintf "%a" Loopir.Ix.pp (Loopir.Ix.const 7))

(* ---------- Prog validation ---------- *)

let mk_proc body =
  {
    Loopir.Prog.name = "p";
    params =
      [
        { Loopir.Prog.name = "a"; size = 4; dir = Loopir.Prog.In };
        { Loopir.Prog.name = "b"; size = 4; dir = Loopir.Prog.Out };
      ];
    locals = [];
    body;
  }

let expect_ill_formed proc =
  match Loopir.Prog.validate proc with
  | () -> Alcotest.fail "expected Ill_formed"
  | exception Loopir.Prog.Ill_formed _ -> ()

let test_prog_rejects_write_to_input () =
  expect_ill_formed
    (mk_proc
       [
         Loopir.Prog.Store
           { array = "a"; index = Loopir.Ix.const 0; value = Loopir.Prog.Const 1.0 };
         Loopir.Prog.Store
           { array = "b"; index = Loopir.Ix.const 0; value = Loopir.Prog.Const 1.0 };
       ])

let test_prog_rejects_unbound_loop_var () =
  expect_ill_formed
    (mk_proc
       [
         Loopir.Prog.Store
           { array = "b"; index = Loopir.Ix.var "i"; value = Loopir.Prog.Const 1.0 };
       ])

let test_prog_rejects_unwritten_output () =
  expect_ill_formed (mk_proc [])

let test_prog_rejects_empty_loop () =
  expect_ill_formed
    (mk_proc
       [
         Loopir.Prog.For
           {
             var = "i";
             lo = 3;
             hi = 3;
             pragmas = [];
             body =
               [
                 Loopir.Prog.Store
                   { array = "b"; index = Loopir.Ix.var "i"; value = Loopir.Prog.Const 0.0 };
               ];
           };
       ])

(* One top-level leaf, then a 3-trip loop holding a leaf, an empty
   (hi = lo) loop and a 2-trip loop, then an inverted (hi < lo) loop:
   statements 1 + 3 * (1 + 0 + 2) = 10, iterations 3 + 3 * (0 + 2) = 9. *)
let test_prog_run_totals () =
  let open Loopir.Prog in
  let loop var lo hi body = For { var; lo; hi; pragmas = []; body } in
  let acc ix =
    Accum { array = "b"; index = Loopir.Ix.var ix; value = Scalar "s" }
  in
  let proc =
    mk_proc
      [
        Store { array = "b"; index = Loopir.Ix.const 0; value = Const 1.0 };
        loop "i" 0 3
          [
            Set_scalar { name = "s"; value = Load ("a", Loopir.Ix.var "i") };
            loop "j" 5 5 [ acc "j" ];
            loop "k" 2 4 [ acc "k" ];
          ];
        loop "m" 4 1 [ acc "m" ];
      ]
  in
  Alcotest.(check (pair int int)) "(statements, iterations)" (10, 9)
    (run_totals proc);
  Alcotest.(check (pair int int)) "empty body" (0, 0) (run_totals (mk_proc []))

let test_prog_rejects_scalar_before_set () =
  expect_ill_formed
    (mk_proc
       [
         Loopir.Prog.Store
           { array = "b"; index = Loopir.Ix.const 0; value = Loopir.Prog.Scalar "acc" };
       ])

let test_prog_rejects_shadowed_loop_var () =
  let inner =
    Loopir.Prog.For
      {
        var = "i";
        lo = 0;
        hi = 2;
        pragmas = [];
        body =
          [
            Loopir.Prog.Store
              { array = "b"; index = Loopir.Ix.var "i"; value = Loopir.Prog.Const 0.0 };
          ];
      }
  in
  expect_ill_formed
    (mk_proc [ Loopir.Prog.For { var = "i"; lo = 0; hi = 2; pragmas = []; body = [ inner ] } ])

(* ---------- interpreter bounds ---------- *)

let test_interp_out_of_bounds () =
  let proc =
    mk_proc
      [
        Loopir.Prog.Store
          { array = "b"; index = Loopir.Ix.const 9; value = Loopir.Prog.Const 1.0 };
      ]
  in
  (* validation can't see the constant exceeds the size (it checks loop
     vars); the interpreter must catch it at runtime *)
  match Loopir.Interp.run_fresh proc ~inputs:[ ("a", Array.make 4 0.0) ] with
  | _ -> Alcotest.fail "expected Interp.Error"
  | exception Loopir.Interp.Error _ -> ()

let test_interp_short_buffer () =
  let proc =
    mk_proc
      [
        Loopir.Prog.Store
          { array = "b"; index = Loopir.Ix.const 0; value = Loopir.Prog.Const 1.0 };
      ]
  in
  let memory =
    Loopir.Interp.make_memory [ ("a", Array.make 4 0.0); ("b", Array.make 2 0.0) ]
  in
  match Loopir.Interp.run proc memory with
  | _ -> Alcotest.fail "expected Interp.Error"
  | exception Loopir.Interp.Error _ -> ()

(* ---------- formatting ---------- *)

let test_resource_pp_commas () =
  let r = Fpga_platform.Resource.make ~lut:230400 ~ff:1234567 ~dsp:15 ~bram18:0 in
  let s = Format.asprintf "%a" Fpga_platform.Resource.pp r in
  Alcotest.(check bool) "thousands separators" true
    (String.length s > 0
    &&
    let has needle =
      let ln = String.length needle and lh = String.length s in
      let rec scan i = i + ln <= lh && (String.sub s i ln = needle || scan (i + 1)) in
      scan 0
    in
    has "230,400" && has "1,234,567")

let test_emit_prototype () =
  let proc =
    mk_proc
      [
        Loopir.Prog.Store
          { array = "b"; index = Loopir.Ix.const 0; value = Loopir.Prog.Const 1.0 };
      ]
  in
  Alcotest.(check string) "prototype"
    "void p(const double a[4], double b[4]);"
    (Loopir.Emit.c_prototype proc)

let test_axi_busy_flag () =
  let ctrl = Sysgen.Axi_ctrl.create ~k:1 ~batch:1 in
  Alcotest.(check bool) "idle initially" false (Sysgen.Axi_ctrl.busy ctrl);
  Sysgen.Axi_ctrl.write_start ctrl;
  Alcotest.(check bool) "busy after start" true (Sysgen.Axi_ctrl.busy ctrl);
  ignore (Sysgen.Axi_ctrl.step ctrl ~ready:[| true |] ~done_:[| false |]);
  ignore (Sysgen.Axi_ctrl.step ctrl ~ready:[| true |] ~done_:[| true |]);
  Alcotest.(check bool) "idle after round" false (Sysgen.Axi_ctrl.busy ctrl)

let test_bram_edge_cases () =
  Alcotest.(check int) "exactly 18Kib" 1
    (Fpga_platform.Bram.count ~word_bits:36 ~words:512);
  Alcotest.(check int) "one bit over" 2
    (Fpga_platform.Bram.count ~word_bits:36 ~words:513);
  Alcotest.(check int) "narrow words" 1
    (Fpga_platform.Bram.count ~word_bits:8 ~words:2048);
  Alcotest.(check int) "wide shallow" 2
    (Fpga_platform.Bram.count ~word_bits:72 ~words:512)

let suite =
  [
    ( "misc.ix",
      [
        case "normalization" test_ix_normalization;
        case "algebra" test_ix_algebra;
        case "pretty printing" test_ix_pp;
      ] );
    ( "misc.prog",
      [
        case "write to input" test_prog_rejects_write_to_input;
        case "unbound loop var" test_prog_rejects_unbound_loop_var;
        case "unwritten output" test_prog_rejects_unwritten_output;
        case "empty loop" test_prog_rejects_empty_loop;
        case "scalar before set" test_prog_rejects_scalar_before_set;
        case "shadowed loop var" test_prog_rejects_shadowed_loop_var;
        case "run totals" test_prog_run_totals;
      ] );
    ( "misc.interp",
      [
        case "out of bounds" test_interp_out_of_bounds;
        case "short buffer" test_interp_short_buffer;
      ] );
    ( "misc.format",
      [
        case "resource commas" test_resource_pp_commas;
        case "c prototype" test_emit_prototype;
        case "axi busy flag" test_axi_busy_flag;
        case "bram edges" test_bram_edge_cases;
      ] );
  ]
