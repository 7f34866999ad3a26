(* Tests for lib/lower and lib/loopir: polyhedral promotion, schedules,
   rescheduling, code generation, scalarization, C emission, and the
   end-to-end functional equivalence of generated loop programs. *)

open Tensor

let case name f = Alcotest.test_case name `Quick f

let helmholtz_program ?(p = 4) ?(factorize = false) () =
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p ()) in
  let kernel = Tir.Builder.build ~name:"helm" checked in
  let kernel =
    if factorize then Tir.Transform.factorize kernel else kernel
  in
  (checked, Lower.Flow.of_kernel ~name:"helm" kernel)

(* Execute a generated proc on the Helmholtz inputs and compare v against
   the reference operator. *)
let check_proc_matches_reference ?(p = 4) ?(seed = 3) ?(tol = 1e-8) proc =
  let inputs = Helmholtz.make_inputs ~seed p in
  let bindings =
    [
      ("S", Dense.to_array inputs.Helmholtz.s);
      ("D", Dense.to_array inputs.Helmholtz.d);
      ("u", Dense.to_array inputs.Helmholtz.u);
    ]
  in
  let results = Loopir.Interp.run_fresh proc ~inputs:bindings in
  let v =
    match List.assoc_opt "v" results with
    | Some v -> v
    | None ->
        (* v may live in a shared buffer; find the buffer that holds it. *)
        Alcotest.fail "output buffer v not found"
  in
  let got = Dense.of_array (Shape.cube 3 p) (Array.sub v 0 (p * p * p)) in
  let expected = Helmholtz.direct inputs in
  if not (Dense.equal ~tol got expected) then
    Alcotest.failf "generated code diverges from reference (max diff %g)"
      (Dense.max_abs_diff got expected)

(* ---------- Flow ---------- *)

let test_flow_helmholtz_structure () =
  let _, program = helmholtz_program () in
  (* 6 arrays: S D u v t r; 5 statements: t_init t_mac r_stmt v_init v_mac *)
  Alcotest.(check int) "arrays" 6 (List.length program.Lower.Flow.arrays);
  Alcotest.(check int) "stmts" 5 (List.length program.Lower.Flow.stmts);
  Lower.Flow.validate program;
  let mac =
    List.find
      (fun (s : Lower.Flow.statement) -> s.Lower.Flow.stmt_name = "t_mac")
      program.Lower.Flow.stmts
  in
  Alcotest.(check int) "mac domain rank 6" 6
    (Poly.Basic_set.arity mac.Lower.Flow.domain)

let test_flow_array_kinds () =
  let _, program = helmholtz_program () in
  let kind n = (Lower.Flow.array_info program n).Lower.Flow.kind in
  Alcotest.(check bool) "S input" true (kind "S" = Lower.Flow.Input);
  Alcotest.(check bool) "v output" true (kind "v" = Lower.Flow.Output);
  Alcotest.(check bool) "t temp" true (kind "t" = Lower.Flow.Temp);
  Alcotest.(check bool) "r temp" true (kind "r" = Lower.Flow.Temp)

let test_flow_layout_row_major () =
  let _, program = helmholtz_program ~p:4 () in
  let info = Lower.Flow.array_info program "t" in
  Alcotest.(check (array int)) "layout [1;2;3]" [| (16 * 1) + (4 * 2) + 3 |]
    (Poly.Aff_map.apply info.Lower.Flow.layout [| 1; 2; 3 |])

let test_flow_operand_map_hadamard () =
  (* The paper's example: r[i,j,k] -> D[i,j,k] u t[i,j,k]. *)
  let _, program = helmholtz_program ~p:3 () in
  let r_stmt =
    List.find
      (fun (s : Lower.Flow.statement) -> s.Lower.Flow.stmt_name = "r_stmt")
      program.Lower.Flow.stmts
  in
  let maps = Lower.Flow.operand_map program r_stmt in
  Alcotest.(check int) "two operand maps" 2 (List.length maps);
  List.iter
    (fun m ->
      (* each output element depends on exactly the same-index element *)
      Alcotest.(check bool) "identity dependence" true
        (Poly.Rel.mem m [| 1; 2; 0 |] [| 1; 2; 0 |]);
      Alcotest.(check bool) "no cross dependence" false
        (Poly.Rel.mem m [| 1; 2; 0 |] [| 0; 2; 0 |]))
    maps

let test_flow_operand_map_contraction () =
  (* t[i,j,k] depends on u[l,m,n] for every l,m,n (full reduction). *)
  let _, program = helmholtz_program ~p:3 () in
  let mac =
    List.find
      (fun (s : Lower.Flow.statement) -> s.Lower.Flow.stmt_name = "t_mac")
      program.Lower.Flow.stmts
  in
  let maps = Lower.Flow.operand_map program mac in
  Alcotest.(check int) "four operand maps" 4 (List.length maps);
  let u_map = List.nth maps 3 in
  Alcotest.(check bool) "depends on all u elements" true
    (Poly.Rel.mem u_map [| 0; 1; 2 |] [| 2; 0; 1 |])

let test_flow_validate_catches_oob () =
  let _, program = helmholtz_program ~p:3 () in
  (* Corrupt a layout to be non-injective. *)
  let bad_arrays =
    List.map
      (fun (a : Lower.Flow.array_info) ->
        if a.Lower.Flow.array_name = "t" then
          { a with Lower.Flow.layout =
              Lower.Flow.default_layout "t" [ 3; 3; 1 ] }
        else a)
      program.Lower.Flow.arrays
  in
  match Lower.Flow.validate { program with Lower.Flow.arrays = bad_arrays } with
  | () -> Alcotest.fail "expected Flow.Error"
  | exception Lower.Flow.Error _ -> ()
  | exception Poly.Aff.Arity_mismatch _ -> ()

(* Layout injectivity is checked at any array size: a 17^3 = 4,913-word
   input whose j stride is 16 aliases (j + 1, k = 0 with j, k = 16). *)
let test_flow_validate_large_layout () =
  let shape = [ 17; 17; 17 ] in
  let space = Poly.Space.make "a" [ "i"; "j"; "k" ] in
  let aliasing =
    Poly.Aff_map.make space (Poly.Space.make "a" [ "o" ])
      [| Poly.Aff.make [| 289; 16; 1 |] 0 |]
  in
  let program layout =
    {
      Lower.Flow.prog_name = "large";
      arrays =
        [
          {
            Lower.Flow.array_name = "a";
            kind = Lower.Flow.Input;
            tensor_shape = shape;
            layout;
            size = 4913;
          };
        ];
      stmts = [];
    }
  in
  Lower.Flow.validate (program (Lower.Flow.default_layout "a" shape));
  match Lower.Flow.validate (program aliasing) with
  | () -> Alcotest.fail "an aliasing 4,913-word layout validated"
  | exception Lower.Flow.Error msg ->
      Alcotest.(check bool) msg true
        (try
           ignore (Str.search_forward (Str.regexp_string "not injective") msg 0);
           true
         with Not_found -> false)

(* Every operator validates at every order, factorized or not, the
   3-D arrays past 4,096 words (p = 17) included. *)
let test_flow_validate_operators () =
  List.iter
    (fun p ->
      List.iter
        (fun (name, ast) ->
          let checked = Cfdlang.Check.check_exn ast in
          List.iter
            (fun factorize_contractions ->
              let kernel =
                Tir.Transform.optimize ~factorize_contractions
                  (Tir.Builder.build ~name checked)
              in
              Lower.Flow.validate (Lower.Flow.of_kernel ~name kernel))
            [ true; false ])
        (Cfdlang.Operators.all ~p ()))
    [ 4; 7; 11; 17 ]

(* ---------- Schedule ---------- *)

let test_reference_schedule_valid_and_legal () =
  let _, program = helmholtz_program ~p:3 () in
  let sched = Lower.Schedule.reference program in
  Lower.Schedule.validate program sched;
  Alcotest.(check bool) "legal" true (Legality.legal program sched)

let test_schedule_timestamp_shape () =
  let _, program = helmholtz_program ~p:3 () in
  let sched = Lower.Schedule.reference program in
  Alcotest.(check int) "depth 6" 6 (Lower.Schedule.depth sched);
  Alcotest.(check int) "arity 13" 13 (Lower.Schedule.tuple_arity sched);
  let s1 = Lower.Schedule.find sched "t_mac" in
  let ts = Lower.Schedule.timestamp sched s1 [| 1; 2; 0; 1; 0; 2 |] in
  Alcotest.(check int) "beta0" 1 ts.(0);
  Alcotest.(check int) "first var" 1 ts.(1)

let test_schedule_image_extrema () =
  let _, program = helmholtz_program ~p:3 () in
  let sched = Lower.Schedule.reference program in
  let mac =
    List.find
      (fun (s : Lower.Flow.statement) -> s.Lower.Flow.stmt_name = "t_mac")
      program.Lower.Flow.stmts
  in
  let s1 = Lower.Schedule.find sched "t_mac" in
  let lo, hi = Lower.Schedule.image_extrema sched s1 mac.Lower.Flow.domain in
  Alcotest.(check bool) "lo < hi" true (Poly.Lex.lt lo hi);
  Alcotest.(check int) "lo starts with stmt idx" 1 lo.(0);
  Alcotest.(check int) "hi starts with stmt idx" 1 hi.(0);
  Alcotest.(check int) "lo var 0" 0 lo.(1);
  Alcotest.(check int) "hi var 2" 2 hi.(1)

let test_illegal_schedule_detected () =
  (* Swap the order of the two defs: v before t is illegal. *)
  let _, program = helmholtz_program ~p:2 () in
  let sched = Lower.Schedule.reference program in
  let swapped =
    List.map
      (fun (name, (s : Lower.Schedule.sched1)) ->
        let betas = Array.copy s.Lower.Schedule.betas in
        (* reverse the statement-level order *)
        betas.(0) <- 10 - betas.(0);
        (name, { s with Lower.Schedule.betas }))
      sched
  in
  Alcotest.(check bool) "illegal" false (Legality.legal program swapped)

let test_reschedule_fused_valid_and_legal () =
  let _, program = helmholtz_program ~p:3 () in
  let sched = Lower.Reschedule.compute program in
  Lower.Schedule.validate program sched;
  Alcotest.(check bool) "legal" true (Legality.legal program sched);
  (* init and mac share the group beta *)
  let init = Lower.Schedule.find sched "t_init" in
  let mac = Lower.Schedule.find sched "t_mac" in
  Alcotest.(check int) "same group"
    init.Lower.Schedule.betas.(0)
    mac.Lower.Schedule.betas.(0);
  Alcotest.(check int) "mac sequenced after init" 1 mac.Lower.Schedule.betas.(3)

let test_reschedule_pointwise_fusion_legal () =
  let _, program = helmholtz_program ~p:3 () in
  let options = { Lower.Reschedule.default with Lower.Reschedule.fuse_pointwise = true } in
  let sched = Lower.Reschedule.compute ~options program in
  Lower.Schedule.validate program sched;
  Alcotest.(check bool) "legal" true (Legality.legal program sched);
  (* r_stmt joins t's group *)
  let t_mac = Lower.Schedule.find sched "t_mac" in
  let r_stmt = Lower.Schedule.find sched "r_stmt" in
  Alcotest.(check int) "r fused with t"
    t_mac.Lower.Schedule.betas.(0)
    r_stmt.Lower.Schedule.betas.(0)

let test_reschedule_reduction_outer_legal () =
  let _, program = helmholtz_program ~p:2 () in
  let options =
    { Lower.Reschedule.default with Lower.Reschedule.reduction_inner = false }
  in
  let sched = Lower.Reschedule.compute ~options program in
  Lower.Schedule.validate program sched;
  Alcotest.(check bool) "legal" true (Legality.legal program sched)

(* ---------- Codegen + end-to-end ---------- *)

let test_codegen_reference_schedule () =
  let _, program = helmholtz_program ~p:4 () in
  let sched = Lower.Schedule.reference program in
  let proc = Lower.Codegen.generate program sched in
  check_proc_matches_reference ~p:4 proc

let test_codegen_fused_schedule () =
  let _, program = helmholtz_program ~p:4 () in
  let proc = Lower.Codegen.generate program (Lower.Reschedule.compute program) in
  check_proc_matches_reference ~p:4 proc

let test_codegen_factorized () =
  let _, program = helmholtz_program ~p:4 ~factorize:true () in
  let proc = Lower.Codegen.generate program (Lower.Reschedule.compute program) in
  check_proc_matches_reference ~p:4 proc

let test_codegen_pointwise_fused () =
  let _, program = helmholtz_program ~p:4 () in
  let options = { Lower.Reschedule.default with Lower.Reschedule.fuse_pointwise = true } in
  let proc =
    Lower.Codegen.generate program (Lower.Reschedule.compute ~options program)
  in
  check_proc_matches_reference ~p:4 proc

let test_codegen_reduction_outer () =
  let _, program = helmholtz_program ~p:3 () in
  let options =
    { Lower.Reschedule.default with Lower.Reschedule.reduction_inner = false }
  in
  let proc =
    Lower.Codegen.generate program (Lower.Reschedule.compute ~options program)
  in
  check_proc_matches_reference ~p:3 proc

let test_codegen_internal_temps () =
  let _, program = helmholtz_program ~p:4 () in
  let options =
    { Lower.Codegen.default with Lower.Codegen.exported_temps = false }
  in
  let proc =
    Lower.Codegen.generate ~options program (Lower.Reschedule.compute program)
  in
  (* t and r become locals: only 4 parameters remain. *)
  Alcotest.(check int) "params" 4 (List.length proc.Loopir.Prog.params);
  Alcotest.(check int) "locals" 2 (List.length proc.Loopir.Prog.locals);
  check_proc_matches_reference ~p:4 proc

let test_codegen_storage_sharing_legal () =
  (* Share u with r, and t with v: the liveness-compatible merges of
     Figure 5. The generated aliased program must still be correct. *)
  let _, program = helmholtz_program ~p:4 () in
  let storage = [ ("u", ("plm_ur", 0)); ("r", ("plm_ur", 0)); ("t", ("plm_tv", 0)); ("v", ("plm_tv", 0)) ] in
  let proc =
    Lower.Codegen.generate ~storage program (Lower.Reschedule.compute program)
  in
  let p = 4 in
  let inputs = Helmholtz.make_inputs ~seed:3 p in
  let bindings =
    [
      ("S", Dense.to_array inputs.Helmholtz.s);
      ("D", Dense.to_array inputs.Helmholtz.d);
      ("plm_ur", Dense.to_array inputs.Helmholtz.u);
    ]
  in
  let results = Loopir.Interp.run_fresh proc ~inputs:bindings in
  let v = List.assoc "plm_tv" results in
  let got = Dense.of_array (Shape.cube 3 p) v in
  let expected = Helmholtz.direct inputs in
  Alcotest.(check bool) "aliased result correct" true
    (Dense.equal ~tol:1e-8 got expected)

let test_codegen_storage_sharing_illegal_detected () =
  (* Sharing u with t is NOT liveness-compatible: u is read while t is
     written. The aliased program must produce a wrong answer — proving
     the functional oracle detects illegal sharing. *)
  let _, program = helmholtz_program ~p:3 () in
  let storage = [ ("u", ("plm_ut", 0)); ("t", ("plm_ut", 0)) ] in
  let proc =
    Lower.Codegen.generate ~storage program (Lower.Reschedule.compute program)
  in
  let p = 3 in
  let inputs = Helmholtz.make_inputs ~seed:3 p in
  let bindings =
    [
      ("S", Dense.to_array inputs.Helmholtz.s);
      ("D", Dense.to_array inputs.Helmholtz.d);
      ("plm_ut", Dense.to_array inputs.Helmholtz.u);
    ]
  in
  let results = Loopir.Interp.run_fresh proc ~inputs:bindings in
  let got = Dense.of_array (Shape.cube 3 p) (List.assoc "v" results) in
  let expected = Helmholtz.direct inputs in
  Alcotest.(check bool) "illegal sharing corrupts result" false
    (Dense.equal ~tol:1e-6 got expected)

let test_codegen_pipeline_pragma () =
  let _, program = helmholtz_program ~p:3 () in
  let proc = Lower.Codegen.generate program (Lower.Schedule.reference program) in
  (* every innermost loop carries the pipeline pragma *)
  let rec innermost_pragmas (s : Loopir.Prog.stmt) acc =
    match s with
    | Loopir.Prog.For l ->
        let has_inner =
          List.exists (function Loopir.Prog.For _ -> true | _ -> false) l.body
        in
        if has_inner then List.fold_left (fun a st -> innermost_pragmas st a) acc l.body
        else l.pragmas :: acc
    | _ -> acc
  in
  let all = List.fold_left (fun a s -> innermost_pragmas s a) [] proc.Loopir.Prog.body in
  Alcotest.(check bool) "at least one innermost loop" true (all <> []);
  List.iter
    (fun pragmas ->
      Alcotest.(check bool) "pipelined" true
        (List.mem (Loopir.Prog.Pipeline 1) pragmas))
    all

let test_codegen_loop_var_collision () =
  (* a tensor named like a generated loop variable must not shadow it *)
  let c =
    Result.get_ok
      (Cfdlang.Check.parse_and_check
         "var input i0 : [3]\nvar input acc0 : [3]\nvar output i1 : [3]\n\
          i1 = i0 * acc0")
  in
  let kernel = Tir.Builder.build ~name:"clash" c in
  let program = Lower.Flow.of_kernel ~name:"clash" kernel in
  let proc =
    Loopir.Scalarize.optimize
      (Lower.Codegen.generate program (Lower.Reschedule.compute program))
  in
  (* no loop variable may equal an array name *)
  let arrays =
    List.map (fun (p : Loopir.Prog.param) -> p.Loopir.Prog.name) proc.Loopir.Prog.params
  in
  let rec loop_vars acc (s : Loopir.Prog.stmt) =
    match s with
    | Loopir.Prog.For l -> List.fold_left loop_vars (l.var :: acc) l.body
    | _ -> acc
  in
  let vars = List.fold_left loop_vars [] proc.Loopir.Prog.body in
  List.iter
    (fun v ->
      Alcotest.(check bool) ("no collision on " ^ v) false (List.mem v arrays))
    vars;
  (* and it still computes the right product *)
  let a = Dense.random ~seed:1 (Shape.create [ 3 ]) in
  let b = Dense.random ~seed:2 (Shape.create [ 3 ]) in
  let results =
    Loopir.Interp.run_fresh proc
      ~inputs:[ ("i0", Dense.to_array a); ("acc0", Dense.to_array b) ]
  in
  let got = Dense.of_array (Shape.create [ 3 ]) (List.assoc "i1" results) in
  Alcotest.(check bool) "correct" true
    (Dense.equal got (Tensor.Ops.hadamard a b))

let test_interpolation_end_to_end () =
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.interpolation ~p:4 ()) in
  let kernel = Tir.Builder.build ~name:"interp" checked in
  let program = Lower.Flow.of_kernel ~name:"interp" kernel in
  let proc = Lower.Codegen.generate program (Lower.Reschedule.compute program) in
  let s = Dense.random ~seed:1 (Shape.create [ 4; 4 ]) in
  let u = Dense.random ~seed:2 (Shape.cube 3 4) in
  let results =
    Loopir.Interp.run_fresh proc
      ~inputs:[ ("S", Dense.to_array s); ("u", Dense.to_array u) ]
  in
  let got = Dense.of_array (Shape.cube 3 4) (List.assoc "v" results) in
  Alcotest.(check bool) "interpolation matches" true
    (Dense.equal ~tol:1e-8 got (Helmholtz.interpolation s u))

let qcheck_codegen_option_matrix =
  QCheck.Test.make ~name:"all option combinations produce correct code" ~count:24
    QCheck.(quad bool bool bool (int_range 2 4))
    (fun (fuse_init, fuse_pointwise, factorize, p) ->
      let _, program = helmholtz_program ~p ~factorize () in
      let options =
        {
          Lower.Reschedule.fuse_init;
          fuse_pointwise;
          reduction_inner = true;
          permute = [];
        }
      in
      let sched = Lower.Reschedule.compute ~options program in
      if not (Legality.legal program sched) then false
      else begin
        let proc = Lower.Codegen.generate program sched in
        let inputs = Helmholtz.make_inputs ~seed:p p in
        let results =
          Loopir.Interp.run_fresh proc
            ~inputs:
              [
                ("S", Dense.to_array inputs.Helmholtz.s);
                ("D", Dense.to_array inputs.Helmholtz.d);
                ("u", Dense.to_array inputs.Helmholtz.u);
              ]
        in
        let got = Dense.of_array (Shape.cube 3 p) (List.assoc "v" results) in
        Dense.equal ~tol:1e-8 got (Helmholtz.direct inputs)
      end)

(* ---------- Scalarize ---------- *)

let test_scalarize_helmholtz () =
  let _, program = helmholtz_program ~p:4 () in
  let proc = Lower.Codegen.generate program (Lower.Reschedule.compute program) in
  let opt = Loopir.Scalarize.optimize proc in
  (* two contractions, each fused init+mac -> accumulator *)
  Alcotest.(check int) "accumulators" 2 (Loopir.Scalarize.count_accumulators opt);
  check_proc_matches_reference ~p:4 opt

let test_scalarize_noop_on_reference_schedule () =
  (* Unfused init/mac (separate loop nests) cannot scalarize. *)
  let _, program = helmholtz_program ~p:3 () in
  let proc = Lower.Codegen.generate program (Lower.Schedule.reference program) in
  let opt = Loopir.Scalarize.optimize proc in
  Alcotest.(check int) "no accumulators" 0 (Loopir.Scalarize.count_accumulators opt);
  check_proc_matches_reference ~p:3 opt

let test_scalarize_factorized () =
  let _, program = helmholtz_program ~p:4 ~factorize:true () in
  let proc = Lower.Codegen.generate program (Lower.Reschedule.compute program) in
  let opt = Loopir.Scalarize.optimize proc in
  Alcotest.(check int) "six accumulators" 6 (Loopir.Scalarize.count_accumulators opt);
  check_proc_matches_reference ~p:4 opt

(* ---------- C emission ---------- *)

let test_emit_c_structure () =
  let _, program = helmholtz_program ~p:11 () in
  let proc =
    Loopir.Scalarize.optimize
      (Lower.Codegen.generate program (Lower.Reschedule.compute program))
  in
  let c = Loopir.Emit.c_source ~header:"Inverse Helmholtz p=11" proc in
  let has s = Alcotest.(check bool) s true
      (let len_n = String.length s and len_c = String.length c in
       let rec scan i = i + len_n <= len_c && (String.sub c i len_n = s || scan (i + 1)) in
       scan 0)
  in
  has "void helm(";
  has "const double S[121]";
  has "const double u[1331]";
  has "double v[1331]";
  has "double t[1331]";
  has "#pragma HLS pipeline II=1";
  has "for (int"

let test_emit_c_compiles_and_runs () =
  (* Full toolchain check: emit C, compile with gcc, execute, compare with
     the reference — the generated code really is valid C99. *)
  let p = 4 in
  let _, program = helmholtz_program ~p () in
  let proc =
    Loopir.Scalarize.optimize
      (Lower.Codegen.generate program (Lower.Reschedule.compute program))
  in
  let dir = Filename.temp_file "cfd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let c_path = Filename.concat dir "kernel.c" in
  let main_path = Filename.concat dir "main.c" in
  let exe = Filename.concat dir "kernel" in
  Loopir.Emit.write_file ~path:c_path proc;
  let inputs = Helmholtz.make_inputs ~seed:7 p in
  let emit_array name t =
    let a = Dense.to_array t in
    Printf.sprintf "double %s[%d] = {%s};" name (Array.length a)
      (String.concat ","
         (Array.to_list (Array.map (Printf.sprintf "%.17g") a)))
  in
  let n3 = p * p * p in
  (* Allocate non-input buffers and order the call by the actual
     prototype. *)
  let other_decls =
    List.filter_map
      (fun (prm : Loopir.Prog.param) ->
        if prm.Loopir.Prog.dir = Loopir.Prog.In then None
        else Some (Printf.sprintf "double %s[%d];" prm.Loopir.Prog.name prm.Loopir.Prog.size))
      proc.Loopir.Prog.params
  in
  let call_args =
    String.concat ", "
      (List.map (fun (prm : Loopir.Prog.param) -> prm.Loopir.Prog.name) proc.Loopir.Prog.params)
  in
  let main_src =
    Printf.sprintf
      {|#include <stdio.h>
%s
%s
%s
%s
%s
int main(void) {
  helm(%s);
  for (int i = 0; i < %d; ++i) printf("%%.17g\n", v[i]);
  return 0;
}
|}
      (Loopir.Emit.c_prototype proc)
      (emit_array "S" inputs.Helmholtz.s)
      (emit_array "D" inputs.Helmholtz.d)
      (emit_array "u" inputs.Helmholtz.u)
      (String.concat "\n" other_decls)
      call_args n3
  in
  let oc = open_out main_path in
  output_string oc main_src;
  close_out oc;
  let cmd =
    Printf.sprintf "gcc -std=c99 -O1 -o %s %s %s 2>/dev/null" exe c_path main_path
  in
  if Sys.command cmd <> 0 then Alcotest.fail "gcc failed to compile emitted C"
  else begin
    let ic = Unix.open_process_in exe in
    let values = Array.init n3 (fun _ -> float_of_string (input_line ic)) in
    ignore (Unix.close_process_in ic);
    let got = Dense.of_array (Shape.cube 3 p) values in
    let expected = Helmholtz.direct inputs in
    Alcotest.(check bool) "compiled C matches reference" true
      (Dense.equal ~tol:1e-8 got expected)
  end

let suite =
  [
    ( "lower.flow",
      [
        case "helmholtz structure" test_flow_helmholtz_structure;
        case "array kinds" test_flow_array_kinds;
        case "row-major layout" test_flow_layout_row_major;
        case "operand map (hadamard)" test_flow_operand_map_hadamard;
        case "operand map (contraction)" test_flow_operand_map_contraction;
        case "validate catches bad layout" test_flow_validate_catches_oob;
        case "validate checks layouts past 4,096 words" test_flow_validate_large_layout;
        case "operators validate, p = 4..17" test_flow_validate_operators;
      ] );
    ( "lower.schedule",
      [
        case "reference valid+legal" test_reference_schedule_valid_and_legal;
        case "timestamp shape" test_schedule_timestamp_shape;
        case "image extrema" test_schedule_image_extrema;
        case "illegal schedule detected" test_illegal_schedule_detected;
        case "fused reschedule legal" test_reschedule_fused_valid_and_legal;
        case "pointwise fusion legal" test_reschedule_pointwise_fusion_legal;
        case "reduction-outer legal" test_reschedule_reduction_outer_legal;
      ] );
    ( "lower.codegen",
      [
        case "reference schedule" test_codegen_reference_schedule;
        case "fused schedule" test_codegen_fused_schedule;
        case "factorized kernel" test_codegen_factorized;
        case "pointwise fused" test_codegen_pointwise_fused;
        case "reduction outer" test_codegen_reduction_outer;
        case "internal temporaries" test_codegen_internal_temps;
        case "storage sharing (legal)" test_codegen_storage_sharing_legal;
        case "storage sharing (illegal detected)" test_codegen_storage_sharing_illegal_detected;
        case "pipeline pragma placement" test_codegen_pipeline_pragma;
        case "loop variable collision" test_codegen_loop_var_collision;
        case "interpolation end-to-end" test_interpolation_end_to_end;
        Test_seed.to_alcotest qcheck_codegen_option_matrix;
      ] );
    ( "loopir.scalarize",
      [
        case "fused helmholtz" test_scalarize_helmholtz;
        case "noop on reference schedule" test_scalarize_noop_on_reference_schedule;
        case "factorized" test_scalarize_factorized;
      ] );
    ( "loopir.emit",
      [
        case "C structure" test_emit_c_structure;
        case "gcc compile & run" test_emit_c_compiles_and_runs;
      ] );
  ]
