(* Tests for lib/liveness: live intervals and the Figure-5 memory
   compatibility graph of the Inverse Helmholtz kernel. *)

let case name f = Alcotest.test_case name `Quick f

let helmholtz_liveness ?(p = 4) ?(options = Lower.Reschedule.default) () =
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p ()) in
  let kernel = Tir.Builder.build ~name:"helm" checked in
  let program = Lower.Flow.of_kernel ~name:"helm" kernel in
  let schedule = Lower.Reschedule.compute ~options program in
  (program, schedule, Liveness.Analysis.analyze program schedule)

let test_intervals_ordered () =
  let _, _, live = helmholtz_liveness () in
  let t = Liveness.Analysis.find live "t" in
  let r = Liveness.Analysis.find live "r" in
  let u = Liveness.Analysis.find live "u" in
  (* u's last read happens while t is being produced *)
  Alcotest.(check bool) "u ends before r starts" true
    (Poly.Lex.lt u.Liveness.Analysis.last_read r.Liveness.Analysis.first_write);
  Alcotest.(check bool) "t ends before v starts" true
    (Poly.Lex.lt t.Liveness.Analysis.last_read
       (Liveness.Analysis.find live "v").Liveness.Analysis.first_write)

let test_virtual_first_last () =
  let _, _, live = helmholtz_liveness () in
  let s = Liveness.Analysis.find live "S" in
  let v = Liveness.Analysis.find live "v" in
  Alcotest.(check bool) "inputs live from virtual first" true
    (s.Liveness.Analysis.first_write = [| min_int |]);
  Alcotest.(check bool) "outputs live to virtual last" true
    (v.Liveness.Analysis.last_read = [| max_int |])

let test_writers_readers () =
  let _, _, live = helmholtz_liveness () in
  let t = Liveness.Analysis.find live "t" in
  Alcotest.(check (list string)) "t writers" [ "t_init"; "t_mac" ]
    t.Liveness.Analysis.writers;
  Alcotest.(check (list string)) "t readers" [ "r_stmt" ]
    t.Liveness.Analysis.readers;
  let s = Liveness.Analysis.find live "S" in
  Alcotest.(check (list string)) "S readers" [ "t_mac"; "v_mac" ]
    s.Liveness.Analysis.readers

(* The key address-space compatibilities the paper's evaluation exploits
   (Section VI: 31 -> 18 BRAMs): {u,r}, {t,v}, {D,v}, {u,v}. *)
let test_address_space_compatibilities () =
  let _, _, live = helmholtz_liveness () in
  let compat = Liveness.Analysis.address_space_compatible live in
  Alcotest.(check bool) "u ~ r" true (compat "u" "r");
  Alcotest.(check bool) "t ~ v" true (compat "t" "v");
  Alcotest.(check bool) "D ~ v" true (compat "D" "v");
  Alcotest.(check bool) "u ~ v" true (compat "u" "v");
  (* and the incompatibilities *)
  Alcotest.(check bool) "u !~ t" false (compat "u" "t");
  Alcotest.(check bool) "t !~ r" false (compat "t" "r");
  Alcotest.(check bool) "r !~ v" false (compat "r" "v");
  Alcotest.(check bool) "D !~ t" false (compat "D" "t");
  Alcotest.(check bool) "S !~ u" false (compat "S" "u");
  Alcotest.(check bool) "S !~ v" false (compat "S" "v")

let test_interface_compatibilities () =
  let _, _, live = helmholtz_liveness () in
  let compat = Liveness.Analysis.interface_compatible live in
  (* S and u are both read by t_mac at the same instances: conflict. *)
  Alcotest.(check bool) "S !~ u" false (compat "S" "u");
  Alcotest.(check bool) "S !~ r" false (compat "S" "r");
  (* S is never read together with D or t. *)
  Alcotest.(check bool) "S ~ D" true (compat "S" "D");
  Alcotest.(check bool) "S ~ t" true (compat "S" "t");
  (* D and t are read together by r_stmt. *)
  Alcotest.(check bool) "D !~ t" false (compat "D" "t");
  (* v is only written; never read together with anything. *)
  Alcotest.(check bool) "S ~ v (write vs read)" true (compat "S" "v")

let test_graph_edges () =
  let _, _, live = helmholtz_liveness () in
  let graph = Liveness.Analysis.compatibility_graph live in
  let edge a b =
    List.find_opt
      (fun (e : Liveness.Analysis.edge) ->
        e.Liveness.Analysis.a = min a b && e.Liveness.Analysis.b = max a b)
      graph
  in
  (match edge "r" "u" with
  | Some e -> Alcotest.(check bool) "u-r address space" true e.Liveness.Analysis.address_space
  | None -> Alcotest.fail "missing u-r edge");
  (match edge "t" "v" with
  | Some e -> Alcotest.(check bool) "t-v address space" true e.Liveness.Analysis.address_space
  | None -> Alcotest.fail "missing t-v edge");
  (match edge "D" "S" with
  | Some e ->
      Alcotest.(check bool) "S-D interface only" true
        (e.Liveness.Analysis.mem_interface && not e.Liveness.Analysis.address_space)
  | None -> Alcotest.fail "missing S-D edge");
  (* u-t: lifetimes overlap (u is read while t is written), but reads and
     writes are different operation types, so only an interface edge. *)
  match edge "t" "u" with
  | Some e ->
      Alcotest.(check bool) "u-t interface only" true
        (e.Liveness.Analysis.mem_interface && not e.Liveness.Analysis.address_space)
  | None -> Alcotest.fail "missing u-t interface edge"

let test_liveness_respects_schedule () =
  (* Under the unfused reference schedule the same compatibilities hold
     (they are statement-level in this kernel). *)
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p:3 ()) in
  let kernel = Tir.Builder.build ~name:"helm" checked in
  let program = Lower.Flow.of_kernel ~name:"helm" kernel in
  let schedule = Lower.Schedule.reference program in
  let live = Liveness.Analysis.analyze program schedule in
  Alcotest.(check bool) "u ~ r" true
    (Liveness.Analysis.address_space_compatible live "u" "r");
  Alcotest.(check bool) "t !~ r" false
    (Liveness.Analysis.address_space_compatible live "t" "r")

let test_factorized_chain_compatibilities () =
  (* With factorization the temporaries form a chain; stage i's output is
     dead once stage i+1 completes, so stage1 ~ stage3 outputs can share. *)
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p:3 ()) in
  let kernel = Tir.Transform.factorize (Tir.Builder.build ~name:"helm" checked) in
  let program = Lower.Flow.of_kernel ~name:"helm" kernel in
  let schedule = Lower.Reschedule.compute program in
  let live = Liveness.Analysis.analyze program schedule in
  (* find the transient names: stage outputs %f0, %f1 then t *)
  let infos = Liveness.Analysis.arrays live in
  let transients =
    List.filter_map
      (fun (i : Liveness.Analysis.array_liveness) ->
        if String.length i.Liveness.Analysis.array > 0 && i.Liveness.Analysis.array.[0] = '%' then
          Some i.Liveness.Analysis.array
        else None)
      infos
  in
  Alcotest.(check int) "four transients" 4 (List.length transients);
  (* consecutive stages interfere, alternating stages are compatible *)
  match transients with
  | a :: _ :: rest ->
      Alcotest.(check bool) "stage1 !~ stage2" false
        (Liveness.Analysis.address_space_compatible live a (List.nth transients 1));
      (match rest with
      | c :: _ ->
          Alcotest.(check bool) "stage1 ~ stage3" true
            (Liveness.Analysis.address_space_compatible live a c)
      | [] -> ())
  | _ -> Alcotest.fail "unexpected transients"

(* The per-element live intervals of one array, read off the shared
   element table as the memory audit reads them: from the first write
   (the virtual first for an input) to the last access (the virtual last
   for an output). Elements no statement writes have none, except input
   elements; an input element no statement reads lives only at the
   virtual first. *)
let element_intervals (program : Lower.Flow.program) schedule name =
  let n = Lower.Schedule.tuple_arity schedule in
  let kind = (Lower.Flow.array_info program name).Lower.Flow.kind in
  let s = List.assoc name (Analysis.Verify.element_liveness program schedule) in
  List.filter_map
    (fun e ->
      let at a = Array.sub a (e * n) n in
      let last =
        if kind = Lower.Flow.Output then Liveness.Analysis.virtual_last
        else if s.Analysis.Verify.last_access.(e * n) = min_int then
          Liveness.Analysis.virtual_first
        else at s.Analysis.Verify.last_access
      in
      if kind = Lower.Flow.Input then
        Some (e, Poly.Lex.interval Liveness.Analysis.virtual_first last)
      else if Bytes.get s.Analysis.Verify.written e = '\001' then
        Some (e, Poly.Lex.interval (at s.Analysis.Verify.first_write) last)
      else None)
    (List.init (Bytes.length s.Analysis.Verify.written) Fun.id)

let test_element_intervals_hull () =
  (* the array-level interval is the lexicographic hull of the exact
     per-element intervals *)
  let program, schedule, live = helmholtz_liveness ~p:3 () in
  List.iter
    (fun name ->
      let elems = element_intervals program schedule name in
      Alcotest.(check bool) (name ^ " has elements") true (elems <> []);
      let first =
        List.fold_left
          (fun acc (_, (i : Poly.Lex.interval)) -> Poly.Lex.min acc i.Poly.Lex.first)
          Liveness.Analysis.virtual_last elems
      and last =
        List.fold_left
          (fun acc (_, (i : Poly.Lex.interval)) -> Poly.Lex.max acc i.Poly.Lex.last)
          Liveness.Analysis.virtual_first elems
      in
      let info = Liveness.Analysis.find live name in
      Alcotest.(check bool) (name ^ " hull = array interval") true
        (Poly.Lex.equal first info.Liveness.Analysis.interval.Poly.Lex.first
        && Poly.Lex.equal last info.Liveness.Analysis.interval.Poly.Lex.last))
    [ "t"; "r"; "u"; "v" ]

let test_element_intervals_finer_than_array () =
  (* individual elements of t die before the whole array does *)
  let program, schedule, live = helmholtz_liveness ~p:3 () in
  let elems = element_intervals program schedule "t" in
  let array_last = (Liveness.Analysis.find live "t").Liveness.Analysis.last_read in
  Alcotest.(check bool) "some element dies early" true
    (List.exists
       (fun (_, (i : Poly.Lex.interval)) -> Poly.Lex.lt i.Poly.Lex.last array_last)
       elems)

let test_element_intervals_input_bracket () =
  let program, schedule, _ = helmholtz_liveness ~p:2 () in
  let elems = element_intervals program schedule "u" in
  Alcotest.(check int) "all elements" 8 (List.length elems);
  List.iter
    (fun (_, (i : Poly.Lex.interval)) ->
      Alcotest.(check bool) "starts at virtual first" true
        (i.Poly.Lex.first = [| min_int |]);
      Alcotest.(check bool) "read after activation" true
        (Poly.Lex.lt Liveness.Analysis.virtual_first i.Poly.Lex.last))
    elems

let test_unknown_array_error () =
  let _, _, live = helmholtz_liveness ~p:2 () in
  match Liveness.Analysis.find live "nope" with
  | _ -> Alcotest.fail "expected Error"
  | exception Liveness.Analysis.Error _ -> ()

(* Cross-validation: address-space compatibility proven by the functional
   oracle — merge every compatible temp pair into one buffer and check the
   generated program still computes the right answer. *)
let qcheck_sharing_oracle =
  QCheck.Test.make ~name:"every address-space-compatible pair shares safely"
    ~count:8
    QCheck.(int_range 2 4)
    (fun p ->
      let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p ()) in
      let kernel = Tir.Builder.build ~name:"helm" checked in
      let program = Lower.Flow.of_kernel ~name:"helm" kernel in
      let schedule = Lower.Reschedule.compute program in
      let live = Liveness.Analysis.analyze program schedule in
      let graph = Liveness.Analysis.compatibility_graph live in
      let ok = ref true in
      List.iter
        (fun (e : Liveness.Analysis.edge) ->
          if e.Liveness.Analysis.address_space then begin
            let buffer = "shared_" ^ e.Liveness.Analysis.a ^ e.Liveness.Analysis.b in
            let storage =
              [
                (e.Liveness.Analysis.a, (buffer, 0));
                (e.Liveness.Analysis.b, (buffer, 0));
              ]
            in
            let proc = Lower.Codegen.generate ~storage program schedule in
            let inputs = Tensor.Helmholtz.make_inputs ~seed:p p in
            let input_binding name value =
              let buf, _ = match List.assoc_opt name storage with Some x -> x | None -> (name, 0) in
              (buf, Tensor.Dense.to_array value)
            in
            let bindings =
              [
                input_binding "S" inputs.Tensor.Helmholtz.s;
                input_binding "D" inputs.Tensor.Helmholtz.d;
                input_binding "u" inputs.Tensor.Helmholtz.u;
              ]
            in
            let results = Loopir.Interp.run_fresh proc ~inputs:bindings in
            let vbuf, _ =
              match List.assoc_opt "v" storage with Some x -> x | None -> ("v", 0)
            in
            let v = List.assoc vbuf results in
            let got =
              Tensor.Dense.of_array (Tensor.Shape.cube 3 p)
                (Array.sub v 0 (p * p * p))
            in
            if
              not
                (Tensor.Dense.equal ~tol:1e-8 got (Tensor.Helmholtz.direct inputs))
            then ok := false
          end)
        graph;
      !ok)

let suite =
  [
    ( "liveness",
      [
        case "intervals ordered" test_intervals_ordered;
        case "virtual first/last" test_virtual_first_last;
        case "writers/readers" test_writers_readers;
        case "address-space compatibilities (fig 5)" test_address_space_compatibilities;
        case "interface compatibilities (fig 5)" test_interface_compatibilities;
        case "graph edges" test_graph_edges;
        case "reference schedule" test_liveness_respects_schedule;
        case "factorized chain" test_factorized_chain_compatibilities;
        case "element intervals hull" test_element_intervals_hull;
        case "element granularity finer" test_element_intervals_finer_than_array;
        case "element input bracket" test_element_intervals_input_bracket;
        case "unknown array" test_unknown_array_error;
        Test_seed.to_alcotest qcheck_sharing_oracle;
      ] );
  ]
