(* Differential and property-based tests for the exploration engine and
   the polyhedral memoization layer.

   Three families:
   - sweep determinism: [Explore.sweep ~jobs:1] and [~jobs:4] must produce
     identical outcome lists (structurally and as rendered text), on the
     standard configurations and on randomized option sets;
   - memo correctness: memoized projection / emptiness / composition must
     equal a from-scratch recomputation after [Poly.Memo.clear_all], and
     on unit-coefficient sets must match exact point enumeration;
   - fault isolation: a configuration that raises inside its
     compile/evaluate pipeline becomes [feasible = false] with a
     diagnostic and never aborts the rest of the sweep.

   All randomized tests draw from the fixed suite seed (see
   {!Test_seed}). *)

open Cfd_core

let case name f = Alcotest.test_case name `Quick f

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Random compile options: 6 bits spanning the full knob matrix.      *)
(* ------------------------------------------------------------------ *)

let options_of_bits bits =
  let bit i = (bits lsr i) land 1 = 1 in
  {
    Compile.default_options with
    Compile.factorize = bit 0;
    fuse_pointwise = bit 1;
    decoupled = bit 2;
    sharing = bit 3;
    pipeline_ii = (if bit 4 then Some 2 else Some 1);
    unroll = (if bit 5 then Some 2 else None);
  }

let configurations_of_bits bitsl =
  List.mapi
    (fun i bits ->
      {
        Explore.label = Printf.sprintf "cfg%d(bits=%02x)" i bits;
        options = options_of_bits bits;
      })
    bitsl

(* ------------------------------------------------------------------ *)
(* Work pool                                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_map_ordering () =
  let items = List.init 100 Fun.id in
  let f i = if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i) else i * i in
  List.iter
    (fun jobs ->
      let results = Parallel.Pool.map ~jobs f items in
      Alcotest.(check int) "one result per input" 100 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool) "value in input order" true
                (v = i * i && i mod 7 <> 3)
          | Error e ->
              Alcotest.(check int) "error carries its input index" i
                e.Parallel.Pool.index;
              Alcotest.(check bool) "only raising items error" true
                (i mod 7 = 3);
              Alcotest.(check bool) "message captured" true
                (contains e.Parallel.Pool.message "boom"))
        results)
    [ 1; 3; 16 ]

let test_pool_jobs_equivalent () =
  let items = List.init 257 (fun i -> i - 128) in
  let f i = (i * i * i) - (5 * i) in
  let sequential = Parallel.Pool.map ~jobs:1 f items in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs:%d = jobs:1" jobs)
        true
        (Parallel.Pool.map ~jobs f items = sequential))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Sweep determinism                                                  *)
(* ------------------------------------------------------------------ *)

let show_outcome o = Format.asprintf "%a" Explore.pp_outcome o

let test_sweep_jobs_identical () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:7 () in
  let s1 = Explore.sweep ~jobs:1 ~n_elements:4096 ast in
  let s4 = Explore.sweep ~jobs:4 ~n_elements:4096 ast in
  Alcotest.(check (list string))
    "rendered outcomes identical"
    (List.map show_outcome s1) (List.map show_outcome s4);
  Alcotest.(check bool) "structurally identical" true (s1 = s4);
  Alcotest.(check bool) "at least one feasible outcome" true
    (List.exists (fun o -> o.Explore.feasible) s1)

let qcheck_sweep_differential =
  QCheck.Test.make ~name:"sweep jobs:1 = jobs:4 on random configurations"
    ~count:6
    QCheck.(
      pair (int_range 3 5) (list_of_size Gen.(int_range 1 5) (int_range 0 63)))
    (fun (p, bitsl) ->
      let configurations = configurations_of_bits bitsl in
      let ast = Cfdlang.Ast.inverse_helmholtz ~p () in
      let s1 = Explore.sweep ~jobs:1 ~configurations ~n_elements:512 ast in
      let s4 = Explore.sweep ~jobs:4 ~configurations ~n_elements:512 ast in
      s1 = s4 && List.map show_outcome s1 = List.map show_outcome s4)

(* ------------------------------------------------------------------ *)
(* Feasible configurations verify against the reference semantics      *)
(* ------------------------------------------------------------------ *)

let test_sweep_feasible_verify () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:5 () in
  let outcomes = Explore.sweep ~jobs:2 ~n_elements:1024 ast in
  Alcotest.(check bool) "at least one feasible" true
    (List.exists (fun o -> o.Explore.feasible) outcomes);
  List.iter
    (fun o ->
      if o.Explore.feasible then begin
        let r =
          Compile.compile ~options:o.Explore.configuration.Explore.options ast
        in
        Alcotest.(check bool)
          (o.Explore.configuration.Explore.label ^ " verifies")
          true (Compile.verify r)
      end)
    outcomes

let qcheck_random_options_verify =
  QCheck.Test.make
    ~name:"random option combinations compile and verify" ~count:10
    QCheck.(int_range 0 63)
    (fun bits ->
      let ast = Cfdlang.Ast.inverse_helmholtz ~p:4 () in
      let r = Compile.compile ~options:(options_of_bits bits) ast in
      Compile.verify r)

(* ------------------------------------------------------------------ *)
(* Poly memoization: random affine conjunctions                        *)
(* ------------------------------------------------------------------ *)

type set_spec = {
  arity : int;
  box : (int * int) list;
  extras : (bool * int array * int) list;  (** (is_eq, coeffs, const) *)
  drop : int;  (** variable position to project out *)
}

let space_of_arity ?(name = "S") n =
  Poly.Space.make name (List.init n (Printf.sprintf "i%d"))

let build_spec spec =
  let space = space_of_arity spec.arity in
  List.fold_left
    (fun t (is_eq, coeffs, const) ->
      let e = Poly.Aff.make coeffs const in
      Poly.Basic_set.add_constraint t
        (if is_eq then Poly.Basic_set.Eq e else Poly.Basic_set.Ge e))
    (Poly.Basic_set.of_box space spec.box)
    spec.extras

let gen_spec ~max_coeff =
  QCheck.Gen.(
    int_range 2 3 >>= fun arity ->
    list_size (return arity)
      ( int_range (-2) 0 >>= fun lo ->
        int_range 0 4 >>= fun w -> return (lo, lo + w) )
    >>= fun box ->
    list_size (int_range 0 3)
      ( bool >>= fun is_eq ->
        array_size (return arity) (int_range (-max_coeff) max_coeff)
        >>= fun coeffs ->
        int_range (-3) 3 >>= fun const -> return (is_eq, coeffs, const) )
    >>= fun extras ->
    int_range 0 (arity - 1) >>= fun drop -> return { arity; box; extras; drop })

let arb_spec ~max_coeff =
  QCheck.make
    ~print:(fun spec ->
      Format.asprintf "project out i%d of %a" spec.drop Poly.Basic_set.pp
        (build_spec spec))
    (gen_spec ~max_coeff)

let project_spec spec t =
  let keep =
    List.filter (fun v -> v <> spec.drop) (List.init spec.arity Fun.id)
  in
  let sp' = space_of_arity ~name:"P" (spec.arity - 1) in
  (keep, Poly.Basic_set.project_out t [ spec.drop ] sp')

(* Memoized results must be indistinguishable from a cold recomputation:
   run the same pipeline warm (cache populated), warm again (served from
   cache), and cold (after [clear_all]); all three must agree. *)
let qcheck_memo_matches_fresh =
  QCheck.Test.make
    ~name:"memoized projection/emptiness/bounds = fresh computation"
    ~count:100 (arb_spec ~max_coeff:2)
    (fun spec ->
      let run () =
        let t = build_spec spec in
        let _, proj = project_spec spec t in
        let elim = Poly.Basic_set.eliminate t spec.drop in
        ( Poly.Basic_set.is_empty t,
          Poly.Basic_set.constraints proj,
          Poly.Basic_set.constraints elim,
          Poly.Basic_set.var_bounds t 0 )
      in
      let warm = run () in
      let warm2 = run () in
      Poly.Memo.clear_all ();
      let cold = run () in
      warm = warm2 && warm2 = cold)

(* On unit-coefficient conjunctions FM projection is integer-exact, so the
   memoized projection must enumerate to exactly the pointwise projection
   of the original set. *)
let qcheck_memo_projection_exact =
  QCheck.Test.make
    ~name:"memoized projection matches exact point enumeration" ~count:200
    (arb_spec ~max_coeff:1)
    (fun spec ->
      let t = build_spec spec in
      let keep, proj = project_spec spec t in
      let points = Poly.Basic_set.enumerate t in
      let project_point p = Array.of_list (List.map (fun v -> p.(v)) keep) in
      let expected =
        List.sort_uniq compare (List.map project_point points)
      in
      let got = List.sort compare (Poly.Basic_set.enumerate proj) in
      expected = got
      && Poly.Basic_set.is_empty_exact t = (points = []))

let qcheck_compose_memo_matches_pairs =
  QCheck.Test.make
    ~name:"memoized Rel.compose matches explicit pair composition" ~count:50
    QCheck.(
      pair
        (small_list (pair (int_range (-3) 3) (int_range (-3) 3)))
        (small_list (pair (int_range (-3) 3) (int_range (-3) 3))))
    (fun (p1, p2) ->
      let pt x = [| x |] in
      let pairs l = List.map (fun (a, b) -> (pt a, pt b)) l in
      let a = space_of_arity ~name:"A" 1
      and b = space_of_arity ~name:"B" 1
      and c = space_of_arity ~name:"C" 1 in
      let r1 = Poly.Rel.of_pairs a b (pairs p1)
      and r2 = Poly.Rel.of_pairs b c (pairs p2) in
      let expected =
        List.sort_uniq compare
          (List.concat_map
             (fun (x, y) ->
               List.filter_map
                 (fun (y', z) -> if y = y' then Some (pt x, pt z) else None)
                 p2)
             p1)
      in
      let enum r = List.sort compare (Poly.Rel.enumerate r) in
      let warm = enum (Poly.Rel.compose r2 r1) in
      Poly.Memo.clear_all ();
      let cold = enum (Poly.Rel.compose r2 r1) in
      warm = expected && cold = expected)

let test_memo_stats () =
  Poly.Memo.clear_all ();
  Poly.Stats.reset ();
  let space = space_of_arity 2 in
  let t = Poly.Basic_set.of_box space [ (0, 3); (0, 3) ] in
  let sp' = space_of_arity ~name:"P" 1 in
  let p1 = Poly.Basic_set.project_out t [ 1 ] sp' in
  let p2 = Poly.Basic_set.project_out t [ 1 ] sp' in
  Alcotest.(check bool) "repeat projection interned to the same set" true
    (Poly.Basic_set.uid p1 = Poly.Basic_set.uid p2);
  let c =
    List.find
      (fun c -> Poly.Stats.name c = "poly.project_out")
      (Poly.Stats.all ())
  in
  Alcotest.(check bool) "second projection is a cache hit" true
    (Poly.Stats.hits c >= 1);
  Alcotest.(check bool) "first projection was a miss" true
    (Poly.Stats.misses c >= 1);
  Poly.Stats.reset ();
  Alcotest.(check int) "reset zeroes hits" 0 (Poly.Stats.hits c);
  Alcotest.(check int) "reset zeroes misses" 0 (Poly.Stats.misses c)

(* ------------------------------------------------------------------ *)
(* Fault isolation: one crashing configuration never aborts the sweep  *)
(* ------------------------------------------------------------------ *)

let test_sweep_captures_exceptions () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:5 () in
  let bad label =
    {
      Explore.label;
      options = { Compile.default_options with Compile.unroll = Some 0 };
    }
  in
  let good = { Explore.label = "good"; options = Compile.default_options } in
  List.iter
    (fun jobs ->
      let outcomes =
        Explore.sweep ~jobs
          ~configurations:[ bad "bad A"; good; bad "bad B" ]
          ~n_elements:1024 ast
      in
      match outcomes with
      | [ o1; o2; o3 ] ->
          Alcotest.(check bool) "bad A infeasible" false o1.Explore.feasible;
          (match o1.Explore.diagnostic with
          | Some msg ->
              Alcotest.(check bool) "diagnostic names the bad option" true
                (contains msg "unroll")
          | None -> Alcotest.fail "bad A has no diagnostic");
          Alcotest.(check bool) "good still feasible" true o2.Explore.feasible;
          Alcotest.(check (option string)) "feasible has no diagnostic" None
            o2.Explore.diagnostic;
          Alcotest.(check bool) "bad B infeasible" false o3.Explore.feasible;
          Alcotest.(check bool) "bad B has a diagnostic" true
            (o3.Explore.diagnostic <> None)
      | l -> Alcotest.failf "expected 3 outcomes, got %d" (List.length l))
    [ 1; 4 ]

let test_sweep_all_failures () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let bad i =
    {
      Explore.label = Printf.sprintf "bad %d" i;
      options = { Compile.default_options with Compile.unroll = Some (-i) };
    }
  in
  let outcomes =
    Explore.sweep ~jobs:2
      ~configurations:(List.init 4 bad)
      ~n_elements:256 ast
  in
  Alcotest.(check int) "all outcomes reported" 4 (List.length outcomes);
  Alcotest.(check bool) "every outcome infeasible with a diagnostic" true
    (List.for_all
       (fun o -> (not o.Explore.feasible) && o.Explore.diagnostic <> None)
       outcomes)

let suite =
  [
    ( "differential.pool",
      [
        case "map: ordering and per-task error capture" test_pool_map_ordering;
        case "map: jobs>1 equals jobs:1" test_pool_jobs_equivalent;
      ] );
    ( "differential.sweep",
      [
        case "standard configurations: jobs:1 = jobs:4"
          test_sweep_jobs_identical;
        Test_seed.to_alcotest qcheck_sweep_differential;
        case "feasible outcomes verify" test_sweep_feasible_verify;
        Test_seed.to_alcotest qcheck_random_options_verify;
        case "exception in one configuration is isolated"
          test_sweep_captures_exceptions;
        case "a sweep of only failing configurations returns"
          test_sweep_all_failures;
      ] );
    ( "differential.poly_memo",
      [
        Test_seed.to_alcotest qcheck_memo_matches_fresh;
        Test_seed.to_alcotest qcheck_memo_projection_exact;
        Test_seed.to_alcotest qcheck_compose_memo_matches_pairs;
        case "stats counters and reset" test_memo_stats;
      ] );
  ]
