(* Tests for lib/poly: affine expressions, basic sets (Fourier-Motzkin),
   unions, affine maps, relations, lexicographic order. *)

open Poly

let case name f = Alcotest.test_case name `Quick f

(* ---------- Aff ---------- *)

let test_aff_eval () =
  let e = Aff.make [| 2; -1; 0 |] 5 in
  Alcotest.(check int) "eval" (2 * 3 - 4 + 5) (Aff.eval e [| 3; 4; 9 |])

let test_aff_algebra () =
  let x = Aff.var 2 0 and y = Aff.var 2 1 in
  let e = Aff.add (Aff.scale 3 x) (Aff.sub y (Aff.const 2 7)) in
  Alcotest.(check int) "3x + y - 7" ((3 * 5) + 2 - 7) (Aff.eval e [| 5; 2 |])

let test_aff_substitute () =
  (* substitute x0 := x1 + 2 in 3*x0 + x1 -> 4*x1 + 6 *)
  let e = Aff.add (Aff.scale 3 (Aff.var 2 0)) (Aff.var 2 1) in
  let repl = Aff.add_const (Aff.var 2 1) 2 in
  let s = Aff.substitute e 0 repl in
  Alcotest.(check int) "subst" ((4 * 10) + 6) (Aff.eval s [| 999; 10 |])

let test_aff_shift_extend () =
  let e = Aff.make [| 1; 2 |] 3 in
  let sh = Aff.shift e 2 5 in
  Alcotest.(check int) "shift" (7 + (2 * 9) + 3) (Aff.eval sh [| 0; 0; 7; 9; 0 |]);
  let ex = Aff.extend e 2 in
  Alcotest.(check int) "extend" (1 + 4 + 3) (Aff.eval ex [| 1; 2; 5; 6 |])

let test_aff_gcd_reduce () =
  let e = Aff.make [| 4; 6 |] 7 in
  let r, g = Aff.gcd_reduce e in
  Alcotest.(check int) "gcd" 2 g;
  (* 4x + 6y + 7 >= 0  <=>  2x + 3y + floor(7/2) >= 0 *)
  Alcotest.(check int) "coeff" 2 (Aff.coeff r 0);
  Alcotest.(check int) "tightened const" 3 (Aff.constant r);
  let e2 = Aff.make [| 4; 6 |] (-7) in
  let r2, _ = Aff.gcd_reduce e2 in
  Alcotest.(check int) "negative const floor" (-4) (Aff.constant r2)

let test_aff_arity_mismatch () =
  match Aff.add (Aff.var 2 0) (Aff.var 3 0) with
  | _ -> Alcotest.fail "expected Arity_mismatch"
  | exception Aff.Arity_mismatch _ -> ()

(* ---------- Basic_set ---------- *)

let box name dims = Basic_set.of_box (Space.make name (List.map (Printf.sprintf "i%d") (List.init (List.length dims) Fun.id))) dims

let test_box_membership () =
  let b = box "S" [ (0, 10); (0, 10) ] in
  Alcotest.(check bool) "inside" true (Basic_set.mem b [| 0; 10 |]);
  Alcotest.(check bool) "outside" false (Basic_set.mem b [| 0; 11 |]);
  Alcotest.(check bool) "negative" false (Basic_set.mem b [| -1; 0 |])

let test_box_enumerate_count () =
  let b = box "S" [ (0, 2); (1, 3) ] in
  Alcotest.(check int) "count" 9 (List.length (Basic_set.enumerate b))

let test_empty_detection () =
  let b = box "S" [ (0, 5) ] in
  let sp = Basic_set.space b in
  let contradiction =
    Basic_set.add_constraint b (Basic_set.Ge (Aff.sub (Aff.const 1 (-1)) (Aff.var 1 0)))
  in
  ignore sp;
  Alcotest.(check bool) "nonempty box" false (Basic_set.is_empty b);
  Alcotest.(check bool) "x <= -1 and x >= 0 empty" true (Basic_set.is_empty contradiction)

let test_diagonal_constraint () =
  (* { [i,j] : 0<=i,j<=3 and i = j } has 4 points *)
  let b = box "S" [ (0, 3); (0, 3) ] in
  let diag =
    Basic_set.add_constraint b (Basic_set.Eq (Aff.sub (Aff.var 2 0) (Aff.var 2 1)))
  in
  Alcotest.(check int) "diag points" 4 (List.length (Basic_set.enumerate diag))

let test_parity_equality_empty () =
  (* { [i] : 2 i = 5 } is integer-empty; gcd normalization catches it. *)
  let sp = Space.make "S" [ "i" ] in
  let b =
    Basic_set.of_constraints sp
      [ Basic_set.Eq (Aff.make [| 2 |] (-5)) ]
  in
  Alcotest.(check bool) "2i=5 empty" true (Basic_set.is_empty b)

let test_eliminate () =
  (* { [i,j] : 0<=i<=2, i<=j<=i+1 }, eliminating j leaves 0<=i<=2 *)
  let sp = Space.make "S" [ "i"; "j" ] in
  let b =
    Basic_set.of_constraints sp
      [
        Basic_set.Ge (Aff.var 2 0);
        Basic_set.Ge (Aff.sub (Aff.const 2 2) (Aff.var 2 0));
        Basic_set.Ge (Aff.sub (Aff.var 2 1) (Aff.var 2 0));
        Basic_set.Ge (Aff.sub (Aff.add_const (Aff.var 2 0) 1) (Aff.var 2 1));
      ]
  in
  let proj = Basic_set.project_out b [ 1 ] (Space.make "S" [ "i" ]) in
  let pts = Basic_set.enumerate proj in
  Alcotest.(check int) "projected points" 3 (List.length pts)

let test_var_bounds () =
  let b = box "S" [ (2, 7); (0, 1) ] in
  let lo, hi = Basic_set.var_bounds b 0 in
  Alcotest.(check (option int)) "lo" (Some 2) lo;
  Alcotest.(check (option int)) "hi" (Some 7) hi

let test_var_bounds_derived () =
  (* { [i,j] : 0 <= i <= 4 and j = 2i } -> j in [0, 8] *)
  let sp = Space.make "S" [ "i"; "j" ] in
  let b =
    Basic_set.of_constraints sp
      [
        Basic_set.Ge (Aff.var 2 0);
        Basic_set.Ge (Aff.sub (Aff.const 2 4) (Aff.var 2 0));
        Basic_set.Eq (Aff.sub (Aff.var 2 1) (Aff.scale 2 (Aff.var 2 0)));
      ]
  in
  let lo, hi = Basic_set.var_bounds b 1 in
  Alcotest.(check (option int)) "lo" (Some 0) lo;
  Alcotest.(check (option int)) "hi" (Some 8) hi

let test_unbounded () =
  let sp = Space.make "S" [ "i" ] in
  let b = Basic_set.of_constraints sp [ Basic_set.Ge (Aff.var 1 0) ] in
  Alcotest.(check bool) "bounding box" true (Basic_set.bounding_box b = None);
  match Basic_set.enumerate b with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_intersect () =
  let a = box "S" [ (0, 5) ] and b = box "S" [ (3, 9) ] in
  let i = Basic_set.intersect a b in
  Alcotest.(check int) "intersection" 3 (List.length (Basic_set.enumerate i))

(* FM vs enumeration on randomized sets: soundness of the rational
   relaxation (FM-empty implies truly empty) and exactness via
   is_empty_exact. *)
let random_bset_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 3 in
    let* nconstrs = int_range 1 5 in
    let* raw =
      list_repeat nconstrs
        (pair (list_repeat nvars (int_range (-3) 3)) (int_range (-6) 6))
    in
    let* kinds = list_repeat nconstrs bool in
    return (nvars, raw, kinds))

let qcheck_fm_sound =
  QCheck.Test.make ~name:"FM emptiness is sound (never claims empty wrongly)"
    ~count:300 (QCheck.make random_bset_gen) (fun (nvars, raw, kinds) ->
      let sp = Space.make "R" (List.init nvars (Printf.sprintf "x%d")) in
      (* Intersect with a box so the set is bounded and enumerable. *)
      let bounded = Basic_set.of_box sp (List.init nvars (fun _ -> (-4, 4))) in
      let constrs =
        List.map2
          (fun (coeffs, c) is_eq ->
            let e = Aff.make (Array.of_list coeffs) c in
            if is_eq then Basic_set.Eq e else Basic_set.Ge e)
          raw kinds
      in
      let b = List.fold_left Basic_set.add_constraint bounded constrs in
      let truly_empty = Basic_set.enumerate b = [] in
      let fm_empty = Basic_set.is_empty b in
      (* FM may say "nonempty" for an integer-empty set, never the reverse. *)
      (if fm_empty then truly_empty else true)
      && Basic_set.is_empty_exact b = truly_empty)

let qcheck_projection_superset =
  QCheck.Test.make ~name:"FM projection contains the exact projection"
    ~count:200 (QCheck.make random_bset_gen) (fun (nvars, raw, kinds) ->
      QCheck.assume (nvars >= 2);
      let sp = Space.make "R" (List.init nvars (Printf.sprintf "x%d")) in
      let bounded = Basic_set.of_box sp (List.init nvars (fun _ -> (-3, 3))) in
      let constrs =
        List.map2
          (fun (coeffs, c) is_eq ->
            let e = Aff.make (Array.of_list coeffs) c in
            if is_eq then Basic_set.Eq e else Basic_set.Ge e)
          raw kinds
      in
      let b = List.fold_left Basic_set.add_constraint bounded constrs in
      let small = Space.make "R" (List.init (nvars - 1) (Printf.sprintf "x%d")) in
      let proj = Basic_set.project_out b [ nvars - 1 ] small in
      List.for_all
        (fun pt -> Basic_set.mem proj (Array.sub pt 0 (nvars - 1)))
        (Basic_set.enumerate b))

let test_lexmin_lexmax_box () =
  let b = box "S" [ (2, 7); (1, 4) ] in
  Alcotest.(check (option (array int))) "lexmin" (Some [| 2; 1 |]) (Basic_set.lexmin b);
  Alcotest.(check (option (array int))) "lexmax" (Some [| 7; 4 |]) (Basic_set.lexmax b)

let test_lexmin_constrained () =
  (* { [i,j] : 0<=i,j<=4 and i+j >= 6 } : lexmin [2;4], lexmax [4;4] *)
  let b = box "S" [ (0, 4); (0, 4) ] in
  let c =
    Basic_set.add_constraint b
      (Basic_set.Ge (Aff.add_const (Aff.add (Aff.var 2 0) (Aff.var 2 1)) (-6)))
  in
  Alcotest.(check (option (array int))) "lexmin" (Some [| 2; 4 |]) (Basic_set.lexmin c);
  Alcotest.(check (option (array int))) "lexmax" (Some [| 4; 4 |]) (Basic_set.lexmax c)

let test_lexmin_empty () =
  let b = box "S" [ (0, 3) ] in
  let empty =
    Basic_set.add_constraint b (Basic_set.Ge (Aff.make [| -1 |] (-1)))
  in
  Alcotest.(check (option (array int))) "empty" None (Basic_set.lexmin empty)

(* Sets of 1 to 7 variables: a small box (narrower as the arity grows, so
   enumeration stays cheap), a few random constraints, and from 4
   variables on the equalities of a schedule graph: each trailing
   variable is pinned to a leading one (t_l = x_d) or to a constant
   (t_l = beta), the shape of the verifier's schedule-image sets. *)
let lex_set_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 7 in
    let* bounds =
      list_repeat nvars
        (let* lo = int_range (-3) 0 in
         let* width = int_range 0 (if nvars <= 3 then 6 else 3) in
         return (lo, lo + width))
    in
    let* nconstrs = int_range 0 4 in
    let* raw =
      list_repeat nconstrs
        (let* coeffs = list_repeat nvars (int_range (-3) 3) in
         let* c = int_range (-6) 6 in
         let* is_eq = bool in
         let e = Aff.make (Array.of_list coeffs) c in
         return (if is_eq then Basic_set.Eq e else Basic_set.Ge e))
    in
    let* nlead = int_range 1 (max 1 (nvars / 2)) in
    let* graph =
      if nvars < 4 then return []
      else
        list_repeat (nvars - nlead)
          (let* pin_to_var = bool in
           let* k = int_range (-1) 3 in
           return (pin_to_var, k))
    in
    let pinned =
      List.mapi
        (fun l (pin_to_var, k) ->
          let t = Aff.var nvars (nlead + l) in
          Basic_set.Eq
            (if pin_to_var then Aff.sub t (Aff.var nvars (abs k mod nlead))
             else Aff.add_const t (-k)))
        graph
    in
    return (nvars, bounds, raw @ pinned))

let qcheck_lex_extrema_match_enumeration =
  QCheck.Test.make ~name:"symbolic lexmin/lexmax match enumeration" ~count:300
    (QCheck.make lex_set_gen) (fun (nvars, bounds, constrs) ->
      let sp = Space.make "R" (List.init nvars (Printf.sprintf "x%d")) in
      let b = List.fold_left Basic_set.add_constraint (Basic_set.of_box sp bounds) constrs in
      let pts =
        List.sort
          (fun a b -> compare (Array.to_list a) (Array.to_list b))
          (Basic_set.enumerate b)
      in
      match pts with
      | [] -> Basic_set.lexmin b = None && Basic_set.lexmax b = None
      | first :: _ ->
          let last = List.nth pts (List.length pts - 1) in
          Basic_set.lexmin b = Some first && Basic_set.lexmax b = Some last)

(* An extremum reads every dimension off one chain of prefix projections:
   n-1 Fourier-Motzkin eliminations beyond the emptiness test, not n-1
   per dimension. *)
let test_lex_extremum_elimination_count () =
  let eliminations = Obs.Metrics.counter "poly.fm.eliminations" in
  for n = 1 to 7 do
    let b = box "E" (List.init n (fun i -> (i, (2 * i) + 3))) in
    Memo.clear_all ();
    ignore (Basic_set.is_empty b);
    List.iter
      (fun (what, extremum, expected) ->
        let before = Obs.Metrics.counter_value eliminations in
        Alcotest.(check (option (array int)))
          (Printf.sprintf "%s, n=%d" what n)
          (Some expected) (extremum b);
        let spent = Obs.Metrics.counter_value eliminations - before in
        if spent > n - 1 then
          Alcotest.failf "%s on a %d-variable box: %d eliminations, at most %d expected"
            what n spent (n - 1))
      [
        ("lexmin", Basic_set.lexmin, Array.init n Fun.id);
        ("lexmax", Basic_set.lexmax, Array.init n (fun i -> (2 * i) + 3));
      ]
  done

(* ---------- Set ---------- *)

let test_set_union_mem () =
  let a = box "S" [ (0, 2) ] and b = box "S" [ (5, 6) ] in
  let u = Set.union (Set.of_basic a) (Set.of_basic b) in
  Alcotest.(check bool) "in first" true (Set.mem u [| 1 |]);
  Alcotest.(check bool) "in second" true (Set.mem u [| 6 |]);
  Alcotest.(check bool) "in gap" false (Set.mem u [| 4 |]);
  Alcotest.(check int) "points" 5 (List.length (Set.enumerate u))

let test_set_disjoint () =
  let a = Set.of_basic (box "S" [ (0, 2) ]) in
  let b = Set.of_basic (box "S" [ (3, 5) ]) in
  let c = Set.of_basic (box "S" [ (2, 3) ]) in
  Alcotest.(check bool) "disjoint" true (Set.disjoint a b);
  Alcotest.(check bool) "overlap" false (Set.disjoint a c)

let test_set_subset_equal () =
  let a = Set.of_basic (box "S" [ (1, 2) ]) in
  let b = Set.of_basic (box "S" [ (0, 5) ]) in
  Alcotest.(check bool) "subset" true (Set.subset a b);
  Alcotest.(check bool) "not subset" false (Set.subset b a);
  Alcotest.(check bool) "equal self" true (Set.equal_points b b)

(* ---------- Aff_map ---------- *)

let sp2 = Space.make "T" [ "i"; "j" ]
let sp1 = Space.make "A" [ "a" ]

let row_major_2d n =
  Aff_map.make sp2 sp1 [| Aff.add (Aff.scale n (Aff.var 2 0)) (Aff.var 2 1) |]

let test_aff_map_apply () =
  let l = row_major_2d 11 in
  Alcotest.(check (array int)) "layout" [| (11 * 3) + 4 |] (Aff_map.apply l [| 3; 4 |])

let test_aff_map_identity_compose () =
  let l = row_major_2d 11 in
  let c = Aff_map.compose l (Aff_map.identity sp2) in
  Alcotest.(check bool) "compose with id" true (Aff_map.equal c l)

let test_aff_map_compose () =
  (* f : [i,j] -> [j,i]; l = row major; l ∘ f = [i,j] -> [11 j + i] *)
  let f = Aff_map.make sp2 sp2 [| Aff.var 2 1; Aff.var 2 0 |] in
  let c = Aff_map.compose (row_major_2d 11) f in
  Alcotest.(check (array int)) "composed" [| (11 * 4) + 3 |] (Aff_map.apply c [| 3; 4 |])

let test_aff_map_image () =
  (* image of the 3x3 box under row-major is exactly offsets with
     i in 0..2, j in 0..2 *)
  let b = Basic_set.of_box sp2 [ (0, 2); (0, 2) ] in
  let l = row_major_2d 3 in
  let img = Aff_map.image l b in
  let pts = List.sort compare (Basic_set.enumerate img) in
  Alcotest.(check int) "exact image count" 9 (List.length pts);
  Alcotest.(check (array int)) "first" [| 0 |] (List.hd pts)

let test_aff_map_image_points () =
  let b = Basic_set.of_box sp2 [ (0, 2); (0, 2) ] in
  let l = row_major_2d 11 in
  let pts = Aff_map.image_points l b in
  Alcotest.(check int) "9 distinct offsets" 9 (List.length pts)

let test_aff_map_injective () =
  let b = Basic_set.of_box sp2 [ (0, 10); (0, 10) ] in
  Alcotest.(check bool) "row major injective" true
    (Aff_map.is_injective_on (row_major_2d 11) b);
  (* stride 10 is too small for extent 11: collisions *)
  Alcotest.(check bool) "bad stride not injective" false
    (Aff_map.is_injective_on (row_major_2d 10) b)

let test_aff_map_concat_select () =
  let f = Aff_map.identity sp2 in
  let g = row_major_2d 11 in
  let both = Aff_map.concat_outputs f g in
  Alcotest.(check (array int)) "paired" [| 3; 4; 37 |] (Aff_map.apply both [| 3; 4 |]);
  let third = Aff_map.select_outputs both [ 2 ] sp1 in
  Alcotest.(check (array int)) "selected" [| 37 |] (Aff_map.apply third [| 3; 4 |])

let qcheck_image_matches_enumeration =
  QCheck.Test.make ~name:"FM image superset & membership of true image" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 0 3))
    (fun (stride, shift) ->
      let l =
        Aff_map.make sp2 sp1
          [| Aff.add_const (Aff.add (Aff.scale stride (Aff.var 2 0)) (Aff.var 2 1)) shift |]
      in
      let b = Basic_set.of_box sp2 [ (0, 3); (0, 2) ] in
      let img = Aff_map.image l b in
      List.for_all (fun p -> Basic_set.mem img p) (Aff_map.image_points l b))

(* Injectivity and the point walk against plain enumeration. Sets of 1-4
   dimensions: a box with possibly negative lower bounds plus random
   [Ge]/[Eq] constraints, so empty, single-point and non-box sets occur;
   maps of 1-3 outputs with coefficients in -4..4, half of them multiples
   of one expression, so that collisions also occur in image boxes too
   sparse for a bitmap. *)
let walk_case_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 4 in
    let* bounds =
      list_repeat nvars
        (let* lo = int_range (-4) 2 in
         let* width = int_range 0 (if nvars <= 2 then 7 else 4) in
         return (lo, lo + width))
    in
    let* nconstrs = int_range 0 3 in
    let* constrs =
      list_repeat nconstrs
        (let* coeffs = list_repeat nvars (int_range (-2) 2) in
         let* c = int_range (-2) 6 in
         let* is_eq = map (fun n -> n = 0) (int_range 0 5) in
         let e = Aff.make (Array.of_list coeffs) c in
         return (if is_eq then Basic_set.Eq e else Basic_set.Ge e))
    in
    let* nout = int_range 1 3 in
    let* base = list_repeat nvars (int_range (-2) 2) in
    let* scaled = bool in
    let* exprs =
      list_repeat nout
        (let* coeffs =
           if scaled then map (fun s -> List.map (( * ) s) base) (int_range (-2) 2)
           else list_repeat nvars (int_range (-4) 4)
         in
         let* c = int_range (-4) 4 in
         return (Aff.make (Array.of_list coeffs) c))
    in
    return (nvars, bounds, constrs, Array.of_list exprs))

let walk_case_print (nvars, bounds, constrs, exprs) =
  let sp = Space.make "R" (List.init nvars (Printf.sprintf "x%d")) in
  let b = Basic_set.of_constraints sp constrs in
  Format.asprintf "box [%s] %a -> [%s]"
    (String.concat "; " (List.map (fun (l, h) -> Printf.sprintf "%d..%d" l h) bounds))
    Basic_set.pp b
    (String.concat ", "
       (Array.to_list (Array.map (Format.asprintf "%a" Aff.pp_anon) exprs)))

let walk_case (nvars, bounds, constrs, exprs) =
  let sp = Space.make "R" (List.init nvars (Printf.sprintf "x%d")) in
  let set = List.fold_left Basic_set.add_constraint (Basic_set.of_box sp bounds) constrs in
  (set, Aff_map.make sp (Space.anonymous (Array.length exprs)) exprs)

(* [Aff_map.is_injective_on] as it was before the walk: every point
   listed, every image kept as a tuple. *)
let reference_injective map set =
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun p ->
      let q = Aff_map.apply map p in
      (not (Hashtbl.mem seen q)) && (Hashtbl.add seen q (); true))
    (Basic_set.enumerate set)

let qcheck_injective_matches_enumeration =
  QCheck.Test.make ~name:"injectivity walk = enumeration" ~count:1000
    (QCheck.make ~print:walk_case_print walk_case_gen) (fun case ->
      let set, map = walk_case case in
      let got = Aff_map.is_injective_on map set in
      got = reference_injective map set
      || QCheck.Test.fail_reportf "walk says %b" got)

let qcheck_walk_matches_enumeration =
  QCheck.Test.make ~name:"walk visits enumerate's points, values tracked"
    ~count:300 (QCheck.make ~print:walk_case_print walk_case_gen) (fun case ->
      let set, map = walk_case case in
      let exprs = Aff_map.exprs map in
      let visited = ref [] in
      let n =
        Basic_set.walk set exprs (fun x v ->
            visited := (Array.copy x, Array.sub v 0 (Array.length exprs)) :: !visited)
      in
      let want = List.map (fun p -> (p, Aff_map.apply map p)) (Basic_set.enumerate set) in
      (n = List.length want && List.rev !visited = want)
      || QCheck.Test.fail_reportf "walk visited %d points, enumerate %d" n
           (List.length want))

(* Image boxes beyond an int's range keep their images as tuples. *)
let test_aff_map_injective_huge_image () =
  let big = 1 lsl 40 in
  let b = Basic_set.of_box sp2 [ (0, 5); (0, 5) ] in
  let map a c = Aff_map.make sp2 sp2 [| Aff.make a 0; Aff.make c 0 |] in
  Alcotest.(check bool) "scaled permutation injective" true
    (Aff_map.is_injective_on (map [| 0; big |] [| big; 0 |]) b);
  Alcotest.(check bool) "scaled difference not injective" false
    (Aff_map.is_injective_on (map [| big; -big |] [| big; -big |]) b)

(* ---------- Rel ---------- *)

let test_rel_of_aff_map () =
  let l = row_major_2d 3 in
  let dom = Basic_set.of_box sp2 [ (0, 2); (0, 2) ] in
  let r = Rel.of_aff_map_on l dom in
  Alcotest.(check bool) "mem" true (Rel.mem r [| 1; 2 |] [| 5 |]);
  Alcotest.(check bool) "not mem" false (Rel.mem r [| 1; 2 |] [| 6 |]);
  Alcotest.(check int) "pairs" 9 (List.length (Rel.enumerate r))

let test_rel_inverse () =
  let l = row_major_2d 3 in
  let dom = Basic_set.of_box sp2 [ (0, 2); (0, 2) ] in
  let r = Rel.inverse (Rel.of_aff_map_on l dom) in
  Alcotest.(check bool) "inverse mem" true (Rel.mem r [| 5 |] [| 1; 2 |])

let test_rel_compose () =
  (* r1: i -> i+1 on 0..3; r2: i -> 2i; compose: i -> 2(i+1) *)
  let s = Space.make "N" [ "i" ] in
  let d = Basic_set.of_box s [ (0, 3) ] in
  let r1 = Rel.of_aff_map_on (Aff_map.make s s [| Aff.add_const (Aff.var 1 0) 1 |]) d in
  let r2 = Rel.of_aff_map (Aff_map.make s s [| Aff.scale 2 (Aff.var 1 0) |]) in
  let c = Rel.compose r2 r1 in
  Alcotest.(check bool) "composed mem" true (Rel.mem c [| 3 |] [| 8 |]);
  Alcotest.(check bool) "composed not mem" false (Rel.mem c [| 3 |] [| 6 |])

let test_rel_domain_range () =
  let s = Space.make "N" [ "i" ] in
  let d = Basic_set.of_box s [ (2, 4) ] in
  let r = Rel.of_aff_map_on (Aff_map.make s s [| Aff.add_const (Aff.var 1 0) 10 |]) d in
  Alcotest.(check int) "domain size" 3 (List.length (Set.enumerate (Rel.domain r)));
  let range_pts = List.sort compare (Set.enumerate (Rel.range r)) in
  Alcotest.(check (array int)) "range lo" [| 12 |] (List.hd range_pts)

let test_rel_apply_point () =
  let s = Space.make "N" [ "i" ] in
  let d = Basic_set.of_box s [ (0, 5) ] in
  let r = Rel.of_aff_map_on (Aff_map.make s s [| Aff.scale 3 (Aff.var 1 0) |]) d in
  (match Rel.apply_point r [| 2 |] with
  | [ y ] -> Alcotest.(check (array int)) "apply" [| 6 |] y
  | other -> Alcotest.failf "expected one image, got %d" (List.length other));
  Alcotest.(check (list (array int))) "outside domain" []
    (Rel.apply_point r [| 9 |])

let test_rel_of_pairs () =
  let s = Space.make "N" [ "i" ] in
  let r = Rel.of_pairs s s [ ([| 1 |], [| 4 |]); ([| 2 |], [| 5 |]) ] in
  Alcotest.(check bool) "pair mem" true (Rel.mem r [| 2 |] [| 5 |]);
  Alcotest.(check bool) "cross pair" false (Rel.mem r [| 1 |] [| 5 |]);
  Alcotest.(check int) "count" 2 (List.length (Rel.enumerate r))

let test_rel_intersect_domain () =
  let s = Space.make "N" [ "i" ] in
  let d = Basic_set.of_box s [ (0, 9) ] in
  let r = Rel.of_aff_map_on (Aff_map.identity s) d in
  let restricted = Rel.intersect_domain r (Basic_set.of_box s [ (3, 4) ]) in
  Alcotest.(check int) "restricted" 2 (List.length (Rel.enumerate restricted))

(* Random affine relations on a small box for algebraic laws. *)
let random_rel_gen =
  QCheck.Gen.(
    let* c0 = int_range (-2) 2 in
    let* c1 = int_range (-2) 2 in
    let* k = int_range (-2) 2 in
    return (c0, c1, k))

let mk_rel (c0, c1, k) =
  let s = Space.make "N" [ "i" ] in
  let d = Basic_set.of_box s [ (-3, 3) ] in
  (* i -> c0*i + k restricted to outputs within [-9, 9] to keep bounded *)
  ignore c1;
  Rel.intersect_range
    (Rel.of_aff_map_on
       (Aff_map.make s s [| Aff.add_const (Aff.scale c0 (Aff.var 1 0)) k |])
       d)
    (Basic_set.of_box s [ (-9, 9) ])

let rel_pairs r =
  List.sort compare
    (List.map (fun (a, b) -> (Array.to_list a, Array.to_list b)) (Rel.enumerate r))

let qcheck_rel_inverse_involution =
  QCheck.Test.make ~name:"relation inverse is an involution" ~count:100
    (QCheck.make random_rel_gen) (fun params ->
      let r = mk_rel params in
      rel_pairs (Rel.inverse (Rel.inverse r)) = rel_pairs r)

let qcheck_rel_compose_assoc =
  QCheck.Test.make ~name:"relation composition is associative" ~count:60
    (QCheck.make QCheck.Gen.(pair random_rel_gen (pair random_rel_gen random_rel_gen)))
    (fun (p1, (p2, p3)) ->
      let r1 = mk_rel p1 and r2 = mk_rel p2 and r3 = mk_rel p3 in
      rel_pairs (Rel.compose (Rel.compose r3 r2) r1)
      = rel_pairs (Rel.compose r3 (Rel.compose r2 r1)))

let qcheck_rel_compose_matches_pointwise =
  QCheck.Test.make ~name:"composition agrees with pointwise application" ~count:60
    (QCheck.make QCheck.Gen.(pair random_rel_gen random_rel_gen))
    (fun (p1, p2) ->
      let r1 = mk_rel p1 and r2 = mk_rel p2 in
      let c = Rel.compose r2 r1 in
      List.for_all
        (fun (x, z) ->
          List.exists (fun y -> Rel.mem r1 x y && Rel.mem r2 y z)
            (List.init 19 (fun i -> [| i - 9 |])))
        (Rel.enumerate c))

(* ---------- Lex ---------- *)

let test_lex_compare () =
  Alcotest.(check int) "equal" 0 (Lex.compare [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "lt" true (Lex.lt [| 1; 2 |] [| 1; 3 |]);
  Alcotest.(check bool) "prefix pads zero" true (Lex.lt [| 1 |] [| 1; 1 |]);
  Alcotest.(check bool) "pad equal" true (Lex.equal [| 1 |] [| 1; 0 |])

let test_lex_interval () =
  let i1 = Lex.interval [| 0; 0 |] [| 1; 5 |] in
  let i2 = Lex.interval [| 1; 6 |] [| 2; 0 |] in
  let i3 = Lex.interval [| 1; 5 |] [| 3; 0 |] in
  Alcotest.(check bool) "disjoint" false (Lex.overlap i1 i2);
  Alcotest.(check bool) "overlap at endpoint" true (Lex.overlap i1 i3);
  match Lex.interval [| 2 |] [| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let qcheck_lex_total_order =
  QCheck.Test.make ~name:"lex compare is a total order" ~count:200
    QCheck.(triple (list (int_range (-3) 3)) (list (int_range (-3) 3)) (list (int_range (-3) 3)))
    (fun (a, b, c) ->
      let a = Array.of_list a and b = Array.of_list b and c = Array.of_list c in
      let sgn x = Stdlib.compare x 0 in
      (* antisymmetry *)
      sgn (Lex.compare a b) = -sgn (Lex.compare b a)
      && (* transitivity of <= *)
      (not (Lex.le a b && Lex.le b c) || Lex.le a c))

let suite =
  [
    ( "poly.aff",
      [
        case "eval" test_aff_eval;
        case "algebra" test_aff_algebra;
        case "substitute" test_aff_substitute;
        case "shift/extend" test_aff_shift_extend;
        case "gcd reduce tightening" test_aff_gcd_reduce;
        case "arity mismatch" test_aff_arity_mismatch;
      ] );
    ( "poly.basic_set",
      [
        case "box membership" test_box_membership;
        case "enumerate count" test_box_enumerate_count;
        case "emptiness" test_empty_detection;
        case "diagonal equality" test_diagonal_constraint;
        case "integer-empty parity equality" test_parity_equality_empty;
        case "eliminate/project" test_eliminate;
        case "var bounds direct" test_var_bounds;
        case "var bounds derived" test_var_bounds_derived;
        case "unbounded handling" test_unbounded;
        case "intersect" test_intersect;
        case "lexmin/lexmax box" test_lexmin_lexmax_box;
        case "lexmin constrained" test_lexmin_constrained;
        case "lexmin empty" test_lexmin_empty;
        case "lexmin/lexmax elimination count" test_lex_extremum_elimination_count;
        Test_seed.to_alcotest qcheck_fm_sound;
        Test_seed.to_alcotest qcheck_projection_superset;
        Test_seed.to_alcotest qcheck_lex_extrema_match_enumeration;
      ] );
    ( "poly.set",
      [
        case "union membership" test_set_union_mem;
        case "disjointness" test_set_disjoint;
        case "subset/equal" test_set_subset_equal;
      ] );
    ( "poly.aff_map",
      [
        case "apply layout" test_aff_map_apply;
        case "identity compose" test_aff_map_identity_compose;
        case "compose permutation" test_aff_map_compose;
        case "image (FM)" test_aff_map_image;
        case "image points" test_aff_map_image_points;
        case "injectivity check" test_aff_map_injective;
        case "injectivity, huge image box" test_aff_map_injective_huge_image;
        case "concat/select outputs" test_aff_map_concat_select;
        Test_seed.to_alcotest qcheck_image_matches_enumeration;
        Test_seed.to_alcotest qcheck_injective_matches_enumeration;
        Test_seed.to_alcotest qcheck_walk_matches_enumeration;
      ] );
    ( "poly.rel",
      [
        case "graph of affine map" test_rel_of_aff_map;
        case "inverse" test_rel_inverse;
        case "compose" test_rel_compose;
        case "domain/range" test_rel_domain_range;
        case "apply point" test_rel_apply_point;
        case "of_pairs" test_rel_of_pairs;
        case "intersect domain" test_rel_intersect_domain;
        Test_seed.to_alcotest qcheck_rel_inverse_involution;
        Test_seed.to_alcotest qcheck_rel_compose_assoc;
        Test_seed.to_alcotest qcheck_rel_compose_matches_pointwise;
      ] );
    ( "poly.lex",
      [
        case "compare" test_lex_compare;
        case "intervals" test_lex_interval;
        Test_seed.to_alcotest qcheck_lex_total_order;
      ] );
  ]
