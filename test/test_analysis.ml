(* Mutation and property tests for the static verifier ([cfdc check]).

   Three families:
   - clean pipelines: every configuration the compiler can produce (the
     full 6-bit option matrix, plus the paper's kernel at full size in
     both sharing modes) must verify with zero diagnostics — the verifier
     may not cry wolf, and [Explore.sweep] relies on that;
   - mutations: each defect class the verifier guards against is injected
     programmatically — an illegal schedule move, an off-by-one loop
     bound, an overlapping storage merge, a dropped initialization — and
     the suite asserts the verdict names exactly the expected rule ids,
     with a concrete witness;
   - properties: on random beta/dims schedules, verifier acceptance must
     coincide with exact-enumeration legality ([Legality.legal]) and
     imply that the rescheduled kernel still computes the reference
     answer (interpreter differential).

   All randomized tests draw from the fixed suite seed (see
   {!Test_seed}). *)

open Cfd_core
module D = Analysis.Diagnostic
module V = Analysis.Verify
module Flow = Lower.Flow
module Schedule = Lower.Schedule

let case name f = Alcotest.test_case name `Quick f

let error_rules diags =
  List.sort_uniq compare (List.map (fun d -> d.D.rule) (D.errors diags))

let warning_rules diags =
  List.sort_uniq compare (List.map (fun d -> d.D.rule) (D.warnings diags))

let has_witness pred diags =
  List.exists
    (fun d -> match d.D.witness with Some w -> pred w | None -> false)
    diags

let check_clean what diags =
  Alcotest.(check (list string))
    (what ^ ": no diagnostics") []
    (List.map (Format.asprintf "%a" D.pp) diags)

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

let compile ?(options = Compile.default_options) p =
  Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p ())

(* ------------------------------------------------------------------ *)
(* Clean pipelines verify with zero diagnostics                        *)
(* ------------------------------------------------------------------ *)

let test_clean_full_size () =
  List.iter
    (fun sharing ->
      let options = { Compile.default_options with Compile.sharing } in
      let r = compile ~options 11 in
      check_clean
        (if sharing then "sharing" else "no_sharing")
        (Compile.check r))
    [ true; false ]

let test_clean_option_matrix () =
  for bits = 0 to 63 do
    let r = compile ~options:(options_of_bits bits) 3 in
    check_clean (Printf.sprintf "bits=%02x" bits) (Compile.check r)
  done

(* ------------------------------------------------------------------ *)
(* Frontend warnings surface through the same diagnostics              *)
(* ------------------------------------------------------------------ *)

let test_front_unused_warning () =
  let src =
    "var input u : [4 4]\nvar input w : [4 4]\nvar output v : [4 4]\nv = u * u\n"
  in
  match Compile.compile_source src with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let diags = Compile.check r in
      Alcotest.(check (list string)) "no errors" [] (error_rules diags);
      Alcotest.(check (list string))
        "unused input is a front-unused warning" [ "front-unused" ]
        (warning_rules diags);
      Alcotest.(check bool) "warning names the tensor" true
        (List.exists
           (fun d ->
             d.D.rule = "front-unused"
             && Str.string_match (Str.regexp ".*\\bw\\b.*") d.D.message 0)
           diags)

(* ------------------------------------------------------------------ *)
(* Dependence mutations                                                *)
(* ------------------------------------------------------------------ *)

(* An initialization of a consumed temporary that also has accumulations:
   moving it to the very end of the schedule must violate RAW (consumers
   read the temporary first), WAW (the accumulations precede their init)
   and use-before-def (the accumulator reads uninitialized elements). *)
let find_movable_init (program : Flow.program) =
  List.find
    (fun (s : Flow.statement) ->
      match s.Flow.compute with
      | Flow.Init _ ->
          let a = s.Flow.write.Flow.array in
          (Flow.array_info program a).Flow.kind = Flow.Temp
          && List.exists
               (fun (t : Flow.statement) ->
                 match t.Flow.compute with
                 | Flow.Mac _ -> t.Flow.write.Flow.array = a
                 | _ -> false)
               program.Flow.stmts
          && List.exists
               (fun (t : Flow.statement) ->
                 List.exists
                   (fun (r : Flow.access) -> r.Flow.array = a)
                   (Flow.reads t))
               program.Flow.stmts
      | _ -> false)
    program.Flow.stmts

let test_mutation_illegal_schedule_move () =
  let r =
    compile ~options:{ Compile.default_options with Compile.sharing = false } 4
  in
  let program = r.Compile.program and schedule = r.Compile.schedule in
  check_clean "baseline" (V.all ~program ~schedule ());
  let init = find_movable_init program in
  let last =
    List.fold_left
      (fun acc (_, (s : Schedule.sched1)) -> max acc s.Schedule.betas.(0))
      0 schedule
  in
  let schedule' =
    List.map
      (fun (name, (s : Schedule.sched1)) ->
        if name = init.Flow.stmt_name then
          let betas = Array.copy s.Schedule.betas in
          betas.(0) <- last + 1;
          (name, { s with Schedule.betas })
        else (name, s))
      schedule
  in
  let diags = V.all ~program ~schedule:schedule' () in
  Alcotest.(check (list string))
    "exactly the three expected defect classes"
    [ "dep-raw"; "dep-waw"; "use-before-def" ]
    (error_rules diags);
  Alcotest.(check bool) "dep-raw carries an instance-pair witness" true
    (has_witness
       (function D.Instance_pair _ -> true | _ -> false)
       (List.filter (fun d -> d.D.rule = "dep-raw") diags));
  Alcotest.(check bool) "the verdict names the moved statement" true
    (List.exists
       (fun d ->
         d.D.rule = "dep-waw"
         && Str.string_match
              (Str.regexp (".*" ^ Str.quote init.Flow.stmt_name ^ ".*"))
              d.D.subject 0)
       diags)

(* A three-statement write/read/overwrite chain: the only way to order
   the overwrite before the read is a WAR violation, invisible to the
   RAW and WAW rules. *)
let war_program n =
  let inst name = Poly.Space.make name [ "i" ] in
  let tensor name = Poly.Space.make name [ "i" ] in
  let ident s a = Poly.Aff_map.make (inst s) (tensor a) [| Poly.Aff.var 1 0 |] in
  let arr name kind =
    {
      Flow.array_name = name;
      kind;
      tensor_shape = [ n ];
      layout = Flow.default_layout name [ n ];
      size = n;
    }
  in
  let stmt name array compute =
    {
      Flow.stmt_name = name;
      domain = Poly.Basic_set.of_box (inst name) [ (0, n - 1) ];
      write = { Flow.array; map = ident name array };
      compute;
    }
  in
  {
    Flow.prog_name = "war";
    arrays = [ arr "x" Flow.Temp; arr "y" Flow.Output ];
    stmts =
      [
        stmt "a" "x" (Flow.Init 0.0);
        stmt "b" "y" (Flow.Assign_copy { Flow.array = "x"; map = ident "b" "x" });
        stmt "c" "x" (Flow.Init 1.0);
      ];
  }

let test_mutation_war_swap () =
  let program = war_program 8 in
  let sched b0 = { Schedule.betas = [| b0; 0 |]; dims = [| 0 |] } in
  let clean = [ ("a", sched 0); ("b", sched 1); ("c", sched 2) ] in
  check_clean "reference order" (V.all ~program ~schedule:clean ());
  let swapped = [ ("a", sched 0); ("b", sched 2); ("c", sched 1) ] in
  let diags = V.all ~program ~schedule:swapped () in
  Alcotest.(check (list string))
    "overwrite before read is exactly a WAR violation" [ "dep-war" ]
    (error_rules diags);
  Alcotest.(check bool) "witness pairs the reader with the overwriter" true
    (has_witness
       (function
         | D.Instance_pair (("b", _), ("c", _)) -> true
         | _ -> false)
       diags)

let test_mutation_dropped_init () =
  let r =
    compile ~options:{ Compile.default_options with Compile.sharing = false } 4
  in
  let program = r.Compile.program in
  let init = find_movable_init program in
  let name = init.Flow.stmt_name in
  let program' =
    {
      program with
      Flow.stmts =
        List.filter (fun (s : Flow.statement) -> s.Flow.stmt_name <> name)
          program.Flow.stmts;
    }
  in
  let schedule' = List.remove_assoc name r.Compile.schedule in
  let diags = V.all ~program:program' ~schedule:schedule' () in
  Alcotest.(check (list string))
    "uninitialized accumulator is exactly use-before-def"
    [ "use-before-def" ] (error_rules diags);
  Alcotest.(check bool) "witness is a concrete statement instance" true
    (has_witness (function D.Instance _ -> true | _ -> false) diags)

let test_mutation_schedule_structure () =
  let r =
    compile ~options:{ Compile.default_options with Compile.sharing = false } 4
  in
  let victim =
    List.find
      (fun (_, (s : Schedule.sched1)) -> Array.length s.Schedule.dims >= 2)
      r.Compile.schedule
  in
  let schedule' =
    List.map
      (fun (name, (s : Schedule.sched1)) ->
        if name = fst victim then
          (name, { s with Schedule.dims = Array.make (Array.length s.Schedule.dims) 0 })
        else (name, s))
      r.Compile.schedule
  in
  let diags = V.all ~program:r.Compile.program ~schedule:schedule' () in
  Alcotest.(check (list string))
    "a non-permutation dims vector is a structural error"
    [ "schedule-structure" ] (error_rules diags)

(* Two defects [Schedule.validate] does not see, each of which used to
   raise from inside a dependent family: an unbounded instance domain
   and an access to an undeclared array. Both are structural errors
   naming the statement, and the dependent families are skipped. *)
let test_structure_unbounded_and_undeclared () =
  let program = war_program 8 in
  let unbounded (s : Flow.statement) =
    {
      s with
      Flow.domain =
        Poly.Basic_set.of_constraints
          (Poly.Basic_set.space s.Flow.domain)
          [ Poly.Basic_set.Ge (Poly.Aff.var 1 0) ];
    }
  in
  let undeclared (s : Flow.statement) =
    { s with Flow.compute = Flow.Assign_copy { s.Flow.write with Flow.array = "zz" } }
  in
  let stmts =
    List.map
      (fun (s : Flow.statement) ->
        match s.Flow.stmt_name with
        | "a" -> unbounded s
        | "b" -> undeclared s
        | _ -> s)
      program.Flow.stmts
  in
  let program' = { program with Flow.stmts } in
  let sched b0 = { Schedule.betas = [| b0; 0 |]; dims = [| 0 |] } in
  let schedule = [ ("a", sched 0); ("b", sched 1); ("c", sched 2) ] in
  let diags = V.all ~program:program' ~schedule () in
  Alcotest.(check (list string))
    "both defects are schedule-structure errors, nothing else runs"
    [ "schedule-structure" ]
    (List.sort_uniq compare (List.map (fun d -> d.D.rule) diags));
  Alcotest.(check (list string))
    "one error per defective statement, named as the subject" [ "a"; "b" ]
    (List.map (fun d -> d.D.subject) diags);
  Alcotest.(check bool) "the undeclared array is named" true
    (List.exists
       (fun d -> Str.string_match (Str.regexp ".*\\bzz\\b") d.D.message 0)
       diags)

(* ------------------------------------------------------------------ *)
(* Use-before-def and the per-element table: walks against enumeration *)
(* ------------------------------------------------------------------ *)

(* The straightforward algorithm: enumerate every instance, build its
   timestamp, keep [Lex.lt]-first writes per element in an option
   table, then look for the first read at or before its element's first
   write. [V.use_before_def] must agree with it diagnostic for
   diagnostic. *)
let reference_use_before_def (program : Flow.program) (schedule : Schedule.t) =
  let first_write = Hashtbl.create 16 in
  let table name =
    match Hashtbl.find_opt first_write name with
    | Some t -> t
    | None ->
        let t = Array.make (max (Flow.array_info program name).Flow.size 0) None in
        Hashtbl.replace first_write name t;
        t
  in
  List.iter
    (fun (stmt : Flow.statement) ->
      let s1 = Schedule.find schedule stmt.Flow.stmt_name in
      let wmap = Flow.array_access program stmt.Flow.write in
      let tbl = table stmt.Flow.write.Flow.array in
      List.iter
        (fun x ->
          let off = (Poly.Aff_map.apply wmap x).(0) in
          if off >= 0 && off < Array.length tbl then
            let ts = Schedule.timestamp schedule s1 x in
            match tbl.(off) with
            | Some cur when not (Poly.Lex.lt ts cur) -> ()
            | _ -> tbl.(off) <- Some ts)
        (Poly.Basic_set.enumerate stmt.Flow.domain))
    program.Flow.stmts;
  List.concat_map
    (fun (stmt : Flow.statement) ->
      let s1 = Schedule.find schedule stmt.Flow.stmt_name in
      let reads =
        Flow.reads stmt
        @ match stmt.Flow.compute with Flow.Mac _ -> [ stmt.Flow.write ] | _ -> []
      in
      let flagged = ref [] in
      List.filter_map
        (fun (r : Flow.access) ->
          if
            (Flow.array_info program r.Flow.array).Flow.kind = Flow.Input
            || List.mem r.Flow.array !flagged
          then None
          else
            let rmap = Flow.array_access program r in
            let tbl = table r.Flow.array in
            List.find_map
              (fun x ->
                let off = (Poly.Aff_map.apply rmap x).(0) in
                if off < 0 || off >= Array.length tbl then None
                else
                  let why =
                    match tbl.(off) with
                    | None -> Some "the element is never written"
                    | Some fw ->
                        if Poly.Lex.lt fw (Schedule.timestamp schedule s1 x) then None
                        else Some "the read is scheduled at or before its first write"
                  in
                  Option.map
                    (fun why ->
                      flagged := r.Flow.array :: !flagged;
                      D.error ~rule:"use-before-def" ~subject:stmt.Flow.stmt_name
                        ~witness:(D.Instance (stmt.Flow.stmt_name, x))
                        (Format.sprintf "reads %s@%d before it is defined: %s"
                           r.Flow.array off why))
                    why)
              (Poly.Basic_set.enumerate stmt.Flow.domain))
        reads)
    program.Flow.stmts

(* Both halves of the per-element table by enumeration: per element of
   every declared array, the [Lex.lt]-first write and the [Lex.lt]-last
   read or write, [None] where there is none. *)
let reference_element_liveness (program : Flow.program) (schedule : Schedule.t) =
  let tables =
    List.map
      (fun (a : Flow.array_info) ->
        let size = max a.Flow.size 0 in
        (a.Flow.array_name, (Array.make size None, Array.make size None)))
      program.Flow.arrays
  in
  List.iter
    (fun (stmt : Flow.statement) ->
      let s1 = Schedule.find schedule stmt.Flow.stmt_name in
      let touch ~write (a : Flow.access) =
        let m = Flow.array_access program a in
        let first, last = List.assoc a.Flow.array tables in
        List.iter
          (fun x ->
            let off = (Poly.Aff_map.apply m x).(0) in
            if off >= 0 && off < Array.length first then begin
              let ts = Schedule.timestamp schedule s1 x in
              (if write then
                 match first.(off) with
                 | Some cur when not (Poly.Lex.lt ts cur) -> ()
                 | _ -> first.(off) <- Some ts);
              match last.(off) with
              | Some cur when not (Poly.Lex.lt cur ts) -> ()
              | _ -> last.(off) <- Some ts
            end)
          (Poly.Basic_set.enumerate stmt.Flow.domain)
      in
      touch ~write:true stmt.Flow.write;
      List.iter (touch ~write:false) (Flow.reads stmt))
    program.Flow.stmts;
  tables

(* The table as the same [option] arrays: [written] selects the first
   writes, and an all-[min_int] last access means none. *)
let walked_element_liveness (program : Flow.program) (schedule : Schedule.t) =
  let n = Schedule.tuple_arity schedule in
  List.map
    (fun (name, (s : V.element_stamps)) ->
      let size = Bytes.length s.V.written in
      let at a e = Array.sub a (e * n) n in
      ( name,
        ( Array.init size (fun e ->
              if Bytes.get s.V.written e = '\001' then Some (at s.V.first_write e)
              else None),
          Array.init size (fun e ->
              let ts = at s.V.last_access e in
              if Array.for_all (( = ) min_int) ts then None else Some ts) ) ))
    (V.element_liveness program schedule)

let same_use_before_def what program schedule =
  let got = V.use_before_def program schedule in
  let want = reference_use_before_def program schedule in
  if got <> want then
    QCheck.Test.fail_reportf "%s:@.walk:@.%a@.reference:@.%a" what
      (Format.pp_print_list D.pp) got (Format.pp_print_list D.pp) want;
  List.iter2
    (fun (name, (first, last)) (_, (first', last')) ->
      let differ half a b =
        Array.iteri
          (fun e ts ->
            if ts <> b.(e) then
              let pp ppf = function
                | None -> Format.pp_print_string ppf "none"
                | Some ts -> Poly.Lex.pp_timestamp ppf ts
              in
              QCheck.Test.fail_reportf "%s: %s of %s@@%d: walk %a, reference %a"
                what half name e pp ts pp b.(e))
          a
      in
      differ "first write" first first';
      differ "last access" last last')
    (walked_element_liveness program schedule)
    (reference_element_liveness program schedule);
  true

let kernels_dir () = if Sys.file_exists "../kernels" then "../kernels" else "kernels"

(* Every kernel under kernels/ and every operator at p = 4, compiled once
   without sharing. *)
let ubd_bases =
  lazy
    (let files =
       List.sort compare
         (List.filter
            (fun f -> Filename.check_suffix f ".cfd")
            (Array.to_list (Sys.readdir (kernels_dir ()))))
     in
     let options = { Compile.default_options with Compile.sharing = false } in
     List.map
       (fun f ->
         let src =
           In_channel.with_open_bin (Filename.concat (kernels_dir ()) f) In_channel.input_all
         in
         match Compile.compile_source ~options src with
         | Ok r -> (f, r.Compile.program, r.Compile.schedule)
         | Error e -> Alcotest.failf "%s: %s" f e)
       files
     @ List.map
         (fun (name, ast) ->
           let r = Compile.compile ~options ast in
           (name, r.Compile.program, r.Compile.schedule))
         (Cfdlang.Operators.all ~p:4 ()))

(* One random schedule mutation: swap two statements' betas at one
   level, permute one statement's dims, or drop one initialization. *)
let mutate rng (program : Flow.program) schedule =
  let arr = Array.of_list schedule in
  let n = Array.length arr in
  match Random.State.int rng 3 with
  | 0 ->
      let i = Random.State.int rng n and j = Random.State.int rng n in
      let (ni, (si : Schedule.sched1)), (nj, (sj : Schedule.sched1)) = (arr.(i), arr.(j)) in
      let l =
        Random.State.int rng
          (min (Array.length si.Schedule.betas) (Array.length sj.Schedule.betas))
      in
      let bi = Array.copy si.Schedule.betas and bj = Array.copy sj.Schedule.betas in
      bi.(l) <- sj.Schedule.betas.(l);
      bj.(l) <- si.Schedule.betas.(l);
      arr.(i) <- (ni, { si with Schedule.betas = bi });
      arr.(j) <- (nj, { sj with Schedule.betas = bj });
      (program, Array.to_list arr)
  | 1 ->
      let i = Random.State.int rng n in
      let ni, (si : Schedule.sched1) = arr.(i) in
      let dims = Array.copy si.Schedule.dims in
      for k = Array.length dims - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let t = dims.(k) in
        dims.(k) <- dims.(j);
        dims.(j) <- t
      done;
      arr.(i) <- (ni, { si with Schedule.dims });
      (program, Array.to_list arr)
  | _ -> (
      let inits =
        List.filter
          (fun (s : Flow.statement) ->
            match s.Flow.compute with Flow.Init _ -> true | _ -> false)
          program.Flow.stmts
      in
      match inits with
      | [] -> (program, schedule)
      | _ ->
          let victim =
            (List.nth inits (Random.State.int rng (List.length inits))).Flow.stmt_name
          in
          ( {
              program with
              Flow.stmts =
                List.filter
                  (fun (s : Flow.statement) -> s.Flow.stmt_name <> victim)
                  program.Flow.stmts;
            },
            List.remove_assoc victim schedule ))

let qcheck_ubd_kernels_match_reference =
  QCheck.Test.make
    ~name:"use-before-def walk = enumeration, every kernel, mutated schedules"
    ~count:3 (QCheck.int_bound 1_000_000) (fun seed ->
      List.for_all
        (fun (name, program, schedule) ->
          let rng = Random.State.make [| seed; Hashtbl.hash name |] in
          let program, schedule = mutate rng program schedule in
          let program, schedule = mutate rng program schedule in
          same_use_before_def name program schedule)
        (Lazy.force ubd_bases))

(* Small hand-built programs beyond what the flow produces: triangular
   and anti-diagonal domains (constraints the bounding box does not
   imply, one of them an equality), access strides in [-2, 3] with
   offsets that may leave the array, arrays of differing sizes, and
   random beta vectors that may tie. *)
let hand_built_program rng =
  let n = 2 + Random.State.int rng 4 in
  let arrays =
    List.map
      (fun (name, kind) ->
        let size = 4 + Random.State.int rng 13 in
        {
          Flow.array_name = name;
          kind;
          tensor_shape = [ size ];
          layout = Flow.default_layout name [ size ];
          size;
        })
      [ ("u", Flow.Input); ("a", Flow.Temp); ("b", Flow.Temp); ("c", Flow.Output) ]
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let stmt k =
    let name = Printf.sprintf "S%d" k in
    let d = 1 + Random.State.int rng 2 in
    let space = Poly.Space.make name (List.init d (Printf.sprintf "i%d")) in
    let v i = Poly.Aff.var d i and c x = Poly.Aff.const d x in
    let box =
      List.concat_map
        (fun i -> [ Poly.Basic_set.Ge (v i); Poly.Basic_set.Ge (Poly.Aff.sub (c (n - 1)) (v i)) ])
        (List.init d Fun.id)
    in
    let shape =
      if d = 1 then []
      else
        match Random.State.int rng 3 with
        | 0 -> [ Poly.Basic_set.Ge (Poly.Aff.sub (v 1) (v 0)) ]
        | 1 -> [ Poly.Basic_set.Eq (Poly.Aff.sub (Poly.Aff.add (v 0) (v 1)) (c (n - 1))) ]
        | _ -> []
    in
    let access array =
      let e =
        Poly.Aff.make
          (Array.init d (fun _ -> Random.State.int rng 6 - 2))
          (Random.State.int rng 4)
      in
      { Flow.array; map = Poly.Aff_map.make space (Poly.Space.make array [ "d0" ]) [| e |] }
    in
    let compute =
      match Random.State.int rng 3 with
      | 0 -> Flow.Init 0.0
      | 1 -> Flow.Assign_copy (access (pick [ "u"; "a"; "b" ]))
      | _ -> Flow.Mac [ access (pick [ "u"; "a"; "b" ]) ]
    in
    {
      Flow.stmt_name = name;
      domain = Poly.Basic_set.of_constraints space (box @ shape);
      write = access (pick [ "a"; "b"; "c" ]);
      compute;
    }
  in
  let stmts = List.init (3 + Random.State.int rng 3) stmt in
  let schedule =
    List.map
      (fun (s : Flow.statement) ->
        let d = Poly.Basic_set.arity s.Flow.domain in
        let betas = Array.init (d + 1) (fun l -> Random.State.int rng (if l = 0 then 4 else 2)) in
        let dims = Array.init d Fun.id in
        if d = 2 && Random.State.bool rng then (dims.(0) <- 1; dims.(1) <- 0);
        (s.Flow.stmt_name, { Schedule.betas; dims }))
      stmts
  in
  ({ Flow.prog_name = "hand"; arrays; stmts }, schedule)

let qcheck_ubd_hand_built_match_reference =
  QCheck.Test.make
    ~name:"use-before-def walk = enumeration, non-box domains, strided accesses"
    ~count:300 (QCheck.int_bound 1_000_000) (fun seed ->
      let program, schedule = hand_built_program (Random.State.make [| seed |]) in
      same_use_before_def "hand-built" program schedule)

(* Box domains of 1-4 dimensions, where the verifier's walks are
   pinned. Each access leaves out a random subset of the dimensions, in
   outer, middle or inner position; over the rest its strides lie in
   [-1, 2], so an element recurs along the dimensions that are walked.
   Each statement's dims are a random permutation, its betas random and
   possibly tied, and one schedule in two is mutated further. *)
let box_program rng =
  let program, _ = hand_built_program rng in
  let shuffle a =
    for k = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (k + 1) in
      let t = a.(k) in
      a.(k) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let stmt (s : Flow.statement) =
    let name = s.Flow.stmt_name in
    let d = 1 + Random.State.int rng 4 in
    let space = Poly.Space.make name (List.init d (Printf.sprintf "i%d")) in
    let bounds =
      List.init d (fun _ ->
          let lo = Random.State.int rng 2 in
          (lo, lo + Random.State.int rng 3))
    in
    let access (a : Flow.access) =
      let e =
        Poly.Aff.make
          (Array.init d (fun _ ->
               if Random.State.bool rng then 0 else Random.State.int rng 4 - 1))
          (Random.State.int rng 4)
      in
      { a with Flow.map = Poly.Aff_map.make space (Poly.Space.make a.Flow.array [ "d0" ]) [| e |] }
    in
    {
      s with
      Flow.domain = Poly.Basic_set.of_box space bounds;
      write = access s.Flow.write;
      compute =
        (match s.Flow.compute with
        | Flow.Assign_copy r -> Flow.Assign_copy (access r)
        | Flow.Mac rs -> Flow.Mac (List.map access rs)
        | c -> c);
    }
  in
  let program = { program with Flow.stmts = List.map stmt program.Flow.stmts } in
  let schedule =
    List.map
      (fun (s : Flow.statement) ->
        let d = Poly.Basic_set.arity s.Flow.domain in
        ( s.Flow.stmt_name,
          {
            Schedule.betas =
              Array.init (d + 1) (fun l -> Random.State.int rng (if l = 0 then 4 else 2));
            dims = shuffle (Array.init d Fun.id);
          } ))
      program.Flow.stmts
  in
  if Random.State.bool rng then mutate rng program schedule else (program, schedule)

(* Whether some walked access of [program] leaves out a dimension other
   than its statement's innermost. *)
let pins_outer (program : Flow.program) =
  List.exists
    (fun (stmt : Flow.statement) ->
      let d = Poly.Basic_set.arity stmt.Flow.domain in
      List.exists
        (fun (a : Flow.access) ->
          let off = (Poly.Aff_map.exprs (Flow.array_access program a)).(0) in
          List.exists (fun j -> Poly.Aff.coeff off j = 0) (List.init (d - 1) Fun.id))
        (stmt.Flow.write :: Flow.reads stmt))
    program.Flow.stmts

let test_ubd_box_match_reference () =
  let violations = ref 0 and outer = ref 0 in
  let rng = Test_seed.rand () in
  for _ = 1 to 300 do
    let program, schedule = box_program rng in
    ignore (same_use_before_def "box" program schedule);
    if V.use_before_def program schedule <> [] then incr violations;
    if pins_outer program then incr outer
  done;
  if !violations < 200 || !outer < 250 then
    Alcotest.failf
      "of 300 box programs: %d with a violation (floor 200), %d pinning a \
       dimension other than the innermost (floor 250)"
      !violations !outer

(* The domain-order-first violating read has a pinned coordinate at a
   lower bound other than 0. [W] writes a[k] at (0, k, 1); [R], over
   2 <= i <= 3 and 0 <= j <= 3, reads a[j], which leaves i out, at
   (0, i, 0, j, 0): at or before a[j]'s first write exactly when
   i <= j, first at (2, 2). *)
let test_ubd_pinned_witness () =
  let array name kind =
    { Flow.array_name = name; kind; tensor_shape = [ 4 ]; layout = Flow.default_layout name [ 4 ]; size = 4 }
  in
  let w_space = Poly.Space.make "W" [ "k" ] and r_space = Poly.Space.make "R" [ "i"; "j" ] in
  let access space array coeffs =
    {
      Flow.array;
      map =
        Poly.Aff_map.make space (Poly.Space.make array [ "d0" ])
          [| Poly.Aff.make coeffs 0 |];
    }
  in
  let program =
    {
      Flow.prog_name = "pinned";
      arrays = [ array "a" Flow.Temp; array "c" Flow.Output ];
      stmts =
        [
          {
            Flow.stmt_name = "W";
            domain = Poly.Basic_set.of_box w_space [ (0, 3) ];
            write = access w_space "a" [| 1 |];
            compute = Flow.Init 0.0;
          };
          {
            Flow.stmt_name = "R";
            domain = Poly.Basic_set.of_box r_space [ (2, 3); (0, 3) ];
            write = access r_space "c" [| 0; 1 |];
            compute = Flow.Assign_copy (access r_space "a" [| 0; 1 |]);
          };
        ];
    }
  in
  let schedule =
    [
      ("W", { Schedule.betas = [| 0; 1 |]; dims = [| 0 |] });
      ("R", { Schedule.betas = [| 0; 0; 0 |]; dims = [| 0; 1 |] });
    ]
  in
  let diags = V.use_before_def program schedule in
  Alcotest.(check (list string)) "one diagnostic"
    [ "R: reads a@2 before it is defined: the read is scheduled at or before its first write" ]
    (List.map (fun d -> d.D.subject ^ ": " ^ d.D.message) diags);
  Alcotest.(check bool) "witness R[2, 2]" true
    (List.map (fun d -> d.D.witness) diags = [ Some (D.Instance ("R", [| 2; 2 |])) ]);
  ignore (same_use_before_def "pinned witness" program schedule)

(* [verify.ubd.points] counts the verifier's walks: on a clean program,
   every instance once for the write and once per checked read (reads of
   inputs are exempt, a Mac's accumulator is read too). Filling the
   table for the memory audit adds nothing to it. *)
let test_ubd_points_are_the_verifiers () =
  let points = Obs.Metrics.counter "verify.ubd.points" in
  List.iter
    (fun (name, (program : Flow.program), schedule) ->
      let before = Obs.Metrics.counter_value points in
      ignore (V.element_liveness program schedule);
      Alcotest.(check int) (name ^ ": the table is not counted") before
        (Obs.Metrics.counter_value points);
      Alcotest.(check int) (name ^ ": clean") 0
        (List.length (V.use_before_def program schedule));
      let expected =
        List.fold_left
          (fun acc (stmt : Flow.statement) ->
            let checked =
              List.filter
                (fun (r : Flow.access) ->
                  (Flow.array_info program r.Flow.array).Flow.kind <> Flow.Input)
                (Flow.reads stmt)
            in
            let mac = match stmt.Flow.compute with Flow.Mac _ -> 1 | _ -> 0 in
            acc
            + List.length (Poly.Basic_set.enumerate stmt.Flow.domain)
              * (1 + List.length checked + mac))
          0 program.Flow.stmts
      in
      Alcotest.(check int) (name ^ ": the verifier's points") expected
        (Obs.Metrics.counter_value points - before))
    (Lazy.force ubd_bases)

(* ------------------------------------------------------------------ *)
(* Bounds mutations                                                    *)
(* ------------------------------------------------------------------ *)

let loop var lo hi body =
  Loopir.Prog.For { Loopir.Prog.var; lo; hi; pragmas = []; body }

let proc params body = { Loopir.Prog.name = "p"; params; locals = []; body }

let out_param name size = { Loopir.Prog.name; size; dir = Loopir.Prog.Out }

let test_mutation_store_off_by_one () =
  let n = 6 in
  let p =
    proc
      [ out_param "a" n ]
      [
        loop "i" 0 n
          [
            Loopir.Prog.Store
              {
                array = "a";
                index = Loopir.Ix.add_const (Loopir.Ix.var "i") 1;
                value = Loopir.Prog.Const 0.0;
              };
          ];
      ]
  in
  let diags = V.bounds p in
  Alcotest.(check (list string))
    "a[i+1] over [0,n) is exactly a store violation" [ "bounds-store" ]
    (error_rules diags);
  Alcotest.(check bool) "witness pins index n against size n" true
    (has_witness (function D.Index (i, s) -> i = n && s = n | _ -> false) diags)

let test_mutation_load_off_by_one () =
  let n = 6 in
  let p =
    proc
      [ out_param "a" n; { Loopir.Prog.name = "b"; size = n; dir = Loopir.Prog.In } ]
      [
        loop "i" 0 n
          [
            Loopir.Prog.Store
              {
                array = "a";
                index = Loopir.Ix.var "i";
                value =
                  Loopir.Prog.Load ("b", Loopir.Ix.add_const (Loopir.Ix.var "i") (-1));
              };
          ];
      ]
  in
  let diags = V.bounds p in
  Alcotest.(check (list string))
    "b[i-1] over [0,n) is exactly a load violation" [ "bounds-load" ]
    (error_rules diags);
  Alcotest.(check bool)
    "witness is the least reachable out-of-range index, -1" true
    (has_witness (function D.Index (i, s) -> i = -1 && s = n | _ -> false) diags)

let test_bounds_ref_and_empty_loop () =
  let p =
    proc
      [ out_param "a" 4 ]
      [
        loop "i" 0 4
          [
            Loopir.Prog.Store
              {
                array = "zz";
                index = Loopir.Ix.var "i";
                value = Loopir.Prog.Const 0.0;
              };
            Loopir.Prog.Store
              {
                array = "a";
                index = Loopir.Ix.var "i";
                value = Loopir.Prog.Const 0.0;
              };
          ];
        loop "j" 5 5
          [
            Loopir.Prog.Store
              {
                array = "a";
                index = Loopir.Ix.const 99;
                value = Loopir.Prog.Const 0.0;
              };
          ];
      ]
  in
  let diags = V.bounds p in
  Alcotest.(check (list string))
    "undeclared buffer is a reference error" [ "bounds-ref" ]
    (error_rules diags);
  Alcotest.(check (list string))
    "the dead loop is warned about, its body not checked"
    [ "bounds-empty-loop" ] (warning_rules diags)

let test_mutation_shrunk_output () =
  let r =
    compile
      ~options:
        {
          Compile.default_options with
          Compile.sharing = false;
          decoupled = true;
        }
      4
  in
  let proc = r.Compile.proc in
  let proc' =
    {
      proc with
      Loopir.Prog.params =
        List.map
          (fun (p : Loopir.Prog.param) ->
            if p.Loopir.Prog.dir = Loopir.Prog.Out then
              { p with Loopir.Prog.size = p.Loopir.Prog.size - 1 }
            else p)
          proc.Loopir.Prog.params;
    }
  in
  check_clean "unmutated proc" (V.bounds proc);
  let diags = V.bounds proc' in
  Alcotest.(check bool) "shrinking the output buffer breaks a store" true
    (List.mem "bounds-store" (error_rules diags));
  Alcotest.(check bool) "only bounds rules fire" true
    (List.for_all
       (fun rule -> rule = "bounds-store" || rule = "bounds-load")
       (error_rules diags))

(* ------------------------------------------------------------------ *)
(* Sharing mutations                                                   *)
(* ------------------------------------------------------------------ *)

(* An honest hand-built architecture: the named groups each share one
   slot (address-space sharing); every other program array gets its own
   single-slot unit; copies and BRAM counts follow the platform rule. *)
let arch_of_slots (program : Flow.program) groups =
  let size a = (Flow.array_info program a).Flow.size in
  let mentioned = List.concat groups in
  let rest =
    List.filter_map
      (fun (i : Flow.array_info) ->
        if List.mem i.Flow.array_name mentioned then None
        else Some [ i.Flow.array_name ])
      program.Flow.arrays
  in
  let units =
    List.mapi
      (fun idx members ->
        let words = List.fold_left (fun acc m -> max acc (size m)) 0 members in
        let copies =
          List.fold_left
            (fun acc m ->
              let p = Mnemosyne.Memgen.read_ports_needed program m in
              max acc
                ((p + Fpga_platform.Bram.ports - 1) / Fpga_platform.Bram.ports))
            1 members
        in
        {
          Mnemosyne.Memgen.unit_name = Printf.sprintf "plm%d" idx;
          slots =
            [
              {
                Mnemosyne.Memgen.residents = members;
                slot_words = words;
                slot_offset = 0;
              };
            ];
          copies;
          unit_words = words;
          brams = copies * Fpga_platform.Bram.count_array ~words;
        })
      (groups @ rest)
  in
  let storage =
    List.concat_map
      (fun (u : Mnemosyne.Memgen.plm_unit) ->
        List.concat_map
          (fun (s : Mnemosyne.Memgen.slot) ->
            List.map
              (fun m ->
                (m, (u.Mnemosyne.Memgen.unit_name, s.Mnemosyne.Memgen.slot_offset)))
              s.Mnemosyne.Memgen.residents)
          u.Mnemosyne.Memgen.slots)
      units
  in
  {
    Mnemosyne.Memgen.arch_mode = Mnemosyne.Memgen.No_sharing;
    units;
    storage;
    total_brams =
      List.fold_left
        (fun acc (u : Mnemosyne.Memgen.plm_unit) -> acc + u.Mnemosyne.Memgen.brams)
        0 units;
  }

let compiled_for_sharing =
  lazy
    (let r =
       compile
         ~options:{ Compile.default_options with Compile.sharing = false }
         5
     in
     (r.Compile.program, r.Compile.schedule))

let test_mutation_overlapping_storage_merge () =
  let program, schedule = Lazy.force compiled_for_sharing in
  check_clean "honest singleton architecture"
    (V.sharing program schedule (arch_of_slots program []));
  (* merge the output with an array the output-writing statement reads:
     both are live at that statement, so aliasing one address range is
     unsound *)
  let out =
    List.find
      (fun (i : Flow.array_info) -> i.Flow.kind = Flow.Output)
      program.Flow.arrays
  in
  let writer =
    List.find
      (fun (s : Flow.statement) ->
        s.Flow.write.Flow.array = out.Flow.array_name
        && Flow.reads s <> [])
      program.Flow.stmts
  in
  let read = (List.hd (Flow.reads writer)).Flow.array in
  let arch = arch_of_slots program [ [ out.Flow.array_name; read ] ] in
  let diags = V.sharing program schedule arch in
  Alcotest.(check (list string))
    "simultaneously live residents are exactly an address-space error"
    [ "share-address-space" ] (error_rules diags);
  (* both ends of both live intervals: the read array is live from the
     host to its last read, the output from its first write to the host *)
  let ival (i : Poly.Lex.interval) = (i.Poly.Lex.first, i.Poly.Lex.last) in
  let ival_t = Alcotest.(pair (array int) (array int)) in
  Alcotest.(check (list (pair ival_t ival_t)))
    "witness pins both ends of the overlapping live intervals"
    [
      ( ([| min_int |], [| 6; 4; 0; 4; 0; 4; 1; 4; 0 |]),
        ([| 6; 0; 0; 0; 0; 0; 0; 0; 0 |], [| max_int |]) );
    ]
    (List.filter_map
       (fun d ->
         match d.D.witness with
         | Some (D.Intervals (a, b)) -> Some (ival a, ival b)
         | _ -> None)
       (D.errors diags))

(* Two read operands of one statement stacked as separate slots of one
   unit: address spaces are disjoint, but the instance needs both in the
   same cycle — a memory-interface violation. *)
let two_operand_unit program (a, b) ~escape =
  let size x = (Flow.array_info program x).Flow.size in
  let base = arch_of_slots program [] in
  let keep =
    List.filter
      (fun (u : Mnemosyne.Memgen.plm_unit) ->
        not
          (List.exists
             (fun (s : Mnemosyne.Memgen.slot) ->
               List.mem a s.Mnemosyne.Memgen.residents
               || List.mem b s.Mnemosyne.Memgen.residents)
             u.Mnemosyne.Memgen.slots))
      base.Mnemosyne.Memgen.units
  in
  let copies x =
    (Mnemosyne.Memgen.read_ports_needed program x + Fpga_platform.Bram.ports - 1)
    / Fpga_platform.Bram.ports
  in
  let unit_words = size a + size b - if escape then 1 else 0 in
  let stacked =
    {
      Mnemosyne.Memgen.unit_name = "stack";
      slots =
        [
          {
            Mnemosyne.Memgen.residents = [ a ];
            slot_words = size a;
            slot_offset = 0;
          };
          {
            Mnemosyne.Memgen.residents = [ b ];
            slot_words = size b;
            slot_offset = size a;
          };
        ];
      copies = max (copies a) (copies b);
      unit_words;
      brams =
        max (copies a) (copies b)
        * Fpga_platform.Bram.count_array ~words:unit_words;
    }
  in
  let units = stacked :: keep in
  let storage =
    List.concat_map
      (fun (u : Mnemosyne.Memgen.plm_unit) ->
        List.concat_map
          (fun (s : Mnemosyne.Memgen.slot) ->
            List.map
              (fun m ->
                (m, (u.Mnemosyne.Memgen.unit_name, s.Mnemosyne.Memgen.slot_offset)))
              s.Mnemosyne.Memgen.residents)
          u.Mnemosyne.Memgen.slots)
      units
  in
  {
    base with
    Mnemosyne.Memgen.units;
    storage;
    total_brams =
      List.fold_left
        (fun acc (u : Mnemosyne.Memgen.plm_unit) -> acc + u.Mnemosyne.Memgen.brams)
        0 units;
  }

let conflicting_reads program =
  let stmt =
    List.find
      (fun (s : Flow.statement) ->
        List.length
          (List.sort_uniq compare
             (List.map (fun (r : Flow.access) -> r.Flow.array) (Flow.reads s)))
        >= 2)
      program.Flow.stmts
  in
  match
    List.sort_uniq compare
      (List.map (fun (r : Flow.access) -> r.Flow.array) (Flow.reads stmt))
  with
  | a :: b :: _ -> (a, b)
  | _ -> assert false

let test_mutation_interface_conflict () =
  let program, schedule = Lazy.force compiled_for_sharing in
  let pair = conflicting_reads program in
  let arch = two_operand_unit program pair ~escape:false in
  let diags = V.sharing program schedule arch in
  Alcotest.(check (list string))
    "conflicting operands in one unit are exactly an interface error"
    [ "share-interface" ] (error_rules diags)

let test_mutation_slot_escapes_unit () =
  let program, schedule = Lazy.force compiled_for_sharing in
  let pair = conflicting_reads program in
  let arch = two_operand_unit program pair ~escape:true in
  let diags = V.sharing program schedule arch in
  Alcotest.(check (list string))
    "a slot past the unit's words adds a layout error"
    [ "share-interface"; "share-layout" ]
    (error_rules diags)

let test_mutation_missing_storage () =
  let program, schedule = Lazy.force compiled_for_sharing in
  let arch = arch_of_slots program [] in
  let victim = fst (List.hd arch.Mnemosyne.Memgen.storage) in
  let arch' =
    {
      arch with
      Mnemosyne.Memgen.storage =
        List.remove_assoc victim arch.Mnemosyne.Memgen.storage;
    }
  in
  let diags = V.sharing program schedule arch' in
  Alcotest.(check (list string))
    "an unmapped array is exactly a storage error" [ "share-storage" ]
    (error_rules diags)

let test_warning_port_pressure_and_brams () =
  let program, schedule = Lazy.force compiled_for_sharing in
  let arch = arch_of_slots program [] in
  (* the same architecture audited at unroll 8: demand outgrows the
     honest unroll-1 bank copies, but nothing is incorrect *)
  let diags = V.sharing ~unroll:8 program schedule arch in
  Alcotest.(check (list string)) "no errors at higher unroll" []
    (error_rules diags);
  Alcotest.(check (list string))
    "only port-pressure warnings" [ "share-ports" ] (warning_rules diags);
  (* a unit lying about its BRAM count is flagged, again as a warning *)
  let arch' =
    match arch.Mnemosyne.Memgen.units with
    | u :: rest ->
        {
          arch with
          Mnemosyne.Memgen.units =
            { u with Mnemosyne.Memgen.brams = u.Mnemosyne.Memgen.brams + 1 }
            :: rest;
        }
    | [] -> assert false
  in
  let diags' = V.sharing program schedule arch' in
  Alcotest.(check (list string)) "still no errors" [] (error_rules diags');
  Alcotest.(check (list string))
    "BRAM accounting warnings" [ "share-brams" ] (warning_rules diags')

(* ------------------------------------------------------------------ *)
(* Property: verifier acceptance = exact legality = correct results    *)
(* ------------------------------------------------------------------ *)

let random_schedule rng (program : Flow.program) =
  let n = List.length program.Flow.stmts in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  List.mapi
    (fun i (stmt : Flow.statement) ->
      let d = Poly.Basic_set.arity stmt.Flow.domain in
      let betas = Array.make (d + 1) 0 in
      betas.(0) <- order.(i);
      let dims = Array.init d Fun.id in
      if d > 1 && Random.State.bool rng then
        for k = d - 1 downto 1 do
          let j = Random.State.int rng (k + 1) in
          let t = dims.(k) in
          dims.(k) <- dims.(j);
          dims.(j) <- t
        done;
      (stmt.Flow.stmt_name, { Schedule.betas; dims }))
    program.Flow.stmts

(* Execute the program under [schedule'] (fresh codegen, no storage map,
   so every array is its own buffer) and compare against the reference
   semantics, mirroring [Compile.verify]. *)
let differential_ok (r : Compile.result) schedule' =
  let proc = Lower.Codegen.generate r.Compile.program schedule' in
  let inputs = Cfdlang.Eval.random_inputs ~seed:17 r.Compile.checked in
  let expected = Cfdlang.Eval.run r.Compile.checked inputs in
  let buffers =
    Loopir.Interp.run_fresh proc
      ~inputs:
        (List.map (fun (n, t) -> (n, Tensor.Dense.to_array t)) inputs)
  in
  List.for_all
    (fun (name, expected_tensor) ->
      match List.assoc_opt name buffers with
      | None -> false
      | Some buf ->
          let shape = Tensor.Dense.shape expected_tensor in
          let n = Tensor.Shape.num_elements shape in
          Tensor.Dense.equal ~tol:1e-6
            (Tensor.Dense.of_array shape (Array.sub buf 0 n))
            expected_tensor)
    expected

let qcheck_accepted_schedules_compute_reference =
  QCheck.Test.make
    ~name:"verifier-accepted random schedules = exact legality + differential"
    ~count:30
    QCheck.(pair (int_range 3 4) (int_bound 1_000_000))
    (fun (p, seed) ->
      let r =
        compile
          ~options:{ Compile.default_options with Compile.sharing = false }
          p
      in
      let program = r.Compile.program in
      let rng = Random.State.make [| seed |] in
      let schedule' = random_schedule rng program in
      let accepted = D.errors (V.all ~program ~schedule:schedule' ()) = [] in
      let legal = Legality.legal program schedule' in
      if accepted then legal && differential_ok r schedule'
      else not legal)

let suite =
  [
    ( "analysis.clean",
      [
        case "paper kernel, both sharing modes, zero diagnostics"
          test_clean_full_size;
        case "full 6-bit option matrix at p=3, zero diagnostics"
          test_clean_option_matrix;
        case "unused input surfaces as front-unused warning"
          test_front_unused_warning;
      ] );
    ( "analysis.deps",
      [
        case "moving an init last: dep-raw + dep-waw + use-before-def"
          test_mutation_illegal_schedule_move;
        case "overwrite before read: dep-war with paired witness"
          test_mutation_war_swap;
        case "dropped init: use-before-def with instance witness"
          test_mutation_dropped_init;
        case "non-permutation dims: schedule-structure"
          test_mutation_schedule_structure;
        case "unbounded domain, undeclared array: schedule-structure"
          test_structure_unbounded_and_undeclared;
      ] );
    ( "analysis.ubd",
      [
        Test_seed.to_alcotest qcheck_ubd_kernels_match_reference;
        Test_seed.to_alcotest qcheck_ubd_hand_built_match_reference;
        case "use-before-def pinned walk = enumeration, box domains"
          test_ubd_box_match_reference;
        case "use-before-def witness with a pinned coordinate" test_ubd_pinned_witness;
        case "verify.ubd.points counts the verifier's walks only"
          test_ubd_points_are_the_verifiers;
      ] );
    ( "analysis.bounds",
      [
        case "store off-by-one: bounds-store, witness n of n"
          test_mutation_store_off_by_one;
        case "load off-by-one: bounds-load, witness -1"
          test_mutation_load_off_by_one;
        case "undeclared buffer and dead loop" test_bounds_ref_and_empty_loop;
        case "shrunk output buffer on the real pipeline"
          test_mutation_shrunk_output;
      ] );
    ( "analysis.sharing",
      [
        case "overlapping storage merge: share-address-space"
          test_mutation_overlapping_storage_merge;
        case "conflicting operands in one unit: share-interface"
          test_mutation_interface_conflict;
        case "slot escaping its unit: share-layout"
          test_mutation_slot_escapes_unit;
        case "unmapped array: share-storage" test_mutation_missing_storage;
        case "port pressure and BRAM accounting are warnings"
          test_warning_port_pressure_and_brams;
      ] );
    ( "analysis.property",
      [ Test_seed.to_alcotest qcheck_accepted_schedules_compute_reference ] );
  ]
