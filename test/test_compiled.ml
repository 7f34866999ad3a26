(* Differential tests for the compiled LoopIR execution engine.

   The compiled engine ({!Loopir.Compiled}) must be observably
   indistinguishable from the tree-walking reference interpreter
   ({!Loopir.Interp}) — bit-identical buffers on success, agreement on
   error — across:

   - randomly generated loop-nest programs (qcheck), at Checked mode
     always, and additionally at Unchecked/Debug when the static
     verifier licenses them;
   - the full 64-point compile-option matrix on a small programmatic
     kernel;
   - every kernel under [kernels/], on representative option sets.

   Plus the fused loops of unchecked code: a count that every MAC loop,
   reduction nest and pointwise loop the flow emits is fused, probed or
   not, their edges against the interpreter, and an allocation floor.
   Plus unit tests for the verifier license itself (an out-of-bounds
   proc must be refused the unchecked fast path), the CFD_EXEC_DEBUG
   escape hatch, the persistent work pool, the [~jobs] plumbing of the
   functional simulator, and the memory probe's event stream, each
   fused loop's one event per run expanded, against a tree walk of the
   proc, with the probed run's buffers against an unprobed run's.

   All randomized tests draw from the fixed suite seed ({!Test_seed}). *)

open Loopir

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Bit-exact comparison of run results                                 *)
(* ------------------------------------------------------------------ *)

let sort_bindings l = List.sort (fun (a, _) (b, _) -> compare a b) l

let buffers_identical got expected =
  let got = sort_bindings got and expected = sort_bindings expected in
  List.length got = List.length expected
  && List.for_all2
       (fun (n1, (b1 : float array)) (n2, b2) ->
         n1 = n2
         && Array.length b1 = Array.length b2
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              b1 b2)
       got expected

type outcome = Ran of (string * float array) list | Failed of string

let run_interp proc inputs =
  match Interp.run_fresh proc ~inputs with
  | bindings -> Ran bindings
  | exception Interp.Error m -> Failed m

let run_compiled ~mode proc inputs =
  match Compiled.run_fresh ~mode proc ~inputs with
  | bindings -> Ran bindings
  | exception Compiled.Error m -> Failed m

(* The differential heart: reference and compiled engine must agree on
   outcome; on success the buffers must match bit for bit. When the
   static verifier licenses unchecked execution, the reference must not
   have failed a bounds check (that would be verifier unsoundness), and
   the unchecked and debug runs must reproduce the reference bits. *)
let check_differential ?(debug = true) ~what proc inputs =
  let reference = run_interp proc inputs in
  let mode = Analysis.Verify.execution_mode proc in
  (match (reference, run_compiled ~mode:Compiled.Checked proc inputs) with
  | Ran bi, Ran bc ->
      if not (buffers_identical bc bi) then
        Alcotest.failf "%s: checked run differs from interpreter" what
  | Failed _, Failed _ ->
      if mode = Compiled.Unchecked then
        Alcotest.failf
          "%s: verifier licensed unchecked execution but the reference \
           interpreter failed a dynamic check"
          what
  | Ran _, Failed m ->
      Alcotest.failf "%s: compiled errored (%s) but interpreter succeeded" what
        m
  | Failed m, Ran _ ->
      Alcotest.failf "%s: interpreter errored (%s) but compiled succeeded" what
        m);
  match reference with
  | Failed _ -> ()
  | Ran bi ->
      (match mode with
      | Compiled.Unchecked -> (
          match run_compiled ~mode:Compiled.Unchecked proc inputs with
          | Ran bu ->
              if not (buffers_identical bu bi) then
                Alcotest.failf "%s: unchecked run differs from interpreter"
                  what
          | Failed m -> Alcotest.failf "%s: unchecked run errored: %s" what m)
      | _ -> ());
      (* The debug leg replays the whole run through the interpreter, so
         callers skip it where the reference is expensive. *)
      if debug then
        match run_compiled ~mode:Compiled.Debug proc inputs with
        | Ran bd ->
            if not (buffers_identical bd bi) then
              Alcotest.failf "%s: debug run differs from interpreter" what
        | Failed m ->
            Alcotest.failf "%s: debug cross-check rejected a clean run: %s"
              what m

(* ------------------------------------------------------------------ *)
(* Random loop-nest programs                                           *)
(* ------------------------------------------------------------------ *)

(* Generates procs that satisfy {!Prog.validate} — declared arrays,
   bound loop variables, non-empty loops, scalars set before read —
   but whose array indices may run out of bounds, so the Checked
   engine's error path is exercised against the interpreter's. *)

type spec = { proc : Prog.proc; inputs : (string * float array) list }

let gen_spec =
  QCheck.Gen.(
    let gen_value = int_range (-64) 64 >|= fun n -> float_of_int n /. 16. in
    let gen_ix bound =
      match bound with
      | [] -> int_range 0 5 >|= Ix.const
      | _ ->
          list_size
            (return (List.length bound))
            (frequency [ (3, return 0); (5, return 1); (1, return 2) ])
          >>= fun coeffs ->
          int_range 0 3 >|= fun const ->
          let terms =
            List.filter
              (fun (c, _) -> c <> 0)
              (List.map2 (fun c (v, _, _) -> (c, v)) coeffs bound)
          in
          Ix.of_terms terms const
    in
    let gen_unit_ix bound =
      list_size
        (return (List.length bound))
        (frequency [ (1, return 0); (2, return 1) ])
      >>= fun coeffs ->
      int_range 0 1 >|= fun const ->
      Ix.of_terms (List.map2 (fun c (v, _, _) -> (c, v)) coeffs bound) const
    in
    let gen_bound v =
      int_range 0 1 >>= fun lo ->
      int_range 1 3 >|= fun extent -> (v, lo, lo + extent)
    in
    (* Tenths round, so a reduction summed in another order shows. *)
    let gen_data = int_range (-64) 64 >|= fun n -> float_of_int n /. 10. in
    let arrays = [ "a"; "b"; "c"; "t" ] in
    let rec gen_expr depth scalars bound =
      let leaf =
        [
          (2, gen_value >|= fun f -> Prog.Const f);
          ( 5,
            pair (oneofl arrays) (gen_ix bound) >|= fun (a, ix) ->
            Prog.Load (a, ix) );
        ]
        @
        if scalars = [] then []
        else [ (2, oneofl scalars >|= fun s -> Prog.Scalar s) ]
      in
      if depth = 0 then frequency leaf
      else
        frequency
          (leaf
          @ [
              ( 3,
                pair
                  (gen_expr (depth - 1) scalars bound)
                  (gen_expr (depth - 1) scalars bound)
                >>= fun (x, y) ->
                oneofl
                  [
                    Prog.Add (x, y);
                    Prog.Sub (x, y);
                    Prog.Mul (x, y);
                    Prog.Div (x, y);
                  ] );
            ])
    in
    let gen_write scalars bound =
      pair (oneofl [ "c"; "t" ])
        (pair (gen_ix bound) (gen_expr 2 scalars bound))
      >>= fun (a, (ix, e)) ->
      oneofl
        [
          Prog.Store { array = a; index = ix; value = e };
          Prog.Accum { array = a; index = ix; value = e };
        ]
    in
    (* Threads the set of initialized scalars through a statement
       sequence, mirroring [Prog.validate]'s own fold. *)
    let rec gen_stmts ~nests ~depth ~fuel bound scalars =
      if fuel = 0 then return ([], scalars)
      else
        gen_stmt ~nests ~depth bound scalars >>= fun (s, scalars') ->
        gen_stmts ~nests ~depth ~fuel:(fuel - 1) bound scalars'
        >|= fun (rest, out) ->
        (s :: rest, out)
    and gen_stmt ~nests ~depth bound scalars =
      let free =
        List.filter
          (fun v -> not (List.exists (fun (v', _, _) -> v = v') bound))
          [ "i"; "j"; "k" ]
      in
      let write = gen_write scalars bound >|= fun s -> (s, scalars) in
      let set =
        pair (oneofl [ "s0"; "s1" ]) (gen_expr 2 scalars bound)
        >|= fun (name, value) ->
        ( Prog.Set_scalar { name; value },
          if List.mem name scalars then scalars else name :: scalars )
      in
      let acc =
        pair (oneofl scalars) (gen_expr 2 scalars bound) >|= fun (name, value) ->
        (Prog.Acc_scalar { name; value }, scalars)
      in
      let forloop =
        oneofl free >>= fun v ->
        gen_bound v >>= fun ((_, lo, hi) as b) ->
        gen_stmts ~nests ~depth:(depth + 1) ~fuel:2 (b :: bound) scalars
        >|= fun (body, _) ->
        (Prog.For { var = v; lo; hi; pragmas = []; body }, scalars)
      in
      (* The reduction nest the engine fuses, [s = c; for { s += x * y };
         out = s], as a whole loop body or followed by a pointwise store.
         Operands may be the output array; coefficients of 0 or 1 give
         stride-0 operands and keep most of these accesses in range. *)
      let nest =
        shuffle_l free >>= fun vs ->
        gen_bound (List.nth vs 0) >>= fun ((vo, olo, ohi) as ob) ->
        gen_bound (List.nth vs 1) >>= fun ((vi, ilo, ihi) as ib) ->
        pair (oneofl [ "s0"; "s1" ]) gen_value >>= fun (s, c) ->
        pair (oneofl arrays) (gen_unit_ix (ib :: ob :: bound)) >>= fun (x, ix) ->
        pair (oneofl arrays) (gen_unit_ix (ib :: ob :: bound)) >>= fun (y, iy) ->
        pair (oneofl [ "c"; "t" ]) (gen_unit_ix (ob :: bound))
        >>= fun (out, iout) ->
        let pointwise =
          triple (oneofl [ "c"; "t" ]) (gen_unit_ix (ob :: bound))
            (pair (oneofl arrays) (gen_unit_ix (ob :: bound)))
          >|= fun (p, ip, (q, iq)) ->
          [
            Prog.Store
              {
                array = p;
                index = ip;
                value = Prog.Mul (Prog.Load (q, iq), Prog.Scalar s);
              };
          ]
        in
        frequency [ (2, return []); (1, pointwise) ] >|= fun tail ->
        let mac =
          Prog.Acc_scalar
            { name = s; value = Prog.Mul (Prog.Load (x, ix), Prog.Load (y, iy)) }
        in
        let body =
          Prog.Set_scalar { name = s; value = Prog.Const c }
          :: Prog.For { var = vi; lo = ilo; hi = ihi; pragmas = []; body = [ mac ] }
          :: Prog.Store { array = out; index = iout; value = Prog.Scalar s }
          :: tail
        in
        ( Prog.For { var = vo; lo = olo; hi = ohi; pragmas = []; body },
          if List.mem s scalars then scalars else s :: scalars )
      in
      (* The pointwise loop the engine fuses, [for v { out = x op y }]:
         the output may be an operand, and coefficients of 0 or 1 give
         stride-0 accesses. *)
      let pointwise =
        oneofl free >>= fun v ->
        gen_bound v >>= fun ((_, lo, hi) as b) ->
        let load = pair (oneofl arrays) (gen_unit_ix (b :: bound)) in
        triple
          (pair (oneofl [ "c"; "t" ]) (gen_unit_ix (b :: bound)))
          (pair load load)
          (oneofl
             [
               (fun x y -> Prog.Add (x, y));
               (fun x y -> Prog.Sub (x, y));
               (fun x y -> Prog.Mul (x, y));
               (fun x y -> Prog.Div (x, y));
             ])
        >|= fun ((out, iout), ((x, ix), (y, iy)), op) ->
        ( Prog.For
            {
              var = v;
              lo;
              hi;
              pragmas = [];
              body =
                [
                  Prog.Store
                    {
                      array = out;
                      index = iout;
                      value = op (Prog.Load (x, ix)) (Prog.Load (y, iy));
                    };
                ];
            },
          scalars )
      in
      frequency
        ([ (4, write); (2, set) ]
        @ (if scalars = [] then [] else [ (2, acc) ])
        @ (if free = [] || depth >= 3 then [] else [ (4, forloop); (2, pointwise) ])
        @ if nests && List.length free >= 2 then [ (3, nest) ] else [])
    in
    (* Half the procs draw reduction nests, with arrays that hold every
       nest access (at most 3 + 3 + 3 + 1); the other half keep arrays
       small enough that a third of them run out of range. *)
    bool >>= fun nests ->
    let size = if nests then int_range 11 16 else int_range 6 12 in
    size >>= fun sa ->
    size >>= fun sb ->
    size >>= fun sc ->
    size >>= fun st ->
    gen_stmts ~nests ~depth:0 ~fuel:4 [] [] >>= fun (body, _) ->
    array_size (return sa) gen_data >>= fun da ->
    array_size (return sb) gen_data >|= fun db ->
    let proc =
      {
        Prog.name = "rand";
        params =
          [
            { Prog.name = "a"; size = sa; dir = Prog.In };
            { Prog.name = "b"; size = sb; dir = Prog.In };
            { Prog.name = "c"; size = sc; dir = Prog.Out };
          ];
        locals = [ ("t", st) ];
        (* The trailing store keeps the Out parameter written, as
           [Prog.validate] requires. *)
        body =
          body
          @ [
              Prog.Store
                {
                  array = "c";
                  index = Ix.const 0;
                  value = Prog.Load ("t", Ix.const 0);
                };
            ];
      }
    in
    { proc; inputs = [ ("a", da); ("b", db) ] })

let arb_spec =
  QCheck.make
    ~print:(fun spec -> Format.asprintf "%a" Prog.pp_proc spec.proc)
    gen_spec

let qcheck_random_procs =
  QCheck.Test.make ~name:"compiled = interpreter on random procs" ~count:600
    arb_spec
    (fun spec ->
      Prog.validate spec.proc;
      check_differential ~what:"random proc" spec.proc spec.inputs;
      true)

(* ------------------------------------------------------------------ *)
(* The full compile-option matrix on a programmatic kernel             *)
(* ------------------------------------------------------------------ *)

let options_of_bits bits =
  let bit i = (bits lsr i) land 1 = 1 in
  {
    Cfd_core.Compile.default_options with
    Cfd_core.Compile.factorize = bit 0;
    fuse_pointwise = bit 1;
    decoupled = bit 2;
    sharing = bit 3;
    pipeline_ii = (if bit 4 then Some 2 else Some 1);
    unroll = (if bit 5 then Some 2 else None);
  }

let random_array rand size =
  Array.init size (fun _ -> float_of_int (Random.State.int rand 129 - 64) /. 16.)

let differential_of_result ?debug ~what rand (r : Cfd_core.Compile.result) =
  let proc = r.Cfd_core.Compile.proc in
  let inputs =
    List.filter_map
      (fun (p : Prog.param) ->
        if p.Prog.dir = Prog.In then Some (p.Prog.name, random_array rand p.Prog.size)
        else None)
      proc.Prog.params
  in
  check_differential ?debug ~what proc inputs

let test_option_matrix () =
  let rand = Test_seed.rand () in
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  for bits = 0 to 63 do
    let r = Cfd_core.Compile.compile ~options:(options_of_bits bits) ast in
    differential_of_result
      ~what:(Printf.sprintf "inverse_helmholtz p=3 options=%02x" bits)
      rand r
  done

(* ------------------------------------------------------------------ *)
(* Every kernel under kernels/                                         *)
(* ------------------------------------------------------------------ *)

(* The paper's kernels are p=11: a full 64-point matrix per kernel would
   dominate the suite (the 64-point matrix runs at p=3 above), so each
   kernel runs the factorized baseline, every knob on top of it, the
   all-options point, and one unfactorized probe. Tree-walking the
   unfactorized 6-D contraction costs seconds per run, so the
   interpreter-replay debug leg is limited to the factorized points. *)
let kernel_option_bits = [ 0x01; 0x3f; 0x03; 0x05; 0x09; 0x11; 0x21; 0x00 ]

(* Under [dune runtest] the cwd is the test directory (the kernel
   sources are declared deps, one level up); under [dune exec] from the
   project root they are right here. *)
let kernels_dir () = if Sys.file_exists "../kernels" then "../kernels" else "kernels"

let kernel_files () =
  Sys.readdir (kernels_dir ())
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cfd")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_kernel file () =
  let rand = Test_seed.rand () in
  let source = read_file (Filename.concat (kernels_dir ()) file) in
  List.iter
    (fun bits ->
      match
        Cfd_core.Compile.compile_source ~options:(options_of_bits bits) source
      with
      | Error m -> Alcotest.failf "%s options=%02x: %s" file bits m
      | Ok r ->
          differential_of_result ~debug:(bits land 0x01 = 1)
            ~what:(Printf.sprintf "%s options=%02x" file bits)
            rand r)
    kernel_option_bits

(* ------------------------------------------------------------------ *)
(* Fused loops                                                         *)
(* ------------------------------------------------------------------ *)

(* The loop shapes an unchecked compile fuses. *)
type shape = Mac_loop | Nest | Pointwise | Generic

let is_mac = function
  | Prog.Acc_scalar { value = Prog.Mul (Prog.Load _, Prog.Load _); _ } -> true
  | _ -> false

let is_pointwise = function
  | Prog.Store
      {
        value =
          ( Prog.Add (Prog.Load _, Prog.Load _)
          | Prog.Sub (Prog.Load _, Prog.Load _)
          | Prog.Mul (Prog.Load _, Prog.Load _)
          | Prog.Div (Prog.Load _, Prog.Load _) );
        _;
      } ->
      true
  | _ -> false

let shape (l : Prog.loop) =
  match l.Prog.body with
  | [ m ] when is_mac m -> Mac_loop
  | [ p ] when is_pointwise p -> Pointwise
  | [
   Prog.Set_scalar { name; value = Prog.Const _ };
   Prog.For { body = [ (Prog.Acc_scalar { name = s; _ } as m) ]; _ };
   Prog.Store { value = Prog.Scalar s'; _ };
  ]
    when is_mac m && s = name && s' = name ->
      Nest
  | _ -> Generic

(* What a walk of the proc finds: [macs] leaves [s += x[..] * y[..]];
   [mac_loops] loops whose whole body is one of them, in a nest or not;
   [nests] loops whose body is exactly [s = c; <a MAC loop on s>;
   a[..] = s]; [pointwise] loops whose body is [a[..] = x[..] op y[..]];
   [store_loops] loops whose whole body is one store. *)
type shapes = {
  macs : int;
  mac_loops : int;
  nests : int;
  pointwise : int;
  store_loops : int;
}

let shapes (proc : Prog.proc) =
  let rec walk r = function
    | Prog.For l ->
        let r =
          match shape l with
          | Mac_loop -> { r with mac_loops = r.mac_loops + 1 }
          | Nest -> { r with nests = r.nests + 1 }
          | Pointwise -> { r with pointwise = r.pointwise + 1 }
          | Generic -> r
        in
        let r =
          match l.Prog.body with
          | [ Prog.Store _ ] -> { r with store_loops = r.store_loops + 1 }
          | _ -> r
        in
        List.fold_left walk r l.Prog.body
    | leaf -> if is_mac leaf then { r with macs = r.macs + 1 } else r
  in
  List.fold_left walk
    { macs = 0; mac_loops = 0; nests = 0; pointwise = 0; store_loops = 0 }
    proc.Prog.body

(* A MAC loop runs as one fused loop, a nest as two (its MAC loop is
   among [mac_loops]), a pointwise loop as one. *)
let expected_fused r = r.mac_loops + r.nests + r.pointwise
let c_fused = Obs.Metrics.counter "exec.fused_loops"

let fused_loops ?probe mode proc =
  let before = Obs.Metrics.counter_value c_fused in
  ignore (Compiled.compile ~mode ?probe proc);
  Obs.Metrics.counter_value c_fused - before

(* A probe that expects no fused-loop event: it runs behind [expanding],
   on a checked engine, or never. *)
let per_instance ~on_site ~on_instance ~on_access =
  let unexpected what site =
    Alcotest.failf "%s event at site %d reached a probe that expects none"
      what site
  in
  {
    Compiled.on_site;
    on_instance;
    on_access;
    on_mac =
      (fun ~site ~values:_ ~lo:_ ~count:_ ~x:_ ~ix:_ ~dx:_ ~y:_ ~iy:_ ~dy:_ ->
        unexpected "MAC" site);
    on_nest =
      (fun ~site ~values:_ ~lo:_ ~count:_ ~mac_lo:_ ~mac_count:_ ~x:_ ~ix:_
           ~ox:_ ~dx:_ ~y:_ ~iy:_ ~oy:_ ~dy:_ ~a:_ ~ia:_ ~oa:_ ->
        unexpected "nest" site);
    on_pointwise =
      (fun ~site ~values:_ ~lo:_ ~count:_ ~x:_ ~ix:_ ~dx:_ ~y:_ ~iy:_ ~dy:_
           ~a:_ ~ia:_ ~da:_ -> unexpected "pointwise" site);
  }

let silent_probe =
  per_instance
    ~on_site:(fun ~site:_ ~vars:_ ~stmt:_ -> ())
    ~on_instance:(fun ~site:_ ~values:_ -> ())
    ~on_access:(fun ~site:_ ~slot:_ ~index:_ ~write:_ -> ())

let compile_source_exn ?options source =
  match Cfd_core.Compile.compile_source ?options source with
  | Ok r -> r
  | Error m -> Alcotest.failf "compile: %s" m

(* The fast path has a count: a change in the shape the flow emits that
   put [sim] back on the generic closures fails here, not silently.
   Every MAC loop, nest and pointwise loop of Operators.all and
   kernels/helmholtz.cfd at p = 4 fuses in unchecked code, probed or
   not, and none in checked or debug code. *)
let test_fused_operators () =
  let helmholtz =
    let source = read_file (Filename.concat (kernels_dir ()) "helmholtz.cfd") in
    fun options ->
      (compile_source_exn ~options source).Cfd_core.Compile.proc
  in
  List.iter
    (fun (name, compile) ->
      let default = shapes (compile Cfd_core.Compile.default_options) in
      Alcotest.(check int)
        (name ^ ": every MAC loop is a reduction nest at default options")
        default.mac_loops default.nests;
      for bits = 0 to 63 do
        let proc = compile (options_of_bits bits) in
        let what = Printf.sprintf "%s p=4 options=%02x" name bits in
        let r = shapes proc in
        Alcotest.(check int) (what ^ ": every MAC is a loop's whole body") r.macs
          r.mac_loops;
        Alcotest.(check int)
          (what ^ ": every loop of one store is a pointwise loop")
          r.store_loops r.pointwise;
        if bits land 0x01 = 1 then
          Alcotest.(check bool) (what ^ ": MAC loops iff a contraction")
            (name <> "mass") (r.mac_loops > 0);
        Alcotest.(check int) (what ^ ": unchecked fuses them all")
          (expected_fused r) (fused_loops Compiled.Unchecked proc);
        Alcotest.(check int) (what ^ ": probed unchecked fuses them all")
          (expected_fused r)
          (fused_loops ~probe:silent_probe Compiled.Unchecked proc);
        List.iter
          (fun (mode, probe, leg) ->
            Alcotest.(check int) (what ^ ": " ^ leg ^ " fuses none") 0
              (fused_loops ?probe mode proc))
          [
            (Compiled.Checked, None, "checked");
            (Compiled.Debug, None, "debug");
            (Compiled.Checked, Some silent_probe, "probed checked");
          ]
      done)
    (List.map
       (fun (name, ast) ->
         ( name,
           fun options ->
             (Cfd_core.Compile.compile ~options ast).Cfd_core.Compile.proc ))
       (Cfdlang.Operators.all ~p:4 ())
    @ [ ("helmholtz.cfd", helmholtz) ])

(* The random procs reach every fused shape, and enough of those with a
   reduction are licensed for the differential property to run them
   unchecked. *)
let test_random_procs_reach_fused () =
  let specs = QCheck.Gen.generate ~rand:(Test_seed.rand ()) ~n:300 gen_spec in
  let with_macs, licensed, nests, tails, pointwise =
    List.fold_left
      (fun (m, l, n, t, p) spec ->
        let r = shapes spec.proc in
        Alcotest.(check int) "unchecked fuses every fused shape"
          (expected_fused r)
          (fused_loops Compiled.Unchecked spec.proc);
        let p = p + r.pointwise in
        if r.mac_loops = 0 then (m, l, n, t, p)
        else
          let lic = Analysis.Verify.execution_mode spec.proc = Compiled.Unchecked in
          ( m + 1,
            (if lic then l + 1 else l),
            n + r.nests,
            t + r.mac_loops - r.nests,
            p ))
      (0, 0, 0, 0, 0) specs
  in
  let share = float_of_int licensed /. float_of_int (max 1 with_macs) in
  if
    with_macs < 75 || nests < 50 || tails < 20 || pointwise < 100 || share < 0.8
  then
    Alcotest.failf
      "random procs: %d of 300 with a MAC loop (floor 75), %d nests (floor \
       50), %d MAC loops outside a nest (floor 20), %d pointwise loops \
       (floor 100), %.0f%% licensed unchecked (floor 80%%)"
      with_macs nests tails pointwise (100. *. share)

(* Runs of fused loops that have an iteration, by shape: the events an
   unchecked probed run fires. A nest's MAC loop fires none of its own. *)
type runs = { mac_runs : int; nest_runs : int; pointwise_runs : int }

let no_runs = { mac_runs = 0; nest_runs = 0; pointwise_runs = 0 }

let fused_runs (proc : Prog.proc) =
  let rec walk outer r = function
    | Prog.For l -> (
        let trips = max 0 (l.Prog.hi - l.Prog.lo) in
        let runs = if trips > 0 then outer else 0 in
        match shape l with
        | Mac_loop -> { r with mac_runs = r.mac_runs + runs }
        | Nest -> { r with nest_runs = r.nest_runs + runs }
        | Pointwise -> { r with pointwise_runs = r.pointwise_runs + runs }
        | Generic -> List.fold_left (walk (outer * trips)) r l.Prog.body)
    | _ -> r
  in
  List.fold_left (walk 1) no_runs proc.Prog.body

(* A hand-built edge case: the loops an unchecked compile fuses, and the
   events an unchecked probed run fires. *)
type edge = { what : string; proc : Prog.proc; fused : int; runs : runs }

let ix terms c = Ix.of_terms terms c
let loop var lo hi body = Prog.For { var; lo; hi; pragmas = []; body }
let store array index value = Prog.Store { array; index; value }

let edge_proc name body =
  {
    Prog.name;
    params =
      [
        { Prog.name = "a"; size = 16; dir = Prog.In };
        { Prog.name = "b"; size = 16; dir = Prog.In };
        { Prog.name = "c"; size = 16; dir = Prog.Out };
      ];
    locals = [];
    body;
  }

let cross l f = List.concat_map f l

(* The reduction nest's edges:
     s = 0.1;
     for i in [olo, olo + outer) {
       s = 0.7;
       for k in [ilo, ilo + inner) { s += a[4i + k] * y[k + 1]; }
       c[i] = s;
       (c[8 + i] = a[i] * s;)      -- a pointwise tail: no reduction nest
     }
     c[15] = s;                     -- reads the accumulator written back
   at each pair of lower bounds in {0, 1} (the nest's entry offsets take
   the outer bound times the outer stride and the inner bound times the
   inner stride, so the two must differ somewhere) and 0 to 3 trips of
   each loop; [a]'s index may drop [k] (a stride of 0), and [y] is [b],
   [a] itself (one instance reads one buffer twice) or the output [c]
   (a read sees the earlier iterations' stores). [Prog.validate] refuses an empty loop, but the engines run
   it as the walk does, and it fires no event. Tenths round, so a sum in
   another order shows. *)
let nest_edges () =
  cross [ 0; 1 ] @@ fun olo ->
  cross [ 0; 1 ] @@ fun ilo ->
  cross [ 0; 1; 2; 3 ] @@ fun outer ->
  cross [ 0; 1; 2; 3 ] @@ fun inner ->
  cross [ true; false ] @@ fun stride ->
  cross [ "b"; "a"; "c" ] @@ fun y ->
  List.map
    (fun tail ->
      let mac =
        Prog.Acc_scalar
          {
            name = "s";
            value =
              Prog.Mul
                ( Prog.Load
                    ("a", ix ((4, "i") :: (if stride then [ (1, "k") ] else [])) 0),
                  Prog.Load (y, ix [ (1, "k") ] 1) );
          }
      in
      let tail_store =
        if tail then
          [
            store "c" (ix [ (1, "i") ] 8)
              (Prog.Mul (Prog.Load ("a", ix [ (1, "i") ] 0), Prog.Scalar "s"));
          ]
        else []
      in
      let runs = if outer > 0 then 1 else 0 in
      {
        what =
          Printf.sprintf "nest i from %d x%d, k from %d x%d, stride %d, a * %s%s"
            olo outer ilo inner
            (if stride then 1 else 0)
            y
            (if tail then ", pointwise tail" else "");
        proc =
          edge_proc "nest_edges"
            [
              Prog.Set_scalar { name = "s"; value = Prog.Const 0.1 };
              loop "i" olo (olo + outer)
                ([
                   Prog.Set_scalar { name = "s"; value = Prog.Const 0.7 };
                   loop "k" ilo (ilo + inner) [ mac ];
                   store "c" (ix [ (1, "i") ] 0) (Prog.Scalar "s");
                 ]
                @ tail_store);
              store "c" (Ix.const 15) (Prog.Scalar "s");
            ];
        fused = (if tail then 1 else 2);
        runs =
          (if tail then
             { no_runs with mac_runs = (if inner > 0 then outer else 0) }
           else { no_runs with nest_runs = runs });
      })
    [ false; true ]

(* The pointwise loop's edges:
     for j in [0, 2) {
       for i in [lo, lo + trips) { c[4j + i + 1] = x op y; }
     }
   at lo 0 and 1, 0 to 3 trips and each operator, where x is a[2i + j]
   or, with stride 0, a[3], and y is b[i + j], x itself, or the output
   c[4j + i] (so that each point reads the previous point's store, as
   laplacian's [plm2[..] = plm1[..] + plm2[.. + 27]] reads its own
   output). *)
let pointwise_edges () =
  cross [ 0; 1 ] @@ fun lo ->
  cross [ 0; 1; 2; 3 ] @@ fun trips ->
  cross [ true; false ] @@ fun stride ->
  cross [ "b"; "x"; "c" ] @@ fun y ->
  List.map
    (fun (op_name, op) ->
      let x =
        Prog.Load
          ("a", if stride then ix [ (2, "i"); (1, "j") ] 0 else Ix.const 3)
      in
      let y_load =
        match y with
        | "b" -> Prog.Load ("b", ix [ (1, "i"); (1, "j") ] 0)
        | "x" -> x
        | _ -> Prog.Load ("c", ix [ (4, "j"); (1, "i") ] 0)
      in
      {
        what =
          Printf.sprintf "pointwise i from %d x%d, stride %d, x %s %s" lo trips
            (if stride then 1 else 0)
            op_name y;
        proc =
          edge_proc "pointwise_edges"
            [
              loop "j" 0 2
                [
                  loop "i" lo (lo + trips)
                    [ store "c" (ix [ (4, "j"); (1, "i") ] 1) (op x y_load) ];
                ];
            ];
        fused = 1;
        runs = { no_runs with pointwise_runs = (if trips > 0 then 2 else 0) };
      })
    [
      ("+", fun x y -> Prog.Add (x, y));
      ("-", fun x y -> Prog.Sub (x, y));
      ("*", fun x y -> Prog.Mul (x, y));
      ("/", fun x y -> Prog.Div (x, y));
    ]

let edge_inputs (proc : Prog.proc) =
  List.map
    (fun (p : Prog.param) ->
      ( p.Prog.name,
        Array.init p.Prog.size (fun i -> float_of_int ((i * 7 mod 23) + 1) /. 10.)
      ))
    proc.Prog.params

let rec has_empty_loop = function
  | Prog.For l -> l.Prog.hi <= l.Prog.lo || List.exists has_empty_loop l.Prog.body
  | _ -> false

(* Each edge licensed unchecked, fused as its shape says and run
   against the interpreter. An empty loop's [bounds-empty-loop] is a
   warning, which does not refuse the license: its body never runs. *)
let check_fused_edges edges =
  List.iter
    (fun { what; proc; fused; _ } ->
      if not (List.exists has_empty_loop proc.Prog.body) then Prog.validate proc;
      Alcotest.(check bool) (what ^ ": licensed") true
        (Analysis.Verify.execution_mode proc = Compiled.Unchecked);
      Alcotest.(check int) (what ^ ": fused loops") fused
        (fused_loops Compiled.Unchecked proc);
      check_differential ~what proc (edge_inputs proc))
    edges

let test_fused_edges () = check_fused_edges (nest_edges ())
let test_fused_pointwise_edges () = check_fused_edges (pointwise_edges ())

(* Fails if an unchecked run of [proc] allocates more than 100 minor
   words, over 100 runs after a first one. *)
let check_run_allocation ~what proc =
  Alcotest.(check bool) (what ^ ": licensed") true
    (Analysis.Verify.execution_mode proc = Compiled.Unchecked);
  let t = Compiled.compile ~mode:Compiled.Unchecked proc in
  let fr = Compiled.make_frame t in
  Compiled.run t fr;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Compiled.run t fr
  done;
  let words = (Gc.minor_words () -. before) /. 100. in
  if words > 100. then
    Alcotest.failf "%s: %.0f minor words per run (at most 100)" what words

(* Under default options no kernel allocates per run beyond a few words
   of bookkeeping: no fused loop boxes a float. *)
let test_fused_allocation () =
  List.iter
    (fun (what, (r : Cfd_core.Compile.result)) ->
      check_run_allocation ~what r.Cfd_core.Compile.proc)
    (List.map
       (fun (name, ast) -> (name ^ " p=11", Cfd_core.Compile.compile ast))
       (Cfdlang.Operators.all ~p:11 ())
    @ List.map
        (fun f ->
          (f, compile_source_exn (read_file (Filename.concat (kernels_dir ()) f))))
        (kernel_files ()))

(* Nor does recording: once the first run has made an engine's recorder
   state, a recorded run's events allocate nothing. *)
let test_recorded_allocation () =
  List.iter
    (fun (name, ast) ->
      let proc = (Cfd_core.Compile.compile ast).Cfd_core.Compile.proc in
      Memprof.Record.enable ();
      Fun.protect ~finally:Memprof.Record.disable (fun () ->
          check_run_allocation ~what:(name ^ " p=11, recorded") proc);
      Alcotest.(check bool) (name ^ ": recorded") true
        ((Memprof.Record.snapshot ()).Memprof.Record.sn_accesses > 0))
    (Cfdlang.Operators.all ~p:11 ())

(* ------------------------------------------------------------------ *)
(* The verifier license                                                *)
(* ------------------------------------------------------------------ *)

let clean_proc =
  {
    Prog.name = "clean";
    params = [ { Prog.name = "x"; size = 4; dir = Prog.Out } ];
    locals = [];
    body =
      [
        Prog.For
          {
            var = "i";
            lo = 0;
            hi = 4;
            pragmas = [];
            body =
              [
                Prog.Store
                  { array = "x"; index = Ix.var "i"; value = Prog.Const 1. };
              ];
          };
      ];
  }

let oob_proc =
  {
    clean_proc with
    Prog.name = "oob";
    body =
      [
        Prog.For
          {
            var = "i";
            lo = 0;
            hi = 5;
            pragmas = [];
            body =
              [
                Prog.Store
                  { array = "x"; index = Ix.var "i"; value = Prog.Const 1. };
              ];
          };
      ];
  }

let test_license_refused_on_bounds () =
  Alcotest.(check bool) "clean proc is licensed unchecked" true
    (Analysis.Verify.execution_mode clean_proc = Compiled.Unchecked);
  Alcotest.(check bool) "out-of-bounds proc falls back to checked" true
    (Analysis.Verify.execution_mode oob_proc = Compiled.Checked);
  (* And the checked fallback agrees with the interpreter that the
     program is wrong. *)
  (match run_compiled ~mode:Compiled.Checked oob_proc [] with
  | Failed _ -> ()
  | Ran _ -> Alcotest.fail "checked run accepted an out-of-bounds store");
  match run_interp oob_proc [] with
  | Failed _ -> ()
  | Ran _ -> Alcotest.fail "interpreter accepted an out-of-bounds store"

let test_debug_env_forces_debug () =
  Unix.putenv "CFD_EXEC_DEBUG" "1";
  let mode = Analysis.Verify.execution_mode clean_proc in
  Unix.putenv "CFD_EXEC_DEBUG" "0";
  Alcotest.(check bool) "CFD_EXEC_DEBUG forces debug mode" true
    (mode = Compiled.Debug);
  Alcotest.(check bool) "CFD_EXEC_DEBUG=0 restores the license" true
    (Analysis.Verify.execution_mode clean_proc = Compiled.Unchecked)

(* The license the shipped kernels earn, pinned: every operator of the
   suite, compiled with default options at p = 4 and p = 11, verifies
   clean enough to run unchecked. *)
let test_license_operators () =
  List.iter
    (fun p ->
      List.iter
        (fun (name, program) ->
          let r = Cfd_core.Compile.compile program in
          Alcotest.(check bool)
            (Printf.sprintf "%s at p = %d runs unchecked" name p)
            true
            (Analysis.Verify.execution_mode r.Cfd_core.Compile.proc
            = Compiled.Unchecked))
        (Cfdlang.Operators.all ~p ()))
    [ 4; 11 ]

(* ------------------------------------------------------------------ *)
(* Persistent work pool                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_persistent_matches_map () =
  let items = List.init 100 Fun.id in
  let f i = if i mod 9 = 5 then failwith "boom" else (i * i) - 7 in
  let expected = Parallel.Pool.map ~jobs:1 f items in
  List.iter
    (fun jobs ->
      Parallel.Pool.with_pool ~jobs (fun pool ->
          (* Several batches through one pool: domains are reused, and
             each batch must still come back in input order. *)
          for _ = 1 to 3 do
            let got = Parallel.Pool.run pool f items in
            Alcotest.(check bool)
              (Printf.sprintf "pool run at %d jobs = sequential map" jobs)
              true
              (List.map2
                 (fun g e ->
                   match (g, e) with
                   | Ok a, Ok b -> a = b
                   | Error (ge : Parallel.Pool.error), Error ee ->
                       ge.Parallel.Pool.index = ee.Parallel.Pool.index
                   | _ -> false)
                 got expected
              |> List.for_all Fun.id)
          done))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Functional simulation: jobs plumbing                                *)
(* ------------------------------------------------------------------ *)

let small_system () =
  let r =
    Cfd_core.Compile.compile (Cfdlang.Ast.inverse_helmholtz ~p:3 ())
  in
  (r, Cfd_core.Compile.build_system ~force_k:2 ~force_m:4 ~n_elements:8 r)

let sim_inputs (sys : Sysgen.System.t) =
  let rand = Test_seed.rand () in
  let names =
    List.map
      (fun (tr : Sysgen.System.transfer) ->
        (tr.Sysgen.System.array, tr.Sysgen.System.bytes / 8))
      sys.Sysgen.System.host.Sysgen.System.per_element_in
  in
  let per_element =
    Array.init 8 (fun _ ->
        List.map (fun (n, size) -> (n, random_array rand size)) names)
  in
  fun e -> per_element.(e)

let test_functional_jobs_rejected () =
  let r, sys = small_system () in
  match
    Sim.Functional.run ~jobs:0 ~system:sys ~proc:r.Cfd_core.Compile.proc
      ~inputs:(sim_inputs sys) ~n:8 ()
  with
  | _ -> Alcotest.fail "expected Error on jobs:0"
  | exception Sim.Functional.Error m ->
      Alcotest.(check bool) "error names jobs" true
        (String.length m >= 4 && String.sub m 0 4 = "jobs")

let test_functional_jobs_equivalent () =
  let r, sys = small_system () in
  let inputs = sim_inputs sys in
  let run jobs =
    Sim.Functional.run ~jobs ~system:sys ~proc:r.Cfd_core.Compile.proc ~inputs
      ~n:7 (* padded tail: 7 elements across two 4-slot blocks *) ()
  in
  let seq = run 1 in
  List.iter
    (fun jobs ->
      let par = run jobs in
      Alcotest.(check int) "same element count" (Array.length seq)
        (Array.length par);
      Array.iteri
        (fun e bindings ->
          if not (buffers_identical bindings par.(e)) then
            Alcotest.failf "element %d differs between jobs:1 and jobs:%d" e
              jobs)
        seq)
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* The probe contract, against a tree walk of the proc                 *)
(* ------------------------------------------------------------------ *)

type probe_event =
  | Site of int * string list  (** compile time: site, enclosing loops *)
  | Instance of int * int list  (** site, enclosing loop values *)
  | Access of int * string * int * bool  (** site, array, index, write *)

let event_string = function
  | Site (s, vars) -> Printf.sprintf "site %d (%s)" s (String.concat "," vars)
  | Instance (s, values) ->
      Printf.sprintf "instance %d (%s)" s
        (String.concat "," (List.map string_of_int values))
  | Access (s, a, i, w) ->
      Printf.sprintf "%s %s[%d] at site %d" (if w then "write" else "read") a i s

type walk_node = Loop of Prog.loop * walk_node list | Leaf of int * string list * Prog.stmt

(* What a probe must see for [proc]: every leaf as a site, numbered in
   pre-order with its enclosing loop variables; then, per leaf
   execution, its instance with the enclosing loop values, its reads left
   to right and its write. *)
let walk_events (proc : Prog.proc) =
  let events = ref [] and next = ref 0 in
  let emit e = events := e :: !events in
  let rec annotate vars stmts =
    List.rev (List.fold_left (fun acc s -> node vars s :: acc) [] stmts)
  and node vars = function
    | Prog.For l -> Loop (l, annotate (vars @ [ l.Prog.var ]) l.Prog.body)
    | leaf ->
        let site = !next in
        incr next;
        emit (Site (site, vars));
        Leaf (site, vars, leaf)
  in
  let tree = annotate [] proc.Prog.body in
  let rec exec env = function
    | Loop (l, body) ->
        for i = l.Prog.lo to l.Prog.hi - 1 do
          List.iter (exec ((l.Prog.var, i) :: env)) body
        done
    | Leaf (site, vars, stmt) -> (
        let value v = List.assoc v env in
        emit (Instance (site, List.map value vars));
        let rec reads = function
          | Prog.Const _ | Prog.Scalar _ -> ()
          | Prog.Load (a, ix) -> emit (Access (site, a, Ix.eval ix value, false))
          | Prog.Add (x, y) | Prog.Sub (x, y) | Prog.Mul (x, y) | Prog.Div (x, y)
            ->
              reads x;
              reads y
        in
        match stmt with
        | Prog.Store { array; index; value = e } | Prog.Accum { array; index; value = e }
          ->
            reads e;
            emit (Access (site, array, Ix.eval index value, true))
        | Prog.Set_scalar { value = e; _ } | Prog.Acc_scalar { value = e; _ } ->
            reads e
        | Prog.For _ -> assert false)
  in
  List.iter (exec []) tree;
  List.rev !events

(* [p], with each fused-loop event expanded into the instance and access
   events it stands for and counted in [runs]. The depth of each site
   comes from its [on_site]; the fused loops' own values are the leaves'
   last (a nest's init and spill: the last; its MAC: the last two). *)
let expanding ?(runs = ref no_runs) (p : Compiled.probe) =
  let depth = Hashtbl.create 16 in
  (* the enclosing loop values of the leaf at [site], the fused loop's
     own left to fill: [extra] of them *)
  let enclosing ~site ~values extra =
    let d = Hashtbl.find depth site - 1 in
    let v = Array.make (d + extra) 0 in
    Array.blit values 0 v 0 d;
    (v, d)
  in
  {
    p with
    Compiled.on_site =
      (fun ~site ~vars ~stmt ->
        Hashtbl.replace depth site (Array.length vars);
        p.on_site ~site ~vars ~stmt);
    on_mac =
      (fun ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy ~dy ->
        runs := { !runs with mac_runs = !runs.mac_runs + 1 };
        let v, d = enclosing ~site ~values 1 in
        for t = 0 to count - 1 do
          v.(d) <- lo + t;
          p.on_instance ~site ~values:v;
          p.on_access ~site ~slot:x ~index:(ix + (t * dx)) ~write:false;
          p.on_access ~site ~slot:y ~index:(iy + (t * dy)) ~write:false
        done);
    on_nest =
      (fun ~site ~values ~lo ~count ~mac_lo ~mac_count ~x ~ix ~ox ~dx ~y ~iy
           ~oy ~dy ~a ~ia ~oa ->
        runs := { !runs with nest_runs = !runs.nest_runs + 1 };
        let v, d = enclosing ~site ~values 2 in
        let mac = site + 1 and spill = site + 2 in
        for t = 0 to count - 1 do
          v.(d) <- lo + t;
          p.on_instance ~site ~values:v;
          for u = 0 to mac_count - 1 do
            v.(d + 1) <- mac_lo + u;
            p.on_instance ~site:mac ~values:v;
            p.on_access ~site:mac ~slot:x
              ~index:(ix + (t * ox) + (u * dx))
              ~write:false;
            p.on_access ~site:mac ~slot:y
              ~index:(iy + (t * oy) + (u * dy))
              ~write:false
          done;
          p.on_instance ~site:spill ~values:v;
          p.on_access ~site:spill ~slot:a ~index:(ia + (t * oa)) ~write:true
        done);
    on_pointwise =
      (fun ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy ~dy ~a ~ia ~da ->
        runs := { !runs with pointwise_runs = !runs.pointwise_runs + 1 };
        let v, d = enclosing ~site ~values 1 in
        for t = 0 to count - 1 do
          v.(d) <- lo + t;
          p.on_instance ~site ~values:v;
          p.on_access ~site ~slot:x ~index:(ix + (t * dx)) ~write:false;
          p.on_access ~site ~slot:y ~index:(iy + (t * dy)) ~write:false;
          p.on_access ~site ~slot:a ~index:(ia + (t * da)) ~write:true
        done);
  }

(* The events a recording probe sees over one run on [inputs], with
   each fused-loop event expanded, the parameter buffers the run leaves,
   and the fused-loop events by shape: the array comes from the slot
   map, and the loop values are the first [depth] entries of the
   frame's array. *)
let probe_run ~mode ~inputs (proc : Prog.proc) =
  let names = Array.map fst (Compiled.array_slots proc) in
  let depth = Hashtbl.create 16 and events = ref [] and runs = ref no_runs in
  let emit e = events := e :: !events in
  let probe =
    expanding ~runs
      (per_instance
         ~on_site:(fun ~site ~vars ~stmt:_ ->
           Hashtbl.replace depth site (Array.length vars);
           emit (Site (site, Array.to_list vars)))
         ~on_instance:(fun ~site ~values ->
           emit
             (Instance
                (site, Array.to_list (Array.sub values 0 (Hashtbl.find depth site)))))
         ~on_access:(fun ~site ~slot ~index ~write ->
           emit (Access (site, names.(slot), index, write))))
  in
  let t = Compiled.compile ~mode ~probe proc in
  let fr = Compiled.make_frame t in
  List.iter
    (fun (name, src) ->
      Array.blit src 0 (Compiled.buffer t fr name) 0 (Array.length src))
    inputs;
  Compiled.run t fr;
  ( List.rev !events,
    List.map
      (fun (p : Prog.param) -> (p.Prog.name, Compiled.buffer t fr p.Prog.name))
      proc.Prog.params,
    !runs )

(* The probe contract: in each mode the probe sees the tree walk's
   events, with each fused-loop event expanded, and the probed run
   leaves the same parameter bits as an unprobed engine in that mode. An
   unchecked run reports each run of a fused loop as one event ([runs],
   by default one per run of a walk's fused loop that has an iteration),
   a checked run none. Every parameter starts from non-zero data, so a
   probed store that lost its accumulate shows. *)
let check_probe_contract ?runs ~what proc =
  let expected = walk_events proc in
  let inputs = edge_inputs proc in
  let unchecked_runs = Option.value runs ~default:(fused_runs proc) in
  List.iter
    (fun (mode, mode_name) ->
      let got, buffers, runs = probe_run ~mode ~inputs proc in
      let want = if mode = Compiled.Unchecked then unchecked_runs else no_runs in
      List.iter
        (fun (shape, want, got) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s %s events" what mode_name shape)
            want got)
        [
          ("MAC", want.mac_runs, runs.mac_runs);
          ("nest", want.nest_runs, runs.nest_runs);
          ("pointwise", want.pointwise_runs, runs.pointwise_runs);
        ];
      let rec first_diff i = function
        | e :: es, g :: gs ->
            if e = g then first_diff (i + 1) (es, gs)
            else
              Alcotest.failf "%s: event %d: expected %s, probe saw %s" what i
                (event_string e) (event_string g)
        | [], [] -> ()
        | e :: _, [] ->
            Alcotest.failf "%s: probe stopped at event %d, expected %s" what i
              (event_string e)
        | [], g :: _ ->
            Alcotest.failf "%s: probe saw extra event %d: %s" what i
              (event_string g)
      in
      first_diff 0 (expected, got);
      if not (buffers_identical buffers (Compiled.run_fresh ~mode proc ~inputs))
      then
        Alcotest.failf "%s: %s probed run differs from the unprobed engine"
          what mode_name)
    [ (Compiled.Checked, "checked"); (Compiled.Unchecked, "unchecked") ]

let test_probe_operators () =
  List.iter
    (fun (name, ast) ->
      let r = Cfd_core.Compile.compile ast in
      check_probe_contract ~what:(name ^ " p=4") r.Cfd_core.Compile.proc)
    (Cfdlang.Operators.all ~p:4 ())

(* Shallow leaves after deeper sibling nests: the frame's loop-value
   array still holds the deeper loops' last values beyond the shallow
   leaf's depth, and an engine that stored a loop's value anywhere but
   at its depth would hand the probe one of those stale values. *)
let test_probe_hand_built_nests () =
  let ix terms c = Ix.of_terms terms c in
  let loop var lo hi body = Prog.For { var; lo; hi; pragmas = []; body } in
  let store array index value = Prog.Store { array; index; value } in
  let proc =
    {
      Prog.name = "nests";
      params =
        [
          { Prog.name = "x"; size = 64; dir = Prog.In };
          { Prog.name = "y"; size = 64; dir = Prog.Out };
        ];
      locals = [ ("t", 64) ];
      body =
        [
          loop "i" 0 3
            [
              loop "j" 1 4
                [
                  loop "k" 0 2
                    [
                      store "t"
                        (ix [ (16, "i"); (4, "j"); (1, "k") ] 0)
                        (Prog.Load ("x", ix [ (4, "j"); (1, "k") ] 0));
                    ];
                ];
              Prog.Accum
                {
                  array = "y";
                  index = ix [ (1, "i") ] 0;
                  value = Prog.Load ("t", ix [ (16, "i") ] 5);
                };
              loop "m" 2 5
                [
                  Prog.Set_scalar
                    { name = "s"; value = Prog.Load ("x", ix [ (2, "i") ] 1) };
                  store "y"
                    (ix [ (1, "m") ] 8)
                    (Prog.Add
                       (Prog.Load ("t", ix [ (1, "m") ] 0), Prog.Scalar "s"));
                ];
            ];
          loop "n" 1 3
            [
              Prog.Acc_scalar
                {
                  name = "s";
                  value =
                    Prog.Mul
                      ( Prog.Load ("t", ix [ (1, "n") ] 40),
                        Prog.Load ("x", ix [ (3, "n") ] 0) );
                };
            ];
          store "y" (Ix.const 63) (Prog.Scalar "s");
        ];
    }
  in
  Prog.validate proc;
  check_probe_contract ~what:"hand-built nests" proc

let check_probe_edges edges =
  List.iter
    (fun { what; proc; runs; _ } -> check_probe_contract ~runs ~what proc)
    edges

let test_probe_nest_edges () = check_probe_edges (nest_edges ())
let test_probe_pointwise_edges () = check_probe_edges (pointwise_edges ())

let qcheck_probe_random_procs =
  QCheck.Test.make ~name:"probe events = tree walk on random procs" ~count:200
    arb_spec
    (fun spec ->
      (* out-of-range accesses end the run before their event; the walk
         has no such notion, so only procs that run clean are compared *)
      match Interp.run_fresh spec.proc ~inputs:spec.inputs with
      | _ ->
          check_probe_contract ~what:"random proc" spec.proc;
          true
      | exception Interp.Error _ -> QCheck.assume_fail ())

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "compiled.differential",
      Test_seed.to_alcotest qcheck_random_procs
      :: case "full option matrix on p=3 inverse Helmholtz"
           test_option_matrix
      :: List.map
           (fun f -> case ("kernel " ^ f) (test_kernel f))
           (kernel_files ()) );
    ( "compiled.fused",
      [
        case "unchecked fuses every MAC, nest and pointwise loop: Operators.all x 64"
          test_fused_operators;
        case "random procs reach both fused reductions and pointwise loops"
          test_random_procs_reach_fused;
        case "edges: bounds, stride 0, output read, tail" test_fused_edges;
        case "pointwise edges: operators, stride 0, aliasing"
          test_fused_pointwise_edges;
        case "at most 100 minor words per run: every kernel"
          test_fused_allocation;
        case "recorded: at most 100 minor words per run, Operators.all"
          test_recorded_allocation;
      ] );
    ( "compiled.license",
      [
        case "bounds diagnostic refuses the unchecked fast path"
          test_license_refused_on_bounds;
        case "CFD_EXEC_DEBUG forces debug cross-checking"
          test_debug_env_forces_debug;
        case "Operators.all at p = 4 and 11 run unchecked"
          test_license_operators;
      ] );
    ( "compiled.pool",
      [ case "persistent pool = sequential map" test_pool_persistent_matches_map ] );
    ( "compiled.sim",
      [
        case "jobs:0 rejected" test_functional_jobs_rejected;
        case "jobs:N = jobs:1 on a padded-tail run"
          test_functional_jobs_equivalent;
      ] );
    ( "compiled.probe",
      [
        case "events = tree walk: Operators.all p=4" test_probe_operators;
        case "events = tree walk: shallow after deep" test_probe_hand_built_nests;
        (* runs [nest_edges], whose MAC loops sit in nests or beside a
           pointwise tail; the name is kept so that lists of test names stay
           comparable *)
        case "events = tree walk: MAC-loop edges" test_probe_nest_edges;
        Test_seed.to_alcotest qcheck_probe_random_procs;
        case "events = tree walk: pointwise-loop edges"
          test_probe_pointwise_edges;
      ] );
  ]
