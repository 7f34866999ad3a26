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

   Plus the fused reductions of unchecked code: a count that every MAC
   loop the flow emits is fused, and their edges against the interpreter.
   Plus unit tests for the verifier license itself (an out-of-bounds
   proc must be refused the unchecked fast path), the CFD_EXEC_DEBUG
   escape hatch, the persistent work pool, the [~jobs] plumbing of the
   functional simulator, and the memory probe's event stream against a
   tree walk of the proc, with the probed run's buffers against an
   unprobed run's.

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
      frequency
        ([ (4, write); (2, set) ]
        @ (if scalars = [] then [] else [ (2, acc) ])
        @ (if free = [] || depth >= 3 then [] else [ (4, forloop) ])
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
(* Fused reductions                                                    *)
(* ------------------------------------------------------------------ *)

(* What a walk of the proc finds of the reductions an unchecked compile
   fuses: [macs] leaves [s += x[..] * y[..]]; [mac_loops] loops whose
   whole body is one of them; [nests] loops whose body is exactly
   [s = c; <a MAC loop on s>; a[..] = s]. *)
type reductions = { macs : int; mac_loops : int; nests : int }

let is_mac = function
  | Prog.Acc_scalar { value = Prog.Mul (Prog.Load _, Prog.Load _); _ } -> true
  | _ -> false

let reductions (proc : Prog.proc) =
  let rec walk r = function
    | Prog.For { body; _ } ->
        let r =
          match body with
          | [ m ] when is_mac m -> { r with mac_loops = r.mac_loops + 1 }
          | [
           Prog.Set_scalar { name; value = Prog.Const _ };
           Prog.For { body = [ (Prog.Acc_scalar { name = s; _ } as m) ]; _ };
           Prog.Store { value = Prog.Scalar s'; _ };
          ]
            when is_mac m && s = name && s' = name ->
              { r with nests = r.nests + 1 }
          | _ -> r
        in
        List.fold_left walk r body
    | leaf -> if is_mac leaf then { r with macs = r.macs + 1 } else r
  in
  List.fold_left walk { macs = 0; mac_loops = 0; nests = 0 } proc.Prog.body

(* A MAC loop runs as one fused loop, a nest as two. *)
let expected_fused r = r.mac_loops + r.nests
let c_fused = Obs.Metrics.counter "exec.fused_loops"

let fused_loops ?probe mode proc =
  let before = Obs.Metrics.counter_value c_fused in
  ignore (Compiled.compile ~mode ?probe proc);
  Obs.Metrics.counter_value c_fused - before

let silent_probe =
  {
    Compiled.on_site = (fun ~site:_ ~vars:_ ~stmt:_ -> ());
    on_instance = (fun ~site:_ ~values:_ -> ());
    on_access = (fun ~site:_ ~slot:_ ~index:_ ~write:_ -> ());
  }

(* The fast path has a count: a change in the shape the flow emits that
   put [sim] back on the generic closures fails here, not silently. *)
let test_fused_operators () =
  List.iter
    (fun (name, ast) ->
      let default = reductions (Cfd_core.Compile.compile ast).Cfd_core.Compile.proc in
      Alcotest.(check int)
        (name ^ ": every MAC loop is a reduction nest at default options")
        default.mac_loops default.nests;
      for bits = 0 to 63 do
        let proc =
          (Cfd_core.Compile.compile ~options:(options_of_bits bits) ast)
            .Cfd_core.Compile.proc
        in
        let what = Printf.sprintf "%s p=4 options=%02x" name bits in
        let r = reductions proc in
        Alcotest.(check int) (what ^ ": every MAC is a loop's whole body") r.macs
          r.mac_loops;
        if bits land 0x01 = 1 then
          Alcotest.(check bool) (what ^ ": MAC loops iff a contraction")
            (name <> "mass") (r.mac_loops > 0);
        Alcotest.(check int) (what ^ ": unchecked fuses them all")
          (expected_fused r) (fused_loops Compiled.Unchecked proc);
        List.iter
          (fun (mode, probe, leg) ->
            Alcotest.(check int) (what ^ ": " ^ leg ^ " fuses none") 0
              (fused_loops ?probe mode proc))
          [
            (Compiled.Checked, None, "checked");
            (Compiled.Debug, None, "debug");
            (Compiled.Unchecked, Some silent_probe, "probed");
          ]
      done)
    (Cfdlang.Operators.all ~p:4 ())

(* The random procs reach both fused shapes, and enough of them are
   licensed for the differential property to run them unchecked. *)
let test_random_procs_reach_fused () =
  let specs = QCheck.Gen.generate ~rand:(Test_seed.rand ()) ~n:300 gen_spec in
  let with_macs, licensed, nests, tails =
    List.fold_left
      (fun (m, l, n, t) spec ->
        let r = reductions spec.proc in
        Alcotest.(check int) "unchecked fuses every MAC loop" (expected_fused r)
          (fused_loops Compiled.Unchecked spec.proc);
        if r.mac_loops = 0 then (m, l, n, t)
        else
          let lic = Analysis.Verify.execution_mode spec.proc = Compiled.Unchecked in
          (m + 1, (if lic then l + 1 else l), n + r.nests, t + r.mac_loops - r.nests))
      (0, 0, 0, 0) specs
  in
  let share = float_of_int licensed /. float_of_int (max 1 with_macs) in
  if with_macs < 75 || nests < 50 || tails < 20 || share < 0.8 then
    Alcotest.failf
      "random procs: %d of 300 with a MAC loop (floor 75), %d nests (floor \
       50), %d MAC loops outside a nest (floor 20), %.0f%% licensed \
       unchecked (floor 80%%)"
      with_macs nests tails (100. *. share)

(* The edges of both shapes, each licensed and run unchecked:
     for i in [olo, olo + on) {
       s = 0.7;
       for k in [ilo, ilo + in) { s += a[4i + k] * c[k + 1]; }
       c[i] = s;
       (c[8 + i] = a[i] * s;)      -- the pointwise tail: only k is fused
     }
     c[15] = s;                     -- reads the accumulator written back
   [c] is both the output and a MAC operand, so a read sees the earlier
   iterations' stores; one variant drops [k] from [a]'s index, a stride
   of 0. Tenths round, so a sum in another order shows. *)
let test_fused_edges () =
  let ix terms c = Ix.of_terms terms c in
  let loop var lo hi body = Prog.For { var; lo; hi; pragmas = []; body } in
  let store array index value = Prog.Store { array; index; value } in
  let inputs =
    List.map
      (fun (n, k) -> (n, Array.init 16 (fun i -> float_of_int ((i * k) + 3) /. 10.)))
      [ ("a", 7); ("c", 5) ]
  in
  List.iter
    (fun (olo, on, ilo, inn, stride, tail) ->
      let mac =
        Prog.Acc_scalar
          {
            name = "s";
            value =
              Prog.Mul
                ( Prog.Load ("a", ix ((4, "i") :: (if stride then [ (1, "k") ] else [])) 0),
                  Prog.Load ("c", ix [ (1, "k") ] 1) );
          }
      in
      let body =
        [
          Prog.Set_scalar { name = "s"; value = Prog.Const 0.7 };
          loop "k" ilo (ilo + inn) [ mac ];
          store "c" (ix [ (1, "i") ] 0) (Prog.Scalar "s");
        ]
        @
        if tail then
          [
            store "c" (ix [ (1, "i") ] 8)
              (Prog.Mul (Prog.Load ("a", ix [ (1, "i") ] 0), Prog.Scalar "s"));
          ]
        else []
      in
      let proc =
        {
          Prog.name = "edges";
          params =
            [
              { Prog.name = "a"; size = 16; dir = Prog.In };
              { Prog.name = "c"; size = 16; dir = Prog.Out };
            ];
          locals = [];
          body =
            [
              loop "i" olo (olo + on) body;
              store "c" (Ix.const 15) (Prog.Scalar "s");
            ];
        }
      in
      let what =
        Printf.sprintf "i from %d x%d, k from %d x%d, stride %d%s" olo on ilo inn
          (if stride then 1 else 0)
          (if tail then ", pointwise tail" else "")
      in
      Prog.validate proc;
      Alcotest.(check bool) (what ^ ": licensed") true
        (Analysis.Verify.execution_mode proc = Compiled.Unchecked);
      Alcotest.(check int) (what ^ ": fused loops")
        (if tail then 1 else 2)
        (fused_loops Compiled.Unchecked proc);
      check_differential ~what proc inputs)
    (List.concat_map
       (fun olo ->
         List.concat_map
           (fun on ->
             List.concat_map
               (fun ilo ->
                 List.concat_map
                   (fun inn ->
                     List.concat_map
                       (fun stride ->
                         List.map
                           (fun tail -> (olo, on, ilo, inn, stride, tail))
                           [ false; true ])
                       [ true; false ])
                   [ 1; 2; 3 ])
               [ 0; 1 ])
           [ 1; 2; 3 ])
       [ 0; 1 ])

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

(* The events a recording probe sees over one run on [inputs], and the
   parameter buffers the run leaves: the array comes from the slot map,
   and the loop values are the first [depth] entries of the frame's
   array. *)
let probe_run ~mode ~inputs (proc : Prog.proc) =
  let names = Array.map fst (Compiled.array_slots proc) in
  let depth = Hashtbl.create 16 and events = ref [] in
  let emit e = events := e :: !events in
  let probe =
    {
      Compiled.on_site =
        (fun ~site ~vars ~stmt:_ ->
          Hashtbl.replace depth site (Array.length vars);
          emit (Site (site, Array.to_list vars)));
      on_instance =
        (fun ~site ~values ->
          emit
            (Instance
               (site, Array.to_list (Array.sub values 0 (Hashtbl.find depth site)))));
      on_access =
        (fun ~site ~slot ~index ~write ->
          emit (Access (site, names.(slot), index, write)));
    }
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
      proc.Prog.params )

(* The probe contract: in each mode the probe sees the tree walk's
   events, and the probed run leaves the same parameter bits as an
   unprobed engine in that mode. Every parameter starts from non-zero
   data, so a probed store that lost its accumulate shows. *)
let check_probe_contract ~what proc =
  let expected = walk_events proc in
  let inputs =
    List.map
      (fun (p : Prog.param) ->
        ( p.Prog.name,
          Array.init p.Prog.size (fun i ->
              float_of_int ((i * 7 mod 23) + 1) /. 8.) ))
      proc.Prog.params
  in
  List.iter
    (fun (mode, mode_name) ->
      let got, buffers = probe_run ~mode ~inputs proc in
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
        case "unchecked fuses every MAC loop: Operators.all x 64"
          test_fused_operators;
        case "random procs reach both fused shapes"
          test_random_procs_reach_fused;
        case "edges: bounds, stride 0, output read, tail" test_fused_edges;
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
        Test_seed.to_alcotest qcheck_probe_random_procs;
      ] );
  ]
