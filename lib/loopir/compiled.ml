(* Compiled execution engine for loop-nest programs.

   [Interp] is the reference semantics: a tree walk that hashes a name
   for every array, scalar and loop-variable access and re-evaluates
   every affine index from scratch in the innermost loop. That is the
   right shape for an oracle and exactly the wrong shape for the hot
   paths built on top of it (the compile-time differential check, the
   functional system simulation over tens of thousands of elements, and
   the SEM solver with the accelerator in the CG loop).

   This module performs a one-time compilation of a [Prog.proc] into a
   slot-resolved form executed against a preallocated {!frame}:

   - every array (parameter or local) becomes an integer slot into a
     [float array array]; every scalar becomes a slot into a flat
     [float array]; no [Hashtbl] is touched after [compile];
   - every syntactic array access gets a {e cursor} in an int frame. Its
     affine index [c0 + sum ci * vi] is decomposed at compile time into
     the loop-invariant base [c0] and one stride [ci] per enclosing
     loop; loops update the live cursors incrementally on every
     iteration (strength reduction) instead of re-evaluating the affine
     form, entering with [+ ci * lo] and restoring on exit so sibling
     and outer statements always observe consistent cursors;
   - in unchecked code, each loop the HLS kernel pipelines runs as one
     closure: a MAC loop [for k { s += x[..] * y[..] }], a whole
     reduction nest [for i { s = c; <MAC loop on s>; a[..] = s }], or a
     pointwise loop [for i { a[..] = x[..] op y[..] }], walks its
     cursors (and accumulator) in locals and boxes no float. Products
     and operands keep program order (see "Fused loops" below);
   - bounds checks are a compile-time mode, not a per-access cost: in
     [Unchecked] mode — which callers may select only on the license of
     the static verifier ([Analysis.Verify.bounds] proving every access
     in range, see [Analysis.Verify.execution_mode]) — loads and stores
     are unchecked array accesses; [Checked] keeps Interp-style dynamic
     checks; [Debug] additionally replays every run through [Interp] on
     a copy of the frame and insists on bit-identical parameter buffers;
   - a memory probe is a layer of the same compiler, not a second one:
     the same closures carry its events. A fused loop stays one closure
     under a probe and reports each run as one event ([on_mac],
     [on_nest] or [on_pointwise]) that stands for its instances and
     accesses.

   All mutable execution state lives in the frame, never in the
   compiled closures, so one compiled program can drive any number of
   frames concurrently from different domains. *)

exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type mode = Checked | Unchecked | Debug

(* Engine telemetry. Loop trip counts are compile-time constants, so the
   per-run statement and iteration totals ([Prog.run_totals]) are computed
   once by [compile] and flushed with a handful of counter adds per [run] —
   the compiled inner loops themselves carry no telemetry. *)
let c_runs = Obs.Metrics.counter "exec.runs"
let c_statements = Obs.Metrics.counter "exec.statements"
let c_iters_checked = Obs.Metrics.counter "exec.iterations.checked"
let c_iters_unchecked = Obs.Metrics.counter "exec.iterations.unchecked"
let c_mode_checked = Obs.Metrics.counter "exec.mode.checked"
let c_mode_unchecked = Obs.Metrics.counter "exec.mode.unchecked"
let c_mode_debug = Obs.Metrics.counter "exec.mode.debug"
let c_fused_loops = Obs.Metrics.counter "exec.fused_loops"

type frame = {
  bufs : float array array;  (* array slot -> buffer *)
  scal : float array;  (* scalar slot -> value *)
  cur : int array;  (* access cursor -> current linear index *)
  vars : int array;
      (* loop depth -> current iteration value of the enclosing loop at
         that depth; written only by probed loops *)
}

(* --- memory probe ------------------------------------------------------ *)

(* A probe observes the compiled program's dynamic memory behaviour:
   [on_site] fires once per leaf statement at compile time (sites are
   numbered in pre-order of the body, matching
   [Lower.Codegen.scalarized_with_provenance]); [on_instance] fires before
   each dynamic execution of a leaf with the frame's loop-value array,
   whose first [depth] entries are the enclosing loop values (outermost
   first, same order as [on_site]'s [vars]); [on_access] fires once per
   in-range array access of that instance, naming the array by its slot
   ([array_slots]) — reads in textual order, then the write. An
   accumulate reports one write (its read-modify port is implicit),
   mirroring the static reads+writes port accounting in
   [Mnemosyne.Memgen]. Each of the last three events stands for the
   instance and access events of one whole run of a fused loop ([lo] and
   [count] its first value and trip count, each access a slot, the
   entry index at the run's first instance, and a stride per loop):
   [on_mac] for a MAC loop's [count] instances, each reading [x] then
   [y]; [on_pointwise] for a pointwise loop's, each reading [x] and [y]
   and then writing [a]; [on_nest] for a reduction nest's [count] outer
   iterations, each the init's instance at [site], [mac_count] MAC
   instances at [site + 1] and the spill's write of [a] at [site + 2].
   The [ox], [oy] and [oa] strides step per outer iteration, [dx] and
   [dy] per MAC iteration. *)
type probe = {
  on_site : site:int -> vars:string array -> stmt:Prog.stmt -> unit;
  on_instance : site:int -> values:int array -> unit;
  on_access : site:int -> slot:int -> index:int -> write:bool -> unit;
  on_mac :
    site:int ->
    values:int array ->
    lo:int ->
    count:int ->
    x:int ->
    ix:int ->
    dx:int ->
    y:int ->
    iy:int ->
    dy:int ->
    unit;
  on_nest :
    site:int ->
    values:int array ->
    lo:int ->
    count:int ->
    mac_lo:int ->
    mac_count:int ->
    x:int ->
    ix:int ->
    ox:int ->
    dx:int ->
    y:int ->
    iy:int ->
    oy:int ->
    dy:int ->
    a:int ->
    ia:int ->
    oa:int ->
    unit;
  on_pointwise :
    site:int ->
    values:int array ->
    lo:int ->
    count:int ->
    x:int ->
    ix:int ->
    dx:int ->
    y:int ->
    iy:int ->
    dy:int ->
    a:int ->
    ia:int ->
    da:int ->
    unit;
}

(* The one-branch disabled gate, mirroring [Obs.Trace]: with no provider
   installed (the default), [compile] takes a single [Atomic.get] and
   produces exactly the closures it always produced — no instrumentation
   exists in the compiled program, so execution is bit-identical and
   records nothing. *)
let probe_provider : (Prog.proc -> probe option) option Atomic.t =
  Atomic.make None

let set_probe_provider p = Atomic.set probe_provider p

type array_info = { a_name : string; a_size : int; a_local : bool }

(* Array slots: parameters in declaration order, then locals. *)
let array_infos (proc : Prog.proc) =
  List.map
    (fun (p : Prog.param) ->
      { a_name = p.Prog.name; a_size = p.Prog.size; a_local = false })
    proc.Prog.params
  @ List.map
      (fun (n, size) -> { a_name = n; a_size = size; a_local = true })
      proc.Prog.locals

let array_slots proc =
  Array.of_list (List.map (fun a -> (a.a_name, a.a_size)) (array_infos proc))

type op = frame -> unit

type t = {
  proc : Prog.proc;
  mode : mode;
  arrays : array_info array;
  slots : (string, int) Hashtbl.t;
  n_scalars : int;
  n_cursors : int;
  base : int array;  (* cursor -> loop-invariant base index *)
  ops : op array;
  stmts_per_run : int;  (* leaf statements executed by one run *)
  iters_per_run : int;  (* loop iterations executed by one run *)
  n_vars : int;  (* loop nesting depth *)
  probed : bool;
}

(* ------------------------------------------------------------------ *)
(* Compilation state                                                   *)
(* ------------------------------------------------------------------ *)

type state = {
  st_slots : (string, int) Hashtbl.t;
  st_scalars : (string, int) Hashtbl.t;
  mutable st_nscal : int;
  mutable st_bases : int list;  (* reversed *)
  mutable st_ncur : int;
  mutable st_nvars : int;  (* loop nesting depth *)
  mutable st_nsites : int;  (* probe sites numbered so far (pre-order) *)
  mutable st_fused : int;  (* loops compiled into fused reductions *)
}

(* Loop environment: innermost-first list of (variable, cursors touched
   inside that loop). Compiling an access registers its cursor and the
   variable's coefficient with every enclosing loop it depends on. *)
type loop_env = (string * (int * int) list ref) list

let array_slot st a =
  match Hashtbl.find_opt st.st_slots a with
  | Some s -> s
  | None -> errf "reference to undeclared array %s" a

let scalar_slot st s =
  match Hashtbl.find_opt st.st_scalars s with
  | Some i -> i
  | None ->
      let i = st.st_nscal in
      st.st_nscal <- i + 1;
      Hashtbl.replace st.st_scalars s i;
      i

let cursor st (env : loop_env) (ix : Ix.t) =
  let id = st.st_ncur in
  st.st_ncur <- id + 1;
  st.st_bases <- ix.Ix.const :: st.st_bases;
  List.iter
    (fun (coeff, v) ->
      match List.assoc_opt v env with
      | Some incs -> incs := (id, coeff) :: !incs
      | None -> errf "index uses unbound loop variable %s" v)
    ix.Ix.terms;
  id

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* A probe is a layer of this one compiler. Every compile function takes
   [?probe], and [site] numbers the enclosing leaf in pre-order whether
   or not a probe is attached. Without a probe they build the plain
   closures. With one they build the same closures plus its events: an
   array access reports (site, slot, index, direction), a leaf reports
   its instance before it runs, and a loop keeps its current iteration
   value in the frame's [vars] at its nesting depth, so a leaf at depth
   [d] hands the probe the frame's array itself: its first [d] entries
   are exactly the enclosing loop values. *)

let checked_get name arr i =
  if i < 0 || i >= Array.length arr then
    errf "load %s[%d] out of bounds (size %d)" name i (Array.length arr);
  Array.unsafe_get arr i

let rec compile_expr st env ~check ?probe ~site (e : Prog.fexpr) :
    frame -> float =
  let operand = compile_expr st env ~check ?probe ~site in
  let probed = Option.is_some probe in
  match e with
  | Prog.Const f -> fun _ -> f
  | Prog.Scalar s ->
      let i = scalar_slot st s in
      fun fr -> Array.unsafe_get fr.scal i
  (* Probed loads report inline instead of wrapping the plain closure, as
     stores do: loads are a probed run's hot access (two per MAC), where
     the wrapper's extra call shows. A checked load out of range raises
     before its event. *)
  | Prog.Load (a, ix) -> (
      let s = array_slot st a in
      let c = cursor st env ix in
      match probe with
      | None when check ->
          fun fr -> checked_get a fr.bufs.(s) (Array.unsafe_get fr.cur c)
      | None ->
          fun fr ->
            Array.unsafe_get
              (Array.unsafe_get fr.bufs s)
              (Array.unsafe_get fr.cur c)
      | Some p when check ->
          fun fr ->
            let i = Array.unsafe_get fr.cur c in
            let v = checked_get a fr.bufs.(s) i in
            p.on_access ~site ~slot:s ~index:i ~write:false;
            v
      | Some p ->
          fun fr ->
            let i = Array.unsafe_get fr.cur c in
            p.on_access ~site ~slot:s ~index:i ~write:false;
            Array.unsafe_get (Array.unsafe_get fr.bufs s) i)
  (* A probe sees the reads left to right, so probed operands evaluate in
     textual order; the plain closures leave the order to OCaml (right to
     left, as [Interp]'s do). *)
  | Prog.Add (x, y) ->
      let fx = operand x and fy = operand y in
      if probed then fun fr -> let a = fx fr in a +. fy fr
      else fun fr -> fx fr +. fy fr
  | Prog.Sub (x, y) ->
      let fx = operand x and fy = operand y in
      if probed then fun fr -> let a = fx fr in a -. fy fr
      else fun fr -> fx fr -. fy fr
  | Prog.Mul (x, y) ->
      let fx = operand x and fy = operand y in
      if probed then fun fr -> let a = fx fr in a *. fy fr
      else fun fr -> fx fr *. fy fr
  | Prog.Div (x, y) ->
      let fx = operand x and fy = operand y in
      if probed then fun fr -> let a = fx fr in a /. fy fr
      else fun fr -> fx fr /. fy fr

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let compile_write st env ~check ?probe ~site ~accumulate a ix value : op =
  let s = array_slot st a in
  let c = cursor st env ix in
  let value = compile_expr st env ~check ?probe ~site value in
  let store =
    if check then fun fr ->
      let v = value fr in
      let arr = fr.bufs.(s) in
      let i = Array.unsafe_get fr.cur c in
      if i < 0 || i >= Array.length arr then
        errf "store %s[%d] out of bounds (size %d)" a i (Array.length arr);
      Array.unsafe_set arr i
        (if accumulate then Array.unsafe_get arr i +. v else v)
    else if accumulate then fun fr ->
      let arr = Array.unsafe_get fr.bufs s in
      let i = Array.unsafe_get fr.cur c in
      Array.unsafe_set arr i (Array.unsafe_get arr i +. value fr)
    else fun fr ->
      Array.unsafe_set
        (Array.unsafe_get fr.bufs s)
        (Array.unsafe_get fr.cur c) (value fr)
  in
  match probe with
  | None -> store
  | Some p ->
      (* the value's reads run inside [store], so they reach the probe
         before the write does; a store out of range raises first *)
      fun fr ->
        store fr;
        p.on_access ~site ~slot:s ~index:(Array.unsafe_get fr.cur c)
          ~write:true

let compile_leaf st env ~check ?probe ~site (stmt : Prog.stmt) : op =
  match stmt with
  | Prog.For _ -> assert false (* loops go to [compile_loop] *)
  | Prog.Store { array; index; value = Prog.Scalar x }
    when (not check) && Option.is_none probe ->
      (* the spill of a reduction that is not a whole fused nest *)
      let s = array_slot st array in
      let c = cursor st env index in
      let i = scalar_slot st x in
      fun fr ->
        Array.unsafe_set
          (Array.unsafe_get fr.bufs s)
          (Array.unsafe_get fr.cur c)
          (Array.unsafe_get fr.scal i)
  | Prog.Store { array; index; value } ->
      compile_write st env ~check ?probe ~site ~accumulate:false array index
        value
  | Prog.Accum { array; index; value } ->
      compile_write st env ~check ?probe ~site ~accumulate:true array index
        value
  | Prog.Set_scalar { name; value } ->
      let value = compile_expr st env ~check ?probe ~site value in
      let i = scalar_slot st name in
      fun fr -> Array.unsafe_set fr.scal i (value fr)
  | Prog.Acc_scalar { name; value } ->
      let value = compile_expr st env ~check ?probe ~site value in
      let i = scalar_slot st name in
      fun fr ->
        Array.unsafe_set fr.scal i (Array.unsafe_get fr.scal i +. value fr)

(* ------------------------------------------------------------------ *)
(* Fused loops                                                         *)
(* ------------------------------------------------------------------ *)

(* Unchecked code runs each loop the HLS kernel pipelines as one
   closure, with its cursors and accumulator in locals:

   (A) a MAC loop: a [For] whose body is the single leaf
       [s += x[ix] * y[iy]];
   (B) a reduction nest: a [For] whose body is exactly
       [s = c; <an (A) loop on s>; a[ia] = s];
   (C) a pointwise loop: a [For] whose body is the single leaf
       [a[ia] = x[ix] op y[iy]], with op one of + - * /.

   Their bodies touch no other cursor, so they neither step nor restore
   [fr.cur]: each access enters at its cursor plus [stride * lo] and walks
   a local. [s] is written back after the last iteration. The products
   are added in program order, and each pointwise point reads its
   operands before its store, as the generic closures do, so results are
   bit-identical; no float is boxed.

   Under a probe each shape keeps its closure, reports its leaves' sites
   in pre-order at compile time, and fires one event per run that has an
   iteration, before it: [on_mac], [on_nest] or [on_pointwise]. *)

(* Cursor [c]'s step per iteration of the loop that collected [incs]. *)
let stride incs c =
  List.fold_left (fun s (c', k) -> if c' = c then s + k else s) 0 !incs

(* [run], preceded on every run with an iteration by [event]. *)
let reporting ~lo ~hi event run : op =
  if hi <= lo then run
  else fun fr ->
    event fr;
    run fr

let leaf_vars ~outer (l : Prog.loop) = Array.of_list (List.rev (l.var :: outer))

let mac_body = function
  | [
      Prog.Acc_scalar
        { name; value = Prog.Mul (Prog.Load (x, ix), Prog.Load (y, iy)) };
    ] ->
      Some (name, (x, ix), (y, iy))
  | _ -> None

type pointwise_op = Add | Sub | Mul | Div

let pointwise_body = function
  | [ Prog.Store { array; index; value } ] -> (
      let loads op = function
        | Prog.Load (x, ix), Prog.Load (y, iy) ->
            Some (op, (array, index), (x, ix), (y, iy))
        | _ -> None
      in
      match value with
      | Prog.Add (x, y) -> loads Add (x, y)
      | Prog.Sub (x, y) -> loads Sub (x, y)
      | Prog.Mul (x, y) -> loads Mul (x, y)
      | Prog.Div (x, y) -> loads Div (x, y)
      | _ -> None)
  | _ -> None

(* [outer] names the enclosing loop variables, innermost first, as in
   [compile_stmt]. *)
let mac_loop st env ?probe ~outer (l : Prog.loop) (s, (x, ix), (y, iy)) : op =
  let incs = ref [] in
  let env = (l.var, incs) :: env in
  let i = scalar_slot st s in
  let sx = array_slot st x and cx = cursor st env ix in
  let sy = array_slot st y and cy = cursor st env iy in
  let dx = stride incs cx and dy = stride incs cy in
  let lo = l.lo and hi = l.hi in
  let site = st.st_nsites in
  st.st_nsites <- site + 1;
  st.st_fused <- st.st_fused + 1;
  let run fr =
    let bx = Array.unsafe_get fr.bufs sx and by = Array.unsafe_get fr.bufs sy in
    let jx = ref (Array.unsafe_get fr.cur cx + (dx * lo))
    and jy = ref (Array.unsafe_get fr.cur cy + (dy * lo))
    and acc = ref (Array.unsafe_get fr.scal i) in
    for _ = lo to hi - 1 do
      acc := !acc +. (Array.unsafe_get bx !jx *. Array.unsafe_get by !jy);
      jx := !jx + dx;
      jy := !jy + dy
    done;
    Array.unsafe_set fr.scal i !acc
  in
  match probe with
  | None -> run
  | Some p ->
      p.on_site ~site ~vars:(leaf_vars ~outer l) ~stmt:(List.hd l.body);
      reporting ~lo ~hi
        (fun fr ->
          p.on_mac ~site ~values:fr.vars ~lo ~count:(hi - lo) ~x:sx
            ~ix:(Array.unsafe_get fr.cur cx + (dx * lo))
            ~dx ~y:sy
            ~iy:(Array.unsafe_get fr.cur cy + (dy * lo))
            ~dy)
        run

let reduction_nest st env ?probe ~outer (l : Prog.loop) c (m : Prog.loop)
    (s, (x, ix), (y, iy)) (a, ia) : op =
  let oincs = ref [] and incs = ref [] in
  let oenv = (l.var, oincs) :: env in
  let env = (m.var, incs) :: oenv in
  let i = scalar_slot st s in
  let sx = array_slot st x and cx = cursor st env ix in
  let sy = array_slot st y and cy = cursor st env iy in
  let sa = array_slot st a and ca = cursor st oenv ia in
  let ox = stride oincs cx and oy = stride oincs cy and oa = stride oincs ca in
  let dx = stride incs cx and dy = stride incs cy in
  let lo = l.lo and hi = l.hi and mlo = m.lo and mhi = m.hi in
  let site = st.st_nsites in
  st.st_nsites <- site + 3;
  st.st_fused <- st.st_fused + 2;
  let run fr =
    let bx = Array.unsafe_get fr.bufs sx and by = Array.unsafe_get fr.bufs sy in
    let out = Array.unsafe_get fr.bufs sa and cur = fr.cur in
    let kx = ref (Array.unsafe_get cur cx + (ox * lo) + (dx * mlo))
    and ky = ref (Array.unsafe_get cur cy + (oy * lo) + (dy * mlo))
    and ja = ref (Array.unsafe_get cur ca + (oa * lo))
    and acc = ref (Array.unsafe_get fr.scal i) in
    for _ = lo to hi - 1 do
      acc := c;
      let jx = ref !kx and jy = ref !ky in
      for _ = mlo to mhi - 1 do
        acc := !acc +. (Array.unsafe_get bx !jx *. Array.unsafe_get by !jy);
        jx := !jx + dx;
        jy := !jy + dy
      done;
      Array.unsafe_set out !ja !acc;
      ja := !ja + oa;
      kx := !kx + ox;
      ky := !ky + oy
    done;
    Array.unsafe_set fr.scal i !acc
  in
  match probe with
  | None -> run
  | Some p ->
      let vars = leaf_vars ~outer l in
      p.on_site ~site ~vars ~stmt:(List.hd l.body);
      p.on_site ~site:(site + 1)
        ~vars:(leaf_vars ~outer:(l.var :: outer) m)
        ~stmt:(List.hd m.body);
      p.on_site ~site:(site + 2) ~vars ~stmt:(List.nth l.body 2);
      reporting ~lo ~hi
        (fun fr ->
          let cur = fr.cur in
          p.on_nest ~site ~values:fr.vars ~lo ~count:(hi - lo) ~mac_lo:mlo
            ~mac_count:(max 0 (mhi - mlo)) ~x:sx
            ~ix:(Array.unsafe_get cur cx + (ox * lo) + (dx * mlo))
            ~ox ~dx ~y:sy
            ~iy:(Array.unsafe_get cur cy + (oy * lo) + (dy * mlo))
            ~oy ~dy ~a:sa
            ~ia:(Array.unsafe_get cur ca + (oa * lo))
            ~oa)
        run

let pointwise_loop st env ?probe ~outer (l : Prog.loop)
    (op, (a, ia), (x, ix), (y, iy)) : op =
  let incs = ref [] in
  let env = (l.var, incs) :: env in
  let sa = array_slot st a and ca = cursor st env ia in
  let sx = array_slot st x and cx = cursor st env ix in
  let sy = array_slot st y and cy = cursor st env iy in
  let da = stride incs ca and dx = stride incs cx and dy = stride incs cy in
  let lo = l.lo and hi = l.hi in
  let site = st.st_nsites in
  st.st_nsites <- site + 1;
  st.st_fused <- st.st_fused + 1;
  (* One loop matches the operator at each point and boxes no float.
     One loop per operator ran a point 20-35% faster in isolation
     (x86-64, ocamlopt 5.1 without flambda), a difference the [sim]
     workload does not show. *)
  let run fr =
    let out = Array.unsafe_get fr.bufs sa
    and bx = Array.unsafe_get fr.bufs sx
    and by = Array.unsafe_get fr.bufs sy in
    let ja = Array.unsafe_get fr.cur ca + (da * lo)
    and jx = Array.unsafe_get fr.cur cx + (dx * lo)
    and jy = Array.unsafe_get fr.cur cy + (dy * lo) in
    for t = 0 to hi - lo - 1 do
      let u = Array.unsafe_get bx (jx + (t * dx))
      and v = Array.unsafe_get by (jy + (t * dy)) in
      Array.unsafe_set out (ja + (t * da))
        (match op with Add -> u +. v | Sub -> u -. v | Mul -> u *. v | Div -> u /. v)
    done
  in
  match probe with
  | None -> run
  | Some p ->
      p.on_site ~site ~vars:(leaf_vars ~outer l) ~stmt:(List.hd l.body);
      reporting ~lo ~hi
        (fun fr ->
          let cur = fr.cur in
          p.on_pointwise ~site ~values:fr.vars ~lo ~count:(hi - lo) ~x:sx
            ~ix:(Array.unsafe_get cur cx + (dx * lo))
            ~dx ~y:sy
            ~iy:(Array.unsafe_get cur cy + (dy * lo))
            ~dy ~a:sa
            ~ia:(Array.unsafe_get cur ca + (da * lo))
            ~da)
        run

let fused st env ?probe ~outer (l : Prog.loop) : op option =
  match l.body with
  | [
   Prog.Set_scalar { name; value = Prog.Const c };
   Prog.For m;
   Prog.Store { array; index; value = Prog.Scalar spill };
  ] -> (
      match mac_body m.body with
      | Some ((s, _, _) as mac) when s = name && spill = name ->
          Some (reduction_nest st env ?probe ~outer l c m mac (array, index))
      | _ -> None)
  | body -> (
      match mac_body body with
      | Some mac -> Some (mac_loop st env ?probe ~outer l mac)
      | None ->
          Option.map (pointwise_loop st env ?probe ~outer l) (pointwise_body body))

(* [outer] names the enclosing loop variables, innermost first; its
   length is the statement's loop depth. *)
let rec compile_stmt st env ~check ?probe ~outer (stmt : Prog.stmt) : op =
  match stmt with
  | Prog.For l -> (
      match if check then None else fused st env ?probe ~outer l with
      | Some op -> op
      | None -> compile_loop st env ~check ?probe ~outer l)
  | leaf -> (
      let site = st.st_nsites in
      st.st_nsites <- site + 1;
      match probe with
      | None -> compile_leaf st env ~check ~site leaf
      | Some p ->
          p.on_site ~site ~vars:(Array.of_list (List.rev outer)) ~stmt:leaf;
          let body = compile_leaf st env ~check ~probe:p ~site leaf in
          fun fr ->
            p.on_instance ~site ~values:fr.vars;
            body fr)

and compile_loop st env ~check ?probe ~outer (l : Prog.loop) : op =
  let depth = List.length outer in
  st.st_nvars <- max st.st_nvars (depth + 1);
  let incs = ref [] in
  let body =
    compile_body st ((l.var, incs) :: env) ~check ?probe
      ~outer:(l.var :: outer) l.body
  in
  let curs = Array.of_list (List.map fst !incs) in
  let strides = Array.of_list (List.map snd !incs) in
  let nb = Array.length body and nc = Array.length curs in
  let lo = l.Prog.lo and hi = l.Prog.hi in
  (* The loop runs [max 0 (hi - lo)] iterations. Cursors enter advanced
     by [stride * lo] and leave advanced by [stride * iterations], so
     the exit restore must subtract [stride * max lo hi] to net zero. *)
  let exit_mult = if hi > lo then hi else lo in
  let enter fr =
    if lo <> 0 then
      let cur = fr.cur in
      for j = 0 to nc - 1 do
        let c = Array.unsafe_get curs j in
        Array.unsafe_set cur c
          (Array.unsafe_get cur c + (Array.unsafe_get strides j * lo))
      done
  and leave fr =
    if exit_mult <> 0 then
      let cur = fr.cur in
      for j = 0 to nc - 1 do
        let c = Array.unsafe_get curs j in
        Array.unsafe_set cur c
          (Array.unsafe_get cur c - (Array.unsafe_get strides j * exit_mult))
      done
  in
  let step fr =
    let cur = fr.cur in
    for j = 0 to nc - 1 do
      let c = Array.unsafe_get curs j in
      Array.unsafe_set cur c
        (Array.unsafe_get cur c + Array.unsafe_get strides j)
    done
  in
  match probe with
  | Some _ ->
      fun fr ->
        enter fr;
        for it = lo to hi - 1 do
          fr.vars.(depth) <- it;
          for i = 0 to nb - 1 do
            (Array.unsafe_get body i) fr
          done;
          step fr
        done;
        leave fr
  | None when nb = 1 ->
      let op0 = body.(0) in
      fun fr ->
        enter fr;
        for _ = lo to hi - 1 do
          op0 fr;
          step fr
        done;
        leave fr
  | None ->
      fun fr ->
        enter fr;
        for _ = lo to hi - 1 do
          for i = 0 to nb - 1 do
            (Array.unsafe_get body i) fr
          done;
          step fr
        done;
        leave fr

(* Left to right, so that sites are numbered in textual order:
   [List.map]'s evaluation order is unspecified. *)
and compile_body st env ~check ?probe ~outer stmts : op array =
  Array.of_list
    (List.rev
       (List.fold_left
          (fun acc s -> compile_stmt st env ~check ?probe ~outer s :: acc)
          [] stmts))

(* ------------------------------------------------------------------ *)
(* Program compilation                                                 *)
(* ------------------------------------------------------------------ *)

let compile ?(mode = Checked) ?probe (proc : Prog.proc) =
  let probe =
    match probe with
    | Some _ -> probe
    | None -> (
        (* the disabled gate: one atomic load, then the plain closures *)
        match Atomic.get probe_provider with
        | None -> None
        | Some provider -> provider proc)
  in
  let slots = Hashtbl.create 16 in
  let arrays = array_infos proc in
  List.iteri
    (fun i info ->
      if Hashtbl.mem slots info.a_name then
        errf "duplicate array declaration %s" info.a_name;
      Hashtbl.replace slots info.a_name i)
    arrays;
  let st =
    {
      st_slots = slots;
      st_scalars = Hashtbl.create 8;
      st_nscal = 0;
      st_bases = [];
      st_ncur = 0;
      st_nvars = 0;
      st_nsites = 0;
      st_fused = 0;
    }
  in
  let check = mode <> Unchecked in
  let ops = compile_body st [] ~check ?probe ~outer:[] proc.Prog.body in
  (match mode with
  | Checked -> Obs.Metrics.incr c_mode_checked
  | Unchecked -> Obs.Metrics.incr c_mode_unchecked
  | Debug -> Obs.Metrics.incr c_mode_debug);
  Obs.Metrics.add c_fused_loops st.st_fused;
  let stmts_per_run, iters_per_run = Prog.run_totals proc in
  {
    proc;
    mode;
    arrays = Array.of_list arrays;
    slots;
    n_scalars = st.st_nscal;
    n_cursors = st.st_ncur;
    base = Array.of_list (List.rev st.st_bases);
    ops;
    stmts_per_run;
    iters_per_run;
    n_vars = st.st_nvars;
    probed = Option.is_some probe;
  }

let probed t = t.probed

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let make_frame t =
  {
    bufs = Array.map (fun info -> Array.make info.a_size 0.0) t.arrays;
    scal = Array.make (max 1 t.n_scalars) 0.0;
    cur = Array.make (max 1 t.n_cursors) 0;
    vars = Array.make (max 1 t.n_vars) 0;
  }

let make_frames t count = Array.init count (fun _ -> make_frame t)

let buffer t fr name =
  match Hashtbl.find_opt t.slots name with
  | Some s -> fr.bufs.(s)
  | None -> errf "no array %s in %s" name t.proc.Prog.name

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let exec t fr =
  (* Locals start zeroed on every run and scalars are reset, mirroring
     the interpreter's fresh per-run environments; parameter buffers are
     the caller's. *)
  Array.iteri
    (fun s info -> if info.a_local then Array.fill fr.bufs.(s) 0 info.a_size 0.0)
    t.arrays;
  if t.n_scalars > 0 then Array.fill fr.scal 0 t.n_scalars 0.0;
  Array.blit t.base 0 fr.cur 0 t.n_cursors;
  let ops = t.ops in
  for i = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops i) fr
  done

let bits = Int64.bits_of_float

let flush_counters t =
  Obs.Metrics.incr c_runs;
  Obs.Metrics.add c_statements t.stmts_per_run;
  Obs.Metrics.add
    (if t.mode = Unchecked then c_iters_unchecked else c_iters_checked)
    t.iters_per_run

let run t fr =
  flush_counters t;
  match t.mode with
  | Checked | Unchecked -> exec t fr
  | Debug ->
      (* Replay the run through the reference interpreter on a copy of
         the parameter buffers and insist on bit-identical results. *)
      let memory = Hashtbl.create 16 in
      List.iter
        (fun (p : Prog.param) ->
          Hashtbl.replace memory p.Prog.name (Array.copy (buffer t fr p.Prog.name)))
        t.proc.Prog.params;
      exec t fr;
      Interp.run t.proc memory;
      List.iter
        (fun (p : Prog.param) ->
          let got = buffer t fr p.Prog.name in
          let want = Hashtbl.find memory p.Prog.name in
          Array.iteri
            (fun i v ->
              if bits v <> bits want.(i) then
                errf
                  "debug cross-check: %s[%d] differs (compiled %h, interpreter \
                   %h)"
                  p.Prog.name i v want.(i))
            got)
        t.proc.Prog.params

let run_fresh ?mode (proc : Prog.proc) ~inputs =
  let t = compile ?mode proc in
  let fr = make_frame t in
  List.iter
    (fun (p : Prog.param) ->
      match List.assoc_opt p.Prog.name inputs with
      | None -> ()
      | Some src ->
          if Array.length src <> p.Prog.size then
            errf "input %s has %d elements, expected %d" p.Prog.name
              (Array.length src) p.Prog.size;
          Array.blit src 0 (buffer t fr p.Prog.name) 0 p.Prog.size)
    proc.Prog.params;
  run t fr;
  List.map
    (fun (p : Prog.param) -> (p.Prog.name, buffer t fr p.Prog.name))
    proc.Prog.params
