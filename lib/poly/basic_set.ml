type constr = Eq of Aff.t | Ge of Aff.t

type t = {
  id : int; (* hash-cons id: structurally equal sets share one id *)
  space : Space.t;
  constrs : constr list;
  inconsistent : bool; (* detected trivially false constraint *)
  box : box option;
      (* [Some] when every constraint mentions one variable, or the set
         is inconsistent: bounds, emptiness and lex extrema are read
         off it *)
}

(* Per-variable inclusive bounds, [None] where unbounded, and whether
   some variable's range is empty. *)
and box = { void : bool; ranges : (int option * int option) array }

(* --- hash-consing ------------------------------------------------------- *)
(* Every set produced by [build] is interned, so structurally identical
   sets (which the sweep re-derives once per configuration) carry a stable
   integer id. The projection/composition caches below key on these ids,
   making lookups O(1) instead of hashing whole constraint systems. The
   table is guarded by a mutex: sets are built concurrently during a
   parallel design-space sweep. *)

let intern_counter = Stats.counter "poly.intern"
let hashcons_lock = Mutex.create ()

let hashcons : (Space.t * constr list * bool, t) Hashtbl.t =
  Hashtbl.create 4096

let next_id = ref 0
let max_hashcons = 1 lsl 17

let () =
  Memo.register_clear (fun () ->
      Mutex.protect hashcons_lock (fun () -> Hashtbl.reset hashcons))

let constr_aff = function Eq e | Ge e -> e

(* The one variable [e] mentions, or -1 when it mentions several. *)
let sole_var (e : Aff.t) =
  let v = ref (-1) and mentioned = ref 0 in
  Array.iteri
    (fun j c ->
      if c <> 0 then begin
        v := j;
        incr mentioned
      end)
    e.Aff.coeffs;
  if !mentioned = 1 then !v else -1

(* A set is a box when each of its constraints mentions one variable
   (normalization drops those that mention none); it is then the product
   of its per-variable ranges, so FM would find exactly these bounds.
   Normalization leaves every single-variable constraint with coefficient
   +-1, and an equality whose constant the coefficient does not divide
   has made the set inconsistent, which is the empty box: every range
   [0, -1], the answer [var_bounds] gives for it. *)
let box_of space constrs inconsistent =
  let n = Space.arity space in
  if inconsistent then Some { void = true; ranges = Array.make n (Some 0, Some (-1)) }
  else if List.exists (fun c -> sole_var (constr_aff c) < 0) constrs then None
  else begin
    let ranges = Array.make n (None, None) in
    List.iter
      (fun c ->
        let e = constr_aff c in
        let j = sole_var e in
        let a = e.Aff.coeffs.(j) and b = e.Aff.const in
        assert (abs a = 1);
        let lo, hi = ranges.(j) in
        let lo' v = match lo with Some l when l >= v -> lo | _ -> Some v in
        let hi' v = match hi with Some h when h <= v -> hi | _ -> Some v in
        ranges.(j) <-
          (match c with
          | Ge _ when a > 0 -> (lo' (-b), hi)
          | Ge _ -> (lo, hi' b)
          | Eq _ -> (lo' (-b * a), hi' (-b * a))))
      constrs;
    let void = Array.exists (function Some l, Some h -> l > h | _ -> false) ranges in
    Some { void; ranges }
  end

let intern space constrs inconsistent =
  let key = (space, constrs, inconsistent) in
  Mutex.protect hashcons_lock (fun () ->
      match Hashtbl.find_opt hashcons key with
      | Some t ->
          Stats.hit intern_counter;
          t
      | None ->
          Stats.miss intern_counter;
          if Hashtbl.length hashcons >= max_hashcons then
            Hashtbl.reset hashcons;
          let box = box_of space constrs inconsistent in
          let t = { id = !next_id; space; constrs; inconsistent; box } in
          incr next_id;
          Hashtbl.add hashcons key t;
          t)

let uid t = t.id

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Normalize one constraint: gcd-reduce; detect trivial truth/falsity. *)
type norm = Keep of constr | Always_true | Always_false

let normalize_constr = function
  | Eq e ->
      if Aff.is_constant e then
        if Aff.constant e = 0 then Always_true else Always_false
      else
        let g =
          Array.fold_left (fun acc c -> gcd acc c) 0 e.Aff.coeffs
        in
        if Aff.constant e mod g <> 0 then Always_false
        else if g > 1 then
          Keep
            (Eq
               (Aff.make
                  (Array.map (fun c -> c / g) e.Aff.coeffs)
                  (Aff.constant e / g)))
        else Keep (Eq e)
  | Ge e ->
      if Aff.is_constant e then
        if Aff.constant e >= 0 then Always_true else Always_false
      else
        let reduced, _ = Aff.gcd_reduce e in
        Keep (Ge reduced)

let constr_equal a b =
  match (a, b) with
  | Eq x, Eq y | Ge x, Ge y -> Aff.equal x y
  | Eq _, Ge _ | Ge _, Eq _ -> false

(* Normalized, deduplicated constraints and whether one is trivially
   false; [build] interns the result. *)
let normalize constrs =
  let inconsistent = ref false in
  let kept = ref [] in
  List.iter
    (fun c ->
      match normalize_constr c with
      | Always_true -> ()
      | Always_false -> inconsistent := true
      | Keep c ->
          if not (List.exists (constr_equal c) !kept) then kept := c :: !kept)
    constrs;
  (List.rev !kept, !inconsistent)

let build space constrs =
  let kept, inconsistent = normalize constrs in
  intern space kept inconsistent

let universe space = intern space [] false
let empty space = intern space [] true

let check_constr_arity space c =
  if Aff.arity (constr_aff c) <> Space.arity space then
    invalid_arg
      (Printf.sprintf
         "Basic_set: constraint arity %d does not match space arity %d"
         (Aff.arity (constr_aff c))
         (Space.arity space))

let of_constraints space constrs =
  List.iter (check_constr_arity space) constrs;
  build space constrs

let of_box space bounds =
  let n = Space.arity space in
  if List.length bounds <> n then
    invalid_arg "Basic_set.of_box: bounds arity mismatch";
  let constrs =
    List.concat
      (List.mapi
         (fun i (lo, hi) ->
           [
             Ge (Aff.add_const (Aff.var n i) (-lo));
             Ge (Aff.sub (Aff.const n hi) (Aff.var n i));
           ])
         bounds)
  in
  build space constrs

let space t = t.space
let arity t = Space.arity t.space
let constraints t = t.constrs

let add_constraint t c =
  check_constr_arity t.space c;
  if t.inconsistent then t else build t.space (c :: t.constrs)

let intersect a b =
  if arity a <> arity b then invalid_arg "Basic_set.intersect: arity mismatch";
  if a.inconsistent || b.inconsistent then empty a.space
  else build a.space (a.constrs @ b.constrs)

let mem t point =
  (not t.inconsistent)
  && List.for_all
       (fun c ->
         let v = Aff.eval (constr_aff c) point in
         match c with Eq _ -> v = 0 | Ge _ -> v >= 0)
       t.constrs

let is_obviously_empty t = t.inconsistent

(* --- Fourier-Motzkin elimination of one variable ------------------------ *)

let fm_eliminations = Obs.Metrics.counter "poly.fm.eliminations"
let emptiness_tests = Obs.Metrics.counter "poly.emptiness.tests"

let eliminate_var constrs j =
  Obs.Metrics.incr fm_eliminations;
  (* Prefer pivoting on an equality mentioning x_j. *)
  let mentions c = Aff.coeff (constr_aff c) j <> 0 in
  let pivot =
    List.find_opt (function Eq e -> e.Aff.coeffs.(j) <> 0 | Ge _ -> false) constrs
  in
  match pivot with
  | Some (Eq eq) ->
      let c = Aff.coeff eq j in
      let s = if c > 0 then 1 else -1 in
      let ac = abs c in
      List.filter_map
        (fun constr ->
          if constr_equal constr (Eq eq) then None
          else
            let e = constr_aff constr in
            let d = Aff.coeff e j in
            if d = 0 then Some constr
            else
              let combined = Aff.sub (Aff.scale ac e) (Aff.scale (d * s) eq) in
              Some (match constr with Eq _ -> Eq combined | Ge _ -> Ge combined))
        constrs
  | Some (Ge _) | None ->
      let free = List.filter (fun c -> not (mentions c)) constrs in
      let eqs_with_j =
        List.filter (function Eq e -> e.Aff.coeffs.(j) <> 0 | Ge _ -> false) constrs
      in
      assert (eqs_with_j = []);
      let lowers, uppers =
        List.fold_left
          (fun (lo, up) c ->
            match c with
            | Ge e when Aff.coeff e j > 0 -> (e :: lo, up)
            | Ge e when Aff.coeff e j < 0 -> (lo, e :: up)
            | Eq _ | Ge _ -> (lo, up))
          ([], []) constrs
      in
      let combined =
        List.concat_map
          (fun l ->
            List.map
              (fun u ->
                (* l: a x_j + rest_l >= 0 (a > 0);
                   u: -b x_j + rest_u >= 0 (b > 0).
                   b*l + a*u eliminates x_j. *)
                let a = Aff.coeff l j and b = -Aff.coeff u j in
                Ge (Aff.add (Aff.scale b l) (Aff.scale a u)))
              uppers)
          lowers
      in
      free @ combined

let eliminate_memo : (int * int, t) Memo.t =
  Memo.create ~name:"poly.eliminate" ()

let eliminate t j =
  if t.inconsistent then t
  else begin
    if j < 0 || j >= arity t then invalid_arg "Basic_set.eliminate: bad index";
    Memo.find_or_compute eliminate_memo (t.id, j) (fun () ->
        build t.space (eliminate_var t.constrs j))
  end

let is_empty_memo : (int, bool) Memo.t =
  Memo.create ~name:"poly.is_empty" ()

let is_empty t =
  Obs.Metrics.incr emptiness_tests;
  match t.box with
  | Some b -> b.void
  | None ->
      Memo.find_or_compute is_empty_memo t.id (fun () ->
          let n = arity t in
          let rec loop constrs j =
            match build t.space constrs with
            | { inconsistent = true; _ } -> true
            | { constrs; _ } ->
                if j >= n then false else loop (eliminate_var constrs j) (j + 1)
          in
          loop t.constrs 0)

let project_memo : (int * int list * Space.t, t) Memo.t =
  Memo.create ~name:"poly.project_out" ()

let project_out t vars new_space =
  let vars = List.sort_uniq compare vars in
  if List.exists (fun v -> v < 0 || v >= arity t) vars then
    invalid_arg "Basic_set.project_out: variable out of range";
  if Space.arity new_space <> arity t - List.length vars then
    invalid_arg "Basic_set.project_out: new space arity mismatch";
  if t.inconsistent then empty new_space
  else
    Memo.find_or_compute project_memo (t.id, vars, new_space) (fun () ->
        let constrs =
          List.fold_left (fun cs v -> eliminate_var cs v) t.constrs vars
        in
        (* Renumber surviving variables. *)
        let keep =
          List.filter (fun v -> not (List.mem v vars)) (List.init (arity t) Fun.id)
        in
        let remap e =
          let coeffs = Array.of_list (List.map (fun v -> Aff.coeff e v) keep) in
          Aff.make coeffs (Aff.constant e)
        in
        let constrs =
          List.map (function Eq e -> Eq (remap e) | Ge e -> Ge (remap e)) constrs
        in
        build new_space constrs)

let floor_div x y = if x >= 0 then x / y else -(((-x) + y - 1) / y)
let ceil_div x y = -floor_div (-x) y

let var_bounds_fresh t j =
  begin
    let n = arity t in
    let others = List.filter (fun v -> v <> j) (List.init n Fun.id) in
    let constrs =
      List.fold_left (fun cs v -> eliminate_var cs v) t.constrs others
    in
    let lo = ref None and hi = ref None in
    List.iter
      (fun c ->
        match normalize_constr c with
        | Always_true | Always_false -> ()
        | Keep c -> (
            let e = constr_aff c in
            let a = Aff.coeff e j and b = Aff.constant e in
            let update_lo v = match !lo with Some l when l >= v -> () | _ -> lo := Some v in
            let update_hi v = match !hi with Some h when h <= v -> () | _ -> hi := Some v in
            match c with
            | Ge _ when a > 0 -> update_lo (ceil_div (-b) a)
            | Ge _ when a < 0 -> update_hi (floor_div b (-a))
            | Eq _ when a <> 0 ->
                if -b mod a = 0 then begin
                  update_lo (-b / a);
                  update_hi (-b / a)
                end
                else begin
                  (* equality unsatisfiable in integers: empty range *)
                  update_lo 0;
                  update_hi (-1)
                end
            | Eq _ | Ge _ -> ()))
      constrs;
    (!lo, !hi)
  end

let var_bounds_memo : (int * int, int option * int option) Memo.t =
  Memo.create ~name:"poly.var_bounds" ()

let var_bounds t j =
  match t.box with
  | Some b -> b.ranges.(j)
  | None ->
      Memo.find_or_compute var_bounds_memo (t.id, j) (fun () ->
          var_bounds_fresh t j)

let bounding_box t =
  let n = arity t in
  let box = Array.make n (0, 0) in
  let ok = ref true in
  for j = 0 to n - 1 do
    match var_bounds t j with
    | Some lo, Some hi -> box.(j) <- (lo, hi)
    | _ -> ok := false
  done;
  if !ok then Some box else None

let enumerate t =
  if t.inconsistent then []
  else
    match bounding_box t with
    | None -> invalid_arg "Basic_set.enumerate: unbounded set"
    | Some box ->
        let n = arity t in
        let acc = ref [] in
        let point = Array.make n 0 in
        let rec go j =
          if j = n then begin
            if mem t point then acc := Array.copy point :: !acc
          end
          else
            let lo, hi = box.(j) in
            for v = lo to hi do
              point.(j) <- v;
              go (j + 1)
            done
        in
        go 0;
        List.rev !acc

(* Strength-reduced odometer over the bounding box. Every tracked value
   moves by a precomputed per-dimension delta when the odometer steps
   forward or wraps a dimension back to its lower bound, so a point
   costs O(tracked) additions and no allocation. The constraints the box
   does not already imply are tracked after [exprs] and re-checked per
   point (a box, the only domain the flow produces, has none). Under
   [pin], a set without such constraints holds each dimension that no
   expression mentions at one bound, and each point visited stands for
   [repeat] points of the box. *)
let walk ?pin t exprs visit =
  match bounding_box t with
  | None -> invalid_arg "Basic_set.walk: unbounded set"
  | Some box ->
      let k = Array.length box in
      if t.inconsistent || Array.exists (fun (lo, hi) -> lo > hi) box then 0
      else begin
        let lo = Array.map fst box and hi = Array.map snd box in
        let residual =
          List.filter
            (fun c ->
              let l, h = Aff.range (constr_aff c) box in
              match c with Ge _ -> l < 0 | Eq _ -> l <> 0 || h <> 0)
            t.constrs
        in
        let repeat = ref 1 in
        (match pin with
        | Some side when residual = [] ->
            for j = 0 to k - 1 do
              if Array.for_all (fun e -> Aff.coeff e j = 0) exprs then begin
                repeat := !repeat * (hi.(j) - lo.(j) + 1);
                match side with `Low -> hi.(j) <- lo.(j) | `High -> lo.(j) <- hi.(j)
              end
            done
        | _ -> ());
        let repeat = !repeat in
        let m = Array.length exprs in
        let tracked = Array.append exprs (Array.of_list (List.map constr_aff residual)) in
        let is_eq =
          Array.of_list
            (List.init m (fun _ -> false)
            @ List.map (function Eq _ -> true | Ge _ -> false) residual)
        in
        let nt = Array.length tracked in
        let fwd = Array.map (fun e -> Array.init k (Aff.coeff e)) tracked in
        let back =
          Array.map (Array.mapi (fun j c -> -c * (hi.(j) - lo.(j)))) fwd
        in
        let x = Array.copy lo in
        let v = Array.map (fun e -> Aff.eval e x) tracked in
        let rec inside i =
          i >= nt || ((if is_eq.(i) then v.(i) = 0 else v.(i) >= 0) && inside (i + 1))
        in
        let count = ref 0 in
        let rec step j =
          j >= 0
          &&
          if x.(j) < hi.(j) then begin
            x.(j) <- x.(j) + 1;
            for i = 0 to nt - 1 do
              v.(i) <- v.(i) + fwd.(i).(j)
            done;
            true
          end
          else begin
            x.(j) <- lo.(j);
            for i = 0 to nt - 1 do
              v.(i) <- v.(i) + back.(i).(j)
            done;
            step (j - 1)
          end
        in
        (try
           while
             if inside m then begin
               count := !count + repeat;
               visit x v
             end;
             step (k - 1)
           do
             ()
           done
         with Exit -> ());
        !count
      end

exception Off_the_set

(* Greedy lexicographic extremum over prefix projections: [proj.(j)] is
   [t] with x_{j+1} .. x_{n-1} eliminated, so it mentions x_0 .. x_j
   only, and the whole chain costs n-1 eliminations. Dimension j takes
   its bound in [proj.(j)] with the already chosen x_0 .. x_{j-1}
   substituted. Each bound relaxes the integer slice's extremum, so the
   greedy point is exact whenever it lies in [t]. A bound that is
   rationally but not integrally attained shows as an empty slice
   further down ([Off_the_set]); then, as on a failed membership test,
   enumeration decides. A box takes each dimension's own bound, with no
   elimination. *)
let lex_extremum ~maximize t =
  match t.box with
  | Some { void = true; _ } -> None
  | Some { ranges; _ } ->
      Some
        (Array.map
           (fun (lo, hi) ->
             match if maximize then hi else lo with
             | Some v -> v
             | None -> invalid_arg "Basic_set.lexmin/lexmax: unbounded dimension")
           ranges)
  | None when is_empty t -> None
  | None -> begin
    let n = arity t in
    let proj = Array.make n t.constrs in
    let rec project j =
      j <= 0
      ||
      let cs, inconsistent = normalize (eliminate_var proj.(j) j) in
      proj.(j - 1) <- cs;
      (not inconsistent) && project (j - 1)
    in
    let point = Array.make n 0 in
    let choose j =
      let lo = ref None and hi = ref None in
      let raise_lo v = match !lo with Some l when l >= v -> () | _ -> lo := Some v in
      let lower_hi v = match !hi with Some h when h <= v -> () | _ -> hi := Some v in
      List.iter
        (fun c ->
          let e = constr_aff c in
          let b = ref e.Aff.const in
          for i = 0 to j - 1 do
            b := !b + (e.Aff.coeffs.(i) * point.(i))
          done;
          let a = e.Aff.coeffs.(j) and b = !b in
          match c with
          | Ge _ when a > 0 -> raise_lo (ceil_div (-b) a)
          | Ge _ when a < 0 -> lower_hi (floor_div b (-a))
          | Ge _ -> if b < 0 then raise Off_the_set
          | Eq _ when a = 0 -> if b <> 0 then raise Off_the_set
          | Eq _ ->
              if b mod a <> 0 then raise Off_the_set;
              raise_lo (-b / a);
              lower_hi (-b / a))
        proj.(j);
      match (!lo, !hi) with
      | Some l, Some h when l > h -> raise Off_the_set
      | _, Some h when maximize -> h
      | Some l, _ when not maximize -> l
      | _ -> invalid_arg "Basic_set.lexmin/lexmax: unbounded dimension"
    in
    let on_set =
      project (n - 1)
      &&
      match
        for j = 0 to n - 1 do
          point.(j) <- choose j
        done
      with
      | () -> mem t point
      | exception Off_the_set -> false
    in
    if on_set then Some point
    else
      match bounding_box t with
      | None -> invalid_arg "Basic_set.lexmin/lexmax: unbounded set"
      | Some _ ->
          let cmp a b = compare (Array.to_list a) (Array.to_list b) in
          let pts = List.sort cmp (enumerate t) in
          (match (pts, maximize) with
          | [], _ -> None
          | p :: _, false -> Some p
          | ps, true -> Some (List.nth ps (List.length ps - 1)))
  end

let lexmin t = lex_extremum ~maximize:false t
let lexmax t = lex_extremum ~maximize:true t

let is_empty_exact t =
  if is_empty t then true
  else match bounding_box t with
    | Some _ -> enumerate t = []
    | None -> false

let pp ppf t =
  let names = Space.dim_names t.space in
  if t.inconsistent then Format.fprintf ppf "{ %a : false }" Space.pp t.space
  else begin
    Format.fprintf ppf "{ %a" Space.pp t.space;
    if t.constrs <> [] then begin
      Format.fprintf ppf " : ";
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf " and ")
        (fun ppf c ->
          match c with
          | Eq e -> Format.fprintf ppf "%a = 0" (Aff.pp ~names) e
          | Ge e -> Format.fprintf ppf "%a >= 0" (Aff.pp ~names) e)
        ppf t.constrs
    end;
    Format.fprintf ppf " }"
  end
