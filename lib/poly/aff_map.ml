type t = { dom : Space.t; cod : Space.t; exprs : Aff.t array }

let make dom cod exprs =
  if Array.length exprs <> Space.arity cod then
    invalid_arg "Aff_map.make: one expression per codomain dimension required";
  Array.iter
    (fun e ->
      if Aff.arity e <> Space.arity dom then
        invalid_arg "Aff_map.make: expression arity differs from domain")
    exprs;
  { dom; cod; exprs = Array.copy exprs }

let identity space =
  let n = Space.arity space in
  { dom = space; cod = space; exprs = Array.init n (Aff.var n) }

let constant dom cod point =
  if Array.length point <> Space.arity cod then
    invalid_arg "Aff_map.constant: point arity mismatch";
  let n = Space.arity dom in
  { dom; cod; exprs = Array.map (Aff.const n) point }

let dom t = t.dom
let cod t = t.cod
let exprs t = Array.copy t.exprs

let apply t point = Array.map (fun e -> Aff.eval e point) t.exprs

let compose g f =
  if Space.arity f.cod <> Space.arity g.dom then
    invalid_arg "Aff_map.compose: domain/codomain arity mismatch";
  let n = Space.arity f.dom in
  let subst e =
    let acc = ref (Aff.const n (Aff.constant e)) in
    Array.iteri
      (fun j fj ->
        let c = Aff.coeff e j in
        if c <> 0 then acc := Aff.add !acc (Aff.scale c fj))
      f.exprs;
    !acc
  in
  { dom = f.dom; cod = g.cod; exprs = Array.map subst g.exprs }

let concat_outputs ?cod f g =
  if Space.arity f.dom <> Space.arity g.dom then
    invalid_arg "Aff_map.concat_outputs: domain arity mismatch";
  let cod = match cod with Some c -> c | None -> Space.concat f.cod g.cod in
  { dom = f.dom; cod; exprs = Array.append f.exprs g.exprs }

let select_outputs t keep cod =
  if List.length keep <> Space.arity cod then
    invalid_arg "Aff_map.select_outputs: codomain arity mismatch";
  let exprs = Array.of_list (List.map (fun k -> t.exprs.(k)) keep) in
  { dom = t.dom; cod; exprs }

let graph_constraints t =
  let nin = Space.arity t.dom and nout = Space.arity t.cod in
  let n = nin + nout in
  List.init nout (fun k ->
      let lhs = Aff.var n (nin + k) in
      let rhs = Aff.shift t.exprs.(k) 0 n in
      Basic_set.Eq (Aff.sub lhs rhs))

let image t bset =
  if Space.arity (Basic_set.space bset) <> Space.arity t.dom then
    invalid_arg "Aff_map.image: set space mismatch";
  let nin = Space.arity t.dom and nout = Space.arity t.cod in
  let concat_space = Space.concat t.dom t.cod in
  let dom_constrs =
    List.map
      (function
        | Basic_set.Eq e -> Basic_set.Eq (Aff.extend e nout)
        | Basic_set.Ge e -> Basic_set.Ge (Aff.extend e nout))
      (Basic_set.constraints bset)
  in
  let graph = graph_constraints t in
  let combined = Basic_set.of_constraints concat_space (dom_constrs @ graph) in
  Basic_set.project_out combined (List.init nin Fun.id) t.cod

let image_points t bset =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let q = apply t p in
      if not (Hashtbl.mem tbl q) then Hashtbl.add tbl q ())
    (Basic_set.enumerate bset);
  Hashtbl.fold (fun p () acc -> p :: acc) tbl []

(* [a * b] for non-negative operands, saturating at [max_int]. *)
let sat_mul a b = if b <> 0 && a > max_int / b then max_int else a * b

(* One walk of [bset] tracks the image coordinates. Each image is
   numbered row-major inside the images' bounding box over the walked
   box, and the numbers seen so far are bits of a bitmap over that box,
   which then costs at most one word per walked point. When the image
   box has more cells than that, the images seen are copied tuples in a
   hashtable; this also covers image boxes whose cell count overflows an
   int. *)
let is_injective_on t bset =
  if Basic_set.arity bset <> Space.arity t.dom then
    raise (Aff.Arity_mismatch (Space.arity t.dom, Basic_set.arity bset));
  match Basic_set.bounding_box bset with
  | None -> invalid_arg "Aff_map.is_injective_on: unbounded set"
  | Some box when Array.exists (fun (lo, hi) -> lo > hi) box -> true
  | Some box ->
      let m = Array.length t.exprs in
      let lo = Array.make m 0 and stride = Array.make m 0 in
      let cells = ref 1 in
      for i = m - 1 downto 0 do
        let l, h = Aff.range t.exprs.(i) box in
        lo.(i) <- l;
        stride.(i) <- !cells;
        cells := sat_mul !cells (h - l + 1)
      done;
      let cells = !cells in
      let points =
        Array.fold_left (fun acc (l, h) -> sat_mul acc (h - l + 1)) 1 box
      in
      let fresh =
        if cells <= max 4096 (sat_mul 64 points) then begin
          let bits = Bytes.make ((cells + 7) / 8) '\000' in
          fun v ->
            let n = ref 0 in
            for i = 0 to m - 1 do
              n := !n + (stride.(i) * (v.(i) - lo.(i)))
            done;
            let n = !n in
            let byte = Char.code (Bytes.get bits (n lsr 3)) and bit = 1 lsl (n land 7) in
            byte land bit = 0
            && (Bytes.set bits (n lsr 3) (Char.chr (byte lor bit));
                true)
        end
        else begin
          let seen = Hashtbl.create 1024 in
          fun v ->
            let q = Array.sub v 0 m in
            (not (Hashtbl.mem seen q)) && (Hashtbl.add seen q (); true)
        end
      in
      let injective = ref true in
      ignore
        (Basic_set.walk bset t.exprs (fun _ v ->
             if not (fresh v) then begin
               injective := false;
               raise Exit
             end));
      !injective

let equal a b =
  Space.equal a.dom b.dom && Space.equal a.cod b.cod
  && Array.length a.exprs = Array.length b.exprs
  && Array.for_all2 Aff.equal a.exprs b.exprs

let pp ppf t =
  let names = Space.dim_names t.dom in
  Format.fprintf ppf "{ %a -> %s[%s] }" Space.pp t.dom (Space.name t.cod)
    (String.concat ", "
       (Array.to_list
          (Array.map (fun e -> Format.asprintf "%a" (Aff.pp ~names) e) t.exprs)))
