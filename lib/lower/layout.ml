exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let tensor_space name shape =
  Poly.Space.make name (List.mapi (fun i _ -> Printf.sprintf "d%d" i) shape)

let strided_layout name shape strides =
  let n = List.length shape in
  let expr = ref (Poly.Aff.const n 0) in
  List.iteri
    (fun d s -> expr := Poly.Aff.add !expr (Poly.Aff.scale s (Poly.Aff.var n d)))
    strides;
  Poly.Aff_map.make (tensor_space name shape)
    (Poly.Space.make name [ "a" ])
    [| !expr |]

let permuted shape order =
  let n = List.length shape in
  if List.length order <> n || List.sort compare order <> List.init n Fun.id
  then errf "permuted: not a permutation of 0..%d" (n - 1);
  (* innermost = last of [order]; assign strides walking inward-out *)
  let strides = Array.make n 1 in
  let stride = ref 1 in
  List.iter
    (fun d ->
      strides.(d) <- !stride;
      stride := !stride * List.nth shape d)
    (List.rev order);
  strided_layout "t" shape (Array.to_list strides)

let padded_row_major shape ~align =
  if align < 1 then errf "padded_row_major: align must be positive";
  let n = List.length shape in
  if n = 0 then strided_layout "t" shape []
  else begin
    let extents = Array.of_list shape in
    let strides = Array.make n 1 in
    let round_up v = (v + align - 1) / align * align in
    if n >= 2 then begin
      strides.(n - 2) <- round_up extents.(n - 1);
      for d = n - 3 downto 0 do
        strides.(d) <- strides.(d + 1) * extents.(d + 1)
      done
    end;
    strided_layout "t" shape (Array.to_list strides)
  end

let set_layout (program : Flow.program) name layout =
  let found = ref false in
  let arrays =
    List.map
      (fun (a : Flow.array_info) ->
        if a.Flow.array_name <> name then a
        else begin
          found := true;
          let box =
            Array.of_list (List.map (fun e -> (0, e - 1)) a.Flow.tensor_shape)
          in
          let exprs = Poly.Aff_map.exprs layout in
          if Array.length exprs <> 1 then
            errf "set_layout: layout of %s must target a 1-D array" name;
          if Poly.Aff.arity exprs.(0) <> List.length a.Flow.tensor_shape then
            errf "set_layout: layout arity mismatch for %s" name;
          let lo, hi = Poly.Aff.range exprs.(0) box in
          if lo < 0 then errf "set_layout: layout of %s reaches offset %d" name lo;
          (* Rebuild the map against this array's canonical spaces. *)
          let layout =
            Poly.Aff_map.make
              (tensor_space name a.Flow.tensor_shape)
              (Poly.Space.make name [ "a" ])
              exprs
          in
          { a with Flow.layout; size = hi + 1 }
        end)
      program.Flow.arrays
  in
  if not !found then errf "set_layout: unknown array %s" name;
  let program = { program with Flow.arrays } in
  Flow.validate program;
  program

(* ---- block partitioning ---- *)

(* The domain variable used by an access for tensor dimension [dim];
   requires a bare variable subscript. *)
let subscript_var stmt_name (acc : Flow.access) dim =
  let e = (Poly.Aff_map.exprs acc.Flow.map).(dim) in
  if Poly.Aff.constant e <> 0 then
    errf "block_partition: %s subscripts dim %d with an offset" stmt_name dim;
  let vars = ref [] in
  for j = 0 to Poly.Aff.arity e - 1 do
    if Poly.Aff.coeff e j <> 0 then vars := (j, Poly.Aff.coeff e j) :: !vars
  done;
  match !vars with
  | [ (j, 1) ] -> j
  | _ ->
      errf "block_partition: %s does not subscript dim %d with a bare variable"
        stmt_name dim

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      List.concat_map
        (fun choice -> List.map (fun tail -> choice :: tail) (cartesian rest))
        choices

let block_partition (program : Flow.program) name ~dim ~banks =
  let info = Flow.array_info program name in
  let shape = Array.of_list info.Flow.tensor_shape in
  if dim < 0 || dim >= Array.length shape then
    errf "block_partition: %s has no dimension %d" name dim;
  let extent = shape.(dim) in
  if banks < 1 || banks > extent then
    errf "block_partition: cannot split extent %d into %d banks" extent banks;
  (* near-even distribution so every bank is non-empty for any
     banks <= extent *)
  let base = extent / banks and extra = extent mod banks in
  let bank_bounds =
    List.init banks (fun i ->
        let lo = (i * base) + min i extra in
        let size = base + if i < extra then 1 else 0 in
        (lo, lo + size - 1))
  in
  let bank_name i = Printf.sprintf "%s__%d" name i in
  let bank_shape i =
    let lo, hi = List.nth bank_bounds i in
    List.mapi
      (fun d e -> if d = dim then hi - lo + 1 else e)
      info.Flow.tensor_shape
  in
  let arrays =
    List.concat_map
      (fun (a : Flow.array_info) ->
        if a.Flow.array_name <> name then [ a ]
        else
          List.init banks (fun i ->
              let shape = bank_shape i in
              {
                Flow.array_name = bank_name i;
                kind = a.Flow.kind;
                tensor_shape = shape;
                layout = Flow.default_layout (bank_name i) shape;
                size = List.fold_left ( * ) 1 shape;
              }))
      program.Flow.arrays
  in
  let split_statement (stmt : Flow.statement) =
    let touched (acc : Flow.access) = acc.Flow.array = name in
    let accesses = stmt.Flow.write :: Flow.reads stmt in
    if not (List.exists touched accesses) then [ stmt ]
    else begin
      (* one split variable per distinct domain var subscripting [dim] *)
      let vars =
        List.sort_uniq compare
          (List.filter_map
             (fun acc ->
               if touched acc then
                 Some (subscript_var stmt.Flow.stmt_name acc dim)
               else None)
             accesses)
      in
      let combos = cartesian (List.map (fun v -> List.map (fun b -> (v, b)) bank_bounds) vars) in
      List.mapi
        (fun ci combo ->
          let n = Poly.Basic_set.arity stmt.Flow.domain in
          let domain =
            List.fold_left
              (fun d (v, (lo, hi)) ->
                let d =
                  Poly.Basic_set.add_constraint d
                    (Poly.Basic_set.Ge (Poly.Aff.add_const (Poly.Aff.var n v) (-lo)))
                in
                Poly.Basic_set.add_constraint d
                  (Poly.Basic_set.Ge
                     (Poly.Aff.sub (Poly.Aff.const n hi) (Poly.Aff.var n v))))
              stmt.Flow.domain combo
          in
          let rebase (acc : Flow.access) =
            if not (touched acc) then acc
            else begin
              let v = subscript_var stmt.Flow.stmt_name acc dim in
              let lo, _ = List.assoc v combo in
              let bank =
                match
                  List.find_index (fun (l, _) -> l = lo) bank_bounds
                with
                | Some i -> i
                | None -> assert false
              in
              let exprs = Poly.Aff_map.exprs acc.Flow.map in
              exprs.(dim) <- Poly.Aff.add_const exprs.(dim) (-lo);
              {
                Flow.array = bank_name bank;
                map =
                  Poly.Aff_map.make
                    (Poly.Aff_map.dom acc.Flow.map)
                    (tensor_space (bank_name bank) (bank_shape bank))
                    exprs;
              }
            end
          in
          let compute =
            match stmt.Flow.compute with
            | Flow.Init f -> Flow.Init f
            | Flow.Mac reads -> Flow.Mac (List.map rebase reads)
            | Flow.Assign_pointwise (f, a, b) ->
                Flow.Assign_pointwise (f, rebase a, rebase b)
            | Flow.Assign_copy a -> Flow.Assign_copy (rebase a)
          in
          {
            Flow.stmt_name = Printf.sprintf "%s__b%d" stmt.Flow.stmt_name ci;
            domain;
            write = rebase stmt.Flow.write;
            compute;
          })
        combos
    end
  in
  let program =
    {
      program with
      Flow.arrays;
      stmts = List.concat_map split_statement program.Flow.stmts;
    }
  in
  Flow.validate program;
  program
