type array_kind = Input | Output | Temp

type array_info = {
  array_name : string;
  kind : array_kind;
  tensor_shape : int list;
  layout : Poly.Aff_map.t;
  size : int;
}

type access = { array : string; map : Poly.Aff_map.t }

type compute =
  | Init of float
  | Mac of access list
  | Assign_pointwise of Tir.Ir.pointwise * access * access
  | Assign_copy of access

type statement = {
  stmt_name : string;
  domain : Poly.Basic_set.t;
  write : access;
  compute : compute;
}

type program = {
  prog_name : string;
  arrays : array_info list;
  stmts : statement list;
}

exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let array_info program name =
  match List.find_opt (fun a -> a.array_name = name) program.arrays with
  | Some a -> a
  | None -> errf "unknown array %s" name

let reads stmt =
  match stmt.compute with
  | Init _ -> []
  | Mac accesses -> accesses
  | Assign_pointwise (_, a, b) -> [ a; b ]
  | Assign_copy a -> [ a ]

let array_access program access =
  let info = array_info program access.array in
  Poly.Aff_map.compose info.layout access.map

let tensor_space name shape =
  Poly.Space.make name (List.mapi (fun i _ -> Printf.sprintf "d%d" i) shape)

let default_layout name shape =
  let space = tensor_space name shape in
  let n = List.length shape in
  let array_space = Poly.Space.make name [ "a" ] in
  (* Row-major strides. *)
  let strides = Array.make n 1 in
  let extents = Array.of_list shape in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * extents.(i + 1)
  done;
  let expr = ref (Poly.Aff.const n 0) in
  for i = 0 to n - 1 do
    expr := Poly.Aff.add !expr (Poly.Aff.scale strides.(i) (Poly.Aff.var n i))
  done;
  Poly.Aff_map.make space array_space [| !expr |]

let box_of_shape space shape =
  Poly.Basic_set.of_box space (List.map (fun e -> (0, e - 1)) shape)

(* ---- promotion of TIR definitions ---- *)

type build_ctx = { shapes : (string, int list) Hashtbl.t }

let shape_of ctx id =
  match Hashtbl.find_opt ctx.shapes id with
  | Some s -> s
  | None -> errf "operand %s has no shape" id

(* Access to a whole operand from a domain of arity [n]: identity on the
   leading dims for same-shape operands, constant for scalars. *)
let operand_access ctx ~n id =
  let shape = shape_of ctx id in
  let rank = List.length shape in
  let cod = tensor_space id shape in
  if rank = 0 then { array = id; map = Poly.Aff_map.make (Poly.Space.anonymous n) cod [||] }
  else begin
    if rank > n then errf "operand %s rank exceeds statement arity" id;
    let exprs = Array.init rank (fun i -> Poly.Aff.var n i) in
    { array = id; map = Poly.Aff_map.make (Poly.Space.anonymous n) cod exprs }
  end

let contract_statements ctx (def : Tir.Ir.def) factors pairs =
  let shapes = List.map (shape_of ctx) factors in
  let ranks = List.map List.length shapes in
  let offsets =
    List.rev
      (snd
         (List.fold_left (fun (off, acc) r -> (off + r, off :: acc)) (0, []) ranks))
  in
  let total = List.fold_left ( + ) 0 ranks in
  let all_extents = Array.of_list (List.concat shapes) in
  let paired = Array.make (max total 1) (-1) in
  List.iteri
    (fun j (a, b) ->
      paired.(a) <- j;
      paired.(b) <- j)
    pairs;
  let out_globals =
    List.filter (fun g -> paired.(g) < 0) (List.init total Fun.id)
  in
  let nout = List.length out_globals in
  let npairs = List.length pairs in
  let n = nout + npairs in
  let out_shape = List.map (fun g -> all_extents.(g)) out_globals in
  let red_extents = List.map (fun (a, _) -> all_extents.(a)) pairs in
  let out_space_dims = List.init nout (Printf.sprintf "o%d") in
  let red_space_dims = List.init npairs (Printf.sprintf "r%d") in
  let mac_space =
    Poly.Space.make (def.Tir.Ir.id ^ "_mac") (out_space_dims @ red_space_dims)
  in
  let init_space = Poly.Space.make (def.Tir.Ir.id ^ "_init") out_space_dims in
  let out_cod = tensor_space def.Tir.Ir.id out_shape in
  let write_mac =
    {
      array = def.Tir.Ir.id;
      map =
        Poly.Aff_map.make mac_space out_cod
          (Array.init nout (fun i -> Poly.Aff.var n i));
    }
  in
  let factor_access f =
    let id = List.nth factors f in
    let off = List.nth offsets f in
    let rank = List.nth ranks f in
    let shape = List.nth shapes f in
    let cod = tensor_space id shape in
    let exprs =
      Array.init rank (fun l ->
          let g = off + l in
          if paired.(g) >= 0 then Poly.Aff.var n (nout + paired.(g))
          else
            match List.find_index (( = ) g) out_globals with
            | Some p -> Poly.Aff.var n p
            | None -> assert false)
    in
    { array = id; map = Poly.Aff_map.make mac_space cod exprs }
  in
  let mac =
    {
      stmt_name = def.Tir.Ir.id ^ "_mac";
      domain = box_of_shape mac_space (out_shape @ red_extents);
      write = write_mac;
      compute = Mac (List.init (List.length factors) factor_access);
    }
  in
  let init =
    {
      stmt_name = def.Tir.Ir.id ^ "_init";
      domain = box_of_shape init_space out_shape;
      write =
        {
          array = def.Tir.Ir.id;
          map =
            Poly.Aff_map.make init_space out_cod
              (Array.init nout (fun i -> Poly.Aff.var nout i));
        };
      compute = Init 0.0;
    }
  in
  [ init; mac ]

let def_statements ctx (def : Tir.Ir.def) =
  let out_shape = def.Tir.Ir.shape in
  let n = List.length out_shape in
  let space = Poly.Space.make (def.Tir.Ir.id ^ "_stmt") (List.init n (Printf.sprintf "o%d")) in
  let out_cod = tensor_space def.Tir.Ir.id out_shape in
  let write =
    {
      array = def.Tir.Ir.id;
      map =
        Poly.Aff_map.make space out_cod (Array.init n (fun i -> Poly.Aff.var n i));
    }
  in
  let domain = box_of_shape space out_shape in
  match def.Tir.Ir.op with
  | Tir.Ir.Const f -> [ { stmt_name = def.Tir.Ir.id ^ "_stmt"; domain; write; compute = Init f } ]
  | Tir.Ir.Pointwise { f; lhs; rhs } ->
      let la = operand_access ctx ~n lhs in
      let ra = operand_access ctx ~n rhs in
      (* Rebase operand domains onto this statement's space. *)
      let rebase a = { a with map = Poly.Aff_map.make space (Poly.Aff_map.cod a.map) (Poly.Aff_map.exprs a.map) } in
      [
        {
          stmt_name = def.Tir.Ir.id ^ "_stmt";
          domain;
          write;
          compute = Assign_pointwise (f, rebase la, rebase ra);
        };
      ]
  | Tir.Ir.Transpose { src; perm } ->
      let src_shape = shape_of ctx src in
      let cod = tensor_space src src_shape in
      let rank = List.length src_shape in
      let exprs =
        Array.init rank (fun d ->
            match List.find_index (( = ) d) perm with
            | Some i -> Poly.Aff.var n i
            | None -> assert false)
      in
      let acc = { array = src; map = Poly.Aff_map.make space cod exprs } in
      [ { stmt_name = def.Tir.Ir.id ^ "_stmt"; domain; write; compute = Assign_copy acc } ]
  | Tir.Ir.Contract { factors = [ src ]; pairs = [] } ->
      let acc = operand_access ctx ~n src in
      let acc = { acc with map = Poly.Aff_map.make space (Poly.Aff_map.cod acc.map) (Poly.Aff_map.exprs acc.map) } in
      [ { stmt_name = def.Tir.Ir.id ^ "_stmt"; domain; write; compute = Assign_copy acc } ]
  | Tir.Ir.Contract { factors; pairs } -> contract_statements ctx def factors pairs

let of_kernel ?(name = "kernel") (kernel : Tir.Ir.kernel) =
  Tir.Ir.validate kernel;
  let ctx = { shapes = Hashtbl.create 16 } in
  List.iter (fun (id, s) -> Hashtbl.replace ctx.shapes id s) kernel.Tir.Ir.inputs;
  let arrays = ref [] in
  List.iter
    (fun (id, shape) ->
      arrays :=
        {
          array_name = id;
          kind = Input;
          tensor_shape = shape;
          layout = default_layout id shape;
          size = List.fold_left ( * ) 1 shape;
        }
        :: !arrays)
    kernel.Tir.Ir.inputs;
  let stmts =
    List.concat_map
      (fun (def : Tir.Ir.def) ->
        let stmts = def_statements ctx def in
        Hashtbl.replace ctx.shapes def.Tir.Ir.id def.Tir.Ir.shape;
        let kind =
          if List.mem_assoc def.Tir.Ir.id kernel.Tir.Ir.outputs then Output
          else Temp
        in
        arrays :=
          {
            array_name = def.Tir.Ir.id;
            kind;
            tensor_shape = def.Tir.Ir.shape;
            layout = default_layout def.Tir.Ir.id def.Tir.Ir.shape;
            size = List.fold_left ( * ) 1 def.Tir.Ir.shape;
          }
          :: !arrays;
        stmts)
      kernel.Tir.Ir.defs
  in
  { prog_name = name; arrays = List.rev !arrays; stmts }

let operand_map program stmt =
  let domain = stmt.domain in
  let w = Poly.Rel.of_aff_map_on stmt.write.map domain in
  List.map
    (fun r ->
      let rr = Poly.Rel.of_aff_map_on r.map domain in
      Poly.Rel.compose rr (Poly.Rel.inverse w))
    (reads stmt)
  |> fun maps ->
  ignore program;
  maps

let validate program =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a.array_name then
        errf "array %s declared twice" a.array_name;
      Hashtbl.add seen a.array_name ();
      (* The layout must place every tensor element inside the array
         (padding may make the array larger than the dense element count). *)
      let lay_box =
        Array.of_list (List.map (fun e -> (0, e - 1)) a.tensor_shape)
      in
      let exprs = Poly.Aff_map.exprs a.layout in
      if Array.length exprs <> 1 then
        errf "layout of %s must target a 1-D array" a.array_name;
      let lay_lo, lay_hi = Poly.Aff.range exprs.(0) lay_box in
      if lay_lo < 0 || lay_hi >= a.size then
        errf "layout of %s reaches offsets [%d, %d] outside size %d"
          a.array_name lay_lo lay_hi a.size;
      (* Checked at any size: one walk of the tensor box, the images
         seen kept as bits over their range, which lies inside
         [0, a.size) as just checked. *)
      let box = box_of_shape (tensor_space a.array_name a.tensor_shape) a.tensor_shape in
      if not (Poly.Aff_map.is_injective_on a.layout box) then
        errf "layout of %s is not injective" a.array_name)
    program.arrays;
  let written = Hashtbl.create 16 in
  List.iter
    (fun stmt ->
      (match Poly.Basic_set.bounding_box stmt.domain with
      | None -> errf "statement %s has unbounded domain" stmt.stmt_name
      | Some box ->
          let check_access what acc =
            let info = array_info program acc.array in
            let shape = Array.of_list info.tensor_shape in
            if Array.length (Poly.Aff_map.exprs acc.map) <> Array.length shape
            then errf "%s access to %s has wrong rank in %s" what acc.array stmt.stmt_name;
            Array.iteri
              (fun d e ->
                let lo, hi = Poly.Aff.range e box in
                if lo < 0 || hi >= shape.(d) then
                  errf "%s access to %s dim %d out of bounds in %s" what
                    acc.array d stmt.stmt_name)
              (Poly.Aff_map.exprs acc.map)
          in
          check_access "write" stmt.write;
          List.iter (check_access "read") (reads stmt));
      List.iter
        (fun r ->
          let info = array_info program r.array in
          if info.kind <> Input && not (Hashtbl.mem written r.array) then
            errf "array %s read before written in %s" r.array stmt.stmt_name)
        (reads stmt);
      let winfo = array_info program stmt.write.array in
      if winfo.kind = Input then
        errf "statement %s writes input %s" stmt.stmt_name stmt.write.array;
      Hashtbl.replace written stmt.write.array ())
    program.stmts;
  List.iter
    (fun a ->
      if a.kind = Output && not (Hashtbl.mem written a.array_name) then
        errf "output %s never written" a.array_name)
    program.arrays

let pp_access ppf a = Format.fprintf ppf "%s%a" a.array Poly.Aff_map.pp a.map

let pp_statement ppf stmt =
  Format.fprintf ppf "@[<v 2>%s:@ domain %a@ write %a@ "
    stmt.stmt_name Poly.Basic_set.pp stmt.domain pp_access stmt.write;
  (match stmt.compute with
  | Init f -> Format.fprintf ppf ":= %g" f
  | Mac reads ->
      Format.fprintf ppf "+= %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " * ")
           pp_access)
        reads
  | Assign_pointwise (f, a, b) ->
      let op =
        match f with
        | Tir.Ir.Add -> "+"
        | Tir.Ir.Sub -> "-"
        | Tir.Ir.Mul -> "*"
        | Tir.Ir.Div -> "/"
      in
      Format.fprintf ppf ":= %a %s %a" pp_access a op pp_access b
  | Assign_copy a -> Format.fprintf ppf ":= %a" pp_access a);
  Format.fprintf ppf "@]"

let pp_program ppf program =
  Format.fprintf ppf "@[<v>program %s@ " program.prog_name;
  List.iter
    (fun a ->
      Format.fprintf ppf "array %s%s : %d elements@ " a.array_name
        (match a.kind with Input -> " (input)" | Output -> " (output)" | Temp -> " (temp)")
        a.size)
    program.arrays;
  List.iter (fun s -> Format.fprintf ppf "%a@ " pp_statement s) program.stmts;
  Format.fprintf ppf "@]"
