type array_liveness = {
  array : string;
  first_write : Poly.Lex.timestamp;
  last_read : Poly.Lex.timestamp;
  interval : Poly.Lex.interval;
  writers : string list;
  readers : string list;
}

type t = {
  infos : array_liveness list;
  (* for interface compatibility: per statement, which arrays it reads and
     which it writes (same-instance same-type conflicts). *)
  stmt_reads : (string * string list) list;
  stmt_writes : (string * string list) list;
}

type edge = { a : string; b : string; address_space : bool; mem_interface : bool }

exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let virtual_first = [| min_int |]
let virtual_last = [| max_int |]

let analyze (program : Lower.Flow.program) schedule =
  Lower.Schedule.validate program schedule;
  let firsts : (string, Poly.Lex.timestamp) Hashtbl.t = Hashtbl.create 16 in
  let lasts : (string, Poly.Lex.timestamp) Hashtbl.t = Hashtbl.create 16 in
  let writers : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let readers : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let note tbl a s =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
    if not (List.mem s cur) then Hashtbl.replace tbl a (s :: cur)
  in
  let note_writer = note writers in
  let note_reader = note readers in
  let update tbl pick a ts =
    match Hashtbl.find_opt tbl a with
    | None -> Hashtbl.replace tbl a ts
    | Some cur -> Hashtbl.replace tbl a (pick cur ts)
  in
  let stmt_reads = ref [] and stmt_writes = ref [] in
  List.iter
    (fun (stmt : Lower.Flow.statement) ->
      let sched = Lower.Schedule.find schedule stmt.Lower.Flow.stmt_name in
      let lo, hi =
        Lower.Schedule.image_extrema schedule sched stmt.Lower.Flow.domain
      in
      let warray = stmt.Lower.Flow.write.Lower.Flow.array in
      update firsts Poly.Lex.min warray lo;
      (* a write is also the end of the value's production; track as a
         potential last event so write-only arrays get a valid interval *)
      update lasts Poly.Lex.max warray hi;
      note_writer warray stmt.Lower.Flow.stmt_name;
      let rarrays =
        List.map
          (fun (r : Lower.Flow.access) -> r.Lower.Flow.array)
          (Lower.Flow.reads stmt)
      in
      List.iter
        (fun a ->
          update lasts Poly.Lex.max a hi;
          note_reader a stmt.Lower.Flow.stmt_name)
        rarrays;
      stmt_reads := (stmt.Lower.Flow.stmt_name, List.sort_uniq compare rarrays) :: !stmt_reads;
      stmt_writes := (stmt.Lower.Flow.stmt_name, [ warray ]) :: !stmt_writes)
    program.Lower.Flow.stmts;
  let infos =
    List.map
      (fun (a : Lower.Flow.array_info) ->
        let name = a.Lower.Flow.array_name in
        let first_write =
          match a.Lower.Flow.kind with
          | Lower.Flow.Input -> virtual_first
          | Lower.Flow.Output | Lower.Flow.Temp -> (
              match Hashtbl.find_opt firsts name with
              | Some ts -> ts
              | None -> errf "array %s is never written" name)
        in
        let last_read =
          match a.Lower.Flow.kind with
          | Lower.Flow.Output -> virtual_last
          | Lower.Flow.Input | Lower.Flow.Temp -> (
              match Hashtbl.find_opt lasts name with
              | Some ts -> ts
              | None -> first_write)
        in
        {
          array = name;
          first_write;
          last_read;
          interval = Poly.Lex.interval first_write last_read;
          writers =
            List.rev (Option.value ~default:[] (Hashtbl.find_opt writers name));
          readers =
            List.rev (Option.value ~default:[] (Hashtbl.find_opt readers name));
        })
      program.Lower.Flow.arrays
  in
  { infos; stmt_reads = !stmt_reads; stmt_writes = !stmt_writes }

let arrays t = t.infos

let find_opt t name = List.find_opt (fun i -> i.array = name) t.infos

let find t name =
  match find_opt t name with
  | Some i -> i
  | None -> errf "no liveness info for array %s" name

let address_space_compatible t a b =
  let ia = find t a and ib = find t b in
  not (Poly.Lex.overlap ia.interval ib.interval)

let interface_compatible t a b =
  ignore (find t a);
  ignore (find t b);
  let conflicts assoc =
    List.exists (fun (_, arrays) -> List.mem a arrays && List.mem b arrays) assoc
  in
  (not (conflicts t.stmt_reads)) && not (conflicts t.stmt_writes)

let compatibility_graph t =
  let names = List.map (fun i -> i.array) t.infos in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  List.filter_map
    (fun (a, b) ->
      let address_space = address_space_compatible t a b in
      let mem_interface = interface_compatible t a b in
      if address_space || mem_interface then
        Some { a = min a b; b = max a b; address_space; mem_interface }
      else None)
    (pairs names)

let pp_ts ppf ts =
  if ts == virtual_first || ts = [| min_int |] then Format.pp_print_string ppf "first"
  else if ts == virtual_last || ts = [| max_int |] then Format.pp_print_string ppf "last"
  else Poly.Lex.pp_timestamp ppf ts

let pp ppf t =
  List.iter
    (fun i ->
      Format.fprintf ppf "%-6s live [%a .. %a]  writers: %s  readers: %s@\n"
        i.array pp_ts i.first_write pp_ts i.last_read
        (String.concat "," i.writers)
        (String.concat "," i.readers))
    t.infos

let pp_graph ppf edges =
  List.iter
    (fun e ->
      Format.fprintf ppf "%s -- %s : %s@\n" e.a e.b
        (match (e.address_space, e.mem_interface) with
        | true, true -> "address-space + interface"
        | true, false -> "address-space"
        | false, true -> "interface"
        | false, false -> assert false))
    edges
