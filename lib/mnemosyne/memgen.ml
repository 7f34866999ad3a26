type mode = No_sharing | Sharing

type slot = { residents : string list; slot_words : int; slot_offset : int }

type plm_unit = {
  unit_name : string;
  slots : slot list;
  copies : int;
  unit_words : int;
  brams : int;
}

type architecture = {
  arch_mode : mode;
  units : plm_unit list;
  storage : Lower.Codegen.storage;
  total_brams : int;
}

exception Error of string

let is_transient name = String.length name > 0 && name.[0] = '%'

let ports_with_unroll (program : Lower.Flow.program) ~unroll array =
  List.fold_left
    (fun acc (stmt : Lower.Flow.statement) ->
      let reads =
        List.length
          (List.filter
             (fun (r : Lower.Flow.access) -> r.Lower.Flow.array = array)
             (Lower.Flow.reads stmt))
      in
      let writes = if stmt.Lower.Flow.write.Lower.Flow.array = array then 1 else 0 in
      max acc ((reads * unroll) + writes))
    1 program.Lower.Flow.stmts

let read_ports_needed program array = ports_with_unroll program ~unroll:1 array

(* Working slot representation during packing. *)
type wslot = { mutable members : string list; mutable wsize : int }

let compatible_with_all live a members =
  List.for_all (Liveness.Analysis.address_space_compatible live a) members

let interface_with_all live a members =
  List.for_all (Liveness.Analysis.interface_compatible live a) members

type scope = All | Interface_only

let generate ?(scope = All) ?(unroll = 1) ~mode (program : Lower.Flow.program) schedule =
  let live = Liveness.Analysis.analyze program schedule in
  let arrays = program.Lower.Flow.arrays in
  let size_of name =
    (Lower.Flow.array_info program name).Lower.Flow.size
  in
  (* Phase A: materialize transients onto declared temporaries (or other
     transients already pinned to one), preferring equal-size targets. *)
  let named, transients =
    List.partition
      (fun (a : Lower.Flow.array_info) -> not (is_transient a.Lower.Flow.array_name))
      arrays
  in
  let slots =
    List.map
      (fun (a : Lower.Flow.array_info) ->
        { members = [ a.Lower.Flow.array_name ]; wsize = a.Lower.Flow.size })
      named
  in
  let extra_slots = ref [] in
  List.iter
    (fun (tr : Lower.Flow.array_info) ->
      let name = tr.Lower.Flow.array_name in
      let candidates =
        List.filter
          (fun s ->
            (* only temp-kind named slots may host transients *)
            List.for_all
              (fun m ->
                is_transient m
                || (Lower.Flow.array_info program m).Lower.Flow.kind = Lower.Flow.Temp)
              s.members
            && s.wsize >= tr.Lower.Flow.size
            && compatible_with_all live name s.members)
          (slots @ !extra_slots)
      in
      match candidates with
      | s :: _ -> s.members <- s.members @ [ name ]
      | [] ->
          extra_slots :=
            !extra_slots @ [ { members = [ name ]; wsize = tr.Lower.Flow.size } ])
    transients;
  let slots = slots @ !extra_slots in
  (* Interface-only scope: temporaries stay inside the accelerator. Their
     slots become local buffers named after their first member; only the
     interface slots proceed to PLM construction. *)
  let internal_storage = ref [] in
  let slots =
    match scope with
    | All -> slots
    | Interface_only ->
        let is_temp_slot s =
          List.for_all
            (fun m ->
              is_transient m
              || (Lower.Flow.array_info program m).Lower.Flow.kind = Lower.Flow.Temp)
            s.members
        in
        let temp_slots, iface_slots = List.partition is_temp_slot slots in
        List.iter
          (fun s ->
            match s.members with
            | [] -> ()
            | first :: _ ->
                List.iter
                  (fun m -> internal_storage := (m, (first, 0)) :: !internal_storage)
                  s.members)
          temp_slots;
        iface_slots
  in
  (* Phase B (Sharing only): merge slots whose cross pairs are all
     address-space compatible; greedy, larger slots first. *)
  let slots =
    if mode = No_sharing then slots
    else begin
      let sorted = List.sort (fun a b -> compare b.wsize a.wsize) slots in
      let merged : wslot list ref = ref [] in
      List.iter
        (fun s ->
          let target =
            List.find_opt
              (fun t ->
                List.for_all
                  (fun m -> compatible_with_all live m t.members)
                  s.members)
              !merged
          in
          match target with
          | Some t ->
              t.members <- t.members @ s.members;
              t.wsize <- max t.wsize s.wsize
          | None -> merged := !merged @ [ s ])
        sorted;
      !merged
    end
  in
  (* Units: initially one per slot. Phase C (Sharing only): stack a slot
     into another unit when every cross pair is memory-interface
     compatible and the stacking does not increase that unit's BRAMs. *)
  let copies_of slot =
    List.fold_left
      (fun acc m ->
        let ports = ports_with_unroll program ~unroll m in
        max acc ((ports + Fpga_platform.Bram.ports - 1) / Fpga_platform.Bram.ports))
      1 slot.members
  in
  let unit_brams words copies =
    copies * Fpga_platform.Bram.count_array ~words
  in
  let units = ref (List.map (fun s -> ref [ s ]) slots) in
  if mode = Sharing then begin
    (* try to move single-slot units (smallest first) into other units *)
    let stable = ref false in
    while not !stable do
      stable := true;
      let sorted =
        List.sort
          (fun a b ->
            compare
              (List.fold_left (fun acc s -> acc + s.wsize) 0 !a)
              (List.fold_left (fun acc s -> acc + s.wsize) 0 !b))
          !units
      in
      (match
         List.find_map
           (fun u ->
             if List.length !u <> 1 then None
             else
               let s = List.hd !u in
               let u_cost =
                 unit_brams
                   (List.fold_left (fun acc x -> acc + x.wsize) 0 !u)
                   (List.fold_left (fun acc x -> max acc (copies_of x)) 1 !u)
               in
               List.find_map
                 (fun t ->
                   if t == u then None
                   else
                     let t_words = List.fold_left (fun acc x -> acc + x.wsize) 0 !t in
                     let t_copies =
                       List.fold_left (fun acc x -> max acc (copies_of x)) 1 !t
                     in
                     let compat =
                       List.for_all
                         (fun m ->
                           List.for_all
                             (fun ts ->
                               interface_with_all live m ts.members)
                             !t)
                         s.members
                     in
                     let new_cost =
                       unit_brams (t_words + s.wsize) (max t_copies (copies_of s))
                     in
                     let old_cost = unit_brams t_words t_copies in
                     if compat && new_cost - old_cost < u_cost then
                       Some (u, t)
                     else None)
                 sorted)
           sorted
       with
      | Some (u, t) ->
          t := !t @ !u;
          units := List.filter (fun x -> not (x == u)) !units;
          stable := false
      | None -> ())
    done
  end;
  (* Final assembly. *)
  let unit_list =
    List.mapi
      (fun i u ->
        let slots_final, _ =
          List.fold_left
            (fun (acc, off) s ->
              ( acc
                @ [ { residents = s.members; slot_words = s.wsize; slot_offset = off } ],
                off + s.wsize ))
            ([], 0) !u
        in
        let words = List.fold_left (fun acc s -> acc + s.wsize) 0 !u in
        let copies = List.fold_left (fun acc s -> max acc (copies_of s)) 1 !u in
        {
          unit_name = Printf.sprintf "plm%d" i;
          slots = slots_final;
          copies;
          unit_words = words;
          brams = unit_brams words copies;
        })
      !units
  in
  let storage =
    !internal_storage
    @ List.concat_map
        (fun unit_ ->
          List.concat_map
            (fun s ->
              List.map (fun m -> (m, (unit_.unit_name, s.slot_offset))) s.residents)
            unit_.slots)
        unit_list
  in
  (* sanity: every array has a slot *)
  List.iter
    (fun (a : Lower.Flow.array_info) ->
      if not (List.mem_assoc a.Lower.Flow.array_name storage) then
        raise (Error ("array not placed: " ^ a.Lower.Flow.array_name)))
    arrays;
  ignore size_of;
  {
    arch_mode = mode;
    units = unit_list;
    storage;
    total_brams = List.fold_left (fun acc u -> acc + u.brams) 0 unit_list;
  }

let port_budget u = Fpga_platform.Bram.ports * u.copies

let unit_of_buffer arch buffer =
  List.find_opt (fun u -> u.unit_name = buffer) arch.units

let metadata (program : Lower.Flow.program) schedule =
  let live = Liveness.Analysis.analyze program schedule in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# Mnemosyne metadata (generated by cfd_accel)\n";
  Buffer.add_string buf "[arrays]\n";
  List.iter
    (fun (a : Lower.Flow.array_info) ->
      Buffer.add_string buf
        (Printf.sprintf "%s words=%d width=64 kind=%s ports=%d\n"
           a.Lower.Flow.array_name a.Lower.Flow.size
           (match a.Lower.Flow.kind with
           | Lower.Flow.Input -> "input"
           | Lower.Flow.Output -> "output"
           | Lower.Flow.Temp -> "temp")
           (read_ports_needed program a.Lower.Flow.array_name)))
    program.Lower.Flow.arrays;
  Buffer.add_string buf "[compatibilities]\n";
  List.iter
    (fun (e : Liveness.Analysis.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s%s\n" e.Liveness.Analysis.a e.Liveness.Analysis.b
           (if e.Liveness.Analysis.address_space then "address-space" else "")
           (if e.Liveness.Analysis.mem_interface then
              (if e.Liveness.Analysis.address_space then "+interface" else "interface")
            else "")))
    (Liveness.Analysis.compatibility_graph live);
  Buffer.contents buf

let pp_architecture ppf arch =
  Format.fprintf ppf "@[<v>PLM architecture (%s): %d BRAM18@ "
    (match arch.arch_mode with No_sharing -> "no sharing" | Sharing -> "sharing")
    arch.total_brams;
  List.iter
    (fun u ->
      Format.fprintf ppf "%s: %d words, %d copies, %d BRAM18@ " u.unit_name
        u.unit_words u.copies u.brams;
      List.iter
        (fun s ->
          Format.fprintf ppf "  @[slot +%d (%d words): %s@]@ " s.slot_offset
            s.slot_words
            (String.concat " | " s.residents))
        u.slots)
    arch.units;
  Format.fprintf ppf "@]"
