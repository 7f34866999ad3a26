(* Exact schedule legality by enumeration, the suite's oracle for the
   rescheduler and the verifier: for every read of an array element the
   producing write is scheduled strictly earlier, and initializations
   precede their accumulations; accumulation order changes are permitted
   (reductions are reassociable). Cost is proportional to the number of
   statement instances. *)

module Flow = Lower.Flow
module Schedule = Lower.Schedule

type events = {
  mutable init_ts : Poly.Lex.timestamp option;
  mutable last_write : Poly.Lex.timestamp option;
  mutable first_accum : Poly.Lex.timestamp option;
  mutable first_read : Poly.Lex.timestamp option;
}

let legal (program : Flow.program) t =
  (match Schedule.validate program t with () -> () | exception Schedule.Error _ -> ());
  let table : (string * int, events) Hashtbl.t = Hashtbl.create 1024 in
  let get array off =
    match Hashtbl.find_opt table (array, off) with
    | Some e -> e
    | None ->
        let e =
          { init_ts = None; last_write = None; first_accum = None; first_read = None }
        in
        Hashtbl.add table (array, off) e;
        e
  in
  let lex_min a b = match a with None -> Some b | Some x -> Some (Poly.Lex.min x b) in
  let lex_max a b = match a with None -> Some b | Some x -> Some (Poly.Lex.max x b) in
  List.iter
    (fun (stmt : Flow.statement) ->
      let sched = Schedule.find t stmt.Flow.stmt_name in
      let wmap = Flow.array_access program stmt.Flow.write in
      let rmaps =
        List.map
          (fun r -> (r.Flow.array, Flow.array_access program r))
          (Flow.reads stmt)
      in
      List.iter
        (fun x ->
          let ts = Schedule.timestamp t sched x in
          let woff = (Poly.Aff_map.apply wmap x).(0) in
          let ev = get stmt.Flow.write.Flow.array woff in
          ev.last_write <- lex_max ev.last_write ts;
          (match stmt.Flow.compute with
          | Flow.Init _ ->
              ev.init_ts <- lex_min ev.init_ts ts
          | Flow.Mac _ -> ev.first_accum <- lex_min ev.first_accum ts
          | Flow.Assign_pointwise _ | Flow.Assign_copy _ -> ());
          List.iter
            (fun (array, rmap) ->
              let roff = (Poly.Aff_map.apply rmap x).(0) in
              let rev = get array roff in
              rev.first_read <- lex_min rev.first_read ts)
            rmaps)
        (Poly.Basic_set.enumerate stmt.Flow.domain))
    program.Flow.stmts;
  let ok = ref true in
  Hashtbl.iter
    (fun (_array, _off) ev ->
      (match (ev.last_write, ev.first_read) with
      | Some w, Some r when not (Poly.Lex.lt w r) -> ok := false
      | _ -> ());
      match (ev.init_ts, ev.first_accum) with
      | Some i, Some a when not (Poly.Lex.lt i a) -> ok := false
      | _ -> ())
    table;
  !ok
