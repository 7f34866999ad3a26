(* Dynamic PLM access profiler: the live-interval audit passes on every
   kernel in both memgen modes, reproduces the paper's 31 -> 18 BRAM18
   sharing numbers from observation, catches a forced-illegal storage
   merge with a concrete witness, and costs nothing when disabled. The
   per-domain recorder counts exactly what a single-mutex recorder
   does, at any job count, and records a fused MAC loop's one event as
   it would the per-access events of its iterations. *)

let kernels_dir () =
  if Sys.file_exists "../kernels" then "../kernels" else "kernels"

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

let compile_kernel ?(options = Cfd_core.Compile.default_options) file =
  match
    Cfd_core.Compile.compile_source ~options
      (read_file (Filename.concat (kernels_dir ()) file))
  with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: %s" file m

let audit ~mode (r : Cfd_core.Compile.result) =
  Memprof.Audit.run ~scope:Mnemosyne.Memgen.All ~mode r.Cfd_core.Compile.program
    r.Cfd_core.Compile.schedule

(* ------------------------------------------------------------------ *)
(* The audit passes on every kernel, both modes                        *)
(* ------------------------------------------------------------------ *)

let check_clean_audit ~what (a : Memprof.Audit.result) =
  (match a.Memprof.Audit.r_diagnostics with
  | [] -> ()
  | ds ->
      Alcotest.failf "%s: %d diagnostics, first: %s" what (List.length ds)
        (Format.asprintf "%a" Analysis.Diagnostic.pp (List.hd ds)));
  Alcotest.(check bool)
    (what ^ ": executed instances") true
    (a.Memprof.Audit.r_instances > 0);
  Alcotest.(check bool)
    (what ^ ": observed accesses") true
    (a.Memprof.Audit.r_accesses > 0);
  List.iter
    (fun (u : Memprof.Audit.unit_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s occupancy within capacity" what
           u.Memprof.Audit.u_name)
        true
        (u.Memprof.Audit.u_words_touched <= u.Memprof.Audit.u_words);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s pressure within port budget" what
           u.Memprof.Audit.u_name)
        true
        (u.Memprof.Audit.u_max_pressure <= u.Memprof.Audit.u_port_budget))
    a.Memprof.Audit.r_units;
  (* every array the kernel touches stayed inside its static interval *)
  List.iter
    (fun (o : Memprof.Audit.array_obs) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s observed within static" what
           o.Memprof.Audit.o_array)
        true o.Memprof.Audit.o_contained)
    a.Memprof.Audit.r_arrays

let test_kernel_audit file () =
  let r = compile_kernel file in
  List.iter
    (fun (label, mode) ->
      check_clean_audit ~what:(file ^ " " ^ label) (audit ~mode r))
    [
      ("no-sharing", Mnemosyne.Memgen.No_sharing);
      ("sharing", Mnemosyne.Memgen.Sharing);
    ]

(* ------------------------------------------------------------------ *)
(* One observed program: the audit, the verifier and the recorder       *)
(* ------------------------------------------------------------------ *)

let has_rule rule =
  List.exists (fun (d : Analysis.Diagnostic.t) -> d.Analysis.Diagnostic.rule = rule)

(* The port budget is one fact about the kernel that ships: on every
   kernel, with sharing on and off, at unroll 1, 2, 4 and 8, the audit
   reports [memprof-port-pressure] exactly when the verifier reports
   [share-ports] (neither does on any of these 48 today), and reports
   nothing else. *)
let test_port_verdicts_agree () =
  List.iter
    (fun file ->
      List.iter
        (fun sharing ->
          List.iter
            (fun unroll ->
              let options =
                {
                  Cfd_core.Compile.default_options with
                  Cfd_core.Compile.sharing;
                  unroll = (if unroll = 1 then None else Some unroll);
                }
              in
              let r = compile_kernel ~options file in
              let what =
                Printf.sprintf "%s sharing %b unroll %d" file sharing unroll
              in
              let diags = (Cfd_core.Compile.audit r).Memprof.Audit.r_diagnostics in
              Alcotest.(check bool) (what ^ ": port verdicts")
                (has_rule "share-ports" (Cfd_core.Compile.check r))
                (has_rule "memprof-port-pressure" diags);
              Alcotest.(check (list string)) (what ^ ": no other audit finding") []
                (List.filter_map
                   (fun (d : Analysis.Diagnostic.t) ->
                     if d.Analysis.Diagnostic.rule = "memprof-port-pressure" then None
                     else Some d.Analysis.Diagnostic.message)
                   diags))
            [ 1; 2; 4; 8 ])
        [ true; false ])
    (kernel_files ())

(* ------------------------------------------------------------------ *)
(* Paper numbers: 31 -> 18 BRAM18 on the Inverse Helmholtz             *)
(* ------------------------------------------------------------------ *)

let test_paper_brams () =
  let r = compile_kernel "inverse_helmholtz.cfd" in
  let audits =
    [
      audit ~mode:Mnemosyne.Memgen.No_sharing r;
      audit ~mode:Mnemosyne.Memgen.Sharing r;
    ]
  in
  let report = Memprof.Report.make ~kernel:"inverse_helmholtz" audits in
  Alcotest.(check bool) "audit passed" true (Memprof.Report.passed report);
  match Memprof.Report.savings report with
  | Some (ns, sh, saved) ->
      Alcotest.(check int) "no-sharing BRAM18" 31 ns;
      Alcotest.(check int) "sharing BRAM18" 18 sh;
      Alcotest.(check int) "savings" 13 saved
  | None -> Alcotest.fail "report carries no savings"

(* ------------------------------------------------------------------ *)
(* Mutation: a forced illegal merge must be caught dynamically         *)
(* ------------------------------------------------------------------ *)

(* t and r have overlapping live ranges (r = D .* t reads t in the very
   statement instances that write r), so Mnemosyne would never merge
   them; [~force] bypasses the static check and the dynamic audit must
   observe the conflict. *)
let test_forced_merge_caught () =
  let res = compile_kernel "inverse_helmholtz.cfd" in
  let program = res.Cfd_core.Compile.program
  and schedule = res.Cfd_core.Compile.schedule in
  Alcotest.check_raises "merge is statically illegal"
    (Liveness.Sharing.Illegal
       "merging r and t is illegal: live intervals overlap") (fun () ->
      ignore (Liveness.Sharing.merge_storage program schedule [ ("t", "r") ]));
  let storage =
    Liveness.Sharing.merge_storage ~force:true program schedule [ ("t", "r") ]
  in
  (* one slot conflict on the first shared word, witnessed by the two
     observed element intervals that overlap there; the shipped kernel
     keeps t's accumulator in a register, so t's interval opens at the
     spill, the timestamp of its reduction's last instance *)
  Alcotest.(check (list string))
    "exactly one slot conflict, with its witness"
    [
      "error[memprof-slot-conflict] shared_r: r and t observed simultaneously \
       live on word 0 of shared_r (witness: [[3,0,0,0,0,0,0,0,0], \
       [4,10,0,0,0,0,1,0,0]] overlaps [[2,0,0,0,0,0,1,10,0], \
       [3,0,0,0,0,0,0,0,0]])";
    ]
    (List.map
       (Format.asprintf "%a" Analysis.Diagnostic.pp)
       (Memprof.Audit.audit_storage ~storage program schedule))

(* ------------------------------------------------------------------ *)
(* Live escape: reads of elements no statement writes                  *)
(* ------------------------------------------------------------------ *)

(* S0: a[i] = u[i] for i < 2, then S1: c[i] = a[i] for i < 4. a@2 and
   a@3 are read but never written, so they have no static live
   interval: the audit sees each read escape, and the verifier flags the
   first such read. Both read the per-element table's never-written
   case. *)
let escape_program () =
  let module Flow = Lower.Flow in
  let array name kind size =
    {
      Flow.array_name = name;
      kind;
      tensor_shape = [ size ];
      layout = Flow.default_layout name [ size ];
      size;
    }
  in
  let stmt name ~n ~write ~read =
    let space = Poly.Space.make name [ "i" ] in
    let i = Poly.Aff.var 1 0 in
    let access array =
      { Flow.array; map = Poly.Aff_map.make space (Poly.Space.make array [ "d0" ]) [| i |] }
    in
    {
      Flow.stmt_name = name;
      domain =
        Poly.Basic_set.of_constraints space
          [
            Poly.Basic_set.Ge i;
            Poly.Basic_set.Ge (Poly.Aff.sub (Poly.Aff.const 1 (n - 1)) i);
          ];
      write = access write;
      compute = Flow.Assign_copy (access read);
    }
  in
  let program =
    {
      Flow.prog_name = "escape";
      arrays = [ array "u" Flow.Input 2; array "a" Flow.Temp 4; array "c" Flow.Output 4 ];
      stmts =
        [ stmt "S0" ~n:2 ~write:"a" ~read:"u"; stmt "S1" ~n:4 ~write:"c" ~read:"a" ];
    }
  in
  let schedule =
    [
      ("S0", { Lower.Schedule.betas = [| 0; 0 |]; dims = [| 0 |] });
      ("S1", { Lower.Schedule.betas = [| 1; 0 |]; dims = [| 0 |] });
    ]
  in
  (program, schedule)

let test_live_escape () =
  let program, schedule = escape_program () in
  let storage = List.map (fun a -> (a, (a, 0))) [ "u"; "a"; "c" ] in
  let diags = Memprof.Audit.audit_storage ~storage program schedule in
  Alcotest.(check (list (pair string string)))
    "two live escapes, one per never-written element read"
    [ ("memprof-live-escape", "a@2"); ("memprof-live-escape", "a@3") ]
    (List.map
       (fun (d : Analysis.Diagnostic.t) ->
         ( d.Analysis.Diagnostic.rule,
           match d.Analysis.Diagnostic.witness with
           | Some (Analysis.Diagnostic.Element (a, off)) -> Printf.sprintf "%s@%d" a off
           | _ -> "no element witness" ))
       diags);
  Alcotest.(check bool) "both are errors" true
    (List.for_all Analysis.Diagnostic.is_error diags);
  Alcotest.(check (list string))
    "the verifier flags the first never-written read"
    [
      "error[use-before-def] S1: reads a@2 before it is defined: the element \
       is never written (witness: S1[2])";
    ]
    (List.map
       (Format.asprintf "%a" Analysis.Diagnostic.pp)
       (Analysis.Verify.use_before_def program schedule))

(* A clean (unforced, legal) merge on compatible arrays passes. *)
let test_legal_merge_clean () =
  let res = compile_kernel "inverse_helmholtz.cfd" in
  let program = res.Cfd_core.Compile.program
  and schedule = res.Cfd_core.Compile.schedule in
  let storage =
    Liveness.Sharing.merge_storage program schedule [ ("u", "t") ]
  in
  Alcotest.(check (list string)) "legal merge audits clean" []
    (List.map
       (fun d -> d.Analysis.Diagnostic.message)
       (Memprof.Audit.audit_storage ~storage program schedule))

(* ------------------------------------------------------------------ *)
(* Recorder gate: disabled profiling is invisible                      *)
(* ------------------------------------------------------------------ *)

let buffer_of (r : Cfd_core.Compile.result) name =
  match
    List.assoc_opt name r.Cfd_core.Compile.memory.Mnemosyne.Memgen.storage
  with
  | Some (b, off) -> (b, off)
  | None -> (name, 0)

let stage_inputs r engine frame =
  List.iter
    (fun (name, tensor) ->
      let buf, off = buffer_of r name in
      let data = Tensor.Dense.to_array tensor in
      Array.blit data 0
        (Loopir.Compiled.buffer engine frame buf)
        off (Array.length data))
    (Cfdlang.Eval.random_inputs ~seed:7 r.Cfd_core.Compile.checked)

let output_words r engine frame =
  List.concat_map
    (fun (a : Lower.Flow.array_info) ->
      match a.Lower.Flow.kind with
      | Lower.Flow.Output ->
          let buf, off = buffer_of r a.Lower.Flow.array_name in
          Array.to_list
            (Array.sub
               (Loopir.Compiled.buffer engine frame buf)
               off a.Lower.Flow.size)
      | Lower.Flow.Input | Lower.Flow.Temp -> [])
    r.Cfd_core.Compile.program.Lower.Flow.arrays

let test_disabled_recorder_invisible () =
  Memprof.Record.disable ();
  Memprof.Record.reset ();
  let r = compile_kernel "mass.cfd" in
  let proc = r.Cfd_core.Compile.proc in
  (* engine compiled with no provider installed: not instrumented *)
  let plain = Loopir.Compiled.compile ~mode:Loopir.Compiled.Checked proc in
  Alcotest.(check bool) "plain engine carries no probe" false
    (Loopir.Compiled.probed plain);
  let plain_frame = Loopir.Compiled.make_frame plain in
  stage_inputs r plain plain_frame;
  Loopir.Compiled.run plain plain_frame;
  let sn = Memprof.Record.snapshot () in
  Alcotest.(check int) "no accesses recorded while disabled" 0
    sn.Memprof.Record.sn_accesses;
  Alcotest.(check int) "no instances recorded while disabled" 0
    sn.Memprof.Record.sn_instances;
  (* same proc compiled while recording: instrumented, same output *)
  Memprof.Record.enable ();
  Fun.protect
    ~finally:(fun () -> Memprof.Record.disable ())
    (fun () ->
      let rec_engine =
        Loopir.Compiled.compile ~mode:Loopir.Compiled.Checked proc
      in
      Alcotest.(check bool) "recorded engine carries the probe" true
        (Loopir.Compiled.probed rec_engine);
      let rec_frame = Loopir.Compiled.make_frame rec_engine in
      stage_inputs r rec_engine rec_frame;
      Loopir.Compiled.run rec_engine rec_frame;
      Alcotest.(check (list (float 0.0)))
        "outputs bit-identical with recording on/off"
        (output_words r plain plain_frame)
        (output_words r rec_engine rec_frame);
      let sn = Memprof.Record.snapshot () in
      Alcotest.(check bool) "recorded accesses" true
        (sn.Memprof.Record.sn_accesses > 0);
      Alcotest.(check bool) "recorded instances" true
        (sn.Memprof.Record.sn_instances > 0);
      Alcotest.(check bool) "recorded buffers" true
        (sn.Memprof.Record.sn_buffers <> []))

(* Recorder bookkeeping: instance, access and per-buffer counts and the
   DMA ledger are exact on a hand-checkable engine run, recorded per
   access (a checked engine) and in bulk (an unchecked one, whose one
   pointwise loop fuses and reports one event per run). *)
let test_recorder_bookkeeping () =
  let r = compile_kernel "mass.cfd" in
  let proc = r.Cfd_core.Compile.proc in
  Alcotest.(check bool) "mass licensed unchecked" true
    (Analysis.Verify.execution_mode proc = Loopir.Compiled.Unchecked);
  let fused = Obs.Metrics.counter "exec.fused_loops" in
  List.iter
    (fun (mode, leg, fused_loops) ->
      Memprof.Record.enable ();
      Fun.protect
        ~finally:(fun () -> Memprof.Record.disable ())
        (fun () ->
          let before = Obs.Metrics.counter_value fused in
          let engine = Loopir.Compiled.compile ~mode proc in
          Alcotest.(check int) (leg ^ ": fused loops") fused_loops
            (Obs.Metrics.counter_value fused - before);
          let frame = Loopir.Compiled.make_frame engine in
          stage_inputs r engine frame;
          Loopir.Compiled.run engine frame;
          Memprof.Record.record_dma ~set:0 ~dir:`In ~words:1331;
          Memprof.Record.record_dma ~set:0 ~dir:`Out ~words:1331;
          Memprof.Record.record_dma ~set:3 ~dir:`In ~words:42;
          let sn = Memprof.Record.snapshot () in
          (* mass: one pointwise statement over 11^3 elements, three
             arrays *)
          Alcotest.(check int) (leg ^ ": instances = 11^3") 1331
            sn.Memprof.Record.sn_instances;
          Alcotest.(check int) (leg ^ ": accesses = 3 per instance") (3 * 1331)
            sn.Memprof.Record.sn_accesses;
          List.iter
            (fun (b : Memprof.Record.buffer_stats) ->
              let name = leg ^ ": " ^ b.Memprof.Record.b_buffer in
              Alcotest.(check int) (name ^ " touches every word") 1331
                b.Memprof.Record.b_words_touched;
              (* each word once: read-only inputs, a write-only output *)
              Alcotest.(check int) (name ^ " accesses every word once") 1331
                (b.Memprof.Record.b_reads + b.Memprof.Record.b_writes);
              Alcotest.(check bool) (name ^ " is read-only or write-only") true
                (b.Memprof.Record.b_reads = 0 || b.Memprof.Record.b_writes = 0);
              Alcotest.(check int) (name ^ " pressure") 1
                b.Memprof.Record.b_max_pressure)
            sn.Memprof.Record.sn_buffers;
          match sn.Memprof.Record.sn_dma with
          | [ d0; d3 ] ->
              Alcotest.(check int) "set 0" 0 d0.Memprof.Record.d_set;
              Alcotest.(check int) "set 0 in" 1331 d0.Memprof.Record.d_words_in;
              Alcotest.(check int) "set 0 out" 1331
                d0.Memprof.Record.d_words_out;
              Alcotest.(check int) "set 3" 3 d3.Memprof.Record.d_set;
              Alcotest.(check int) "set 3 in" 42 d3.Memprof.Record.d_words_in;
              Alcotest.(check int) "set 3 out" 0 d3.Memprof.Record.d_words_out
          | dma ->
              Alcotest.failf "%s: expected 2 DMA sets, got %d" leg
                (List.length dma)))
    [
      (Loopir.Compiled.Checked, "checked", 0);
      (Loopir.Compiled.Unchecked, "unchecked", 1);
    ]

(* ------------------------------------------------------------------ *)
(* The recorder against its single-mutex form                          *)
(* ------------------------------------------------------------------ *)

(* The recorder as it was before its state went per (engine, domain):
   every event takes one mutex, finds its buffer and (proc, site) cells
   in hashtables, marks the word touched and updates the metrics on the
   spot, and each domain's open instance is a tally list keyed by buffer
   name. The only changes are that accesses name their array by slot
   and that it keeps no per-word counts or positions. Its metrics live
   under [memprof_oracle.*]; it keeps no DMA ledger. *)
module Oracle = struct
  module R = Memprof.Record

  let c_reads = Obs.Metrics.counter "memprof_oracle.accesses.read"
  let c_writes = Obs.Metrics.counter "memprof_oracle.accesses.write"
  let c_instances = Obs.Metrics.counter "memprof_oracle.instances"

  type buf_cell = {
    bc_name : string;
    mutable bc_reads : int;
    mutable bc_writes : int;
    mutable bc_max_pressure : int;
    bc_words : (int, unit) Hashtbl.t;  (* the words touched *)
    bc_hist : Obs.Metrics.histogram;
  }

  type site_cell = {
    sc_desc : string;
    mutable sc_instances : int;
    mutable sc_reads : int;
    mutable sc_writes : int;
  }

  type domain_cell = { mutable dc_tally : (string * int ref) list }

  let lock = Mutex.create ()
  let seq = ref 0
  let buffers : (string, buf_cell) Hashtbl.t = Hashtbl.create 16
  let sites : (string * int, site_cell) Hashtbl.t = Hashtbl.create 64
  let domains : (int, domain_cell) Hashtbl.t = Hashtbl.create 8

  let buf_cell name =
    match Hashtbl.find_opt buffers name with
    | Some b -> b
    | None ->
        let b =
          {
            bc_name = name;
            bc_reads = 0;
            bc_writes = 0;
            bc_max_pressure = 0;
            bc_words = Hashtbl.create 64;
            bc_hist = Obs.Metrics.histogram ("memprof_oracle.pressure." ^ name);
          }
        in
        Hashtbl.replace buffers name b;
        b

  let domain_cell () =
    let id = (Domain.self () :> int) in
    match Hashtbl.find_opt domains id with
    | Some d -> d
    | None ->
        let d = { dc_tally = [] } in
        Hashtbl.replace domains id d;
        d

  let flush_instance d =
    List.iter
      (fun (name, n) ->
        let b = buf_cell name in
        if !n > b.bc_max_pressure then b.bc_max_pressure <- !n;
        Obs.Metrics.observe b.bc_hist (float_of_int !n))
      d.dc_tally;
    d.dc_tally <- []

  let make_probe (proc : Loopir.Prog.proc) =
    let pname = proc.Loopir.Prog.name in
    let names = Array.map fst (Loopir.Compiled.array_slots proc) in
    let on_site ~site ~vars:_ ~stmt =
      Mutex.protect lock (fun () ->
          if not (Hashtbl.mem sites (pname, site)) then
            Hashtbl.replace sites (pname, site)
              {
                sc_desc = Loopir.Prog.leaf_desc stmt;
                sc_instances = 0;
                sc_reads = 0;
                sc_writes = 0;
              })
    in
    let on_instance ~site ~values:_ =
      Mutex.protect lock (fun () ->
          let d = domain_cell () in
          flush_instance d;
          incr seq;
          Obs.Metrics.incr c_instances;
          match Hashtbl.find_opt sites (pname, site) with
          | Some s -> s.sc_instances <- s.sc_instances + 1
          | None -> ())
    in
    let on_access ~site ~slot ~index ~write =
      let buffer = names.(slot) in
      Mutex.protect lock (fun () ->
          let b = buf_cell buffer in
          Hashtbl.replace b.bc_words index ();
          if write then begin
            b.bc_writes <- b.bc_writes + 1;
            Obs.Metrics.incr c_writes
          end
          else begin
            b.bc_reads <- b.bc_reads + 1;
            Obs.Metrics.incr c_reads
          end;
          (match Hashtbl.find_opt sites (pname, site) with
          | Some s ->
              if write then s.sc_writes <- s.sc_writes + 1
              else s.sc_reads <- s.sc_reads + 1
          | None -> ());
          let d = domain_cell () in
          match List.assoc_opt buffer d.dc_tally with
          | Some n -> incr n
          | None -> d.dc_tally <- (buffer, ref 1) :: d.dc_tally)
    in
    (* it sees a fused-loop event only through [Test_compiled.expanding] *)
    Test_compiled.per_instance ~on_site ~on_instance ~on_access

  let reset () =
    Mutex.protect lock (fun () ->
        seq := 0;
        Hashtbl.reset buffers;
        Hashtbl.reset sites;
        Hashtbl.reset domains)

  let snapshot () : R.snapshot =
    Mutex.protect lock (fun () ->
        Hashtbl.iter (fun _ d -> flush_instance d) domains;
        let buffers =
          Hashtbl.fold
            (fun _ b acc ->
              {
                R.b_buffer = b.bc_name;
                b_reads = b.bc_reads;
                b_writes = b.bc_writes;
                b_words_touched = Hashtbl.length b.bc_words;
                b_max_pressure = b.bc_max_pressure;
              }
              :: acc)
            buffers []
          |> List.sort (fun a b -> compare a.R.b_buffer b.R.b_buffer)
        in
        let sites =
          Hashtbl.fold
            (fun (proc, site) s acc ->
              {
                R.s_proc = proc;
                s_site = site;
                s_desc = s.sc_desc;
                s_instances = s.sc_instances;
                s_reads = s.sc_reads;
                s_writes = s.sc_writes;
              }
              :: acc)
            sites []
          |> List.sort (fun a b ->
                 compare (a.R.s_proc, a.R.s_site) (b.R.s_proc, b.R.s_site))
        in
        {
          R.sn_buffers = buffers;
          sn_sites = sites;
          sn_dma = [];
          sn_instances = !seq;
          sn_accesses =
            List.fold_left
              (fun acc b -> acc + b.R.b_reads + b.R.b_writes)
              0 buffers;
        })
end

(* Every Operators.all kernel at p = 4 and 7, simulated over 3, 8 and
   20 elements on the solved k = m shape, plus forced k < m shapes:
   there each accelerator runs m/k PLM sets in controller rounds, so the
   round-scheduled and element-sharded strategies visit the elements in
   different orders. *)
let recorder_cases =
  lazy
    (let operators p = Cfdlang.Operators.all ~p () in
     let case ?force_k ?force_m name p ast n =
       let r = Cfd_core.Compile.compile ast in
       let system =
         Cfd_core.Compile.build_system ?force_k ?force_m ~n_elements:n r
       in
       let sol = system.Sysgen.System.solution in
       ( Printf.sprintf "%s p=%d n=%d k=%d m=%d" name p n
           sol.Sysgen.Replicate.k sol.Sysgen.Replicate.m,
         r,
         system,
         n )
     in
     List.concat_map
       (fun p ->
         List.concat_map
           (fun (name, ast) -> List.map (case name p ast) [ 3; 8; 20 ])
           (operators p))
       [ 4; 7 ]
     @ List.map
         (fun (name, p, k, m, n) ->
           case ~force_k:k ~force_m:m name p (List.assoc name (operators p)) n)
         [
           ("interpolation", 4, 2, 8, 20);
           ("inverse_helmholtz", 7, 2, 8, 20);
           ("mass", 4, 1, 4, 7);
         ])

(* A snapshot as lines, one per buffer, site and DMA set. *)
let snapshot_lines (sn : Memprof.Record.snapshot) =
  let module R = Memprof.Record in
  Printf.sprintf "instances %d, accesses %d" sn.R.sn_instances sn.R.sn_accesses
  :: List.map
       (fun (b : R.buffer_stats) ->
         Printf.sprintf "%s: %d reads, %d writes, %d words, pressure %d"
           b.R.b_buffer b.R.b_reads b.R.b_writes b.R.b_words_touched
           b.R.b_max_pressure)
       sn.R.sn_buffers
  @ List.map
      (fun (s : R.site_stats) ->
        Printf.sprintf "site %s/%d (%s): %d instances, %d reads, %d writes"
          s.R.s_proc s.R.s_site s.R.s_desc s.R.s_instances s.R.s_reads
          s.R.s_writes)
      sn.R.sn_sites
  @ List.map
      (fun (d : R.dma_stats) ->
        Printf.sprintf "dma set %d: %d in, %d out" d.R.d_set d.R.d_words_in
          d.R.d_words_out)
      sn.R.sn_dma

(* The pressure histograms of [buffers] and the [counters] under
   [prefix], as lines. *)
let pressure_line buffer (h : Obs.Metrics.histogram_snapshot) =
  Printf.sprintf "pressure %s: n %d, sum %h, min %h, max %h, p50 %h, p95 %h, p99 %h"
    buffer h.Obs.Metrics.h_count h.Obs.Metrics.h_sum h.Obs.Metrics.h_min
    h.Obs.Metrics.h_max h.Obs.Metrics.h_p50 h.Obs.Metrics.h_p95
    h.Obs.Metrics.h_p99

let metric_lines
    ?(counters = [ "accesses.read"; "accesses.write"; "instances" ]) prefix
    buffers =
  List.map
    (fun buffer ->
      pressure_line buffer
        (Obs.Metrics.histogram_snapshot
           (Obs.Metrics.histogram (prefix ^ ".pressure." ^ buffer))))
    buffers
  @ List.map
      (fun c ->
        Printf.sprintf "%s %d" c
          (Obs.Metrics.counter_value (Obs.Metrics.counter (prefix ^ "." ^ c))))
      counters

let buffers_of (sn : Memprof.Record.snapshot) =
  List.map (fun (b : Memprof.Record.buffer_stats) -> b.Memprof.Record.b_buffer)
    sn.Memprof.Record.sn_buffers

let same_lines what expected got =
  let rec go i = function
    | e :: es, g :: gs ->
        if e <> g then Alcotest.failf "%s, line %d: expected %S, got %S" what i e g
        else go (i + 1) (es, gs)
    | [], [] -> ()
    | e :: _, [] -> Alcotest.failf "%s: missing line %d, %S" what i e
    | [], g :: _ -> Alcotest.failf "%s: extra line %d, %S" what i g
  in
  go 0 (expected, got)

(* One recorded simulation (round-scheduled unless [strategy] says
   otherwise), from fresh metrics; with [oracle], the oracle watches the
   same engine through a tee, which hands each fused-loop event to the
   recorder as it is and to the oracle expanded. *)
let recorded_run ?(oracle = false) ?(strategy = Sim.Functional.Round_scheduled)
    ~jobs (r : Cfd_core.Compile.result) system n =
  Obs.Metrics.reset ();
  Memprof.Record.enable ();
  if oracle then begin
    Oracle.reset ();
    Loopir.Compiled.set_probe_provider
      (Some
         (fun proc ->
           Option.map
             (fun (a : Loopir.Compiled.probe) ->
               let b = Test_compiled.expanding (Oracle.make_probe proc) in
               {
                 Loopir.Compiled.on_site =
                   (fun ~site ~vars ~stmt ->
                     a.on_site ~site ~vars ~stmt;
                     b.on_site ~site ~vars ~stmt);
                 on_instance =
                   (fun ~site ~values ->
                     a.on_instance ~site ~values;
                     b.on_instance ~site ~values);
                 on_access =
                   (fun ~site ~slot ~index ~write ->
                     a.on_access ~site ~slot ~index ~write;
                     b.on_access ~site ~slot ~index ~write);
                 on_mac =
                   (fun ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy ~dy ->
                     a.on_mac ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy ~dy;
                     b.on_mac ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy ~dy);
                 on_nest =
                   (fun ~site ~values ~lo ~count ~mac_lo ~mac_count ~x ~ix ~ox
                        ~dx ~y ~iy ~oy ~dy ~a:out ~ia ~oa ->
                     a.on_nest ~site ~values ~lo ~count ~mac_lo ~mac_count ~x
                       ~ix ~ox ~dx ~y ~iy ~oy ~dy ~a:out ~ia ~oa;
                     b.on_nest ~site ~values ~lo ~count ~mac_lo ~mac_count ~x
                       ~ix ~ox ~dx ~y ~iy ~oy ~dy ~a:out ~ia ~oa);
                 on_pointwise =
                   (fun ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy ~dy ~a:out
                        ~ia ~da ->
                     a.on_pointwise ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy
                       ~dy ~a:out ~ia ~da;
                     b.on_pointwise ~site ~values ~lo ~count ~x ~ix ~dx ~y ~iy
                       ~dy ~a:out ~ia ~da);
               })
             (Memprof.Record.make_probe proc)))
  end;
  Fun.protect ~finally:Memprof.Record.disable (fun () ->
      ignore
        (Sim.Functional.run ~jobs ~strategy ~system
           ~proc:r.Cfd_core.Compile.proc
           ~inputs:(Cfd_core.Costing.synthetic_inputs system)
           ~n ()));
  Memprof.Record.snapshot ()

let test_recorder_matches_oracle () =
  List.iter
    (fun (what, r, system, n) ->
      let sn = recorded_run ~oracle:true ~jobs:1 r system n in
      let osn = Oracle.snapshot () in
      Alcotest.(check bool) (what ^ ": accesses recorded") true
        (sn.Memprof.Record.sn_accesses > 0);
      same_lines (what ^ " snapshot") (snapshot_lines osn)
        (snapshot_lines { sn with Memprof.Record.sn_dma = [] });
      same_lines (what ^ " metrics")
        (metric_lines "memprof_oracle" (buffers_of osn))
        (metric_lines "memprof" (buffers_of sn)))
    (Lazy.force recorder_cases)

(* Whatever the strategy and job count, a run records what the
   round-scheduled jobs:1 run does: snapshot and DMA ledger, pressure
   histograms and every [memprof.*] counter. *)
let test_recorder_jobs_invariant () =
  List.iter
    (fun (what, r, system, n) ->
      let lines strategy jobs =
        let sn = recorded_run ~strategy ~jobs r system n in
        snapshot_lines sn
        @ metric_lines
            ~counters:
              [
                "accesses.read";
                "accesses.write";
                "instances";
                "dma.words_in";
                "dma.words_out";
              ]
            "memprof" (buffers_of sn)
      in
      let reference = lines Sim.Functional.Round_scheduled 1 in
      List.iter
        (fun (strategy, jobs) ->
          same_lines
            (Printf.sprintf "%s %s jobs:%d" what
               (Sim.Functional.strategy_name strategy)
               jobs)
            reference (lines strategy jobs))
        [
          (Sim.Functional.Sharded, 1);
          (Sim.Functional.Sharded, 2);
          (Sim.Functional.Sharded, 4);
          (Sim.Functional.Round_scheduled, 2);
          (Sim.Functional.Round_scheduled, 4);
        ])
    (Lazy.force recorder_cases)

(* One element of [proc] compiled in [mode] and recorded, from fresh
   metrics: the metrics after [disable], which leaves the last instance
   open, then the snapshot and the metrics after [snapshot], which
   closes it. *)
let recorded_element ~mode (proc : Loopir.Prog.proc) =
  Obs.Metrics.reset ();
  Memprof.Record.enable ();
  Fun.protect ~finally:Memprof.Record.disable (fun () ->
      (* access patterns are data-independent: the inputs stay zero *)
      let t = Loopir.Compiled.compile ~mode proc in
      Loopir.Compiled.run t (Loopir.Compiled.make_frame t));
  let slots = Array.to_list (Array.map fst (Loopir.Compiled.array_slots proc)) in
  let disabled = metric_lines "memprof" slots in
  let sn = Memprof.Record.snapshot () in
  disabled @ snapshot_lines sn @ metric_lines "memprof" (buffers_of sn)

(* Two fused loops in a row that read [a] from one entry index, with
   different strides or trip counts:
     for j in [0, 2) { <first>; <second> }
   where each of the two reads a[5j + d k] for k in [0, t) in one of
   three shapes:
     MAC loop:   s = 0; for k { s += a[5j + d k] * b[k] }; c[15] = s
     pointwise:  for k { c[4j + k] = a[5j + d k] + b[k] }
     nest:       for i in [0, 2) {
                   s = 0; for k { s += a[5j + d k] * b[k] };
                   c[8 + 2j + i] = s }
   The recorder marks a fused loop's stream only the first time it meets
   it. The two loops' streams on [a] share their entry index but not all
   their words, so the seen key must hold the site; and each loop enters
   [a] at two indices, one per [j], so it must hold the index. *)
let shared_entry_edges () =
  let open Loopir in
  let loop = Test_compiled.loop and ix = Test_compiled.ix in
  let a d = Prog.Load ("a", ix [ (5, "j"); (d, "k") ] 0)
  and b = Prog.Load ("b", ix [ (1, "k") ] 0) in
  let mac d = Prog.Acc_scalar { name = "s"; value = Prog.Mul (a d, b) } in
  let init = Prog.Set_scalar { name = "s"; value = Prog.Const 0. } in
  (* name, loops fused, body *)
  let shapes =
    [
      ( "MAC loop",
        1,
        fun d t ->
          [
            init;
            loop "k" 0 t [ mac d ];
            Test_compiled.store "c" (Ix.const 15) (Prog.Scalar "s");
          ] );
      ( "pointwise",
        1,
        fun d t ->
          [
            loop "k" 0 t
              [
                Test_compiled.store "c"
                  (ix [ (4, "j"); (1, "k") ] 0)
                  (Prog.Add (a d, b));
              ];
          ] );
      ( "nest",
        2,
        fun d t ->
          [
            loop "i" 0 2
              [
                init;
                loop "k" 0 t [ mac d ];
                Test_compiled.store "c"
                  (ix [ (2, "j"); (1, "i") ] 8)
                  (Prog.Scalar "s");
              ];
          ] );
    ]
  in
  let streams = [ (1, 2); (2, 2); (1, 4) ] in
  Test_compiled.cross shapes @@ fun (first, fused1, first_body) ->
  Test_compiled.cross shapes @@ fun (second, fused2, second_body) ->
  Test_compiled.cross streams @@ fun (d1, t1) ->
  List.filter_map
    (fun (d2, t2) ->
      if (d1, t1) = (d2, t2) then None
      else
        Some
          ( Printf.sprintf "shared entry: %s a[5j + %dk] x%d, then %s a[5j + %dk] x%d"
              first d1 t1 second d2 t2,
            fused1 + fused2,
            Test_compiled.edge_proc "shared_entry"
              [ loop "j" 0 2 (first_body d1 t1 @ second_body d2 t2) ] ))
    streams

(* A fused loop's one event ([on_mac], [on_nest] or [on_pointwise])
   records what its per-access events would: an unchecked engine (fused
   MAC loops, nests and pointwise loops) and a checked one (no fusion)
   record the same snapshot, pressure histograms and counters. Every
   Operators.all kernel at p = 4 and 7 at five option points, each
   licensed to run unchecked as the simulator runs it, the hand-built
   nest and pointwise-loop edges ([Test_compiled.nest_edges],
   [Test_compiled.pointwise_edges]), in range by construction, and the
   licensed [shared_entry_edges]. *)
let test_fused_recording_agrees () =
  let options =
    let d = Cfd_core.Compile.default_options in
    [
      ("default", d);
      ("sharing off", { d with Cfd_core.Compile.sharing = false });
      ("unroll 2", { d with Cfd_core.Compile.unroll = Some 2 });
      ("factorize off", { d with Cfd_core.Compile.factorize = false });
      ("fuse_pointwise", { d with Cfd_core.Compile.fuse_pointwise = true });
    ]
  in
  let kernels =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (name, ast) ->
            List.map
              (fun (label, options) ->
                let what = Printf.sprintf "%s p=%d %s" name p label in
                let proc =
                  (Cfd_core.Compile.compile ~options ast).Cfd_core.Compile.proc
                in
                Alcotest.(check bool) (what ^ ": licensed unchecked") true
                  (Analysis.Verify.execution_mode proc
                  = Loopir.Compiled.Unchecked);
                (what, proc))
              options)
          (Cfdlang.Operators.all ~p ()))
      [ 4; 7 ]
  in
  let shared =
    List.map
      (fun (what, fused, proc) ->
        Alcotest.(check bool) (what ^ ": licensed unchecked") true
          (Analysis.Verify.execution_mode proc = Loopir.Compiled.Unchecked);
        Alcotest.(check int) (what ^ ": fused loops") fused
          (Test_compiled.fused_loops Loopir.Compiled.Unchecked proc);
        (what, proc))
      (shared_entry_edges ())
  in
  List.iter
    (fun (what, proc) ->
      same_lines what
        (recorded_element ~mode:Loopir.Compiled.Checked proc)
        (recorded_element ~mode:Loopir.Compiled.Unchecked proc))
    (kernels
    @ List.map
        (fun (e : Test_compiled.edge) -> (e.Test_compiled.what, e.Test_compiled.proc))
        (Test_compiled.nest_edges () @ Test_compiled.pointwise_edges ())
    @ shared)

(* What a recorded run of [n] elements of every Operators.all kernel at
   p = 4 records is [n] times one element's reads, writes, instances,
   site counts and pressure observations, with the same words touched
   and max pressure: per-element totals add, per-word marks and maxima
   do not. *)
let test_recording_scales () =
  let module R = Memprof.Record in
  let pressure sn =
    List.map
      (fun buffer ->
        ( buffer,
          Obs.Metrics.histogram_snapshot
            (Obs.Metrics.histogram ("memprof.pressure." ^ buffer)) ))
      (buffers_of sn)
  in
  let counters () =
    List.map
      (fun c ->
        Obs.Metrics.counter_value (Obs.Metrics.counter ("memprof." ^ c)))
      [ "accesses.read"; "accesses.write"; "instances" ]
  in
  let record r n =
    let system = Cfd_core.Compile.build_system ~n_elements:n r in
    let sn = recorded_run ~jobs:1 r system n in
    ({ sn with R.sn_dma = [] }, pressure sn, counters ())
  in
  let scale n ((sn : R.snapshot), pressure, counters) =
    ( {
        sn with
        R.sn_buffers =
          List.map
            (fun (b : R.buffer_stats) ->
              {
                b with
                R.b_reads = n * b.R.b_reads;
                b_writes = n * b.R.b_writes;
              })
            sn.R.sn_buffers;
        sn_sites =
          List.map
            (fun (s : R.site_stats) ->
              {
                s with
                R.s_instances = n * s.R.s_instances;
                s_reads = n * s.R.s_reads;
                s_writes = n * s.R.s_writes;
              })
            sn.R.sn_sites;
        sn_instances = n * sn.R.sn_instances;
        sn_accesses = n * sn.R.sn_accesses;
      },
      List.map
        (fun (buffer, (h : Obs.Metrics.histogram_snapshot)) ->
          ( buffer,
            {
              h with
              Obs.Metrics.h_count = n * h.Obs.Metrics.h_count;
              h_sum = float_of_int n *. h.Obs.Metrics.h_sum;
            } ))
        pressure,
      List.map (fun c -> n * c) counters )
  in
  let lines (sn, pressure, counters) =
    snapshot_lines sn
    @ List.map (fun (buffer, h) -> pressure_line buffer h) pressure
    @ List.map string_of_int counters
  in
  List.iter
    (fun (name, ast) ->
      let r = Cfd_core.Compile.compile ast in
      let one = record r 1 in
      let (sn, _, _) = one in
      Alcotest.(check bool) (name ^ ": one element recorded") true
        (sn.R.sn_accesses > 0);
      same_lines (name ^ " p=4, 3 elements") (lines (scale 3 one))
        (lines (record r 3)))
    (Cfdlang.Operators.all ~p:4 ())

(* One recorded snapshot, pinned: inverse Helmholtz at p = 11, two
   elements, in both memgen modes; each buffer's (reads, writes, words
   touched, max pressure). *)
let test_pinned_snapshot () =
  let ast = List.assoc "inverse_helmholtz" (Cfdlang.Operators.all ~p:11 ()) in
  List.iter
    (fun (sharing, expected) ->
      let options =
        { Cfd_core.Compile.default_options with Cfd_core.Compile.sharing }
      in
      let r = Cfd_core.Compile.compile ~options ast in
      let system = Cfd_core.Compile.build_system ~n_elements:2 r in
      let sn = Cfd_core.Costing.recorded_sim ~system ~n:2 r in
      Alcotest.(check (list (pair string (list int))))
        (Printf.sprintf "sharing %b" sharing)
        expected
        (List.map
           (fun (b : Memprof.Record.buffer_stats) ->
             ( b.Memprof.Record.b_buffer,
               [
                 b.Memprof.Record.b_reads;
                 b.Memprof.Record.b_writes;
                 b.Memprof.Record.b_words_touched;
                 b.Memprof.Record.b_max_pressure;
               ] ))
           sn.Memprof.Record.sn_buffers))
    [
      ( true,
        [
          ("plm0", [ 178354; 2662; 1452; 1 ]);
          ("plm1", [ 117128; 7986; 1331; 1 ]);
          ("plm2", [ 61226; 7986; 1331; 1 ]);
        ] );
      ( false,
        [
          ("plm0", [ 175692; 0; 121; 1 ]);
          ("plm1", [ 2662; 0; 1331; 1 ]);
          ("plm2", [ 29282; 0; 1331; 1 ]);
          ("plm3", [ 61226; 7986; 1331; 1 ]);
          ("plm4", [ 87846; 7986; 1331; 1 ]);
          ("plm5", [ 0; 2662; 1331; 1 ]);
        ] );
    ]

(* One program, two observers: on every kernel, compiled with sharing
   on and off, the audit of the compiled mode counts the instances,
   accesses and per-unit reads and writes that the recorder counts in a
   one-element simulation of [result.proc]. *)
let test_audit_matches_recorder () =
  List.iter
    (fun file ->
      List.iter
        (fun sharing ->
          let options =
            { Cfd_core.Compile.default_options with Cfd_core.Compile.sharing }
          in
          let r = compile_kernel ~options file in
          let a = Cfd_core.Compile.audit r in
          let system = Cfd_core.Compile.build_system ~n_elements:1 r in
          let sn = recorded_run ~jobs:1 r system 1 in
          same_lines
            (Printf.sprintf "%s sharing %b" file sharing)
            (Printf.sprintf "instances %d, accesses %d"
               sn.Memprof.Record.sn_instances sn.Memprof.Record.sn_accesses
            :: List.map
                 (fun (b : Memprof.Record.buffer_stats) ->
                   Printf.sprintf "%s: %d reads, %d writes"
                     b.Memprof.Record.b_buffer b.Memprof.Record.b_reads
                     b.Memprof.Record.b_writes)
                 sn.Memprof.Record.sn_buffers)
            (Printf.sprintf "instances %d, accesses %d"
               a.Memprof.Audit.r_instances a.Memprof.Audit.r_accesses
            :: List.map
                 (fun (u : Memprof.Audit.unit_stat) ->
                   Printf.sprintf "%s: %d reads, %d writes" u.Memprof.Audit.u_name
                     u.Memprof.Audit.u_reads u.Memprof.Audit.u_writes)
                 (List.sort
                    (fun (x : Memprof.Audit.unit_stat) y ->
                      compare x.Memprof.Audit.u_name y.Memprof.Audit.u_name)
                    a.Memprof.Audit.r_units)))
        [ true; false ])
    (kernel_files ())

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let test_report_json_wellformed () =
  let r = compile_kernel "inverse_helmholtz.cfd" in
  let report =
    Memprof.Report.make ~kernel:"inverse_helmholtz"
      [
        audit ~mode:Mnemosyne.Memgen.No_sharing r;
        audit ~mode:Mnemosyne.Memgen.Sharing r;
      ]
  in
  let reparse what json =
    match Obs.Json.parse (Obs.Json.to_string json) with
    | Ok t -> t
    | Error m -> Alcotest.failf "%s does not parse back: %s" what m
  in
  let t = reparse "report JSON" (Memprof.Report.to_json report) in
  (match Obs.Json.member "audit_passed" t with
  | Some (Obs.Json.Bool true) -> ()
  | _ -> Alcotest.fail "audit_passed missing or false");
  (match Obs.Json.member "no_sharing_brams" t with
  | Some (Obs.Json.Int 31) -> ()
  | _ -> Alcotest.fail "no_sharing_brams <> 31");
  (match Obs.Json.member "sharing_brams" t with
  | Some (Obs.Json.Int 18) -> ()
  | _ -> Alcotest.fail "sharing_brams <> 18");
  (match Obs.Json.member "modes" t with
  | Some (Obs.Json.List [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected two audited modes");
  let trace = reparse "chrome counters" (Memprof.Report.chrome_counters report) in
  match Obs.Json.member "traceEvents" trace with
  | Some (Obs.Json.List evs) ->
      Alcotest.(check bool) "counter track has events" true (evs <> []);
      List.iter
        (fun e ->
          match Obs.Json.member "ph" e with
          | Some (Obs.Json.String "C") -> ()
          | _ -> Alcotest.fail "every event is a counter (ph:C) event")
        evs
  | _ -> Alcotest.fail "no traceEvents array"

let suite =
  [
    ( "memprof.oracle",
      [
        Alcotest.test_case "recorder = mutex recorder at jobs:1" `Quick
          test_recorder_matches_oracle;
        Alcotest.test_case "counts at jobs 2 and 4 = jobs:1" `Quick
          test_recorder_jobs_invariant;
      ] );
    ( "memprof",
      Alcotest.test_case "paper numbers: 31 -> 18 BRAM18 observed" `Quick
        test_paper_brams
      :: Alcotest.test_case "forced illegal merge is caught with witness"
           `Quick test_forced_merge_caught
      :: Alcotest.test_case "reads of never-written elements escape" `Quick
           test_live_escape
      :: Alcotest.test_case "legal merge audits clean" `Quick
           test_legal_merge_clean
      :: Alcotest.test_case "disabled recorder is invisible" `Quick
           test_disabled_recorder_invisible
      :: Alcotest.test_case "recorder bookkeeping is exact" `Quick
           test_recorder_bookkeeping
      :: Alcotest.test_case "fused and unfused recording agree" `Quick
           test_fused_recording_agrees
      :: Alcotest.test_case "report JSON and counter tracks well-formed"
           `Quick test_report_json_wellformed
      :: List.map
           (fun file ->
             Alcotest.test_case
               (Printf.sprintf "audit passes: %s (both modes)" file)
               `Slow (test_kernel_audit file))
           (kernel_files ())
      (* appended, so that the earlier cases keep their indices *)
      @ [
          Alcotest.test_case "n recorded elements = n x one" `Quick
            test_recording_scales;
          Alcotest.test_case "pinned snapshot: inverse Helmholtz p=11" `Quick
            test_pinned_snapshot;
          Alcotest.test_case "audit port verdict = verifier's, 48 configs"
            `Quick test_port_verdicts_agree;
          Alcotest.test_case "audit counts = recorded element, every kernel"
            `Quick test_audit_matches_recorder;
        ] );
  ]
