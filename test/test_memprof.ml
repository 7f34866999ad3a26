(* Dynamic PLM access profiler: the live-interval audit passes on every
   kernel in both memgen modes, reproduces the paper's 31 -> 18 BRAM18
   sharing numbers from observation, catches a forced-illegal storage
   merge with a concrete witness, and costs nothing when disabled. The
   per-domain recorder counts exactly what a single-mutex recorder
   does, at any job count. *)

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
     observed element intervals that overlap there *)
  Alcotest.(check (list string))
    "exactly one slot conflict, with its witness"
    [
      "error[memprof-slot-conflict] shared_r: r and t observed simultaneously \
       live on word 0 of shared_r (witness: [[3,0,0,0,0,0,0,0,0], \
       [4,10,0,0,0,0,1,0,0]] overlaps [[2,0,0,0,0,0,0,0,0], \
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
   DMA ledger are exact on a hand-checkable engine run. *)
let test_recorder_bookkeeping () =
  let r = compile_kernel "mass.cfd" in
  let proc = r.Cfd_core.Compile.proc in
  Memprof.Record.enable ();
  Fun.protect
    ~finally:(fun () -> Memprof.Record.disable ())
    (fun () ->
      let engine = Loopir.Compiled.compile ~mode:Loopir.Compiled.Checked proc in
      let frame = Loopir.Compiled.make_frame engine in
      stage_inputs r engine frame;
      Loopir.Compiled.run engine frame;
      Memprof.Record.record_dma ~set:0 ~dir:`In ~words:1331;
      Memprof.Record.record_dma ~set:0 ~dir:`Out ~words:1331;
      Memprof.Record.record_dma ~set:3 ~dir:`In ~words:42;
      let sn = Memprof.Record.snapshot () in
      (* mass: one pointwise statement over 11^3 elements, three arrays *)
      Alcotest.(check int) "instances = 11^3" 1331
        sn.Memprof.Record.sn_instances;
      Alcotest.(check int) "accesses = 3 per instance" (3 * 1331)
        sn.Memprof.Record.sn_accesses;
      List.iter
        (fun (b : Memprof.Record.buffer_stats) ->
          let name = b.Memprof.Record.b_buffer in
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
          Alcotest.(check int) "set 0 out" 1331 d0.Memprof.Record.d_words_out;
          Alcotest.(check int) "set 3" 3 d3.Memprof.Record.d_set;
          Alcotest.(check int) "set 3 in" 42 d3.Memprof.Record.d_words_in;
          Alcotest.(check int) "set 3 out" 0 d3.Memprof.Record.d_words_out
      | dma -> Alcotest.failf "expected 2 DMA sets, got %d" (List.length dma))

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
    { Loopir.Compiled.on_site; on_instance; on_access }

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

(* The pressure histograms and the [counters] under [prefix], as
   lines. *)
let metric_lines
    ?(counters = [ "accesses.read"; "accesses.write"; "instances" ]) prefix
    (sn : Memprof.Record.snapshot) =
  List.map
    (fun (b : Memprof.Record.buffer_stats) ->
      let h =
        Obs.Metrics.histogram_snapshot
          (Obs.Metrics.histogram
             (prefix ^ ".pressure." ^ b.Memprof.Record.b_buffer))
      in
      Printf.sprintf "pressure %s: n %d, sum %h, min %h, max %h, p50 %h, p95 %h, p99 %h"
        b.Memprof.Record.b_buffer h.Obs.Metrics.h_count h.Obs.Metrics.h_sum
        h.Obs.Metrics.h_min h.Obs.Metrics.h_max h.Obs.Metrics.h_p50
        h.Obs.Metrics.h_p95 h.Obs.Metrics.h_p99)
    sn.Memprof.Record.sn_buffers
  @ List.map
      (fun c ->
        Printf.sprintf "%s %d" c
          (Obs.Metrics.counter_value (Obs.Metrics.counter (prefix ^ "." ^ c))))
      counters

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
   same engine through a tee. *)
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
               let b = Oracle.make_probe proc in
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
        (metric_lines "memprof_oracle" osn)
        (metric_lines "memprof" sn))
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
            "memprof" sn
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
      :: Alcotest.test_case "report JSON and counter tracks well-formed"
           `Quick test_report_json_wellformed
      :: List.map
           (fun file ->
             Alcotest.test_case
               (Printf.sprintf "audit passes: %s (both modes)" file)
               `Slow (test_kernel_audit file))
           (kernel_files ()) );
  ]
