(* Tests for the hardware-generation side: fpga_platform, hls, mnemosyne,
   sysgen, sim, and the cfd_core driver. *)

let case name f = Alcotest.test_case name `Quick f

open Fpga_platform

(* ---------- fpga_platform ---------- *)

let test_resource_arith () =
  let a = Resource.make ~lut:10 ~ff:20 ~dsp:3 ~bram18:4 in
  let b = Resource.make ~lut:1 ~ff:2 ~dsp:0 ~bram18:1 in
  let s = Resource.add a (Resource.scale 2 b) in
  Alcotest.(check int) "lut" 12 s.Resource.lut;
  Alcotest.(check int) "bram" 6 s.Resource.bram18;
  Alcotest.(check bool) "fits" true (Resource.fits b ~within:a);
  Alcotest.(check bool) "not fits" false (Resource.fits (Resource.scale 5 a) ~within:a)

let test_resource_utilization () =
  let cap = Board.zcu106.Board.capacity in
  let a = Resource.make ~lut:11318 ~ff:9523 ~dsp:15 ~bram18:0 in
  match Resource.utilization a ~capacity:cap with
  | [ (_, lut); (_, ff); (_, dsp); _ ] ->
      (* Table I row m = 1: 4.9%, 2.1%, 0.9% *)
      Alcotest.(check (float 0.05)) "lut pct" 4.9 lut;
      Alcotest.(check (float 0.05)) "ff pct" 2.1 ff;
      Alcotest.(check (float 0.05)) "dsp pct" 0.9 dsp
  | _ -> Alcotest.fail "unexpected utilization shape"

let test_bram_counts () =
  (* the DESIGN.md allocation rules *)
  Alcotest.(check int) "11^3 doubles" 6 (Bram.count_array ~words:1331);
  Alcotest.(check int) "11^2 doubles (packed)" 1 (Bram.count_array ~words:121);
  Alcotest.(check int) "exactly one primitive" 1 (Bram.count_array ~words:288);
  Alcotest.(check int) "one word over" 2 (Bram.count_array ~words:289);
  Alcotest.(check int) "512 words" 2 (Bram.count_array ~words:512);
  Alcotest.(check int) "zero" 0 (Bram.count ~word_bits:64 ~words:0)

let test_boards () =
  Alcotest.(check int) "zcu106 bram18" 624 Board.zcu106.Board.capacity.Resource.bram18;
  Alcotest.(check int) "zcu106 fmax" 200 Board.zcu106.Board.fmax_mhz;
  Alcotest.(check bool) "zcu102 bigger" true
    (Board.zcu106.Board.capacity.Resource.lut < Board.zcu102.Board.capacity.Resource.lut)

(* ---------- compile helper ---------- *)

let compile ?(p = 11) ?(options = Cfd_core.Compile.default_options) () =
  Cfd_core.Compile.compile ~options (Cfdlang.Ast.inverse_helmholtz ~p ())

let no_sharing_options =
  { Cfd_core.Compile.default_options with Cfd_core.Compile.sharing = false }

(* ---------- hls model ---------- *)

let test_hls_kernel_calibration () =
  (* Section VI: "around 2,314 LUTs, 2,999 FFs, and 15 DSPs" *)
  let r = compile () in
  let res = r.Cfd_core.Compile.hls.Hls.Model.resources in
  Alcotest.(check int) "lut" 2314 res.Resource.lut;
  Alcotest.(check int) "ff" 2999 res.Resource.ff;
  Alcotest.(check int) "dsp" 15 res.Resource.dsp;
  Alcotest.(check int) "no internal bram (decoupled)" 0 res.Resource.bram18

let test_hls_latency_scales () =
  let lat p =
    (compile ~p ()).Cfd_core.Compile.hls.Hls.Model.latency_cycles
  in
  Alcotest.(check bool) "monotone in p" true (lat 4 < lat 8 && lat 8 < lat 11);
  (* factorized stages are O(p^4): going from p=8 to p=11 grows by less
     than the O(p^6) direct ratio *)
  let direct p =
    let options = { Cfd_core.Compile.default_options with Cfd_core.Compile.factorize = false } in
    (compile ~p ~options ()).Cfd_core.Compile.hls.Hls.Model.latency_cycles
  in
  Alcotest.(check bool) "factorized much faster at p=11" true
    (lat 11 * 5 < direct 11)

let test_hls_internal_brams () =
  let options =
    { Cfd_core.Compile.default_options with Cfd_core.Compile.decoupled = false }
  in
  let r = compile ~options () in
  let res = r.Cfd_core.Compile.hls.Hls.Model.resources in
  (* t and r stay inside (transients ping-pong onto them): 2 buffers x 6
     BRAM18 x 2 (HLS default dual-port binding) = 24, matching the paper's
     24-BRAM accelerator. *)
  Alcotest.(check int) "internal brams" 24 res.Resource.bram18;
  Alcotest.(check int) "locals" 2 (List.length r.Cfd_core.Compile.proc.Loopir.Prog.locals)

let test_hls_ports () =
  let r = compile () in
  let ports = r.Cfd_core.Compile.hls.Hls.Model.ports in
  (* sharing architecture: 3 PLM buffers *)
  Alcotest.(check int) "three shared buffers" 3 (List.length ports)

let test_hls_ops_shared () =
  let r = compile () in
  let ops = r.Cfd_core.Compile.hls.Hls.Model.ops_shared in
  Alcotest.(check bool) "one mul one add" true
    (List.mem (Hls.Op_library.Dmul, 1) ops && List.mem (Hls.Op_library.Dadd, 1) ops)

let test_hls_ii_monotone () =
  let lat ii =
    let options =
      { Cfd_core.Compile.default_options with Cfd_core.Compile.pipeline_ii = Some ii }
    in
    (compile ~options ()).Cfd_core.Compile.hls.Hls.Model.latency_cycles
  in
  Alcotest.(check bool) "latency grows with II" true (lat 1 < lat 2 && lat 2 < lat 7);
  (* the reduction loops dominate, so the II=7/II=1 ratio falls between
     the loop-only bound (7x) and no effect (1x) *)
  Alcotest.(check bool) "plausible II=7 penalty" true
    (lat 7 > 3 * lat 1 && lat 7 < 7 * lat 1)

let test_hls_direct_more_dsp () =
  let options = { Cfd_core.Compile.default_options with Cfd_core.Compile.factorize = false } in
  let direct = compile ~options () in
  let fact = compile () in
  Alcotest.(check bool) "direct kernel needs more DSPs" true
    (direct.Cfd_core.Compile.hls.Hls.Model.resources.Resource.dsp
    > fact.Cfd_core.Compile.hls.Hls.Model.resources.Resource.dsp)

(* ---------- mnemosyne ---------- *)

let test_mnemosyne_no_sharing_31 () =
  let r = compile ~options:no_sharing_options () in
  Alcotest.(check int) "31 BRAM18 per kernel" 31
    r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams;
  Alcotest.(check int) "six PLM units" 6
    (List.length r.Cfd_core.Compile.memory.Mnemosyne.Memgen.units)

let test_mnemosyne_sharing_18 () =
  let r = compile () in
  Alcotest.(check int) "18 BRAM18 per kernel" 18
    r.Cfd_core.Compile.memory.Mnemosyne.Memgen.total_brams;
  Alcotest.(check int) "three PLM units" 3
    (List.length r.Cfd_core.Compile.memory.Mnemosyne.Memgen.units)

let test_mnemosyne_transient_pingpong () =
  (* the four factorization transients alias the declared locals t and r *)
  let r = compile ~options:no_sharing_options () in
  let storage = r.Cfd_core.Compile.memory.Mnemosyne.Memgen.storage in
  let buffer name = fst (List.assoc name storage) in
  let t_buf = buffer "t" in
  Alcotest.(check string) "%f0 with t" t_buf (buffer "%f0");
  Alcotest.(check string) "%f2 with t" t_buf (buffer "%f2");
  let r_buf = buffer "r" in
  Alcotest.(check string) "%f1 with r" r_buf (buffer "%f1");
  Alcotest.(check string) "%f3 with r" r_buf (buffer "%f3");
  Alcotest.(check bool) "t and r distinct" true (t_buf <> r_buf)

let test_mnemosyne_sharing_structure () =
  (* {D,v}+S stacked; {u,r}; {t} — the Figure-5 exploitation *)
  let r = compile () in
  let storage = r.Cfd_core.Compile.memory.Mnemosyne.Memgen.storage in
  let place name = List.assoc name storage in
  Alcotest.(check bool) "D and v alias" true (place "D" = place "v");
  Alcotest.(check bool) "u and r alias" true (place "u" = place "r");
  let s_buf, s_off = place "S" in
  Alcotest.(check string) "S stacked with D/v" (fst (place "D")) s_buf;
  Alcotest.(check bool) "S at distinct offset" true (s_off > 0)

let test_mnemosyne_ports () =
  let r = compile () in
  (* factorized kernel: every array accessed at most once per instance +
     the accumulator write: within dual-port budget, no duplication *)
  List.iter
    (fun (u : Mnemosyne.Memgen.plm_unit) ->
      Alcotest.(check int) ("copies " ^ u.Mnemosyne.Memgen.unit_name) 1
        u.Mnemosyne.Memgen.copies)
    r.Cfd_core.Compile.memory.Mnemosyne.Memgen.units

let test_mnemosyne_direct_kernel_duplicates_s () =
  (* The direct rank-6 contraction reads S three times per MAC: S needs
     more than two ports, so its banks are duplicated. *)
  let checked = Cfdlang.Check.check_exn (Cfdlang.Ast.inverse_helmholtz ~p:11 ()) in
  let kernel = Tir.Builder.build ~name:"direct" checked in
  let program = Lower.Flow.of_kernel ~name:"direct" kernel in
  Alcotest.(check int) "S needs 3 ports" 3
    (Mnemosyne.Memgen.read_ports_needed program "S");
  let schedule = Lower.Reschedule.compute program in
  let arch = Mnemosyne.Memgen.generate ~mode:Mnemosyne.Memgen.No_sharing program schedule in
  let s_unit =
    List.find
      (fun (u : Mnemosyne.Memgen.plm_unit) ->
        List.exists
          (fun (s : Mnemosyne.Memgen.slot) -> List.mem "S" s.Mnemosyne.Memgen.residents)
          u.Mnemosyne.Memgen.slots)
      arch.Mnemosyne.Memgen.units
  in
  Alcotest.(check int) "S duplicated" 2 s_unit.Mnemosyne.Memgen.copies

let test_mnemosyne_metadata () =
  let r = compile () in
  let md = r.Cfd_core.Compile.mnemosyne_metadata in
  let has s =
    let len_n = String.length s and len_c = String.length md in
    let rec scan i = i + len_n <= len_c && (String.sub md i len_n = s || scan (i + 1)) in
    Alcotest.(check bool) ("metadata contains " ^ s) true (scan 0)
  in
  has "[arrays]";
  has "[compatibilities]";
  has "S words=121";
  has "v words=1331 width=64 kind=output"

let test_mnemosyne_interface_only () =
  let options =
    { Cfd_core.Compile.default_options with Cfd_core.Compile.decoupled = false }
  in
  let r = compile ~options () in
  let mem = r.Cfd_core.Compile.memory in
  (* only interface arrays in PLM units *)
  List.iter
    (fun (u : Mnemosyne.Memgen.plm_unit) ->
      List.iter
        (fun (s : Mnemosyne.Memgen.slot) ->
          List.iter
            (fun m ->
              Alcotest.(check bool) (m ^ " is interface") true
                (List.mem m [ "S"; "D"; "u"; "v" ]))
            s.Mnemosyne.Memgen.residents)
        u.Mnemosyne.Memgen.slots)
    mem.Mnemosyne.Memgen.units;
  (* total system BRAM (12 external + 24 internal = 36) exceeds the
     decoupled+shared 18: the decoupling claim of Section VI *)
  let total =
    mem.Mnemosyne.Memgen.total_brams
    + r.Cfd_core.Compile.hls.Hls.Model.resources.Resource.bram18
  in
  Alcotest.(check bool) "internal variant worse than shared 18" true (total > 18);
  Alcotest.(check int) "internal variant total" 36 total

(* ---------- replicate / Eq. (3) ---------- *)

let kernel_resources = Resource.make ~lut:2314 ~ff:2999 ~dsp:15 ~bram18:0

let test_replicate_sharing_reaches_16 () =
  let s = Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:18 () in
  Alcotest.(check int) "m" 16 s.Sysgen.Replicate.m;
  Alcotest.(check int) "k" 16 s.Sysgen.Replicate.k

let test_replicate_no_sharing_caps_at_8 () =
  let s = Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:31 () in
  Alcotest.(check int) "m" 8 s.Sysgen.Replicate.m

let test_replicate_forced_batch () =
  let s =
    Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:18 ~force_k:4
      ~force_m:16 ()
  in
  Alcotest.(check int) "batch" 4 s.Sysgen.Replicate.batch

let test_replicate_rejects_bad_shapes () =
  let expect_infeasible f =
    match f () with
    | _ -> Alcotest.fail "expected Infeasible"
    | exception Sysgen.Replicate.Infeasible _ -> ()
  in
  expect_infeasible (fun () ->
      Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:18 ~force_k:3
        ~force_m:16 ());
  expect_infeasible (fun () ->
      Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:18 ~force_k:4
        ~force_m:12 ());
  expect_infeasible (fun () ->
      Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:18 ~force_k:8
        ~force_m:4 ());
  expect_infeasible (fun () ->
      Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:31 ~force_k:16 ())

(* A forced count below 1 is no shape at all: it must end in Infeasible,
   not in a division by zero or a negative allocation further down. *)
let test_replicate_rejects_nonpositive () =
  List.iter
    (fun (force_k, force_m, expect) ->
      match
        Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:18 ?force_k
          ?force_m ()
      with
      | _ -> Alcotest.failf "expected Infeasible (%s)" expect
      | exception Sysgen.Replicate.Infeasible msg ->
          Alcotest.(check string) "message" expect msg)
    [
      (Some 0, None, "forced k = 0 is below 1");
      (None, Some 0, "forced m = 0 is below 1");
      (Some (-2), None, "forced k = -2 is below 1");
      (Some 4, Some (-8), "forced m = -8 is below 1");
    ]

let test_replicate_dsp_bound () =
  (* a DSP-hungry kernel is limited by DSPs, not BRAM *)
  let fat = Resource.make ~lut:100 ~ff:100 ~dsp:1000 ~bram18:0 in
  let s = Sysgen.Replicate.solve ~kernel:fat ~plm_brams:1 () in
  Alcotest.(check int) "dsp-bound" 1 s.Sysgen.Replicate.m

let test_replicate_infeasible_board () =
  let config =
    { Sysgen.Replicate.default_config with Sysgen.Replicate.board = Board.small_test_board }
  in
  match
    Sysgen.Replicate.solve ~config
      ~kernel:(Resource.make ~lut:50000 ~ff:0 ~dsp:0 ~bram18:0)
      ~plm_brams:1 ()
  with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Sysgen.Replicate.Infeasible _ -> ()

let test_table1_lut_model () =
  (* Table I totals (sharing rows) reproduced within ~1%:
     LUT = reserve + m*(kernel+glue) *)
  let expected = [ (1, 11292); (2, 15572); (4, 24480); (8, 42141); (16, 77235) ] in
  List.iter
    (fun (m, paper) ->
      let s =
        Sysgen.Replicate.solve ~kernel:kernel_resources ~plm_brams:18 ~force_k:m ()
      in
      let lut = s.Sysgen.Replicate.used.Resource.lut in
      let err = Float.abs (float_of_int (lut - paper)) /. float_of_int paper in
      if err > 0.011 then
        Alcotest.failf "m=%d: model %d vs paper %d (%.1f%%)" m lut paper (100. *. err))
    expected

(* ---------- axi controller ---------- *)

(* The cycle model's one independent check: Sim.Perf steps this FSM for
   its round, the static estimate uses latency + handshake in closed
   form, and the two must agree on every uniform-latency round. The
   latencies reach those of unfactorized kernels (millions of cycles);
   a uniform positive round takes 3 steps. *)
let qcheck_axi_round_closed_form =
  QCheck.Test.make ~count:200
    ~name:"uniform round = latency + controller handshake"
    QCheck.(triple (int_range 1 16) (int_range 1 8) (int_range 1 50_000_000))
    (fun (k, batch, latency) ->
      let ctrl = Sysgen.Axi_ctrl.create ~k ~batch in
      let cycles =
        Sysgen.Axi_ctrl.run_round ctrl ~latencies:(Array.make k latency)
      in
      (cycles = latency + Sim.Constants.controller_handshake_cycles
      && (not (Sysgen.Axi_ctrl.busy ctrl))
      && Sysgen.Axi_ctrl.steps ctrl <= 3)
      || QCheck.Test.fail_reportf "k=%d batch=%d latency=%d: %d cycles, %d steps"
           k batch latency cycles (Sysgen.Axi_ctrl.steps ctrl))

(* [Axi_ctrl.run_round] as it was before it stepped per event: the
   public [step] on every cycle, each accelerator raising done once its
   latency has elapsed after the start broadcast. *)
let reference_round ctrl ~latencies =
  let k = Sysgen.Axi_ctrl.k ctrl in
  Sysgen.Axi_ctrl.write_start ctrl;
  let ready = Array.make k true in
  let remaining = Array.copy latencies in
  let started = ref false and cycles = ref 0 and finished = ref false in
  while not !finished do
    incr cycles;
    let done_ = Array.map (fun r -> !started && r <= 0) remaining in
    let out = Sysgen.Axi_ctrl.step ctrl ~ready ~done_ in
    if out.Sysgen.Axi_ctrl.ap_start_broadcast then started := true
    else if !started then
      Array.iteri (fun i r -> if r > 0 then remaining.(i) <- r - 1) remaining;
    if out.Sysgen.Axi_ctrl.irq then finished := true
  done;
  !cycles

(* The batch counter is visible on the outputs of an idle step. *)
let batch_index ctrl =
  let k = Sysgen.Axi_ctrl.k ctrl in
  (Sysgen.Axi_ctrl.step ctrl ~ready:(Array.make k true) ~done_:(Array.make k false))
    .Sysgen.Axi_ctrl.batch_index

(* Per-event stepping against the per-cycle driver: independent
   latencies (ties, zeros and stragglers occur) over 1-4 consecutive
   rounds on one controller, so the batch counter wraps. A round may
   take at most 2d + 2 steps for d distinct positive latencies. *)
let qcheck_axi_round_per_cycle =
  let gen =
    QCheck.Gen.(
      int_range 1 16 >>= fun k ->
      triple (return k) (int_range 1 8)
        (list_size (int_range 1 4) (array_size (return k) (int_range 0 5000))))
  in
  let print (k, batch, rounds) =
    Printf.sprintf "k=%d batch=%d rounds=[%s]" k batch
      (String.concat "; "
         (List.map
            (fun l -> String.concat "," (Array.to_list (Array.map string_of_int l)))
            rounds))
  in
  QCheck.Test.make ~count:300
    ~name:"per-event round = per-cycle round, within 2d + 2 steps"
    (QCheck.make ~print gen)
    (fun (k, batch, rounds) ->
      let ctrl = Sysgen.Axi_ctrl.create ~k ~batch in
      let reference = Sysgen.Axi_ctrl.create ~k ~batch in
      List.for_all
        (fun latencies ->
          let before = Sysgen.Axi_ctrl.steps ctrl in
          let cycles = Sysgen.Axi_ctrl.run_round ctrl ~latencies in
          let steps = Sysgen.Axi_ctrl.steps ctrl - before in
          let want = reference_round reference ~latencies in
          let distinct =
            List.length
              (List.sort_uniq compare
                 (List.filter (fun l -> l > 0) (Array.to_list latencies)))
          in
          (cycles = want
          && Sysgen.Axi_ctrl.busy ctrl = Sysgen.Axi_ctrl.busy reference
          && batch_index ctrl = batch_index reference
          && steps <= (2 * distinct) + 2)
          || QCheck.Test.fail_reportf "[%s]: %d cycles in %d steps, want %d cycles"
               (String.concat "," (Array.to_list (Array.map string_of_int latencies)))
               cycles steps want)
        rounds)

let test_axi_round_basic () =
  let ctrl = Sysgen.Axi_ctrl.create ~k:4 ~batch:1 in
  let cycles = Sysgen.Axi_ctrl.run_round ctrl ~latencies:(Array.make 4 100) in
  Alcotest.(check int) "latency + handshake" 102 cycles;
  Alcotest.(check bool) "idle after round" false (Sysgen.Axi_ctrl.busy ctrl)

let test_axi_round_straggler () =
  let ctrl = Sysgen.Axi_ctrl.create ~k:3 ~batch:1 in
  let cycles = Sysgen.Axi_ctrl.run_round ctrl ~latencies:[| 10; 50; 20 |] in
  Alcotest.(check int) "bound by slowest" 52 cycles

let test_axi_batch_counter () =
  let ctrl = Sysgen.Axi_ctrl.create ~k:2 ~batch:4 in
  for expected = 0 to 3 do
    Sysgen.Axi_ctrl.write_start ctrl;
    let ready = [| true; true |] in
    let out1 = Sysgen.Axi_ctrl.step ctrl ~ready ~done_:[| false; false |] in
    Alcotest.(check bool) "broadcast" true out1.Sysgen.Axi_ctrl.ap_start_broadcast;
    Alcotest.(check int) "batch index" expected out1.Sysgen.Axi_ctrl.batch_index;
    (* dones arrive out of order *)
    let out2 = Sysgen.Axi_ctrl.step ctrl ~ready ~done_:[| false; true |] in
    Alcotest.(check bool) "no irq yet" false out2.Sysgen.Axi_ctrl.irq;
    let out3 = Sysgen.Axi_ctrl.step ctrl ~ready ~done_:[| true; false |] in
    Alcotest.(check bool) "irq on last done" true out3.Sysgen.Axi_ctrl.irq
  done;
  (* wrapped around *)
  Sysgen.Axi_ctrl.write_start ctrl;
  let out = Sysgen.Axi_ctrl.step ctrl ~ready:[| true; true |] ~done_:[| false; false |] in
  Alcotest.(check int) "wrapped" 0 out.Sysgen.Axi_ctrl.batch_index

let test_axi_protocol_errors () =
  let ctrl = Sysgen.Axi_ctrl.create ~k:2 ~batch:1 in
  Sysgen.Axi_ctrl.write_start ctrl;
  (match Sysgen.Axi_ctrl.write_start ctrl with
  | _ -> Alcotest.fail "expected Protocol_error"
  | exception Sysgen.Axi_ctrl.Protocol_error _ -> ());
  match Sysgen.Axi_ctrl.step ctrl ~ready:[| true |] ~done_:[| false |] with
  | _ -> Alcotest.fail "expected Protocol_error (width)"
  | exception Sysgen.Axi_ctrl.Protocol_error _ -> ()

let test_axi_waits_for_ready () =
  let ctrl = Sysgen.Axi_ctrl.create ~k:2 ~batch:1 in
  Sysgen.Axi_ctrl.write_start ctrl;
  let out = Sysgen.Axi_ctrl.step ctrl ~ready:[| true; false |] ~done_:[| false; false |] in
  Alcotest.(check bool) "held" false out.Sysgen.Axi_ctrl.ap_start_broadcast;
  let out = Sysgen.Axi_ctrl.step ctrl ~ready:[| true; true |] ~done_:[| false; false |] in
  Alcotest.(check bool) "fired" true out.Sysgen.Axi_ctrl.ap_start_broadcast

(* ---------- system generation ---------- *)

let test_system_structure () =
  let r = compile () in
  let sys = Cfd_core.Compile.build_system ~n_elements:50000 r in
  Sysgen.System.validate sys;
  Alcotest.(check int) "16 kernels" 16 sys.Sysgen.System.solution.Sysgen.Replicate.k;
  (* instances: ctrl + dma + 16 accs + 16 plm sets *)
  Alcotest.(check int) "instances" 34 (List.length sys.Sysgen.System.instances);
  Alcotest.(check int) "host blocks" 3125 sys.Sysgen.System.host.Sysgen.System.block_iterations

let test_system_batch_connections () =
  let r = compile () in
  let sys = Cfd_core.Compile.build_system ~force_k:2 ~force_m:8 ~n_elements:64 r in
  Sysgen.System.validate sys;
  let acc0 =
    List.find (fun (i : Sysgen.System.instance) -> i.Sysgen.System.inst_name = "acc0")
      sys.Sysgen.System.instances
  in
  (* Figure 7c with k=2, m=8 (batch 4): acc0 serves the contiguous block
     plm_set0..3, acc1 serves plm_set4..7 *)
  Alcotest.(check (list string)) "contiguous block assignment"
    [ "plm_set0"; "plm_set1"; "plm_set2"; "plm_set3" ]
    acc0.Sysgen.System.connects_to

let test_system_transfers () =
  let r = compile () in
  let sys = Cfd_core.Compile.build_system ~n_elements:100 r in
  let host = sys.Sysgen.System.host in
  Alcotest.(check int) "in bytes: S+D+u" ((121 + 1331 + 1331) * 8)
    host.Sysgen.System.bytes_in_per_element;
  Alcotest.(check int) "out bytes: v" (1331 * 8) host.Sysgen.System.bytes_out_per_element;
  (* v goes back from the shared D/v buffer at offset 0 *)
  match host.Sysgen.System.per_element_out with
  | [ tr ] ->
      Alcotest.(check string) "array" "v" tr.Sysgen.System.array;
      Alcotest.(check int) "offset" 0 tr.Sysgen.System.offset
  | _ -> Alcotest.fail "expected one output transfer"

let test_system_address_alignment () =
  let r = compile () in
  let sys = Cfd_core.Compile.build_system ~n_elements:64 r in
  List.iter
    (fun (_, base, size) ->
      Alcotest.(check int) "power-of-two aligned" 0 (base mod size))
    sys.Sysgen.System.address_map

(* ---------- performance simulation ---------- *)

let board = Sysgen.Replicate.default_config.Sysgen.Replicate.board

let hw_result ?(n = 50000) ?(options = Cfd_core.Compile.default_options) k =
  let r = compile ~options () in
  let sys = Cfd_core.Compile.build_system ~force_k:k ~n_elements:n r in
  Sim.Perf.run_hw ~system:sys ~board

let test_perf_paper_headlines () =
  (* the Section-VI headline numbers, within 2% *)
  let hw1 = hw_result 1 in
  let hw8 = hw_result 8 in
  let hw16 = hw_result 16 in
  let close msg expected got =
    if Float.abs (got -. expected) /. expected > 0.02 then
      Alcotest.failf "%s: expected ~%.2f, got %.2f" msg expected got
  in
  close "total speedup k=16" 12.58 (Sim.Perf.total_speedup ~baseline:hw1 hw16);
  close "total speedup k=8" 7.09 (Sim.Perf.total_speedup ~baseline:hw1 hw8);
  let sw =
    Sim.Perf.run_sw ~variant:`Reference
      ~flops_per_element:(Tensor.Helmholtz.flops_factorized 11)
      ~n_elements:50000 ~board
  in
  close "vs ARM k=16" 8.62 (Sim.Perf.speedup_vs_sw ~sw hw16);
  let k1_ratio = Sim.Perf.speedup_vs_sw ~sw hw1 in
  Alcotest.(check bool) "k=1 is ~30% slower than SW" true
    (k1_ratio > 0.62 && k1_ratio < 0.78)

let test_perf_accel_speedup_near_ideal () =
  let hw1 = hw_result 1 in
  List.iter
    (fun k ->
      let s = Sim.Perf.accel_speedup ~baseline:hw1 (hw_result k) in
      Alcotest.(check bool)
        (Printf.sprintf "accel speedup k=%d near ideal" k)
        true
        (s > 0.98 *. float_of_int k && s <= 1.001 *. float_of_int k))
    [ 2; 4; 8; 16 ]

let test_perf_sw_hls_code_slower () =
  let flops = Tensor.Helmholtz.flops_factorized 11 in
  let sw = Sim.Perf.run_sw ~variant:`Reference ~flops_per_element:flops ~n_elements:100 ~board in
  let hls_c = Sim.Perf.run_sw ~variant:`Hls_code ~flops_per_element:flops ~n_elements:100 ~board in
  Alcotest.(check bool) "HLS C slower on CPU" true
    (hls_c.Sim.Perf.seconds > sw.Sim.Perf.seconds)

let test_perf_batching_no_improvement () =
  (* Section VI: k < m variants do not improve end-to-end time (transfers
     are not amortized by larger blocks in the current implementation). *)
  let r = compile () in
  let t44 =
    Sim.Perf.run_hw ~system:(Cfd_core.Compile.build_system ~force_k:4 ~force_m:4 ~n_elements:4096 r) ~board
  in
  let t416 =
    Sim.Perf.run_hw ~system:(Cfd_core.Compile.build_system ~force_k:4 ~force_m:16 ~n_elements:4096 r) ~board
  in
  Alcotest.(check bool) "batching does not help" true
    (t416.Sim.Perf.total_seconds >= 0.99 *. t44.Sim.Perf.total_seconds)

let test_perf_transfer_model () =
  let cycles = Sim.Perf.transfer_cycles ~bytes:16000 ~board in
  (* 1000 ideal cycles at 16 B/cycle, divided by the calibrated efficiency *)
  Alcotest.(check bool) "efficiency applied" true (cycles > 1000 && cycles < 2500)

(* ---------- cfd_core driver ---------- *)

let test_compile_verify_option_matrix () =
  List.iter
    (fun (factorize, decoupled, sharing) ->
      let options =
        {
          Cfd_core.Compile.default_options with
          Cfd_core.Compile.factorize;
          decoupled;
          sharing;
        }
      in
      let r = compile ~p:5 ~options () in
      Alcotest.(check bool)
        (Printf.sprintf "verify f=%b d=%b s=%b" factorize decoupled sharing)
        true
        (Cfd_core.Compile.verify ~seed:11 r))
    [
      (true, true, true);
      (true, true, false);
      (true, false, true);
      (true, false, false);
      (false, true, true);
      (false, true, false);
      (false, false, false);
    ]

let test_compile_source () =
  match
    Cfd_core.Compile.compile_source
      "var input a : [4]\nvar output b : [4]\nb = a + a"
  with
  | Ok r -> Alcotest.(check bool) "verifies" true (Cfd_core.Compile.verify r)
  | Error e -> Alcotest.failf "unexpected error: %s" e

let test_compile_source_errors () =
  (match Cfd_core.Compile.compile_source "var input a : [4" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ());
  match Cfd_core.Compile.compile_source "var input a : [4]\nvar output b : [5]\nb = a" with
  | Ok _ -> Alcotest.fail "expected type error"
  | Error _ -> ()

let test_compile_c_source_stable () =
  let r = compile ~p:3 () in
  let has s =
    let c = r.Cfd_core.Compile.c_source in
    let len_n = String.length s and len_c = String.length c in
    let rec scan i = i + len_n <= len_c && (String.sub c i len_n = s || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "header" true (has "Generated by cfd_accel");
  Alcotest.(check bool) "function" true (has "void kernel(");
  Alcotest.(check bool) "pipeline pragma" true (has "#pragma HLS pipeline")

let test_compile_interpolation_program () =
  let r =
    Cfd_core.Compile.compile (Cfdlang.Ast.interpolation ~p:6 ())
  in
  Alcotest.(check bool) "interpolation verifies" true (Cfd_core.Compile.verify r)

let suite =
  [
    ( "platform",
      [
        case "resource arithmetic" test_resource_arith;
        case "table-I percentages" test_resource_utilization;
        case "bram counts" test_bram_counts;
        case "boards" test_boards;
      ] );
    ( "hls",
      [
        case "kernel calibration (Section VI)" test_hls_kernel_calibration;
        case "latency scaling" test_hls_latency_scales;
        case "internal BRAMs" test_hls_internal_brams;
        case "ports" test_hls_ports;
        case "operator sharing" test_hls_ops_shared;
        case "II monotone" test_hls_ii_monotone;
        case "direct kernel DSP" test_hls_direct_more_dsp;
      ] );
    ( "mnemosyne",
      [
        case "no sharing: 31 BRAM" test_mnemosyne_no_sharing_31;
        case "sharing: 18 BRAM" test_mnemosyne_sharing_18;
        case "transient ping-pong" test_mnemosyne_transient_pingpong;
        case "sharing structure (fig 5)" test_mnemosyne_sharing_structure;
        case "no duplication (factorized)" test_mnemosyne_ports;
        case "S duplication (direct)" test_mnemosyne_direct_kernel_duplicates_s;
        case "metadata" test_mnemosyne_metadata;
        case "interface-only scope" test_mnemosyne_interface_only;
      ] );
    ( "sysgen.replicate",
      [
        case "sharing reaches 16" test_replicate_sharing_reaches_16;
        case "no sharing caps at 8" test_replicate_no_sharing_caps_at_8;
        case "forced batch" test_replicate_forced_batch;
        case "bad shapes rejected" test_replicate_rejects_bad_shapes;
        case "forced k or m below 1 rejected"
          test_replicate_rejects_nonpositive;
        case "dsp bound" test_replicate_dsp_bound;
        case "infeasible board" test_replicate_infeasible_board;
        case "table-I LUT model" test_table1_lut_model;
      ] );
    ( "sysgen.axi_ctrl",
      [
        case "basic round" test_axi_round_basic;
        Test_seed.to_alcotest qcheck_axi_round_closed_form;
        Test_seed.to_alcotest qcheck_axi_round_per_cycle;
        case "straggler" test_axi_round_straggler;
        case "batch counter" test_axi_batch_counter;
        case "protocol errors" test_axi_protocol_errors;
        case "waits for ready" test_axi_waits_for_ready;
      ] );
    ( "sysgen.system",
      [
        case "structure" test_system_structure;
        case "batch connections (fig 7c)" test_system_batch_connections;
        case "transfers" test_system_transfers;
        case "address alignment" test_system_address_alignment;
      ] );
    ( "sim",
      [
        case "paper headline numbers" test_perf_paper_headlines;
        case "accel speedup near ideal" test_perf_accel_speedup_near_ideal;
        case "SW HLS code slower" test_perf_sw_hls_code_slower;
        case "k<m batching no improvement" test_perf_batching_no_improvement;
        case "transfer model" test_perf_transfer_model;
      ] );
    ( "cfd_core",
      [
        case "verify option matrix" test_compile_verify_option_matrix;
        case "compile source" test_compile_source;
        case "compile source errors" test_compile_source_errors;
        case "C source contents" test_compile_c_source_stable;
        case "interpolation program" test_compile_interpolation_program;
      ] );
  ]
