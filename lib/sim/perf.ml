type hw_result = {
  k : int;
  m : int;
  exec_cycles : int;
  transfer_cycles : int;
  total_cycles : int;
  exec_seconds : float;
  total_seconds : float;
}

type sw_result = { flops_per_element : int; cpu_cycles : float; seconds : float }

let transfer_cycles ~bytes ~board =
  let ideal =
    float_of_int bytes
    /. float_of_int board.Fpga_platform.Board.axi_bytes_per_cycle
  in
  int_of_float (Float.ceil (ideal /. Constants.axi_efficiency))

let c_perf_runs = Obs.Metrics.counter "sim.perf.runs"
let h_total_cycles = Obs.Metrics.histogram "sim.perf.total-cycles"

(* Double buffering halves the PLM sets: one half holds the block in
   flight while the other is drained/filled. The guard is exposed
   non-raising so CLI paths can surface it as a stable diagnostic
   ([sim-overlap-infeasible]) instead of a crash. *)
let overlap_requirement ~k ~m =
  if m >= 2 * k then None
  else
    Some
      (Printf.sprintf
         "overlap requires m >= 2k for double buffering, got m=%d < 2k=%d \
          (k=%d accelerators)"
         m (2 * k) k)

(* The host main loop as one block schedule: [blocks] iterations of
   (DMA-in of [block_in] cycles; [batch] controller rounds of
   [round_cycles]; DMA-out of [block_out] cycles), or, double-buffered,
   a fill + [blocks] steady-state slots of max(io, compute) + drain.
   The totals are closed-form; the phase layout is walked only by
   timeline emission. *)
module Schedule = struct
  type t = {
    k : int;
    batch : int;
    blocks : int;
    round_cycles : int;
    block_in : int;
    block_out : int;
    overlap : bool;
  }

  let make ~overlap ~(system : Sysgen.System.t) ~board ~round_cycles =
    let sol = system.Sysgen.System.solution in
    let k = sol.Sysgen.Replicate.k and m = sol.Sysgen.Replicate.m in
    (if overlap then
       match overlap_requirement ~k ~m with
       | Some msg -> invalid_arg ("Perf.Schedule.make: " ^ msg)
       | None -> ());
    let host = system.Sysgen.System.host in
    {
      k;
      batch = host.Sysgen.System.rounds_per_block;
      blocks = host.Sysgen.System.block_iterations;
      round_cycles;
      block_in =
        transfer_cycles ~bytes:(m * host.Sysgen.System.bytes_in_per_element)
          ~board;
      block_out =
        transfer_cycles ~bytes:(m * host.Sysgen.System.bytes_out_per_element)
          ~board;
      overlap;
    }

  let compute_block s = s.batch * s.round_cycles
  let io_block s = s.block_in + s.block_out
  let exec_cycles s = s.blocks * compute_block s
  let transfer_cycles s = s.blocks * io_block s

  (* Double buffering is a two-stage pipeline: fill with the first
     block's input, drain with the last block's output; the steady state
     is bound by the slower of DMA and compute. *)
  let total_cycles s =
    if s.overlap then
      io_block s + (s.blocks * max (io_block s) (compute_block s))
    else exec_cycles s + transfer_cycles s

  (* Non-overlapped blocks tile the host track back to back (dma-in,
     compute, dma-out); in the overlapped pipeline the DMA engine drains
     block b-1 and prefetches block b+1 inside slot b. Controller rounds
     and per-kernel executions nest inside every compute window, so the
     ctrl track's busy cycles sum to [exec_cycles], the dma track's to
     [transfer_cycles] and the host track's to [total_cycles]. *)
  let iter_phases s ~latency f =
    let compute_block = compute_block s and io_block = io_block s in
    let acc = Array.init s.k (fun i -> "acc" ^ string_of_int i) in
    let block_attr b = [ ("block", string_of_int b) ] in
    let compute ~block ~start =
      for r = 0 to s.batch - 1 do
        let rs = start + (r * s.round_cycles) in
        let attrs =
          [ ("block", string_of_int block); ("round", string_of_int r) ]
        in
        f ~track:"ctrl" ~name:"round" ~start:rs ~dur:s.round_cycles ~attrs;
        for i = 0 to s.k - 1 do
          f ~track:acc.(i) ~name:"kernel" ~start:rs ~dur:latency ~attrs
        done
      done
    in
    if not s.overlap then
      for b = 0 to s.blocks - 1 do
        let base = b * (io_block + compute_block) in
        let attrs = block_attr b in
        f ~track:"host" ~name:"dma-in" ~start:base ~dur:s.block_in ~attrs;
        f ~track:"dma" ~name:"dma-in" ~start:base ~dur:s.block_in ~attrs;
        f ~track:"host" ~name:"compute" ~start:(base + s.block_in)
          ~dur:compute_block ~attrs;
        compute ~block:b ~start:(base + s.block_in);
        let out_start = base + s.block_in + compute_block in
        f ~track:"host" ~name:"dma-out" ~start:out_start ~dur:s.block_out
          ~attrs;
        f ~track:"dma" ~name:"dma-out" ~start:out_start ~dur:s.block_out
          ~attrs
      done
    else begin
      let steady = max io_block compute_block in
      f ~track:"host" ~name:"fill" ~start:0 ~dur:s.block_in
        ~attrs:(block_attr 0);
      f ~track:"dma" ~name:"dma-in" ~start:0 ~dur:s.block_in
        ~attrs:(block_attr 0);
      for b = 0 to s.blocks - 1 do
        let slot = s.block_in + (b * steady) in
        f ~track:"host" ~name:"steady" ~start:slot ~dur:steady
          ~attrs:(block_attr b);
        compute ~block:b ~start:slot;
        if b > 0 then
          f ~track:"dma" ~name:"dma-out" ~start:slot ~dur:s.block_out
            ~attrs:(block_attr (b - 1));
        if b < s.blocks - 1 then
          f ~track:"dma" ~name:"dma-in"
            ~start:(slot + if b > 0 then s.block_out else 0)
            ~dur:s.block_in ~attrs:(block_attr (b + 1))
      done;
      let drain = s.block_in + (s.blocks * steady) in
      let attrs = block_attr (s.blocks - 1) in
      f ~track:"host" ~name:"drain" ~start:drain ~dur:s.block_out ~attrs;
      f ~track:"dma" ~name:"dma-out" ~start:drain ~dur:s.block_out ~attrs
    end
end

(* Every round is identical (same latency on all k accelerators), so one
   round is run through the controller FSM and the schedule multiplies it
   out over the host main loop. Also returns the FSM steps the round
   took. *)
let simulate ~overlap ~(system : Sysgen.System.t) ~board =
  let k = system.Sysgen.System.solution.Sysgen.Replicate.k in
  let ctrl =
    Sysgen.Axi_ctrl.create ~k
      ~batch:system.Sysgen.System.host.Sysgen.System.rounds_per_block
  in
  let round_cycles =
    Sysgen.Axi_ctrl.run_round ctrl
      ~latencies:(Array.make k system.Sysgen.System.kernel.Hls.Model.latency_cycles)
  in
  (Schedule.make ~overlap ~system ~board ~round_cycles, Sysgen.Axi_ctrl.steps ctrl)

let schedule ~overlap ~system ~board = fst (simulate ~overlap ~system ~board)

let result ~board (s : Schedule.t) =
  let exec = Schedule.exec_cycles s in
  let total = Schedule.total_cycles s in
  let freq = float_of_int board.Fpga_platform.Board.fmax_mhz *. 1e6 in
  {
    k = s.Schedule.k;
    m = s.Schedule.k * s.Schedule.batch;
    exec_cycles = exec;
    transfer_cycles = Schedule.transfer_cycles s;
    total_cycles = total;
    exec_seconds = float_of_int exec /. freq;
    total_seconds = float_of_int total /. freq;
  }

let run_hw_general ~overlap ~(system : Sysgen.System.t) ~board =
  let sol = system.Sysgen.System.solution in
  Obs.Trace.with_span "sim.perf" @@ fun () ->
  Obs.Trace.span_attr "k" (string_of_int sol.Sysgen.Replicate.k);
  Obs.Trace.span_attr "m" (string_of_int sol.Sysgen.Replicate.m);
  let s, steps = simulate ~overlap ~system ~board in
  Obs.Metrics.incr c_perf_runs;
  if Obs.Timeline.enabled () then
    Schedule.iter_phases s
      ~latency:system.Sysgen.System.kernel.Hls.Model.latency_cycles
      (fun ~track ~name ~start ~dur ~attrs ->
        Obs.Timeline.phase ~track ~name ~start ~dur ~attrs ());
  let r = result ~board s in
  Obs.Trace.span_attr "round_cycles" (string_of_int s.Schedule.round_cycles);
  Obs.Trace.span_attr "ctrl_steps" (string_of_int steps);
  Obs.Metrics.observe h_total_cycles (float_of_int r.total_cycles);
  r

let run_sw ~variant ~flops_per_element ~n_elements ~board =
  let penalty =
    match variant with
    | `Reference -> 1.0
    | `Hls_code -> Constants.hls_code_cpu_penalty
  in
  let cycles =
    float_of_int flops_per_element
    *. float_of_int n_elements *. Constants.arm_cycles_per_flop *. penalty
  in
  let freq = float_of_int board.Fpga_platform.Board.host_clock_mhz *. 1e6 in
  { flops_per_element; cpu_cycles = cycles; seconds = cycles /. freq }

let run_hw ~system ~board = run_hw_general ~overlap:false ~system ~board
let run_hw_overlapped ~system ~board = run_hw_general ~overlap:true ~system ~board

let accel_speedup ~baseline r =
  float_of_int baseline.exec_cycles /. float_of_int r.exec_cycles

let total_speedup ~baseline r =
  float_of_int baseline.total_cycles /. float_of_int r.total_cycles

let speedup_vs_sw ~sw r = sw.seconds /. r.total_seconds

let pp_hw ppf r =
  Format.fprintf ppf
    "k=%d m=%d: exec %d cycles (%.3f s), transfers %d cycles, total %.3f s"
    r.k r.m r.exec_cycles r.exec_seconds r.transfer_cycles r.total_seconds
