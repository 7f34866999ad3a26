exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type strategy = Sharded | Round_scheduled

let strategy_name = function
  | Sharded -> "sharded"
  | Round_scheduled -> "round-scheduled"

let default_jobs ~strategy ~n ~k =
  match strategy with
  (* Round-scheduled parallelism is bounded by the k accelerators of a
     controller round; sharded parallelism only by the element count. *)
  | Round_scheduled -> max 1 (min k (Parallel.Pool.default_jobs ()))
  | Sharded -> max 1 (min n (Parallel.Pool.default_jobs ()))

(* Simulation telemetry. The controller structure (blocks, rounds, padded
   tail, DMA volume) is fully determined by n and the solution — not by
   the strategy or job count — so the counters are computed analytically
   up front and flushed once per run, from the calling domain, and agree
   bit-for-bit across strategies; the per-shard, per-block and per-round
   spans only exist while tracing is on. *)
let c_elements = Obs.Metrics.counter "sim.elements"
let c_kernel_runs = Obs.Metrics.counter "sim.kernel-runs"
let c_rounds = Obs.Metrics.counter "sim.rounds"
let c_padded_skips = Obs.Metrics.counter "sim.padded-skips"
let c_dma_in = Obs.Metrics.counter "sim.dma.bytes_in"
let c_dma_out = Obs.Metrics.counter "sim.dma.bytes_out"
let c_shards = Obs.Metrics.counter "sim.shards"

(* [with_span] variant that does not even build its attribute list when
   tracing is off — shards, blocks and rounds are the simulator's hot
   loop. *)
let traced name attrs f =
  if Obs.Trace.enabled () then Obs.Trace.with_span ~attrs:(attrs ()) name f
  else f ()

let run ?jobs ?(strategy = Sharded) ~(system : Sysgen.System.t)
    ~(proc : Loopir.Prog.proc) ~inputs ~n () =
  let sol = system.Sysgen.System.solution in
  let k = sol.Sysgen.Replicate.k
  and m = sol.Sysgen.Replicate.m
  and batch = sol.Sysgen.Replicate.batch in
  let host = system.Sysgen.System.host in
  if n < 1 then errf "n must be positive";
  let jobs =
    match jobs with
    | None -> default_jobs ~strategy ~n ~k
    | Some j when j < 1 -> errf "jobs must be positive"
    | Some j -> j
  in
  (* The kernel is compiled once, at the strongest mode the static
     verifier licenses; all mutable execution state lives in frames, so
     one compiled program drives every frame set of every domain. *)
  let exec =
    Loopir.Compiled.compile ~mode:(Analysis.Verify.execution_mode proc) proc
  in
  let results = Array.make n [] in
  let blocks = (n + m - 1) / m in
  let bytes_per_element trs =
    List.fold_left
      (fun acc (tr : Sysgen.System.transfer) -> acc + tr.Sysgen.System.bytes)
      0 trs
  in
  Obs.Metrics.add c_elements n;
  Obs.Metrics.add c_kernel_runs n;
  Obs.Metrics.add c_rounds (blocks * batch);
  Obs.Metrics.add c_padded_skips ((blocks * m) - n);
  Obs.Metrics.add c_dma_in (n * bytes_per_element host.Sysgen.System.per_element_in);
  Obs.Metrics.add c_dma_out
    (n * bytes_per_element host.Sysgen.System.per_element_out);
  (* Staging helpers shared by both strategies, parameterized by the
     frame set in use. The memprof DMA ledger files element [e] under
     its PLM set in the controller's block, [e mod m], whichever frame
     stages it. *)
  let buffer frames slot name =
    match Loopir.Compiled.buffer exec frames.(slot) name with
    | b -> b
    | exception Loopir.Compiled.Error _ -> errf "unknown PLM buffer %s" name
  in
  let dma_in frames ~slot e =
    let bindings = inputs e in
    List.iter
      (fun (tr : Sysgen.System.transfer) ->
        match List.assoc_opt tr.Sysgen.System.array bindings with
        | None -> errf "element %d: missing input %s" e tr.Sysgen.System.array
        | Some data ->
            let words = tr.Sysgen.System.bytes / 8 in
            if Array.length data <> words then
              errf "element %d: input %s has %d words, expected %d" e
                tr.Sysgen.System.array (Array.length data) words;
            Array.blit data 0
              (buffer frames slot tr.Sysgen.System.buffer)
              tr.Sysgen.System.offset words;
            Memprof.Record.record_dma ~set:(e mod m) ~dir:`In ~words)
      host.Sysgen.System.per_element_in
  in
  let dma_out frames ~slot e =
    results.(e) <-
      List.map
        (fun (tr : Sysgen.System.transfer) ->
          let words = tr.Sysgen.System.bytes / 8 in
          let buf = buffer frames slot tr.Sysgen.System.buffer in
          Memprof.Record.record_dma ~set:(e mod m) ~dir:`Out ~words;
          (tr.Sysgen.System.array, Array.sub buf tr.Sysgen.System.offset words))
        host.Sysgen.System.per_element_out
  in
  (* --- Round-scheduled: the controller-round-faithful host main loop.
     Blocks of m elements; within a block, m/k controller rounds whose k
     active accelerators (disjoint PLM-set frames) run Domain-parallel.
     Each round is a pool dispatch of at most k tiny tasks. --- *)
  let run_round_scheduled () =
    (* a set per PLM set that holds an element: fewer than m when n < m *)
    let plm = Loopir.Compiled.make_frames exec (min m n) in
    (* One persistent pool for the whole run: controller rounds are
       fine-grained (a handful of kernel executions), so per-round domain
       spawns would dominate; the pool's helpers are spawned once. *)
    Parallel.Pool.with_pool ~jobs (fun pool ->
        for block = 0 to blocks - 1 do
          traced "sim.block"
            (fun () -> [ ("block", string_of_int block) ])
            (fun () ->
              (* Input DMA: one element per PLM set. The padded tail of the
                 final block gets no transfer and no execution — the
                 hardware's full-block transfers carry duplicates of element
                 n-1 there, but their results are discarded, so the
                 simulation skips the work. *)
              for slot = 0 to m - 1 do
                let e = (block * m) + slot in
                if e < n then dma_in plm ~slot e
              done;
              (* m/k controller rounds: accelerator i drives PLM set
                 i*batch + round; the active accelerators of a round run in
                 parallel (disjoint frames). *)
              for round = 0 to batch - 1 do
                let active =
                  List.filter
                    (fun acc -> (block * m) + (acc * batch) + round < n)
                    (List.init k Fun.id)
                in
                traced "sim.round"
                  (fun () ->
                    [
                      ("block", string_of_int block);
                      ("round", string_of_int round);
                      ("active", string_of_int (List.length active));
                    ])
                  (fun () ->
                    List.iter
                      (function
                        | Ok () -> ()
                        | Error (e : Parallel.Pool.error) ->
                            (* Raise the simulator's error but keep the
                               backtrace captured in the worker domain, so
                               the report points at the task's real raise
                               site. *)
                            let msg =
                              Format.asprintf
                                "accelerator %d (round %d, block %d): %s"
                                e.Parallel.Pool.index round block
                                e.Parallel.Pool.message
                            in
                            Printexc.raise_with_backtrace (Error msg)
                              e.Parallel.Pool.raw_backtrace)
                      (Parallel.Pool.run pool
                         (fun acc ->
                           Loopir.Compiled.run exec plm.((acc * batch) + round))
                         active))
              done;
              (* Output DMA. *)
              for slot = 0 to m - 1 do
                let e = (block * m) + slot in
                if e < n then dma_out plm ~slot e
              done)
        done)
  in
  (* --- Sharded: contiguous element shards, one long-lived task per
     worker domain. Each shard allocates its own frame set in its own
     domain (domain-local buffers, no shared mutable state between
     shards) and batches the whole DMA-in → execute → DMA-out cycle over
     its elements, so pool dispatch is paid once per shard instead of
     once per controller round. Results land in disjoint slices of
     [results]. --- *)
  let run_shard ~shard ~lo ~hi =
    traced "sim.shard"
      (fun () ->
        [
          ("shard", string_of_int shard);
          ("lo", string_of_int lo);
          ("hi", string_of_int hi);
          ("elements", string_of_int (hi - lo));
        ])
      (fun () ->
        let frames = Loopir.Compiled.make_frames exec (min m (hi - lo)) in
        let mf = Array.length frames in
        let pos = ref lo in
        while !pos < hi do
          let stop = min hi (!pos + mf) in
          for e = !pos to stop - 1 do
            dma_in frames ~slot:(e - !pos) e
          done;
          for e = !pos to stop - 1 do
            try Loopir.Compiled.run exec frames.(e - !pos)
            with exn ->
              (* Name the failing element (the shard shape is jobs-
                 dependent, the element index is not) and keep the
                 backtrace of the real raise site. *)
              let raw = Printexc.get_raw_backtrace () in
              Printexc.raise_with_backtrace
                (Error
                   (Printf.sprintf "element %d: %s" e (Printexc.to_string exn)))
                raw
          done;
          for e = !pos to stop - 1 do
            dma_out frames ~slot:(e - !pos) e
          done;
          pos := stop
        done)
  in
  let run_sharded () =
    let jobs = min jobs n in
    Obs.Metrics.add c_shards jobs;
    if jobs = 1 then run_shard ~shard:0 ~lo:0 ~hi:n
    else
      Parallel.Pool.with_pool ~jobs (fun pool ->
          (* One dispatch, one join: shard errors are captured per slot,
             so one failing shard never aborts or corrupts the others;
             the lowest-indexed failing shard — the one holding the
             lowest failing element, since shards are contiguous and run
             their elements in order — is re-raised, reproducing the
             sequential first-failure semantics independent of [jobs]. *)
          List.iter
            (function
              | Ok () -> ()
              | Error (e : Parallel.Pool.error) -> Parallel.Pool.reraise e)
            (Parallel.Pool.run_chunked pool ~n ~shards:jobs
               (fun ~shard ~lo ~hi -> run_shard ~shard ~lo ~hi)))
  in
  traced "sim.functional"
    (fun () ->
      [
        ("n", string_of_int n);
        ("k", string_of_int k);
        ("m", string_of_int m);
        ("jobs", string_of_int jobs);
        ("strategy", strategy_name strategy);
      ])
    (fun () ->
      match strategy with
      | Round_scheduled -> run_round_scheduled ()
      | Sharded -> run_sharded ());
  results
