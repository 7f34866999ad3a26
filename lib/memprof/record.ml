(* Production-path PLM access recorder.

   [enable] installs a probe provider into [Loopir.Compiled], so every
   engine compiled while recording is on — the functional system
   simulation, the SEM operator — reports its dynamic memory behaviour
   here: per-buffer and per-word read/write counts, first-write /
   last-read positions in the dynamic instance sequence, per-site access
   totals and per-instance port pressure. The recorder is
   architecture-agnostic (it sees buffer names and word indices); the
   report layer joins its snapshot against a Mnemosyne architecture.

   Recording is process-global and domain-safe: probe events take one
   mutex. Instance boundaries are tracked per domain, so the
   simultaneous-access (port pressure) accounting of one accelerator
   instance is never polluted by a concurrently simulated one. When
   disabled (the default) no provider is installed and compiled engines
   are bit-identical to unprofiled ones — see
   [Loopir.Compiled.set_probe_provider]. *)

let c_reads = Obs.Metrics.counter "memprof.accesses.read"
let c_writes = Obs.Metrics.counter "memprof.accesses.write"
let c_instances = Obs.Metrics.counter "memprof.instances"
let c_dma_in = Obs.Metrics.counter "memprof.dma.words_in"
let c_dma_out = Obs.Metrics.counter "memprof.dma.words_out"

type word_cell = {
  mutable wc_reads : int;
  mutable wc_writes : int;
  mutable wc_first_write : int;  (* instance seq; -1 = never *)
  mutable wc_last_read : int;  (* instance seq; -1 = never *)
}

type buf_cell = {
  bc_name : string;
  mutable bc_reads : int;
  mutable bc_writes : int;
  mutable bc_max_pressure : int;
  bc_words : (int, word_cell) Hashtbl.t;
  bc_hist : Obs.Metrics.histogram;
}

type site_cell = {
  sc_desc : string;
  mutable sc_instances : int;
  mutable sc_reads : int;
  mutable sc_writes : int;
}

(* One simulated accelerator instance boundary per domain: the tally of
   accesses per buffer since that domain's last [on_instance]. *)
type domain_cell = {
  mutable dc_tally : (string * int ref) list;  (* buffer -> accesses *)
}

type dma_cell = { mutable dma_in : int; mutable dma_out : int }

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let seq = ref 0
let buffers : (string, buf_cell) Hashtbl.t = Hashtbl.create 16
let sites : (string * int, site_cell) Hashtbl.t = Hashtbl.create 64
let domains : (int, domain_cell) Hashtbl.t = Hashtbl.create 8
let dma : (int, dma_cell) Hashtbl.t = Hashtbl.create 8

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
          bc_hist = Obs.Metrics.histogram ("memprof.pressure." ^ name);
        }
      in
      Hashtbl.replace buffers name b;
      b

let word_cell b word =
  match Hashtbl.find_opt b.bc_words word with
  | Some w -> w
  | None ->
      let w =
        { wc_reads = 0; wc_writes = 0; wc_first_write = -1; wc_last_read = -1 }
      in
      Hashtbl.replace b.bc_words word w;
      w

let domain_cell () =
  let id = (Domain.self () :> int) in
  match Hashtbl.find_opt domains id with
  | Some d -> d
  | None ->
      let d = { dc_tally = [] } in
      Hashtbl.replace domains id d;
      d

(* Close the domain's current instance: fold its per-buffer tally into
   the pressure statistics. Call with [lock] held. *)
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
  let on_site ~site ~vars ~stmt =
    ignore vars;
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
  let on_instance ~site ~values =
    ignore values;
    Mutex.protect lock (fun () ->
        let d = domain_cell () in
        flush_instance d;
        incr seq;
        Obs.Metrics.incr c_instances;
        match Hashtbl.find_opt sites (pname, site) with
        | Some s -> s.sc_instances <- s.sc_instances + 1
        | None -> ())
  in
  let on_access ~site ~buffer ~index ~write =
    Mutex.protect lock (fun () ->
        let b = buf_cell buffer in
        let w = word_cell b index in
        let now = !seq in
        if write then begin
          b.bc_writes <- b.bc_writes + 1;
          w.wc_writes <- w.wc_writes + 1;
          if w.wc_first_write < 0 then w.wc_first_write <- now;
          Obs.Metrics.incr c_writes
        end
        else begin
          b.bc_reads <- b.bc_reads + 1;
          w.wc_reads <- w.wc_reads + 1;
          w.wc_last_read <- now;
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
  Some { Loopir.Compiled.on_site; on_instance; on_access }

let reset () =
  Mutex.protect lock (fun () ->
      seq := 0;
      Hashtbl.reset buffers;
      Hashtbl.reset sites;
      Hashtbl.reset domains;
      Hashtbl.reset dma)

let enabled () = Atomic.get enabled_flag

let enable () =
  reset ();
  Atomic.set enabled_flag true;
  Loopir.Compiled.set_probe_provider (Some make_probe)

let disable () =
  Loopir.Compiled.set_probe_provider None;
  Atomic.set enabled_flag false

let record_dma ~set ~dir ~words =
  if enabled () then
    Mutex.protect lock (fun () ->
        let d =
          match Hashtbl.find_opt dma set with
          | Some d -> d
          | None ->
              let d = { dma_in = 0; dma_out = 0 } in
              Hashtbl.replace dma set d;
              d
        in
        match dir with
        | `In ->
            d.dma_in <- d.dma_in + words;
            Obs.Metrics.add c_dma_in words
        | `Out ->
            d.dma_out <- d.dma_out + words;
            Obs.Metrics.add c_dma_out words)

(* --- snapshot ----------------------------------------------------------- *)

type word_stats = {
  w_word : int;
  w_reads : int;
  w_writes : int;
  w_first_write : int option;  (* instance sequence number *)
  w_last_read : int option;
}

type buffer_stats = {
  b_buffer : string;
  b_reads : int;
  b_writes : int;
  b_words_touched : int;
  b_max_pressure : int;
  b_words : word_stats list;  (* sorted by word *)
}

type site_stats = {
  s_proc : string;
  s_site : int;
  s_desc : string;
  s_instances : int;
  s_reads : int;
  s_writes : int;
}

type dma_stats = { d_set : int; d_words_in : int; d_words_out : int }

type snapshot = {
  sn_buffers : buffer_stats list;  (* sorted by buffer name *)
  sn_sites : site_stats list;  (* sorted by (proc, site) *)
  sn_dma : dma_stats list;  (* sorted by set *)
  sn_instances : int;
  sn_accesses : int;
}

let snapshot () =
  Mutex.protect lock (fun () ->
      (* close every domain's open instance so pressure is complete *)
      Hashtbl.iter (fun _ d -> flush_instance d) domains;
      let opt v = if v < 0 then None else Some v in
      let buffers =
        Hashtbl.fold
          (fun _ b acc ->
            let words =
              Hashtbl.fold
                (fun word w acc ->
                  {
                    w_word = word;
                    w_reads = w.wc_reads;
                    w_writes = w.wc_writes;
                    w_first_write = opt w.wc_first_write;
                    w_last_read = opt w.wc_last_read;
                  }
                  :: acc)
                b.bc_words []
              |> List.sort (fun a b -> compare a.w_word b.w_word)
            in
            {
              b_buffer = b.bc_name;
              b_reads = b.bc_reads;
              b_writes = b.bc_writes;
              b_words_touched = Hashtbl.length b.bc_words;
              b_max_pressure = b.bc_max_pressure;
              b_words = words;
            }
            :: acc)
          buffers []
        |> List.sort (fun a b -> compare a.b_buffer b.b_buffer)
      in
      let sites =
        Hashtbl.fold
          (fun (proc, site) s acc ->
            {
              s_proc = proc;
              s_site = site;
              s_desc = s.sc_desc;
              s_instances = s.sc_instances;
              s_reads = s.sc_reads;
              s_writes = s.sc_writes;
            }
            :: acc)
          sites []
        |> List.sort (fun a b -> compare (a.s_proc, a.s_site) (b.s_proc, b.s_site))
      in
      let dma =
        Hashtbl.fold
          (fun set d acc ->
            { d_set = set; d_words_in = d.dma_in; d_words_out = d.dma_out }
            :: acc)
          dma []
        |> List.sort (fun a b -> compare a.d_set b.d_set)
      in
      let accesses =
        List.fold_left (fun acc b -> acc + b.b_reads + b.b_writes) 0 buffers
      in
      {
        sn_buffers = buffers;
        sn_sites = sites;
        sn_dma = dma;
        sn_instances = !seq;
        sn_accesses = accesses;
      })
