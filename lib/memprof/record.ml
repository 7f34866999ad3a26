(* Production-path PLM access recorder.

   [enable] installs a probe provider into [Loopir.Compiled], so every
   engine compiled while recording is on — the functional system
   simulation, the SEM operator — reports its dynamic memory behaviour
   here: per-buffer read/write counts and words touched, per-site access
   totals and per-instance port pressure. The recorder is
   architecture-agnostic (it sees buffer names and word indices); the
   report layer joins its snapshot against a Mnemosyne architecture.

   A probe event costs a few array increments and takes no lock. The
   hot ones are the fused-loop events, one per run of a loop the engine
   fuses: [on_mac] for a MAC loop, [on_nest] for a whole reduction nest,
   [on_pointwise] for a pointwise loop. Each adds the run's instances
   and accesses to its sites and its buffers' read and write totals in
   O(1), counts the run's closed instances per pressure value at once
   and leaves its last instance open. A recorded engine so keeps every
   fused loop of the unprobed engine, and records exactly what the
   per-access events of their iterations would.

   A buffer keeps no per-word counts, only a touched mark per word. An
   access stream of a fused loop marks its words only the first time
   the recorder meets it: the stream's slot, trip counts and strides are
   constants of its site, so the words it touches are fixed by (site,
   operand, entry index), and a triple met before has marked exactly
   those words already, in the same (engine, domain) state. A seen
   bitmap over the entry index of each site and operand records the
   triples met; a repeat costs one byte read. Marks are idempotent and
   their merge is a union, so words touched stay exact.

   State is kept per (engine, domain), where an engine is one probed
   compile, in arrays indexed by array slot, word and site. A domain
   reaches its state through one [Domain.DLS] cell that caches the
   engine it last recorded for, so the lookup is a DLS read and a
   physical comparison; the lock is taken only when a domain first
   records for an engine. Instance boundaries are therefore per domain,
   and the port pressure of one accelerator instance is never polluted
   by a concurrently simulated one. Each instance's per-buffer tally is
   folded into a count per pressure value; the
   [memprof.pressure.<buffer>] histograms and the [memprof.*] access
   and instance counters receive these in bulk when [snapshot],
   [disable] or [reset] flushes. Every merge over
   engines and domains is a sum, a max or a union of touched words, so
   a snapshot does not depend on how a simulation spread its elements
   over domains or in which order it ran them. When disabled (the
   default) no provider is installed and compiled engines are
   bit-identical to unprofiled ones — see
   [Loopir.Compiled.set_probe_provider]. *)

let c_reads = Obs.Metrics.counter "memprof.accesses.read"
let c_writes = Obs.Metrics.counter "memprof.accesses.write"
let c_instances = Obs.Metrics.counter "memprof.instances"
let c_dma_in = Obs.Metrics.counter "memprof.dma.words_in"
let c_dma_out = Obs.Metrics.counter "memprof.dma.words_out"

(* What one domain recorded for one engine. *)
type local = {
  l_owner : cell;  (* the recording domain's DLS cell, as an identity *)
  l_accesses : int array;  (* per slot, stride 2: reads, writes *)
  l_marks : Bytes.t array;  (* slot -> per word: '\001' once touched *)
  l_seen : Bytes.t array;
      (* 3 * site + operand of a fused-loop event -> per entry index:
         '\001' once its stream is marked; empty until first met *)
  l_sites : int array;  (* per site, stride 3: instances, reads, writes *)
  l_tally : int array;  (* slot -> accesses in the open instance *)
  l_touched : int array;  (* slots with a non-zero tally, in the first *)
  mutable l_ntouched : int;  (* [l_ntouched] entries *)
  l_max_pressure : int array;  (* slot -> max tally of a closed instance *)
  l_pressure : int array array;
      (* slot -> pressure -> closed instances not yet flushed *)
  mutable l_flushed_instances : int;  (* totals already in the counters *)
  mutable l_flushed_reads : int;
  mutable l_flushed_writes : int;
}

(* A domain's cache of the engine it last recorded for. *)
and cell = { mutable c_last : (engine * local) option }

and engine = {
  e_proc : string;
  e_slots : (string * int) array;  (* slot -> array name, size *)
  mutable e_descs : string list;  (* site descriptions, last site first *)
  mutable e_locals : local list;  (* one per domain that ran it *)
}

type dma_cell = { mutable dma_in : int; mutable dma_out : int }

(* [lock] guards the engine list, each engine's [e_locals] and the DMA
   ledger; the per-domain arrays are touched under it only by flushes
   and snapshots, which run while no recorded engine does. *)
let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let engines : engine list ref = ref []  (* newest first *)
let dma : (int, dma_cell) Hashtbl.t = Hashtbl.create 8
let cell_key = Domain.DLS.new_key (fun () -> { c_last = None })

let new_local owner e =
  let nslots = Array.length e.e_slots in
  {
    l_owner = owner;
    l_accesses = Array.make (2 * nslots) 0;
    l_marks = Array.map (fun (_, size) -> Bytes.make size '\000') e.e_slots;
    l_seen = Array.make (3 * List.length e.e_descs) Bytes.empty;
    l_sites = Array.make (3 * List.length e.e_descs) 0;
    l_tally = Array.make nslots 0;
    l_touched = Array.make nslots 0;
    l_ntouched = 0;
    l_max_pressure = Array.make nslots 0;
    l_pressure = Array.make nslots [||];
    l_flushed_instances = 0;
    l_flushed_reads = 0;
    l_flushed_writes = 0;
  }

(* The calling domain's state for [e]. *)
let local e =
  let c = Domain.DLS.get cell_key in
  match c.c_last with
  | Some (e', l) when e' == e -> l
  | _ ->
      let l =
        Mutex.protect lock (fun () ->
            match List.find_opt (fun l -> l.l_owner == c) e.e_locals with
            | Some l -> l
            | None ->
                let l = new_local c e in
                e.e_locals <- l :: e.e_locals;
                l)
      in
      c.c_last <- Some (e, l);
      l

(* Count [k] closed instances with [n] accesses to [slot]. *)
let add_closed l slot n k =
  if k > 0 then begin
    if n > l.l_max_pressure.(slot) then l.l_max_pressure.(slot) <- n;
    let counts = l.l_pressure.(slot) in
    let counts =
      if n < Array.length counts then counts
      else begin
        let grown = Array.make (2 * n) 0 in
        Array.blit counts 0 grown 0 (Array.length counts);
        l.l_pressure.(slot) <- grown;
        grown
      end
    in
    counts.(n) <- counts.(n) + k
  end

(* Fold the open instance's tallies into the pressure counts. *)
let close_instance l =
  for i = 0 to l.l_ntouched - 1 do
    let slot = l.l_touched.(i) in
    add_closed l slot l.l_tally.(slot) 1;
    l.l_tally.(slot) <- 0
  done;
  l.l_ntouched <- 0

(* Open an instance's tally on [slot] at [n]; the slot's tally is 0. *)
let open_tally l slot n =
  l.l_touched.(l.l_ntouched) <- slot;
  l.l_ntouched <- l.l_ntouched + 1;
  l.l_tally.(slot) <- n

let add_site l site ~instances ~reads ~writes =
  let s = 3 * site in
  l.l_sites.(s) <- l.l_sites.(s) + instances;
  l.l_sites.(s + 1) <- l.l_sites.(s + 1) + reads;
  l.l_sites.(s + 2) <- l.l_sites.(s + 2) + writes

let add_accesses l slot ~count ~write =
  let i = (2 * slot) + Bool.to_int write in
  l.l_accesses.(i) <- l.l_accesses.(i) + count

(* Whether the fused-loop event at [site] meets the stream of its
   operand [operand], on [slot] from word [index] on, for the first
   time; marks it met. *)
let first_seen e l ~site ~operand ~slot ~index =
  let key = (3 * site) + operand in
  let seen =
    let seen = l.l_seen.(key) in
    if Bytes.length seen > 0 then seen
    else begin
      let seen = Bytes.make (snd e.e_slots.(slot)) '\000' in
      l.l_seen.(key) <- seen;
      seen
    end
  in
  Bytes.get seen index = '\000'
  && begin
       Bytes.unsafe_set seen index '\001';
       true
     end

(* One operand's access stream in a fused-loop event at [site]: [runs]
   runs of [count] accesses to [slot], run [t] from word
   [index + t * ostride] on, [stride] apart. Adds them to the slot's
   totals and marks their words the first time the recorder meets
   (site, operand, index). With no access, [index] names no word. *)
let add_stream e l slot ~site ~operand ~index ~runs ~ostride ~count ~stride
    ~write =
  add_accesses l slot ~count:(runs * count) ~write;
  if count > 0 && first_seen e l ~site ~operand ~slot ~index then begin
    let marks = l.l_marks.(slot) in
    for t = 0 to runs - 1 do
      for u = 0 to count - 1 do
        Bytes.set marks (index + (t * ostride) + (u * stride)) '\001'
      done
    done
  end

(* The slot of an instance's absent access. *)
let none = -1

(* Count [closed] closed instances with [n] accesses to [slot], then, if
   [last], open one more. *)
let add_slot l slot n ~closed ~last =
  add_closed l slot n closed;
  if last then open_tally l slot n

(* [closed] closed instances that each access slots [x], [y] and [z]
   once ([none] for fewer), a slot named twice counting twice, then, if
   [last], one more such instance left open. *)
let add_instances l ~closed ~last x y z =
  if x <> none then
    add_slot l x (1 + Bool.to_int (y = x) + Bool.to_int (z = x)) ~closed ~last;
  if y <> none && y <> x then
    add_slot l y (1 + Bool.to_int (z = y)) ~closed ~last;
  if z <> none && z <> x && z <> y then add_slot l z 1 ~closed ~last

let make_probe (proc : Loopir.Prog.proc) =
  let e =
    {
      e_proc = proc.Loopir.Prog.name;
      e_slots = Loopir.Compiled.array_slots proc;
      e_descs = [];
      e_locals = [];
    }
  in
  Mutex.protect lock (fun () -> engines := e :: !engines);
  (* sites arrive numbered 0, 1, ... in pre-order *)
  let on_site ~site:_ ~vars:_ ~stmt =
    e.e_descs <- Loopir.Prog.leaf_desc stmt :: e.e_descs
  in
  let on_instance ~site ~values:_ =
    let l = local e in
    close_instance l;
    let s = 3 * site in
    l.l_sites.(s) <- l.l_sites.(s) + 1
  in
  let on_access ~site ~slot ~index ~write =
    let l = local e in
    Bytes.set l.l_marks.(slot) index '\001';
    add_accesses l slot ~count:1 ~write;
    let s = (3 * site) + 1 + Bool.to_int write in
    l.l_sites.(s) <- l.l_sites.(s) + 1;
    let n = l.l_tally.(slot) in
    if n = 0 then open_tally l slot 1 else l.l_tally.(slot) <- n + 1
  in
  (* Each fused-loop event adds its [count] runs' instances and accesses
     at once, as [on_instance] and [on_access] would see them: every
     instance but the last closed, the last left open. *)
  let on_mac ~site ~values:_ ~lo:_ ~count ~x ~ix ~dx ~y ~iy ~dy =
    let l = local e in
    close_instance l;
    add_site l site ~instances:count ~reads:(2 * count) ~writes:0;
    add_stream e l x ~site ~operand:0 ~index:ix ~runs:1 ~ostride:0 ~count
      ~stride:dx ~write:false;
    add_stream e l y ~site ~operand:1 ~index:iy ~runs:1 ~ostride:0 ~count
      ~stride:dy ~write:false;
    add_instances l ~closed:(count - 1) ~last:true x y none
  in
  let on_nest ~site ~values:_ ~lo:_ ~count ~mac_lo:_ ~mac_count ~x ~ix ~ox ~dx
      ~y ~iy ~oy ~dy ~a ~ia ~oa =
    let l = local e in
    close_instance l;
    let macs = count * mac_count in
    add_site l site ~instances:count ~reads:0 ~writes:0;
    add_site l (site + 1) ~instances:macs ~reads:(2 * macs) ~writes:0;
    add_site l (site + 2) ~instances:count ~reads:0 ~writes:count;
    add_stream e l x ~site ~operand:0 ~index:ix ~runs:count ~ostride:ox
      ~count:mac_count ~stride:dx ~write:false;
    add_stream e l y ~site ~operand:1 ~index:iy ~runs:count ~ostride:oy
      ~count:mac_count ~stride:dy ~write:false;
    add_stream e l a ~site ~operand:2 ~index:ia ~runs:1 ~ostride:0 ~count
      ~stride:oa ~write:true;
    (* the inits touch no buffer; every MAC instance is followed by
       another instance, the last spill by none *)
    add_instances l ~closed:macs ~last:false x y none;
    add_instances l ~closed:(count - 1) ~last:true a none none
  in
  let on_pointwise ~site ~values:_ ~lo:_ ~count ~x ~ix ~dx ~y ~iy ~dy ~a ~ia
      ~da =
    let l = local e in
    close_instance l;
    add_site l site ~instances:count ~reads:(2 * count) ~writes:count;
    add_stream e l x ~site ~operand:0 ~index:ix ~runs:1 ~ostride:0 ~count
      ~stride:dx ~write:false;
    add_stream e l y ~site ~operand:1 ~index:iy ~runs:1 ~ostride:0 ~count
      ~stride:dy ~write:false;
    add_stream e l a ~site ~operand:2 ~index:ia ~runs:1 ~ostride:0 ~count
      ~stride:da ~write:true;
    add_instances l ~closed:(count - 1) ~last:true x y a
  in
  Some
    {
      Loopir.Compiled.on_site;
      on_instance;
      on_access;
      on_mac;
      on_nest;
      on_pointwise;
    }

(* Hand everything recorded since the last flush to the [memprof.*]
   counters and pressure histograms. [close] first closes every domain's
   open instance: only a snapshot does, so pressure is complete there
   and an instance left open by [disable] or [reset] counts as it always
   did. Call with [lock] held. *)
let flush ~close =
  List.iter
    (fun e ->
      List.iter
        (fun l ->
          if close then close_instance l;
          let instances = ref 0 and reads = ref 0 and writes = ref 0 in
          for s = 0 to (Array.length l.l_sites / 3) - 1 do
            instances := !instances + l.l_sites.(3 * s);
            reads := !reads + l.l_sites.((3 * s) + 1);
            writes := !writes + l.l_sites.((3 * s) + 2)
          done;
          Obs.Metrics.add c_instances (!instances - l.l_flushed_instances);
          Obs.Metrics.add c_reads (!reads - l.l_flushed_reads);
          Obs.Metrics.add c_writes (!writes - l.l_flushed_writes);
          l.l_flushed_instances <- !instances;
          l.l_flushed_reads <- !reads;
          l.l_flushed_writes <- !writes;
          Array.iteri
            (fun slot counts ->
              if Array.exists (fun n -> n > 0) counts then begin
                let h =
                  Obs.Metrics.histogram
                    ("memprof.pressure." ^ fst e.e_slots.(slot))
                in
                Array.iteri
                  (fun v n ->
                    if n > 0 then begin
                      Obs.Metrics.observe_n h (float_of_int v) n;
                      counts.(v) <- 0
                    end)
                  counts
              end)
            l.l_pressure)
        e.e_locals)
    !engines

let reset () =
  Mutex.protect lock (fun () ->
      flush ~close:false;
      engines := [];
      Hashtbl.reset dma)

let enabled () = Atomic.get enabled_flag

let enable () =
  reset ();
  Atomic.set enabled_flag true;
  Loopir.Compiled.set_probe_provider (Some make_probe)

let disable () =
  Loopir.Compiled.set_probe_provider None;
  Atomic.set enabled_flag false;
  Mutex.protect lock (fun () -> flush ~close:false)

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

type buffer_stats = {
  b_buffer : string;
  b_reads : int;
  b_writes : int;
  b_words_touched : int;
  b_max_pressure : int;
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

(* One buffer merged over engines and domains: its access totals and
   max pressure, and the union of its touched words. *)
type merged = {
  mutable m_reads : int;
  mutable m_writes : int;
  mutable m_marks : Bytes.t;
  mutable m_max_pressure : int;
}

let merge_marks m marks =
  if Bytes.length marks > Bytes.length m.m_marks then begin
    let grown = Bytes.make (Bytes.length marks) '\000' in
    Bytes.blit m.m_marks 0 grown 0 (Bytes.length m.m_marks);
    m.m_marks <- grown
  end;
  Bytes.iteri (fun w c -> if c <> '\000' then Bytes.set m.m_marks w c) marks

let buffer_stats name m =
  let touched = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr touched) m.m_marks;
  {
    b_buffer = name;
    b_reads = m.m_reads;
    b_writes = m.m_writes;
    b_words_touched = !touched;
    b_max_pressure = m.m_max_pressure;
  }

let snapshot () =
  Mutex.protect lock (fun () ->
      flush ~close:true;
      let buffers : (string, merged) Hashtbl.t = Hashtbl.create 16 in
      let sites : (string * int, site_stats) Hashtbl.t = Hashtbl.create 64 in
      (* oldest engine first: the first to register a site names it *)
      List.iter
        (fun e ->
          List.iteri
            (fun site desc ->
              if not (Hashtbl.mem sites (e.e_proc, site)) then
                Hashtbl.replace sites (e.e_proc, site)
                  {
                    s_proc = e.e_proc;
                    s_site = site;
                    s_desc = desc;
                    s_instances = 0;
                    s_reads = 0;
                    s_writes = 0;
                  })
            (List.rev e.e_descs);
          List.iter
            (fun l ->
              for site = 0 to (Array.length l.l_sites / 3) - 1 do
                let s = Hashtbl.find sites (e.e_proc, site) and k = 3 * site in
                Hashtbl.replace sites (e.e_proc, site)
                  {
                    s with
                    s_instances = s.s_instances + l.l_sites.(k);
                    s_reads = s.s_reads + l.l_sites.(k + 1);
                    s_writes = s.s_writes + l.l_sites.(k + 2);
                  }
              done;
              Array.iteri
                (fun slot marks ->
                  let name = fst e.e_slots.(slot) in
                  let m =
                    match Hashtbl.find_opt buffers name with
                    | Some m -> m
                    | None ->
                        let m =
                          {
                            m_reads = 0;
                            m_writes = 0;
                            m_marks = Bytes.empty;
                            m_max_pressure = 0;
                          }
                        in
                        Hashtbl.replace buffers name m;
                        m
                  in
                  m.m_reads <- m.m_reads + l.l_accesses.(2 * slot);
                  m.m_writes <- m.m_writes + l.l_accesses.((2 * slot) + 1);
                  merge_marks m marks;
                  m.m_max_pressure <-
                    max m.m_max_pressure l.l_max_pressure.(slot))
                l.l_marks)
            e.e_locals)
        (List.rev !engines);
      let buffers =
        Hashtbl.fold
          (fun name m acc ->
            let b = buffer_stats name m in
            if b.b_words_touched = 0 then acc else b :: acc)
          buffers []
        |> List.sort (fun a b -> compare a.b_buffer b.b_buffer)
      in
      let sites =
        Hashtbl.fold (fun _ s acc -> s :: acc) sites []
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
      let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
      {
        sn_buffers = buffers;
        sn_sites = sites;
        sn_dma = dma;
        sn_instances = sum (fun s -> s.s_instances) sites;
        sn_accesses = sum (fun b -> b.b_reads + b.b_writes) buffers;
      })
