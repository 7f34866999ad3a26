(* The measurement substrate of the benchmark: the clock, the in-memory
   span recorder, the statistics every metric is derived from, and the
   result line. Nothing here knows about the flow. *)

let now = Unix.gettimeofday

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it (the
   maximum when there are fewer than eleven samples). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan else if n <= 10 then a.(n - 1) else a.(n - 11)

let geomean = function
  | [] -> Float.nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

(* ---------- span recorder ----------

   Spans are recorded by the benchmark around its own calls into the
   layers' public functions; the program itself is not instrumented.
   Recording is off unless [recording] is set, and then costs two clock
   reads and one allocation per span. Everything runs in the calling
   domain, so one stack suffices. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  op : int;  (** sequence number of the operation; [-1] during set-up *)
  input : int;  (** the operation's input index; [-1] during set-up *)
  start : float;
  stop : float;
  self : float;  (** duration minus the time its direct children cover *)
}

type frame = { f_id : int; f_start : float; mutable f_children : float }

let recording = ref false
let recorded : span list ref = ref []
let stack : frame list ref = ref []
let next_id = ref 0
let current_op = ref (-1, -1)

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p.f_id | [] -> -1 in
    let frame = { f_id = id; f_start = now (); f_children = 0. } in
    stack := frame :: !stack;
    let close () =
      let stop = now () in
      let dur = stop -. frame.f_start in
      stack := List.tl !stack;
      (match !stack with
      | p :: _ -> p.f_children <- p.f_children +. dur
      | [] -> ());
      let op, input = !current_op in
      recorded :=
        {
          id;
          name;
          parent;
          op;
          input;
          start = frame.f_start;
          stop;
          self = dur -. frame.f_children;
        }
        :: !recorded
    in
    Fun.protect ~finally:close f
  end

(* ---------- host speed ----------

   The hosts this benchmark runs on are shared: other tenants' load makes
   the same instructions take up to twice as long, and the slowdown comes
   and goes within seconds (process CPU time grows with it, so it is not
   idling that a CPU clock could exclude). Every timed operation is
   therefore bracketed by a fixed calibration loop, and its wall time is
   scaled by [reference_s] over the mean of the two calibration times:
   times are reported in seconds of a host on which the loop takes
   [reference_s].

   The loop has two halves, each like one kind of work the flow does.
   The first sorts a float array with [Array.sort Float.compare], which
   boxes every compared element: branchy code streaming short-lived
   allocations through the minor heap, like the compiler. The second
   looks up and bumps counters in a hash table under a mutex, like the
   memprof recorder, whose slowdowns the sort alone underestimates. It
   starts on an empty minor heap and keeps nothing alive, so the
   program's heap never reaches it; it runs at OCaml's default minor
   heap size whatever the program sets, so GC tuning in the program
   moves the operations and not the yardstick. *)

let reference_s = 0.005
let default_minor_heap_words = 262_144
let unsorted = Array.init 16384 (fun i -> float_of_int ((i * 7919) mod 16384))
let scratch = Array.make 16384 0.
let keys = Array.init 2000 (fun i -> ("buffer" ^ string_of_int (i mod 7), i))
let counters : (string * int, int ref) Hashtbl.t = Hashtbl.create 4096
let () = Array.iter (fun k -> Hashtbl.replace counters k (ref 0)) keys
let lock = Mutex.create ()
let calibrations : float list ref = ref []

let calibrate () =
  let gc = Gc.get () in
  let pinned = gc.Gc.minor_heap_size <> default_minor_heap_words in
  if pinned then Gc.set { gc with Gc.minor_heap_size = default_minor_heap_words };
  Gc.minor ();
  let t0 = now () in
  Array.blit unsorted 0 scratch 0 (Array.length unsorted);
  Array.sort Float.compare scratch;
  for _ = 1 to 16 do
    Array.iter
      (fun k ->
        Mutex.protect lock (fun () ->
            match Hashtbl.find_opt counters k with Some c -> incr c | None -> ()))
      keys
  done;
  let dt = now () -. t0 in
  if pinned then Gc.set gc;
  calibrations := dt :: !calibrations;
  dt

(* The wall time of [f] and the factor that scales it to the reference
   host. *)
let scaled f =
  let c0 = calibrate () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let c1 = calibrate () in
  (wall, reference_s /. ((c0 +. c1) /. 2.), r)

(* [f] with recording off: checks a traced operation makes outside the
   work it measures. *)
let untraced f =
  let was = !recording in
  recording := false;
  Fun.protect ~finally:(fun () -> recording := was) f

(* [scaled], recorded as a span when recording is on. *)
let timed name f = scaled (fun () -> span name f)

let spans () = List.rev !recorded
let duration s = s.stop -. s.start

let chrome_trace spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us t = Obs.Json.Float (t *. 1e6) in
  Obs.Json.Obj
    [
      ( "traceEvents",
        Obs.Json.List
          (List.map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String s.name);
                   ("ph", Obs.Json.String "X");
                   ("ts", us (s.start -. origin));
                   ("dur", us (duration s));
                   ("pid", Obs.Json.Int 1);
                   ("tid", Obs.Json.Int 1);
                   ( "args",
                     Obs.Json.Obj
                       [
                         ("id", Obs.Json.Int s.id);
                         ("parent", Obs.Json.Int s.parent);
                         ("op", Obs.Json.Int s.op);
                         ("input", Obs.Json.Int s.input);
                         ("self_us", us s.self);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Obs.Json.String "ms");
    ]

(* ---------- process ---------- *)

(* VmHWM, the resident-set high-water mark, from /proc; the major heap's
   peak where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                   float_of_int kb /. 1024.)
           | _ -> None)
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---------- the result line ---------- *)

type metric = { name : string; value : float; unit : string }

let result_line ~correct ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Obs.Json.Obj
                      [
                        ("value", Obs.Json.Float m.value);
                        ("unit", Obs.Json.String m.unit);
                      ] ))
                metrics) );
       ])
