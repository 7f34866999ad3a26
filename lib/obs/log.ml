type level = Debug | Info | Warn | Error

let level_index = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* Warn by default: warnings and errors have always reached stderr
   (the cache's corrupt-entry diagnostics), so they stay on; info and
   debug pay only the threshold load below until a caller lowers it. *)
let min_level = Atomic.make (level_index Warn)
let set_level l = Atomic.set min_level (level_index l)
let level () =
  match Atomic.get min_level with
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | _ -> Error

let enabled_for l = level_index l >= Atomic.get min_level

(* Mirror: events at [Warn]+ echo to stderr as "cfdc: <scope>: <msg>",
   byte-compatible with the ad-hoc warnings this module replaced (the
   cache CLI tests strip exactly that prefix). *)
let mirror_level = Atomic.make (level_index Warn)
let set_mirror = function
  | None -> Atomic.set mirror_level max_int
  | Some l -> Atomic.set mirror_level (level_index l)

(* Per-level counters, registered at a level's first event so a run
   that never logs at a level leaves no trace of it in the metrics dump
   (metric registration is observable through [--metrics]). The
   registry looks them up under its lock: pool workers log from several
   domains at once, and a [Lazy.t] forced by two domains together raises
   [Lazy.Undefined]. *)
let level_counter level = Metrics.counter ("log.events." ^ level_name level)

(* --- the JSON-lines sink ------------------------------------------------ *)

let sink_lock = Mutex.create ()
let sink : out_channel option ref = ref None

let set_sink oc =
  Mutex.protect sink_lock (fun () ->
      (match !sink with Some old -> close_out_noerr old | None -> ());
      sink := oc)

let line_json ~level ~scope ~msg ~ts ~tid ~span ~attrs =
  Json.Obj
    ([
       ("ts", Json.Float ts);
       ("level", Json.String (level_name level));
       ("scope", Json.String scope);
       ("msg", Json.String msg);
       ("tid", Json.Int tid);
       ("span", Json.Int span);
     ]
    @
    if attrs = [] then []
    else
      [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs)) ]
    )

let emit level ?span ~scope ~attrs msg =
  let tid = (Domain.self () :> int) in
  let ts = (Unix.gettimeofday () -. Flight.epoch) *. 1e6 in
  let span =
    match span with Some id -> id | None -> Trace.current_span ()
  in
  Metrics.incr (level_counter level);
  if level_index level >= Atomic.get mirror_level then
    Printf.eprintf "cfdc: %s: %s\n%!" scope msg;
  if Gate.flight_on () then
    Flight.record_log
      {
        Flight.lg_level = level_name level;
        lg_scope = scope;
        lg_msg = msg;
        lg_ts = ts;
        lg_tid = tid;
        lg_span = span;
        lg_attrs = attrs;
      };
  match !sink with
  | None -> ()
  | Some _ ->
      (* Re-check under the lock: [set_sink None] may race the fast
         path above, and line writes from worker domains interleave. *)
      Mutex.protect sink_lock (fun () ->
          match !sink with
          | None -> ()
          | Some oc ->
              output_string oc
                (Json.to_string
                   (line_json ~level ~scope ~msg ~ts ~tid ~span ~attrs));
              output_char oc '\n';
              flush oc)

let msg level ?span ?(attrs = []) ~scope text =
  if enabled_for level then emit level ?span ~scope ~attrs text

let logf level ?span ?(attrs = []) ~scope fmt =
  if not (enabled_for level) then Printf.ikfprintf ignore () fmt
  else Printf.ksprintf (fun m -> emit level ?span ~scope ~attrs m) fmt

let debug ?span ?attrs ~scope fmt = logf Debug ?span ?attrs ~scope fmt
let info ?span ?attrs ~scope fmt = logf Info ?span ?attrs ~scope fmt
let warn ?span ?attrs ~scope fmt = logf Warn ?span ?attrs ~scope fmt
let error ?span ?attrs ~scope fmt = logf Error ?span ?attrs ~scope fmt
