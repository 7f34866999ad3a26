(* Black-box tests of the cfdc command line: the profile, memprof and
   timeline subcommands exit 0 on a good kernel and write well-formed
   JSON artifacts; bad flags and missing files exit non-zero. Runs the real
   binary as a subprocess, like CI does. *)

let cfdc () =
  if Sys.file_exists "../bin/cfdc.exe" then "../bin/cfdc.exe"
  else "_build/default/bin/cfdc.exe"

let kernel name =
  let dir = if Sys.file_exists "../kernels" then "../kernels" else "kernels" in
  Filename.concat dir name

(* Run cfdc with [args]; returns the exit code, output discarded (the
   artifact files are what the assertions read). *)
let run args =
  Sys.command
    (String.concat " "
       (List.map Filename.quote (cfdc () :: args))
    ^ " >/dev/null 2>&1")

(* Like [run], but keeps stdout+stderr for assertions on diagnostics. *)
let run_capture args =
  let out = Filename.temp_file "cfdc_cli" ".out" in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote (cfdc () :: args))
      ^ " >" ^ Filename.quote out ^ " 2>&1")
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

let tmp suffix = Filename.temp_file "cfdc_cli" suffix

let parse_file what path =
  match Obs.Json.of_file path with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s is not well-formed JSON: %s" what msg

let member_exn what k t =
  match Obs.Json.member k t with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" what k

let test_memprof_ok () =
  let json = tmp ".json" and trace = tmp ".trace.json" in
  let code =
    run [ "memprof"; kernel "mass.cfd"; "--name"; "mass"; "--sim-elements";
          "2"; "--json"; json; "--trace"; trace ]
  in
  Alcotest.(check int) "memprof exits 0" 0 code;
  let t = parse_file "memprof JSON" json in
  (match member_exn "memprof JSON" "audit_passed" t with
  | Obs.Json.Bool true -> ()
  | v -> Alcotest.failf "audit_passed = %s" (Obs.Json.to_string v));
  (match member_exn "memprof JSON" "kernel" t with
  | Obs.Json.String "mass" -> ()
  | v -> Alcotest.failf "kernel = %s" (Obs.Json.to_string v));
  (match member_exn "memprof JSON" "modes" t with
  | Obs.Json.List [ _; _ ] -> ()
  | v -> Alcotest.failf "expected two modes, got %s" (Obs.Json.to_string v));
  (match member_exn "memprof trace" "traceEvents" (parse_file "trace" trace) with
  | Obs.Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "counter trace has no events");
  Sys.remove json;
  Sys.remove trace

let test_memprof_reproduces_paper () =
  let json = tmp ".json" in
  let code =
    run [ "memprof"; kernel "inverse_helmholtz.cfd"; "--name";
          "inverse_helmholtz"; "--json"; json ]
  in
  Alcotest.(check int) "memprof exits 0" 0 code;
  let t = parse_file "memprof JSON" json in
  (match member_exn "memprof JSON" "no_sharing_brams" t with
  | Obs.Json.Int 31 -> ()
  | v -> Alcotest.failf "no_sharing_brams = %s" (Obs.Json.to_string v));
  (match member_exn "memprof JSON" "sharing_brams" t with
  | Obs.Json.Int 18 -> ()
  | v -> Alcotest.failf "sharing_brams = %s" (Obs.Json.to_string v));
  Sys.remove json

let test_profile_ok () =
  let metrics = tmp ".metrics.json" and trace = tmp ".trace.json" in
  let code =
    run [ "profile"; kernel "mass.cfd"; "--name"; "mass"; "--sim-elements";
          "2"; "--metrics"; metrics; "--trace"; trace ]
  in
  Alcotest.(check int) "profile exits 0" 0 code;
  let m = parse_file "profile metrics" metrics in
  (match member_exn "profile metrics" "counters" m with
  | Obs.Json.Obj (_ :: _) -> ()
  | _ -> Alcotest.fail "metrics carries no counters");
  (match member_exn "profile trace" "traceEvents" (parse_file "trace" trace) with
  | Obs.Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "trace has no events");
  Sys.remove metrics;
  Sys.remove trace

(* The profile pipeline at any jobs: the run succeeds, records the PLM
   profile and DMA ledger, and the timeline leg joins the audit's
   port-pressure tracks. *)
let test_profile_jobs () =
  List.iter
    (fun args ->
      let what = "profile " ^ String.concat " " args in
      let code, text =
        run_capture
          ([ "profile"; kernel "mass.cfd"; "--name"; "mass"; "--sim-elements";
             "4" ]
          @ args)
      in
      Alcotest.(check int) (what ^ " exits 0") 0 code;
      List.iter
        (fun line ->
          Alcotest.(check bool) (what ^ " prints " ^ line) true
            (contains ~sub:line text))
        [ "functional sim (4 elements)"; "plm set 3: dma in" ];
      List.iter
        (fun u ->
          let line = "plm:" ^ u ^ " port-pressure" in
          Alcotest.(check bool) (what ^ " prints " ^ line) true
            (contains ~sub:line text))
        [ "plm0"; "plm1"; "plm2" ];
      Alcotest.(check bool) (what ^ " joins port-pressure samples") false
        (contains ~sub:"samples 0" text))
    [ [ "--jobs"; "3" ]; [ "--jobs"; "2" ] ]

(* Each memgen mode is audited once per profile run, whichever mode the
   kernel compiles in: one memprof.audit span per mode, and every
   memprof.<mode>.pressure.<unit> histogram holds one observation per
   leaf instance, 11^3 on mass. *)
let test_profile_audits_once () =
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  List.iter
    (fun sharing ->
      let what = "profile --sharing " ^ sharing in
      let metrics = tmp ".metrics.json" and trace = tmp ".trace.json" in
      let code =
        run [ "profile"; kernel "mass.cfd"; "--sim-elements"; "4"; "--sharing";
              sharing; "--metrics"; metrics; "--trace"; trace ]
      in
      Alcotest.(check int) (what ^ " exits 0") 0 code;
      let m = parse_file "profile metrics" metrics
      and t = parse_file "profile trace" trace in
      Sys.remove metrics;
      Sys.remove trace;
      let labels =
        match member_exn "profile trace" "traceEvents" t with
        | Obs.Json.List evs ->
            List.filter_map
              (fun e ->
                match Obs.Json.member "name" e with
                | Some (Obs.Json.String "memprof.audit") -> (
                    match
                      Obs.Json.member "label" (member_exn "span" "args" e)
                    with
                    | Some (Obs.Json.String l) -> Some l
                    | _ -> Alcotest.failf "%s: audit span without label" what)
                | _ -> None)
              evs
        | _ -> Alcotest.failf "%s: no traceEvents" what
      in
      Alcotest.(check (list string)) (what ^ ": one audit span per mode")
        [ "no-sharing"; "sharing" ] (List.sort compare labels);
      let audited =
        match member_exn "profile metrics" "histograms" m with
        | Obs.Json.Obj hs ->
            List.filter
              (fun (name, _) ->
                starts_with ~prefix:"memprof.no-sharing.pressure." name
                || starts_with ~prefix:"memprof.sharing.pressure." name)
              hs
        | _ -> Alcotest.failf "%s: histograms is not an object" what
      in
      Alcotest.(check int) (what ^ ": 3 units in each of 2 modes") 6
        (List.length audited);
      List.iter
        (fun (name, h) ->
          match member_exn name "count" h with
          | Obs.Json.Int n ->
              Alcotest.(check int) (Printf.sprintf "%s: %s count" what name)
                1331 n
          | v -> Alcotest.failf "%s count = %s" name (Obs.Json.to_string v))
        audited)
    [ "true"; "false" ]

(* Like [run_capture], but with an environment assignment prefixed to
   the shell command (e.g. "CFDC_CACHE_DIR=/tmp/x"). *)
let run_capture_env env args =
  let out = Filename.temp_file "cfdc_cli" ".out" in
  let code =
    Sys.command
      (env ^ " "
      ^ String.concat " " (List.map Filename.quote (cfdc () :: args))
      ^ " >" ^ Filename.quote out ^ " 2>&1")
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let tmp_dir () =
  let d = Filename.temp_file "cfdc_cli" ".cache" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_cache_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Warnings (the corrupt-entry path) go to stderr with a stable prefix;
   dropping those lines recovers the kernel-facing output for
   byte-comparison against an undisturbed run. *)
let strip_cache_warnings text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         not
           (String.length line >= 11 && String.sub line 0 11 = "cfdc: cache"))
  |> String.concat "\n"

let test_cache_warm_identical () =
  with_cache_dir @@ fun dir ->
  let args = [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let c1, t1 = run_capture args in
  let c2, t2 = run_capture args in
  Alcotest.(check int) "cold cached check exits 0" 0 c1;
  Alcotest.(check int) "warm cached check exits 0" 0 c2;
  Alcotest.(check string) "warm output byte-identical to cold" t1 t2;
  let entries = Sys.readdir dir in
  Alcotest.(check bool) "store populated" true
    (Array.exists (fun f -> Filename.check_suffix f ".products") entries
    && Array.exists (fun f -> Filename.check_suffix f ".verdict") entries)

let test_cache_corrupt_recovers () =
  with_cache_dir @@ fun dir ->
  let args = [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let _, clean = run_capture args in
  (* truncate every entry: the next run must warn, recompute, and
     still produce the identical kernel-facing output with exit 0 *)
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic / 2) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc)
    (Sys.readdir dir);
  let code, text = run_capture args in
  Alcotest.(check int) "corrupt store still exits 0" 0 code;
  Alcotest.(check bool) "warns about the corrupt entry" true
    (contains ~sub:"corrupt entry" text);
  Alcotest.(check string) "recomputed output identical"
    (strip_cache_warnings clean)
    (strip_cache_warnings text);
  let c3, t3 = run_capture args in
  Alcotest.(check int) "re-warmed run exits 0" 0 c3;
  Alcotest.(check string) "re-warmed output identical" clean t3

let test_cache_env_dir () =
  with_cache_dir @@ fun dir ->
  let env = "CFDC_CACHE_DIR=" ^ Filename.quote dir in
  let args = [ "check"; kernel "mass.cfd" ] in
  let c1, t1 = run_capture_env env args in
  let c2, t2 = run_capture_env env args in
  Alcotest.(check int) "env-cached check exits 0" 0 c1;
  Alcotest.(check int) "env-warm check exits 0" 0 c2;
  Alcotest.(check string) "env-warm output identical" t1 t2;
  Alcotest.(check bool) "CFDC_CACHE_DIR populated" true
    (Array.length (Sys.readdir dir) > 0)

let test_cache_stat_gc_clear () =
  with_cache_dir @@ fun dir ->
  let _ = run [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let code, text = run_capture [ "cache"; "stat"; "--cache-dir"; dir ] in
  Alcotest.(check int) "cache stat exits 0" 0 code;
  Alcotest.(check bool) "stat names the directory" true
    (contains ~sub:dir text);
  Alcotest.(check bool) "stat reports kinds" true
    (contains ~sub:"products" text && contains ~sub:"verdict" text);
  let code, text =
    run_capture [ "cache"; "gc"; "--cache-dir"; dir; "--max-bytes"; "0" ]
  in
  Alcotest.(check int) "cache gc exits 0" 0 code;
  Alcotest.(check bool) "gc reports removals" true
    (contains ~sub:"gc: removed" text);
  Alcotest.(check int) "gc --max-bytes 0 empties the store" 0
    (Array.length (Sys.readdir dir));
  let _ = run [ "check"; kernel "mass.cfd"; "--cache-dir"; dir ] in
  let code, text = run_capture [ "cache"; "clear"; "--cache-dir"; dir ] in
  Alcotest.(check int) "cache clear exits 0" 0 code;
  Alcotest.(check bool) "clear reports removals" true
    (contains ~sub:"clear: removed" text);
  Alcotest.(check int) "clear empties the store" 0
    (Array.length (Sys.readdir dir))

let parse_json what text =
  match Obs.Json.parse (String.trim text) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s is not well-formed JSON: %s" what msg

(* Build identity: the human rendering names the tool and both schema
   dialects; `version --json` and the top-level `--build-info` print the
   same machine-readable record. *)
let test_version_build_info () =
  let code, text = run_capture [ "version" ] in
  Alcotest.(check int) "version exits 0" 0 code;
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " reported") true (contains ~sub text))
    [ "cfdc "; "cache key schema"; "options fingerprint"; "ocaml" ];
  let code, json_text = run_capture [ "version"; "--json" ] in
  Alcotest.(check int) "version --json exits 0" 0 code;
  let j = parse_json "version --json" json_text in
  List.iter
    (fun k -> ignore (member_exn "build info" k j))
    [ "tool"; "cache_key_format_version"; "options_fingerprint_version";
      "ocaml" ];
  let code, build_text = run_capture [ "--build-info" ] in
  Alcotest.(check int) "--build-info exits 0" 0 code;
  Alcotest.(check string) "--build-info = version --json"
    (String.trim json_text) (String.trim build_text)

(* `flight dump` writes a provenance-stamped bundle even without a
   crash; `flight show` renders it. *)
let test_flight_dump_show () =
  let out = tmp ".bundle.json" in
  let code, _ = run_capture [ "flight"; "dump"; "--out"; out ] in
  Alcotest.(check int) "flight dump exits 0" 0 code;
  let b = parse_file "flight bundle" out in
  (match member_exn "bundle" "bundle_format_version" b with
  | Obs.Json.Int _ -> ()
  | v -> Alcotest.failf "bundle_format_version = %s" (Obs.Json.to_string v));
  (match member_exn "bundle" "reason" b with
  | Obs.Json.String "manual dump" -> ()
  | v -> Alcotest.failf "reason = %s" (Obs.Json.to_string v));
  ignore
    (member_exn "bundle provenance" "build"
       (member_exn "bundle" "provenance" b));
  (match member_exn "bundle" "metrics" b with
  | Obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "metrics snapshot missing");
  let code, text = run_capture [ "flight"; "show"; out ] in
  Alcotest.(check int) "flight show exits 0" 0 code;
  Alcotest.(check bool) "show renders the reason" true
    (contains ~sub:"reason:  manual dump" text);
  Alcotest.(check bool) "show renders the provenance" true
    (contains ~sub:"provenance:" text);
  Sys.remove out

(* A fatal diagnostic with the recorder armed (CFDC_FLIGHT=1) must dump
   a post-mortem bundle into CFDC_CRASH_DIR carrying the failure's
   reason and the build provenance, and say where it wrote it. *)
let test_crash_report_on_fatal () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let env =
    "CFDC_FLIGHT=1 CFDC_CRASH_DIR=" ^ Filename.quote dir
  in
  let code, text =
    run_capture_env env
      [ "timeline"; kernel "mass.cfd"; "--overlap"; "require"; "-k"; "8";
        "-m"; "8" ]
  in
  Alcotest.(check bool) "fatal path exits non-zero" true (code <> 0);
  Alcotest.(check bool) "stderr names the crash report" true
    (contains ~sub:"crash report:" text);
  let bundles =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
  in
  Alcotest.(check int) "exactly one bundle written" 1 (List.length bundles);
  let b = parse_file "crash bundle" (Filename.concat dir (List.hd bundles)) in
  (match member_exn "crash bundle" "reason" b with
  | Obs.Json.String r ->
      Alcotest.(check bool) "reason names the failing rule" true
        (contains ~sub:"sim-overlap-infeasible" r)
  | v -> Alcotest.failf "reason = %s" (Obs.Json.to_string v));
  ignore
    (member_exn "crash provenance" "build"
       (member_exn "crash bundle" "provenance" b));
  match member_exn "crash bundle" "entries" b with
  | Obs.Json.List _ -> ()
  | _ -> Alcotest.fail "entries missing from the bundle"

(* --log writes one JSON object per line; --log-level debug widens the
   threshold so the sink actually sees events. *)
let test_log_sink_jsonl () =
  let log = tmp ".log.jsonl" in
  let code =
    run [ "check"; kernel "mass.cfd"; "--log"; log; "--log-level"; "debug" ]
  in
  Alcotest.(check int) "check --log exits 0" 0 code;
  let ic = open_in log in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check bool)
    "a debug-level check run produces log events" true
    (List.length !lines > 0);
  List.iter
    (fun line ->
      let j = parse_json "log line" line in
      List.iter
        (fun k -> ignore (member_exn "log line" k j))
        [ "ts"; "level"; "scope"; "msg"; "tid"; "span" ])
    !lines;
  Sys.remove log

(* --json: stdout alone is the machine-readable document. *)
let test_timeline_json () =
  let out = tmp ".json" in
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote
            [ cfdc (); "timeline"; kernel "mass.cfd"; "--elements"; "64";
              "--json" ])
      ^ " >" ^ Filename.quote out ^ " 2>/dev/null")
  in
  let t = parse_file "timeline --json" out in
  Sys.remove out;
  Alcotest.(check int) "timeline exits 0" 0 code;
  (match member_exn "timeline JSON" "passed" t with
  | Obs.Json.Bool true -> ()
  | v -> Alcotest.failf "passed = %s" (Obs.Json.to_string v));
  match member_exn "timeline JSON" "legs" t with
  | Obs.Json.List legs ->
      Alcotest.(check int) "plain and overlapped legs" 2 (List.length legs);
      List.iter
        (fun leg -> ignore (member_exn "timeline leg" "total_cycles" leg))
        legs
  | v -> Alcotest.failf "legs = %s" (Obs.Json.to_string v)

(* Requiring the double-buffered leg on m = k is the one way a timeline
   fails, and the failure names its rule. *)
let test_timeline_overlap_required () =
  let code, text =
    run_capture
      [ "timeline"; kernel "mass.cfd"; "--elements"; "64"; "--overlap";
        "require"; "-k"; "8"; "-m"; "8" ]
  in
  Alcotest.(check bool) "timeline --overlap require exits non-zero" true
    (code <> 0);
  Alcotest.(check bool) "names sim-overlap-infeasible" true
    (contains ~sub:"sim-overlap-infeasible" text)

let test_bad_flags_rejected () =
  List.iter
    (fun (what, args) ->
      Alcotest.(check bool)
        (what ^ " exits non-zero") true
        (run args <> 0))
    [
      ("unknown flag", [ "memprof"; kernel "mass.cfd"; "--no-such-flag" ]);
      ("missing source", [ "memprof"; "/nonexistent/kernel.cfd" ]);
      ("no source argument", [ "memprof" ]);
      ("profile unknown flag", [ "profile"; kernel "mass.cfd"; "--bogus" ]);
      ( "profile has no strategy",
        [ "profile"; kernel "mass.cfd"; "--strategy"; "round" ] );
      ( "memprof has no strategy",
        [ "memprof"; kernel "mass.cfd"; "--strategy"; "round" ] );
      ( "profile missing source",
        [ "profile"; "/nonexistent/kernel.cfd"; "--sim-elements"; "2" ] );
      ("unknown subcommand", [ "memprofile" ]);
      ("unknown cache action", [ "cache"; "bogus" ]);
      ("cache without action", [ "cache" ]);
    ]

(* A forced shape or an element count below 1 ends in a message that
   names it, never in an uncaught exception. *)
let test_bad_shape_rejected () =
  let out_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "cfdc_cli_emit"
  in
  List.iter
    (fun (args, names) ->
      let what = String.concat " " args in
      let code, text =
        run_capture (List.hd args :: kernel "mass.cfd" :: List.tl args)
      in
      Alcotest.(check bool) (what ^ " exits non-zero") true (code <> 0);
      Alcotest.(check bool) (what ^ " names " ^ names) true
        (contains ~sub:names text);
      Alcotest.(check bool) (what ^ " raises nothing") false
        (contains ~sub:"Fatal error: exception" text))
    [
      ([ "system"; "-k"; "0" ], "forced k = 0 is below 1");
      ([ "system"; "-m"; "0" ], "forced m = 0 is below 1");
      ([ "system"; "-k-2" ], "forced k = -2 is below 1");
      ([ "emit"; "-o"; out_dir; "-k"; "0" ], "forced k = 0 is below 1");
      ([ "timeline"; "-m"; "0" ], "forced m = 0 is below 1");
      ([ "system"; "--elements"; "0" ], "--elements");
      ([ "system"; "--elements=-4" ], "--elements");
      ([ "timeline"; "--elements"; "0" ], "--elements");
    ]

let () =
  Alcotest.run "cfdc-cli"
    [
      ( "cli",
        [
          Alcotest.test_case "memprof writes well-formed artifacts" `Quick
            test_memprof_ok;
          Alcotest.test_case "memprof reproduces 31 -> 18 BRAM18" `Quick
            test_memprof_reproduces_paper;
          Alcotest.test_case "profile writes well-formed artifacts" `Quick
            test_profile_ok;
          Alcotest.test_case "profile records at any job count" `Quick
            test_profile_jobs;
          Alcotest.test_case "profile audits each mode once" `Quick
            test_profile_audits_once;
          Alcotest.test_case "timeline --json is well-formed" `Quick
            test_timeline_json;
          Alcotest.test_case "timeline --overlap require on m < 2k fails"
            `Quick test_timeline_overlap_required;
          Alcotest.test_case "bad flags and missing files exit non-zero"
            `Quick test_bad_flags_rejected;
          Alcotest.test_case "k, m or elements below 1 end in a message"
            `Quick test_bad_shape_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm cached check is byte-identical" `Quick
            test_cache_warm_identical;
          Alcotest.test_case "corrupt entry recomputes with a warning" `Quick
            test_cache_corrupt_recovers;
          Alcotest.test_case "CFDC_CACHE_DIR enables the cache" `Quick
            test_cache_env_dir;
          Alcotest.test_case "cache stat, gc and clear" `Quick
            test_cache_stat_gc_clear;
        ] );
      ( "flight",
        [
          Alcotest.test_case "version and --build-info report the build"
            `Quick test_version_build_info;
          Alcotest.test_case "flight dump and show round-trip a bundle"
            `Quick test_flight_dump_show;
          Alcotest.test_case "fatal diagnostic writes a crash report" `Quick
            test_crash_report_on_fatal;
          Alcotest.test_case "--log sink is well-formed JSONL" `Quick
            test_log_sink_jsonl;
        ] );
    ]
