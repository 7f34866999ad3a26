(* Flight recorder and structured event log: bounded-ring retention
   under wraparound (sequential and across worker domains), crash-bundle
   contents from a deliberately trapped pool worker, JSON-lines sink
   well-formedness, and the disabled recorder's zero footprint — no
   allocation on the hot path, bit-identical compiler output. *)

let case name f = Alcotest.test_case name `Quick f

(* Recorder and log state is process-global; every test restores
   disabled+empty+default so the rest of the suite sees seed behaviour. *)
let with_flight f =
  Obs.Flight.set_enabled true;
  Obs.Flight.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.set_enabled false;
      Obs.Flight.set_capacity Obs.Flight.default_capacity;
      Obs.Flight.reset ();
      Obs.Flight.set_provenance None)
    f

let with_quiet_log f =
  Obs.Log.set_mirror None;
  Fun.protect ~finally:(fun () -> Obs.Log.set_mirror (Some Obs.Log.Warn)) f

let span_names () =
  List.filter_map
    (function
      | Obs.Flight.Span s -> Some s.Obs.Flight.sp_name
      | Obs.Flight.Log _ -> None)
    (Obs.Flight.entries ())

(* A ring of capacity c retains exactly the last min(n, c) spans, in
   order — the wraparound keeps the suffix, not the prefix. *)
let qcheck_ring_wraparound =
  QCheck.Test.make ~name:"ring retains the most recent suffix" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 0 40))
    (fun (cap, n) ->
      Obs.Flight.set_capacity cap;
      with_flight (fun () ->
          for i = 0 to n - 1 do
            Obs.Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
          done;
          let got = span_names () in
          let kept = min n cap in
          let expected =
            List.init kept (fun i -> Printf.sprintf "s%d" (n - kept + i))
          in
          got = expected
          || QCheck.Test.fail_reportf "cap=%d n=%d: retained [%s], expected [%s]"
               cap n (String.concat ";" got)
               (String.concat ";" expected)))

(* With capacity comfortably above the workload, the retained span set
   is scheduling-independent: jobs:1 and jobs:4 agree. *)
let qcheck_ring_jobs_agree =
  QCheck.Test.make ~name:"retained set: jobs:1 = jobs:4" ~count:20
    QCheck.(int_range 1 30)
    (fun n ->
      let run jobs =
        Obs.Flight.reset ();
        List.iter
          (function
            | Ok () -> ()
            | Error (e : Parallel.Pool.error) ->
                QCheck.Test.fail_reportf "pool failed: %s"
                  e.Parallel.Pool.message)
          (Parallel.Pool.map ~jobs
             (fun i -> Obs.Trace.with_span (Printf.sprintf "w%d" i) (fun () -> ()))
             (List.init n (fun i -> i)));
        List.sort_uniq compare
          (List.filter
             (fun name -> String.length name > 1 && name.[0] = 'w')
             (span_names ()))
      in
      with_flight (fun () ->
          let seq = run 1 in
          let par = run 4 in
          seq = par
          || QCheck.Test.fail_reportf "n=%d: jobs:1 [%s] <> jobs:4 [%s]" n
               (String.concat ";" seq) (String.concat ";" par)))

(* The disabled hot path — with_span and a below-threshold log event —
   allocates nothing: 10k iterations must not move the minor heap by
   more than the measurement's own constant. *)
let test_disabled_zero_alloc () =
  Obs.Trace.set_enabled false;
  Obs.Flight.set_enabled false;
  let nop () = () in
  let iters = 10_000 in
  let measure f =
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let span_words = measure (fun () -> Obs.Trace.with_span "hot" nop) in
  Alcotest.(check bool)
    (Printf.sprintf "disabled with_span allocates nothing (%.0f words)"
       span_words)
    true (span_words < 1_000.0);
  let log_words =
    measure (fun () -> Obs.Log.msg Obs.Log.Debug ~scope:"hot" "dropped")
  in
  Alcotest.(check bool)
    (Printf.sprintf "below-threshold log allocates nothing (%.0f words)"
       log_words)
    true (log_words < 1_000.0)

(* Observability must not perturb what the compiler produces: the same
   program compiled with the recorder on and off yields byte-identical
   artifacts. *)
let test_disabled_identical_compile () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:4 () in
  let off = Cfd_core.Compile.compile ast in
  let on = with_flight (fun () -> Cfd_core.Compile.compile ast) in
  Alcotest.(check string)
    "C source identical" off.Cfd_core.Compile.c_source
    on.Cfd_core.Compile.c_source;
  Alcotest.(check string)
    "mnemosyne metadata identical" off.Cfd_core.Compile.mnemosyne_metadata
    on.Cfd_core.Compile.mnemosyne_metadata;
  Alcotest.(check bool) "HLS report identical" true
    (Stdlib.compare off.Cfd_core.Compile.hls on.Cfd_core.Compile.hls = 0)

let member_exn k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "bundle missing %S" k

(* Trap a pool worker, then dump: the bundle must carry the worker's
   spans, the pool's error event, the metrics snapshot and the
   provenance manifest — enough to reconstruct the failing run. *)
let test_crash_bundle_from_trapped_worker () =
  with_flight (fun () ->
      with_quiet_log (fun () ->
          Obs.Flight.set_provenance (Some (Cfd_core.Version.manifest ()));
          let results =
            Parallel.Pool.map ~jobs:4
              (fun i -> if i = 5 then failwith "induced trap" else ())
              (List.init 8 (fun i -> i))
          in
          (match List.nth results 5 with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "task 5 should have trapped");
          let dir =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "cfdc-test-crash-%d" (Unix.getpid ()))
          in
          let path =
            match
              Obs.Flight.write_crash ~dir ~reason:"test: trapped worker" ()
            with
            | Some p -> p
            | None -> Alcotest.fail "write_crash failed"
          in
          Fun.protect
            ~finally:(fun () ->
              Sys.remove path;
              try Unix.rmdir dir with Unix.Unix_error _ -> ())
            (fun () ->
              let bundle =
                match Obs.Json.of_file path with
                | Ok j -> j
                | Error e -> Alcotest.failf "bundle unparsable: %s" e
              in
              Alcotest.(check bool) "format version" true
                (member_exn "bundle_format_version" bundle
                = Obs.Json.Int Obs.Flight.bundle_format_version);
              Alcotest.(check bool) "reason recorded" true
                (member_exn "reason" bundle
                = Obs.Json.String "test: trapped worker");
              (match
                 Obs.Json.member "build" (member_exn "provenance" bundle)
               with
              | Some build
                when Obs.Json.member "tool" build
                     = Some (Obs.Json.String Cfd_core.Version.tool) -> ()
              | _ -> Alcotest.fail "provenance lost the build identity");
              (match member_exn "metrics" bundle with
              | Obs.Json.Obj _ -> ()
              | _ -> Alcotest.fail "metrics snapshot missing");
              let entries =
                match member_exn "entries" bundle with
                | Obs.Json.List es -> es
                | _ -> Alcotest.fail "entries is not a list"
              in
              let has pred = List.exists pred entries in
              Alcotest.(check bool) "worker spans retained" true
                (has (fun e ->
                     Obs.Json.member "name" e
                     = Some (Obs.Json.String "pool.task")));
              Alcotest.(check bool) "trap logged as a pool error" true
                (has (fun e ->
                     Obs.Json.member "scope" e
                       = Some (Obs.Json.String "pool")
                     && Obs.Json.member "level" e
                        = Some (Obs.Json.String "error")
                     &&
                     match Obs.Json.member "msg" e with
                     | Some (Obs.Json.String m) ->
                         (try
                            ignore (Str.search_forward
                                      (Str.regexp_string "induced trap") m 0);
                            true
                          with Not_found -> false)
                     | _ -> false)))))

(* Every line the sink writes is one self-contained JSON object with
   the full field set, control characters escaped. *)
let test_jsonl_wellformed () =
  with_quiet_log (fun () ->
      let path = Filename.temp_file "cfdc-test-log" ".jsonl" in
      Obs.Log.set_level Obs.Log.Debug;
      Obs.Log.set_sink (Some (open_out path));
      Fun.protect
        ~finally:(fun () ->
          Obs.Log.set_sink None;
          Obs.Log.set_level Obs.Log.Warn;
          Sys.remove path)
        (fun () ->
          let nasty = "quote \" backslash \\ newline \n tab \t ctrl \x01 done" in
          Obs.Log.msg Obs.Log.Debug ~scope:"test" nasty;
          Obs.Log.info ~scope:"test"
            ~attrs:[ ("key", "value with \n newline") ]
            "formatted %d %s" 42 "ok";
          Obs.Log.error ~scope:"test" "an error";
          Obs.Log.set_sink None;
          let ic = open_in path in
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> close_in ic);
          let lines = List.rev !lines in
          Alcotest.(check int) "three events, three lines" 3
            (List.length lines);
          let parsed =
            List.map
              (fun line ->
                match Obs.Json.parse line with
                | Ok j -> j
                | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e)
              lines
          in
          List.iter
            (fun j ->
              List.iter
                (fun field -> ignore (member_exn field j))
                [ "ts"; "level"; "scope"; "msg"; "tid"; "span" ])
            parsed;
          (match List.nth_opt parsed 0 with
          | Some j ->
              Alcotest.(check bool) "control characters round-trip" true
                (member_exn "msg" j = Obs.Json.String nasty)
          | None -> Alcotest.fail "no first line");
          match List.nth_opt parsed 1 with
          | Some j ->
              Alcotest.(check bool) "format variant built its message" true
                (member_exn "msg" j = Obs.Json.String "formatted 42 ok");
              let attrs = member_exn "attrs" j in
              Alcotest.(check bool) "attrs escaped" true
                (Obs.Json.member "key" attrs
                = Some (Obs.Json.String "value with \n newline"))
          | None -> Alcotest.fail "no second line"))

let suite =
  [
    ( "flight.ring",
      [
        QCheck_alcotest.to_alcotest qcheck_ring_wraparound;
        QCheck_alcotest.to_alcotest qcheck_ring_jobs_agree;
      ] );
    ( "flight.disabled",
      [
        case "hot path allocates nothing" test_disabled_zero_alloc;
        case "compiler output identical" test_disabled_identical_compile;
      ] );
    ( "flight.crash",
      [ case "trapped worker produces a full bundle"
          test_crash_bundle_from_trapped_worker ] );
    ( "log.sink",
      [ case "JSONL lines parse with full field set" test_jsonl_wellformed ]
    );
  ]
