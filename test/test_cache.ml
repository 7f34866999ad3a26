(* The content-addressed artifact cache (lib/cache) and its warm-start
   wiring through Compile, Explore and Costing:

   - key derivation is stable, order-sensitive and frame-safe, and the
     options fingerprint tracks exactly the knobs that change artifacts
     (static_check excluded);
   - the codec refuses truncated, bit-flipped, version-bumped and
     wrong-kind frames as [Error], never an exception;
   - the store serves both tiers, survives corruption as a miss plus
     recompute, evicts within its memory bound, and gc/clear touch only
     files the store owns;
   - a cache hit is bit-identical to the miss that wrote it, for the
     compile products, the verdict, the static cost record, and whole
     sweep outcome lists -- including jobs:1 vs jobs:N over one shared
     warm store, and composed with the static pre-filter. *)

open Cfd_core

let case name f = Alcotest.test_case name `Quick f

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cfdc-test-cache-%d-%d" (Unix.getpid ()) !n)

(* The store's directories are flat. *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

let test_key_stable () =
  let hex parts = Cache.Key.to_hex (Cache.Key.make parts) in
  Alcotest.(check string)
    "same parts, same key"
    (hex [ ("a", "x"); ("b", "y") ])
    (hex [ ("a", "x"); ("b", "y") ]);
  Alcotest.(check int) "32 hex chars" 32 (String.length (hex [ ("a", "x") ]))

let test_key_framing () =
  let hex parts = Cache.Key.to_hex (Cache.Key.make parts) in
  let keys =
    [
      hex [ ("a", "bc") ];
      hex [ ("ab", "c") ];
      hex [ ("a", "b"); ("", "c") ];
      hex [ ("a", "bc"); ("", "") ];
      hex [ ("a", "x"); ("b", "y") ];
      hex [ ("b", "y"); ("a", "x") ];
    ]
  in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int)
    "framed parts never collide across boundaries or order"
    (List.length keys) (List.length distinct)

let test_key_options () =
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let o = Compile.default_options in
  let hex ?extra options =
    Cache.Key.to_hex (Compile.cache_key ?extra ~options ast)
  in
  let base = hex o in
  Alcotest.(check bool)
    "sharing flip changes the key" true
    (base <> hex { o with Compile.sharing = not o.Compile.sharing });
  Alcotest.(check bool)
    "unroll change changes the key" true
    (base <> hex { o with Compile.unroll = Some 2 });
  Alcotest.(check string)
    "static_check is not part of the fingerprint" base
    (hex { o with Compile.static_check = not o.Compile.static_check });
  Alcotest.(check bool)
    "extra parts extend the key" true
    (base <> hex ~extra:[ ("sweep", "n=512" ) ] o)

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let v = ([ 1; 2; 3 ], "hello", 4.5) in
  let s = Cache.Codec.encode ~kind:"blob" v in
  match Cache.Codec.decode ~kind:"blob" s with
  | Ok v' -> Alcotest.(check bool) "decode . encode = id" true (v = v')
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_codec_rejects () =
  let s = Cache.Codec.encode ~kind:"blob" [ 1; 2; 3 ] in
  let expect_error what frame =
    match Cache.Codec.decode ~kind:"blob" frame with
    | Ok (_ : int list) -> Alcotest.failf "%s decoded successfully" what
    | Error _ -> ()
  in
  (match Cache.Codec.decode ~kind:"other" s with
  | Ok (_ : int list) -> Alcotest.fail "wrong kind accepted"
  | Error _ -> ());
  expect_error "truncated" (String.sub s 0 (String.length s - 3));
  expect_error "header only" (String.sub s 0 8);
  expect_error "empty" "";
  expect_error "garbage" "not a cache frame at all\n";
  let flipped = Bytes.of_string s in
  let i = String.length s - 1 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x40));
  expect_error "bit-flipped payload" (Bytes.to_string flipped)

(* ------------------------------------------------------------------ *)
(* Store                                                              *)
(* ------------------------------------------------------------------ *)

let kind = "blob"
let key_of s = Cache.Key.make [ ("test", s) ]
let encode (v : string list) = Cache.Codec.encode ~kind v
let decode s : (string list, string) result = Cache.Codec.decode ~kind s
let find store k = Cache.Store.find store ~kind k ~decode
let put store k v = Cache.Store.store store ~kind k ~encode v

let test_store_memory_roundtrip () =
  let store = Cache.Store.create () in
  let k = key_of "m" in
  Alcotest.(check bool) "absent before store" true (find store k = None);
  put store k [ "alpha"; "beta" ];
  Alcotest.(check bool)
    "round-trips through tier one" true
    (find store k = Some [ "alpha"; "beta" ])

let test_store_disk_roundtrip () =
  with_dir @@ fun dir ->
  let store1 = Cache.Store.create ~dir () in
  let k = key_of "d" in
  put store1 k [ "gamma" ];
  (* a fresh store over the same directory simulates a new process:
     tier one is empty, the hit must come from disk *)
  let store2 = Cache.Store.create ~dir () in
  Alcotest.(check bool)
    "round-trips through the disk tier" true
    (find store2 k = Some [ "gamma" ]);
  let s = Cache.Store.stats store2 in
  Alcotest.(check int) "one disk entry" 1 s.Cache.Store.st_disk_entries;
  Alcotest.(check bool) "non-empty" true (s.Cache.Store.st_disk_bytes > 0)

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ("." ^ kind))
  |> List.map (Filename.concat dir)

let corrupting how dir =
  match entry_files dir with
  | [] -> Alcotest.fail "no entry file to corrupt"
  | file :: _ ->
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let s' = how s in
      let oc = open_out_bin file in
      output_string oc s';
      close_out oc

let test_corruption how name =
  with_dir @@ fun dir ->
  let k = key_of name in
  put (Cache.Store.create ~dir ()) k [ "payload"; name ];
  corrupting how dir;
  let store = Cache.Store.create ~dir () in
  let misses0 = counter "cache.misses" in
  Alcotest.(check bool) (name ^ " entry is a miss") true (find store k = None);
  Alcotest.(check bool)
    (name ^ " counted in cache.misses") true
    (counter "cache.misses" > misses0);
  (* recompute-and-store must recover the entry *)
  put store k [ "payload"; name ];
  Alcotest.(check bool)
    (name ^ " recovered after recompute") true
    (find store k = Some [ "payload"; name ])

let test_store_truncated () =
  test_corruption (fun s -> String.sub s 0 (String.length s / 2)) "truncated"

let test_store_bitflip () =
  test_corruption
    (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b)
    "bit-flipped"

let test_store_version_mismatch () =
  (* bump the frame's format-version token in place: a future (or past)
     writer's entry must read as a miss, not a crash *)
  test_corruption
    (fun s ->
      match String.index_opt s '\n' with
      | None -> "cfdc1 999 blob deadbeef 0\n"
      | Some nl -> (
          let header = String.sub s 0 nl in
          let rest = String.sub s nl (String.length s - nl) in
          match String.split_on_char ' ' header with
          | magic :: _version :: tail ->
              String.concat " " (magic :: "999" :: tail) ^ rest
          | _ -> "cfdc1 999 blob deadbeef 0\n"))
    "version-bumped"

let test_store_eviction () =
  let store = Cache.Store.create ~max_memory_entries:2 () in
  let ev0 = counter "cache.evictions" in
  put store (key_of "e1") [ "1" ];
  put store (key_of "e2") [ "2" ];
  put store (key_of "e3") [ "3" ];
  let s = Cache.Store.stats store in
  Alcotest.(check int) "memory bounded" 2 s.Cache.Store.st_memory_entries;
  Alcotest.(check bool)
    "eviction counted" true
    (counter "cache.evictions" > ev0);
  Alcotest.(check bool)
    "newest entry survives" true
    (find store (key_of "e3") = Some [ "3" ])

let test_store_gc_clear () =
  with_dir @@ fun dir ->
  let store = Cache.Store.create ~dir () in
  put store (key_of "g1") [ "1" ];
  put store (key_of "g2") [ "2" ];
  (* a stale temp file from a crashed writer, and a foreign file the
     store must never touch *)
  let stale = Filename.concat dir "tmp-stale123.part" in
  let foreign = Filename.concat dir "README.txt" in
  List.iter
    (fun f ->
      let oc = open_out_bin f in
      output_string oc "x";
      close_out oc)
    [ stale; foreign ];
  let removed = Cache.Store.gc store in
  Alcotest.(check int) "gc without budget removes only temps" 1 removed;
  Alcotest.(check bool) "stale temp gone" false (Sys.file_exists stale);
  Alcotest.(check int)
    "entries kept" 2
    (Cache.Store.stats store).Cache.Store.st_disk_entries;
  let removed = Cache.Store.gc ~max_bytes:0 store in
  Alcotest.(check int) "gc to zero removes both entries" 2 removed;
  Alcotest.(check int)
    "disk empty" 0
    (Cache.Store.stats store).Cache.Store.st_disk_entries;
  put store (key_of "g3") [ "3" ];
  let removed = Cache.Store.clear store in
  Alcotest.(check int) "clear removes the entry" 1 removed;
  Alcotest.(check bool) "foreign file untouched" true (Sys.file_exists foreign);
  Alcotest.(check bool) "cleared from memory too" true
    (find store (key_of "g3") = None)

(* ------------------------------------------------------------------ *)
(* Warm-start compile / check / cost                                  *)
(* ------------------------------------------------------------------ *)

let same_result r1 r2 =
  r1.Compile.c_source = r2.Compile.c_source
  && Stdlib.compare r1.Compile.proc r2.Compile.proc = 0
  && Stdlib.compare r1.Compile.memory r2.Compile.memory = 0
  && Stdlib.compare r1.Compile.hls r2.Compile.hls = 0
  && r1.Compile.mnemosyne_metadata = r2.Compile.mnemosyne_metadata

let test_compile_hit_identical () =
  with_dir @@ fun dir ->
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let cold = Compile.compile ast in
  let store = Cache.Store.create ~dir () in
  let miss = Compile.compile ~cache:store ast in
  let hits0 = counter "cache.hits" in
  let hit = Compile.compile ~cache:store ast in
  Alcotest.(check bool) "hit served from tier one" true
    (counter "cache.hits" > hits0);
  (* a fresh store over the same directory: the disk-tier hit *)
  let disk_hit = Compile.compile ~cache:(Cache.Store.create ~dir ()) ast in
  Alcotest.(check bool) "miss = uncached" true (same_result cold miss);
  Alcotest.(check bool) "memory hit = uncached" true (same_result cold hit);
  Alcotest.(check bool) "disk hit = uncached" true (same_result cold disk_hit)

let test_check_verdict_cached () =
  with_dir @@ fun dir ->
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let r = Compile.compile ast in
  let fresh = Compile.check r in
  let store = Cache.Store.create ~dir () in
  let miss = Compile.check ~cache:store r in
  let runs0 = counter "verify.runs" in
  let hit = Compile.check ~cache:store r in
  Alcotest.(check int)
    "verdict hit skips the verifier" runs0 (counter "verify.runs");
  Alcotest.(check bool) "miss verdict = fresh" true
    (Stdlib.compare fresh miss = 0);
  Alcotest.(check bool) "hit verdict = fresh" true
    (Stdlib.compare fresh hit = 0)

(* A cache directory that is a regular file: every disk write fails, so
   each store warns and keeps its entry in memory only, a repeat lookup
   is a tier-one hit, and the results are an uncached run's. *)
let test_dir_is_file () =
  let file = Filename.temp_file "cfdc-test-cache" ".notadir" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let cold = Compile.compile ast in
  let fresh = Compile.check cold in
  let store = Cache.Store.create ~dir:file () in
  let compile_and_check () =
    Obs.Log.set_mirror None;
    Fun.protect
      ~finally:(fun () -> Obs.Log.set_mirror (Some Obs.Log.Warn))
      (fun () ->
        let r = Compile.compile ~cache:store ast in
        (r, Compile.check ~cache:store r))
  in
  let warns0 = counter "log.events.warn" in
  let miss, miss_verdict = compile_and_check () in
  Alcotest.(check int) "products and verdict writes each warn" 2
    (counter "log.events.warn" - warns0);
  let hits0 = counter "cache.hits" in
  let hit, hit_verdict = compile_and_check () in
  Alcotest.(check int) "repeat lookups hit the memory tier" 2
    (counter "cache.hits" - hits0);
  Alcotest.(check int) "hits write nothing" 2
    (counter "log.events.warn" - warns0);
  let st = Cache.Store.stats store in
  Alcotest.(check (pair int int)) "memory entries, no disk entries" (2, 0)
    (st.Cache.Store.st_memory_entries, st.Cache.Store.st_disk_entries);
  Alcotest.(check bool) "the file is left alone" true
    (Sys.file_exists file && not (Sys.is_directory file));
  Alcotest.(check bool) "miss = uncached" true (same_result cold miss);
  Alcotest.(check bool) "hit = uncached" true (same_result cold hit);
  Alcotest.(check bool) "verdicts = uncached" true
    (Stdlib.compare fresh miss_verdict = 0
    && Stdlib.compare fresh hit_verdict = 0)

let test_costing_warm () =
  with_dir @@ fun dir ->
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let r = Compile.compile ast in
  let cold = Costing.analyze ~n_elements:512 r in
  let store = Cache.Store.create ~dir () in
  let miss = Costing.analyze ~cache:store ~n_elements:512 r in
  let warm = Costing.analyze ~cache:store ~n_elements:512 r in
  Alcotest.(check bool) "cached report = uncached" true
    (Stdlib.compare cold miss = 0 && Stdlib.compare cold warm = 0)

(* ------------------------------------------------------------------ *)
(* Warm-start sweeps                                                  *)
(* ------------------------------------------------------------------ *)

let test_sweep_warm_start () =
  with_dir @@ fun dir ->
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let baseline = Explore.sweep ~jobs:2 ~n_elements:512 ast in
  let store = Cache.Store.create ~dir () in
  let cold = Explore.sweep ~jobs:2 ~cache:store ~n_elements:512 ast in
  let c0 = counter "compile.runs" and v0 = counter "verify.runs" in
  let warm = Explore.sweep ~jobs:2 ~cache:store ~n_elements:512 ast in
  Alcotest.(check int) "warm sweep compiles nothing" c0
    (counter "compile.runs");
  Alcotest.(check int) "warm sweep verifies nothing" v0
    (counter "verify.runs");
  Alcotest.(check bool) "cold cached sweep = uncached" true
    (Stdlib.compare baseline cold = 0);
  Alcotest.(check bool) "warm sweep = uncached" true
    (Stdlib.compare baseline warm = 0)

let test_sweep_jobs_shared_cache () =
  with_dir @@ fun dir ->
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let store = Cache.Store.create ~dir () in
  let s1 = Explore.sweep ~jobs:1 ~cache:store ~n_elements:512 ast in
  let s4 = Explore.sweep ~jobs:4 ~cache:store ~n_elements:512 ast in
  Alcotest.(check bool) "jobs:4 over the warm store = jobs:1" true
    (Stdlib.compare s1 s4 = 0);
  (* and through a fresh store on the same directory (new process) *)
  let s1' =
    Explore.sweep ~jobs:1 ~cache:(Cache.Store.create ~dir ()) ~n_elements:512
      ast
  in
  Alcotest.(check bool) "disk-tier warm sweep agrees" true
    (Stdlib.compare s1 s1' = 0)

let test_sweep_prefilter_composes () =
  with_dir @@ fun dir ->
  let ast = Cfdlang.Ast.inverse_helmholtz ~p:3 () in
  let baseline = Explore.sweep ~jobs:2 ~prefilter:true ~n_elements:512 ast in
  let store = Cache.Store.create ~dir () in
  let cold =
    Explore.sweep ~jobs:2 ~prefilter:true ~cache:store ~n_elements:512 ast
  in
  let warm =
    Explore.sweep ~jobs:2 ~prefilter:true ~cache:store ~n_elements:512 ast
  in
  Alcotest.(check bool) "prefilter x cache, cold = uncached" true
    (Stdlib.compare baseline cold = 0);
  Alcotest.(check bool) "prefilter x cache, warm = uncached" true
    (Stdlib.compare baseline warm = 0)

(* ------------------------------------------------------------------ *)
(* qcheck: random kernels x option points                             *)
(* ------------------------------------------------------------------ *)

let qcheck_artifact_roundtrip =
  QCheck.Test.make ~name:"artifact codecs: decode . encode = id" ~count:12
    (QCheck.make Test_integration.gen_program)
    (fun source_opt ->
      match source_opt with
      | None -> true
      | Some source -> (
          match Compile.compile_source source with
          | Error msg ->
              QCheck.Test.fail_reportf "compile failed: %s\n%s" msg source
          | Ok r -> (
              let p =
                {
                  Cache.Artifact.a_memory = r.Compile.memory;
                  a_proc = r.Compile.proc;
                  a_c_source = r.Compile.c_source;
                  a_hls = r.Compile.hls;
                  a_metadata = r.Compile.mnemosyne_metadata;
                }
              in
              (match
                 Cache.Artifact.decode_products
                   (Cache.Artifact.encode_products p)
               with
              | Error e -> QCheck.Test.fail_reportf "products decode: %s" e
              | Ok p' ->
                  Stdlib.compare p p' = 0
                  || QCheck.Test.fail_reportf "products round-trip drift\n%s"
                       source)
              &&
              let d = Compile.check r in
              match
                Cache.Artifact.decode_verdict (Cache.Artifact.encode_verdict d)
              with
              | Error e -> QCheck.Test.fail_reportf "verdict decode: %s" e
              | Ok d' ->
                  Stdlib.compare d d' = 0
                  || QCheck.Test.fail_reportf "verdict round-trip drift\n%s"
                       source)))

let qcheck_hit_equals_miss =
  QCheck.Test.make
    ~name:"cache hit = miss, bit for bit, across option points" ~count:6
    (QCheck.make Test_integration.gen_program)
    (fun source_opt ->
      match source_opt with
      | None -> true
      | Some source ->
          with_dir @@ fun dir ->
          List.for_all
            (fun (factorize, decoupled, sharing) ->
              let options =
                {
                  Compile.default_options with
                  Compile.factorize;
                  decoupled;
                  sharing;
                }
              in
              let cache = Cache.Store.create ~dir () in
              match
                ( Compile.compile_source ~options source,
                  Compile.compile_source ~cache ~options source )
              with
              | Ok cold, Ok miss -> (
                  match Compile.compile_source ~cache ~options source with
                  | Ok hit ->
                      (same_result cold miss && same_result cold hit
                      && Stdlib.compare (Compile.check cold)
                           (Compile.check ~cache hit)
                         = 0)
                      || QCheck.Test.fail_reportf
                           "hit differs from miss (f=%b d=%b s=%b)\n%s"
                           factorize decoupled sharing source
                  | Error msg ->
                      QCheck.Test.fail_reportf "hit compile: %s\n%s" msg
                        source)
              | Error msg, _ | _, Error msg ->
                  QCheck.Test.fail_reportf "compile: %s\n%s" msg source)
            [ (true, true, true); (false, true, false); (true, false, true) ])

let suite =
  [
    ( "cache.key",
      [
        case "stable and hex" test_key_stable;
        case "framing and order" test_key_framing;
        case "options fingerprint" test_key_options;
      ] );
    ( "cache.codec",
      [
        case "round-trip" test_codec_roundtrip;
        case "rejects damaged frames" test_codec_rejects;
      ] );
    ( "cache.store",
      [
        case "memory round-trip" test_store_memory_roundtrip;
        case "disk round-trip" test_store_disk_roundtrip;
        case "truncated entry is a miss" test_store_truncated;
        case "bit-flipped entry is a miss" test_store_bitflip;
        case "version mismatch is a miss" test_store_version_mismatch;
        case "memory tier evicts" test_store_eviction;
        case "gc and clear" test_store_gc_clear;
      ] );
    ( "cache.pipeline",
      [
        case "compile hit = cold compile" test_compile_hit_identical;
        case "verdict cached" test_check_verdict_cached;
        case "static cost cached" test_costing_warm;
        case "sweep warm-start" test_sweep_warm_start;
        case "sweep jobs share one store" test_sweep_jobs_shared_cache;
        case "sweep prefilter composes" test_sweep_prefilter_composes;
        case "cache dir that is a file: memory only" test_dir_is_file;
      ] );
    ( "cache.qcheck",
      [
        QCheck_alcotest.to_alcotest qcheck_artifact_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_hit_equals_miss;
      ] );
  ]
