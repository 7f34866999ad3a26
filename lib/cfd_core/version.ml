(* Build identity and run provenance. One place answers "which tool,
   which schema dialects, on which host, invoked how" — embedded in
   crash bundles (via Obs.Flight.set_provenance), bench records and
   `cfdc version` so any recorded artifact can be traced back to the
   build that wrote it. *)

let tool = "1.1.0"

let cache_key_format_version = Cache.Key.format_version
let options_fingerprint_version = Compile.options_fingerprint_version

let build_info () =
  Obs.Json.Obj
    [
      ("tool", Obs.Json.String tool);
      ("cache_key_format_version", Obs.Json.Int cache_key_format_version);
      ( "options_fingerprint_version",
        Obs.Json.Int options_fingerprint_version );
      ("ocaml", Obs.Json.String Sys.ocaml_version);
    ]

let pp ppf () =
  Format.fprintf ppf "cfdc %s@." tool;
  Format.fprintf ppf "cache key schema: %d@." cache_key_format_version;
  Format.fprintf ppf "options fingerprint: %d@." options_fingerprint_version;
  Format.fprintf ppf "ocaml: %s@." Sys.ocaml_version

let manifest () =
  let host = try Unix.gethostname () with _ -> "unknown" in
  Obs.Json.Obj
    [
      ("build", build_info ());
      ( "argv",
        Obs.Json.List
          (List.map (fun a -> Obs.Json.String a) (Array.to_list Sys.argv)) );
      ("host", Obs.Json.String host);
      ("platform", Obs.Json.String Compile.platform_fingerprint);
      ("unix_time", Obs.Json.Float (Unix.gettimeofday ()));
    ]
