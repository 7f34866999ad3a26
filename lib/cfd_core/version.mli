(** Build identity and run provenance.

    Every durable artifact this tool writes — crash bundles, bench
    records — embeds {!build_info} so a recorded run names the tool
    version and the schema dialects (cache key framing, options
    fingerprint) it was produced with; a reader can refuse to compare
    records across incompatible dialects. *)

val tool : string
(** The tool version, also what [cfdc --version] reports. *)

val cache_key_format_version : int
(** [Cache.Key.format_version] — the length-framed digest layout. *)

val options_fingerprint_version : int
(** [Compile.options_fingerprint_version]. *)

val build_info : unit -> Obs.Json.t
(** [{"tool", "cache_key_format_version", "options_fingerprint_version",
    "ocaml"}]. *)

val pp : Format.formatter -> unit -> unit
(** Human rendering of {!build_info}, one field per line — the body of
    [cfdc version]. *)

val manifest : unit -> Obs.Json.t
(** The run-provenance manifest: {!build_info}, [Sys.argv], host name,
    the platform-constant fingerprint shared with the cache key, and
    the wall-clock time. *)
