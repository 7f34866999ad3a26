(* A hit/miss-pair view over the Obs.Metrics registry: each [counter]
   here is a pair of registry counters "<name>.hits" / "<name>.misses",
   so the polyhedral caches report through the same substrate as every
   other subsystem (one counter implementation, one output format) while
   this module keeps the convenient paired API for the caches. *)

type counter = {
  name : string;
  h : Obs.Metrics.counter;
  m : Obs.Metrics.counter;
}

let registry : counter list ref = ref []
let registry_lock = Mutex.create ()

let counter name =
  let c =
    {
      name;
      h = Obs.Metrics.counter (name ^ ".hits");
      m = Obs.Metrics.counter (name ^ ".misses");
    }
  in
  Mutex.protect registry_lock (fun () ->
      if not (List.exists (fun x -> x.name = name) !registry) then
        registry := c :: !registry);
  c

let hit c = Obs.Metrics.incr c.h
let miss c = Obs.Metrics.incr c.m
let name c = c.name
let hits c = Obs.Metrics.counter_value c.h
let misses c = Obs.Metrics.counter_value c.m

let all () = Mutex.protect registry_lock (fun () -> List.rev !registry)

let reset () = Obs.Metrics.reset ()
