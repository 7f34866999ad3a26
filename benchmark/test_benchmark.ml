(* The benchmark checked through its own code: every workload runs one
   untraced and one traced operation, and what the benchmark promises of
   its result lines, its input sequence and its trace must hold. *)

open Cfd_benchmark

let spec =
  match Obs.Json.of_file "../BENCHMARK.json" with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let names section =
  match Obs.Json.member section spec with
  | Some (Obs.Json.List entries) ->
      List.map
        (fun e ->
          match Obs.Json.member "name" e with
          | Some (Obs.Json.String n) -> n
          | _ -> Alcotest.failf "%s: an entry without a name" section)
        entries
  | _ -> Alcotest.failf "BENCHMARK.json has no %s" section

let metric_names line =
  match Obs.Json.parse line with
  | Error e -> Alcotest.failf "the result line does not parse: %s" e
  | Ok j -> (
      match Obs.Json.member "metrics" j with
      | Some (Obs.Json.Obj metrics) -> List.map fst metrics
      | _ -> Alcotest.fail "the result line has no metrics")

(* Sum of self times over each traced operation's span tree, against the
   wall time of its root. *)
let check_self_times (r : Driver.run) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Harness.span) -> Hashtbl.replace by_id s.Harness.id s) r.Driver.spans;
  let rec root (s : Harness.span) =
    if s.Harness.parent < 0 then s else root (Hashtbl.find by_id s.Harness.parent)
  in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Harness.span) ->
      if s.Harness.op >= 0 then begin
        let rt = root s in
        let prev = Option.value ~default:0. (Hashtbl.find_opt totals rt.Harness.id) in
        Hashtbl.replace totals rt.Harness.id (prev +. s.Harness.self)
      end)
    r.Driver.spans;
  Alcotest.(check bool) "the traced operation recorded spans" true (Hashtbl.length totals > 0);
  Hashtbl.iter
    (fun id total ->
      let rt = Hashtbl.find by_id id in
      Alcotest.(check (float 1e-9))
        (rt.Harness.name ^ ": self times add up to its wall time")
        (Harness.duration rt) total)
    totals

let test_workload (w : Workloads.t) () =
  let dir = Filename.concat "_run" w.Workloads.name in
  let r =
    Fun.protect
      ~finally:(fun () -> Harness.remove_tree dir)
      (fun () ->
        Driver.run ~max_rounds:2 ~ops_per_round:1 ~workload:w ~seed:3 ~seconds:1e9
          ~trace:true ~dir ())
  in
  Alcotest.(check (list string)) "no operation failed" [] r.Driver.failures;
  Alcotest.(check (list string)) "the oracle holds" [] r.Driver.oracle_failures;
  Alcotest.(check bool) "correct" true (Driver.correct r);
  Alcotest.(check (list string))
    "the untraced line carries every end-to-end metric" (names "end_to_end")
    (metric_names (Driver.result_line r ~trace:false));
  Alcotest.(check (list string))
    "the traced line carries every per-layer metric" (names "per_layer")
    (metric_names (Driver.result_line r ~trace:true));
  let next = Driver.rounds ~seed:3 ~n:(Array.length r.Driver.inputs) in
  let round0 = next () in
  let round1 = next () in
  Alcotest.(check (list int))
    "the seed's input sequence" [ round0.(0); round1.(0) ] r.Driver.executed;
  Alcotest.(check int) "one traced operation" 1 (List.length r.Driver.traced);
  check_self_times r;
  Alcotest.(check bool) "the traced replica is identical" true r.Driver.replica_identical

let test_order () =
  let order seed =
    let next = Driver.rounds ~seed ~n:16 in
    List.init 3 (fun _ -> Array.to_list (next ()))
  in
  Alcotest.(check (list (list int))) "same seed, same sequence" (order 5) (order 5);
  Alcotest.(check bool) "another seed, another sequence" false (order 5 = order 6);
  List.iteri
    (fun i round ->
      Alcotest.(check (list int))
        (Printf.sprintf "round %d is a permutation" i)
        (List.init 16 Fun.id) (List.sort compare round))
    (order 5)

let test_helmholtz () =
  let file = In_channel.with_open_text "../kernels/helmholtz.cfd" In_channel.input_all in
  Alcotest.(check bool)
    "the p = 11 template is kernels/helmholtz.cfd" true
    (Cfdlang.Parser.parse file = Cfdlang.Parser.parse (Workloads.helmholtz_text 11))

let () =
  Alcotest.run "benchmark"
    [
      ( "inputs",
        [
          Alcotest.test_case "input sequence" `Quick test_order;
          Alcotest.test_case "helmholtz source" `Quick test_helmholtz;
        ] );
      ( "workloads",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case w.Workloads.name `Slow (test_workload w))
          Workloads.all );
    ]
