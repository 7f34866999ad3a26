(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints its result line last on stdout: the
   end-to-end metrics untraced, the per-layer metrics traced (with the
   span tree written to benchmark/_run/traces/NAME.trace.json).

     main.exe --write-expected FILE

   regenerates the correctness oracle from the current flow. *)

open Cfd_benchmark

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     \       main.exe --write-expected FILE\n\
      workloads: "
    ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let run_dir = Filename.concat "benchmark" "_run"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  match List.assoc_opt "write-expected" opts with
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Workloads.expected_json ()))
  | None -> (
      let get key conv =
        match Option.bind (List.assoc_opt key opts) conv with
        | Some v -> v
        | None -> usage ()
      in
      let workload =
        get "workload" (fun n ->
            List.find_opt (fun w -> w.Workloads.name = n) Workloads.all)
      in
      let seed = get "seed" int_of_string_opt in
      let seconds = get "seconds" float_of_string_opt in
      let trace = get "trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
      if List.length opts <> 4 || seconds <= 0. then usage ();
      let dir = Filename.concat run_dir (string_of_int (Unix.getpid ())) in
      let result =
        Fun.protect
          ~finally:(fun () -> Harness.remove_tree dir)
          (fun () -> Driver.run ~workload ~seed ~seconds ~trace ~dir ())
      in
      prerr_endline (Driver.summary result);
      if trace then begin
        let traces = Filename.concat run_dir "traces" in
        Harness.mkdir_p traces;
        Obs.Json.to_file
          (Filename.concat traces (workload.Workloads.name ^ ".trace.json"))
          (Harness.chrome_trace result.Driver.spans)
      end;
      print_endline (Driver.result_line result ~trace))
