type config = {
  board : Fpga_platform.Board.t;
  interface_reserve : Fpga_platform.Resource.t;
  glue_per_kernel : Fpga_platform.Resource.t;
}

(* Fitted to Table I (see EXPERIMENTS.md): total LUT ~= 6896 + 4396 m with
   a 2314-LUT kernel leaves 2082 LUT of steering/integration glue per
   instance; FF ~= 6498 + 3035 m leaves 36 FF; the interface reserve
   includes the DMA buffering that caps the no-sharing design at m = 8. *)
let default_config =
  {
    board = Fpga_platform.Board.zcu106;
    interface_reserve =
      Fpga_platform.Resource.make ~lut:6896 ~ff:6498 ~dsp:0 ~bram18:132;
    glue_per_kernel = Fpga_platform.Resource.make ~lut:2082 ~ff:36 ~dsp:0 ~bram18:0;
  }

type solution = {
  k : int;
  m : int;
  batch : int;
  used : Fpga_platform.Resource.t;
  available : Fpga_platform.Resource.t;
  reserve : Fpga_platform.Resource.t;
}

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun s -> raise (Infeasible s)) fmt

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let usage config ~kernel ~plm_brams ~k ~m =
  let h = Fpga_platform.Resource.add kernel config.glue_per_kernel in
  let mem = Fpga_platform.Resource.make ~lut:0 ~ff:0 ~dsp:0 ~bram18:plm_brams in
  Fpga_platform.Resource.add
    (Fpga_platform.Resource.scale k h)
    (Fpga_platform.Resource.scale m mem)

let available config =
  Fpga_platform.Resource.sub config.board.Fpga_platform.Board.capacity
    config.interface_reserve

let feasible config ~kernel ~plm_brams ~k ~m =
  Fpga_platform.Resource.fits
    (usage config ~kernel ~plm_brams ~k ~m)
    ~within:(available config)

let solve ?(config = default_config) ~kernel ~plm_brams ?force_k ?force_m () =
  let at_least_one what = function
    | Some v when v < 1 -> infeasible "forced %s = %d is below 1" what v
    | _ -> ()
  in
  at_least_one "k" force_k;
  at_least_one "m" force_m;
  let avail = available config in
  let mk k m =
    if m < k then infeasible "m = %d < k = %d" m k;
    if m mod k <> 0 || not (is_power_of_two (m / k)) then
      infeasible "m = %d is not a power-of-two multiple of k = %d" m k;
    if not (feasible config ~kernel ~plm_brams ~k ~m) then
      infeasible "k = %d, m = %d exceeds the available resources" k m;
    {
      k;
      m;
      batch = m / k;
      used =
        Fpga_platform.Resource.add
          (usage config ~kernel ~plm_brams ~k ~m)
          config.interface_reserve;
      available = avail;
      reserve = config.interface_reserve;
    }
  in
  match (force_k, force_m) with
  | Some k, Some m -> mk k m
  | Some k, None -> mk k k
  | None, Some m -> mk m m
  | None, None ->
      let rec grow m =
        if feasible config ~kernel ~plm_brams ~k:(2 * m) ~m:(2 * m) then grow (2 * m)
        else m
      in
      if not (feasible config ~kernel ~plm_brams ~k:1 ~m:1) then
        infeasible "even a single kernel does not fit"
      else mk (grow 1) (grow 1)

let max_m ?(config = default_config) ~kernel ~plm_brams () =
  if not (feasible config ~kernel ~plm_brams ~k:1 ~m:1) then 0
  else begin
    let rec grow m =
      if feasible config ~kernel ~plm_brams ~k:(2 * m) ~m:(2 * m) then grow (2 * m)
      else m
    in
    grow 1
  end

let pp_solution ppf s =
  Format.fprintf ppf "k = %d accelerators, m = %d PLMs (batch %d); used %a"
    s.k s.m s.batch Fpga_platform.Resource.pp s.used
