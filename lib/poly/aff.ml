type t = { coeffs : int array; const : int }

exception Arity_mismatch of int * int

let make coeffs const = { coeffs = Array.copy coeffs; const }
let const arity c = { coeffs = Array.make arity 0; const = c }

let var arity i =
  if i < 0 || i >= arity then
    invalid_arg (Printf.sprintf "Aff.var: index %d out of arity %d" i arity);
  let coeffs = Array.make arity 0 in
  coeffs.(i) <- 1;
  { coeffs; const = 0 }

let arity t = Array.length t.coeffs
let coeff t i = t.coeffs.(i)
let constant t = t.const

let check_arity a b =
  if arity a <> arity b then raise (Arity_mismatch (arity a, arity b))

let add a b =
  check_arity a b;
  { coeffs = Array.map2 ( + ) a.coeffs b.coeffs; const = a.const + b.const }

let neg a = { coeffs = Array.map (fun c -> -c) a.coeffs; const = -a.const }
let sub a b = add a (neg b)
let scale k a = { coeffs = Array.map (fun c -> k * c) a.coeffs; const = k * a.const }
let add_const a c = { a with const = a.const + c }

let eval t point =
  if Array.length point <> arity t then
    raise (Arity_mismatch (arity t, Array.length point));
  let acc = ref t.const in
  Array.iteri (fun i c -> acc := !acc + (c * point.(i))) t.coeffs;
  !acc

let range t box =
  let lo = ref t.const and hi = ref t.const in
  Array.iteri
    (fun i c ->
      let blo, bhi = box.(i) in
      if c > 0 then begin
        lo := !lo + (c * blo);
        hi := !hi + (c * bhi)
      end
      else if c < 0 then begin
        lo := !lo + (c * bhi);
        hi := !hi + (c * blo)
      end)
    t.coeffs;
  (!lo, !hi)

let is_constant t = Array.for_all (( = ) 0) t.coeffs
let equal a b = a.coeffs = b.coeffs && a.const = b.const

let extend t n =
  { t with coeffs = Array.append t.coeffs (Array.make n 0) }

let shift t by n =
  if by + arity t > n then
    invalid_arg
      (Printf.sprintf "Aff.shift: arity %d shifted by %d exceeds %d" (arity t)
         by n);
  let coeffs = Array.make n 0 in
  Array.blit t.coeffs 0 coeffs by (arity t);
  { coeffs; const = t.const }

let substitute t i repl =
  check_arity t repl;
  if repl.coeffs.(i) <> 0 then
    invalid_arg "Aff.substitute: replacement mentions substituted variable";
  let c = t.coeffs.(i) in
  if c = 0 then t
  else
    let without = { t with coeffs = Array.copy t.coeffs } in
    without.coeffs.(i) <- 0;
    add without (scale c repl)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let gcd_reduce t =
  let g = Array.fold_left (fun acc c -> gcd acc c) 0 t.coeffs in
  if g <= 1 then (t, max g 1)
  else
    ( {
        coeffs = Array.map (fun c -> c / g) t.coeffs;
        (* Integer tightening for >= constraints: floor division of the
           constant is sound because the variable part is a multiple of g. *)
        const =
          (if t.const >= 0 then t.const / g
           else -(((-t.const) + g - 1) / g));
      },
      g )

let pp ~names ppf t =
  let printed = ref false in
  Array.iteri
    (fun i c ->
      if c <> 0 then begin
        let name =
          if i < Array.length names then names.(i)
          else Printf.sprintf "x%d" i
        in
        if !printed then
          Format.fprintf ppf " %s " (if c > 0 then "+" else "-")
        else if c < 0 then Format.pp_print_string ppf "-";
        let a = abs c in
        if a = 1 then Format.pp_print_string ppf name
        else Format.fprintf ppf "%d%s" a name;
        printed := true
      end)
    t.coeffs;
  if t.const <> 0 || not !printed then
    if !printed then
      Format.fprintf ppf " %s %d"
        (if t.const >= 0 then "+" else "-")
        (abs t.const)
    else Format.pp_print_int ppf t.const

let pp_anon ppf t =
  let names = Array.init (arity t) (Printf.sprintf "x%d") in
  pp ~names ppf t
