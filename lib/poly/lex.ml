type timestamp = int array

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let rec go i =
    if i >= n then 0
    else
      let x = if i < la then a.(i) else 0 and y = if i < lb then b.(i) else 0 in
      if x < y then -1 else if x > y then 1 else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0
let le a b = compare a b <= 0
let lt a b = compare a b < 0
let min a b = if le a b then a else b
let max a b = if le a b then b else a

type interval = { first : timestamp; last : timestamp }

let interval first last =
  if lt last first then invalid_arg "Lex.interval: empty interval";
  { first; last }

let overlap a b = le a.first b.last && le b.first a.last

let pp_timestamp ppf t =
  Format.fprintf ppf "[%s]"
    (String.concat ", " (Array.to_list (Array.map string_of_int t)))
