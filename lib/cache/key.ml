type t = string

let format_version = 2

let make parts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "cfdc-cache-format:%d\n" format_version);
  List.iter
    (fun (label, value) ->
      Buffer.add_string buf label;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (String.length value));
      Buffer.add_char buf '\n';
      Buffer.add_string buf value;
      Buffer.add_char buf '\n')
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let to_hex t = t
let pp ppf t = Format.pp_print_string ppf t
