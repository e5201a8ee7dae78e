type t = {
  tids : int array;
  indices : int array;
}

let forced s = Array.to_list s.indices
let to_script s = Memsim.Machine.script ~forced:(forced s)
let length s = Array.length s.indices

let to_string s =
  String.concat "," (List.map string_of_int (forced s))

let parse str =
  let rec indices acc = function
    | [] -> Ok { tids = [||]; indices = Array.of_list (List.rev acc) }
    | part :: rest -> (
      match int_of_string_opt (String.trim part) with
      | Some i when i >= 0 -> indices (i :: acc) rest
      | Some _ | None -> Error (Printf.sprintf "bad index %S in %S" part str))
  in
  if String.trim str = "" then indices [] []
  else indices [] (String.split_on_char ',' str)

let of_string str =
  match parse str with
  | Ok s -> s
  | Error msg -> invalid_arg ("Schedule.of_string: " ^ msg)

let pp ppf s =
  if Array.length s.tids <> Array.length s.indices then
    Format.pp_print_string ppf (to_string s)
  else
    Array.iteri
      (fun i tid ->
        if i > 0 then Format.pp_print_char ppf ' ';
        Format.fprintf ppf "%d@%d" tid s.indices.(i))
      s.tids
