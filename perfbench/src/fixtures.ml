type entry = {
  workload : string;
  instance_seed : int;
  variant : string;
  e_ref : float;
  how : string;
}

let parse_line lineno line =
  match String.split_on_char '\t' line with
  | [ workload; seed; variant; e_ref; how ] -> (
      match (int_of_string_opt seed, float_of_string_opt e_ref) with
      | Some instance_seed, Some e_ref when Float.is_finite e_ref ->
          Ok { workload; instance_seed; variant; e_ref; how }
      | _ -> Error (Printf.sprintf "line %d: bad seed or energy" lineno))
  | _ -> Error (Printf.sprintf "line %d: expected 5 tab-separated fields" lineno)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) acc rest
        else (
          match parse_line lineno line with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error _ as err -> err)
  in
  go 1 [] lines

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let find entries ~workload ~instance_seed ~variant =
  List.find_opt
    (fun e ->
      e.workload = workload && e.instance_seed = instance_seed
      && e.variant = variant)
    entries
