(* The end-to-end benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   run from the root of a netdiv checkout (see ../README.md).  Human-
   readable report lines go first; the last line of standard output is
   one JSON object with the run's correctness and metrics.  Errors exit
   with code 2 and print no result. *)

module W = Perfbench.Workloads
module R = Perfbench.Runner

let fixture = Filename.concat "perfbench" (Filename.concat "fixtures" "reference.tsv")
let out_dir = Filename.concat "perfbench" "out"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat "|" (List.map W.to_string W.all) );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  let w =
    match W.of_string !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let traced = !trace = 1 in
  let trace_out =
    Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.tsv" (W.to_string w) !seed)
  in
  if traced && not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  match
    R.run ~workload:w ~seed:!seed ~seconds:!seconds ~traced ~fixture ~trace_out
  with
  | Error msg -> fail msg
  | Ok r ->
      List.iter print_endline r.R.report;
      print_endline (R.json_line r)
