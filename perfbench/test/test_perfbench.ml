module W = Perfbench.Workloads
module R = Perfbench.Runner
module Stats = Perfbench.Stats
module Trace = Perfbench.Trace
module Fixtures = Perfbench.Fixtures
module Calib = Perfbench.Calib
module Json = Netdiv_vuln.Json

let fixture = "../fixtures/reference.tsv"

(* Inputs compared by content: every generator output is plain data. *)
let digest_of w ~instance_seed =
  let raw, steps = W.generate w ~instance_seed in
  ( Digest.to_hex (Digest.string (Marshal.to_string raw [ Marshal.No_sharing ])),
    List.map fst steps )

let test_generators_deterministic () =
  List.iter
    (fun w ->
      let s0 = W.instance_seed w in
      let d1, steps = digest_of w ~instance_seed:s0 in
      let d2, _ = digest_of w ~instance_seed:s0 in
      Alcotest.(check string) (W.to_string w ^ " same seed, same inputs") d1 d2;
      Alcotest.(check bool) (W.to_string w ^ " timed steps") true (steps <> []);
      if w <> W.Case_study then
        let d3, _ = digest_of w ~instance_seed:(s0 + 1) in
        Alcotest.(check bool) (W.to_string w ^ " seeds differ, inputs differ") true (d1 <> d3))
    W.all

let test_fixture_complete () =
  match Fixtures.load fixture with
  | Error msg -> Alcotest.fail msg
  | Ok entries ->
      List.iter
        (fun w ->
          let instance_seed = W.instance_seed w in
          List.iter
            (fun variant ->
              match Fixtures.find entries ~workload:(W.to_string w) ~instance_seed ~variant with
              | None -> Alcotest.failf "no E_ref for %s/%d/%s" (W.to_string w) instance_seed variant
              | Some e ->
                  Alcotest.(check bool) "positive" true (e.Fixtures.e_ref > 0.0);
                  Alcotest.(check bool) "method recorded" true (String.length e.Fixtures.how > 0))
            (W.variants w))
        W.all

let test_fixture_parse_errors () =
  let bad = [ "a\t1\tb\tnot-a-number\tm"; "a\tx\tb\t1.0\tm"; "a\t1\tb\t1.0" ] in
  List.iter
    (fun line ->
      match Fixtures.parse line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    bad;
  match Fixtures.parse "# comment\n\nw\t3\tv\t2.5\thow it was pinned\n" with
  | Ok [ e ] -> Alcotest.(check (float 0.0)) "value" 2.5 e.Fixtures.e_ref
  | _ -> Alcotest.fail "valid fixture rejected"

let test_stats () =
  Alcotest.(check (float 0.0)) "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even median" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "no tail under 20" true (Stats.tail (List.init 19 float_of_int) = None);
  (match Stats.tail (List.init 20 float_of_int) with
  | Some (p, v) ->
      Alcotest.(check (float 0.0)) "p50" 50.0 p;
      Alcotest.(check (float 0.0)) "value" 9.0 v
  | None -> Alcotest.fail "20 samples give a median tail");
  match Stats.tail (List.init 1000 float_of_int) with
  | Some (p, _) -> Alcotest.(check (float 0.0)) "p99 with 10 beyond" 99.0 p
  | None -> Alcotest.fail "tail"

let test_self_times () =
  Trace.reset ();
  Trace.set_enabled true;
  Trace.set_pass 3;
  let busy () = ignore (Sys.opaque_identity (List.init 20_000 Fun.id)) in
  Trace.span "pass" (fun () ->
      busy ();
      Trace.span "a" (fun () ->
          busy ();
          Trace.span "b" busy;
          Trace.count "n" 2.0);
      Trace.span "b" busy);
  Trace.set_enabled false;
  let spans = Trace.spans () in
  let root = List.find (fun s -> s.Trace.name = "pass") spans in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 (Trace.self_times spans) in
  Alcotest.(check bool) "self times add up to the root" true
    (Stats.close ~rel:1e-9 total (root.Trace.stop -. root.Trace.start));
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check bool) "count attached to span a" true
    (match Trace.counts () with
    | [ c ] ->
        let a = List.find (fun s -> s.Trace.name = "a") spans in
        c.Trace.c_span = a.Trace.id && c.Trace.c_pass = 3
    | _ -> false);
  Trace.reset ()

(* The reference computation must repeat its result (Calib.time raises
   otherwise) and stay off the OCaml heap, so that its time does not
   depend on the workload's live heap. *)
let test_calib () =
  ignore (Calib.time ());
  let before = Gc.minor_words () in
  let t = Calib.time () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "takes CPU time" true (t > 0.0);
  Alcotest.(check bool) (Printf.sprintf "allocates almost nothing (%.0f words)" words) true
    (words < 1000.0)

let names_of_section json section =
  match Json.member section json with
  | Some l ->
      List.filter_map
        (fun m -> Option.bind (Json.member "name" m) Json.to_str)
        (Option.value ~default:[] (Json.to_list l))
  | None -> Alcotest.failf "BENCHMARK.json lacks %s" section

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

let run_case ~traced =
  match
    R.run ~workload:W.Case_study ~seed:5 ~seconds:0.2 ~traced ~fixture
      ~trace_out:"trace-test.tsv"
  with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let test_metric_names () =
  let json =
    Json.parse_exn (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  let e2e = names_of_section json "end_to_end" and layer = names_of_section json "per_layer" in
  let workloads = names_of_section json "workloads" in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a known workload") true (W.of_string n <> None))
    workloads;
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (valid_name n))
    (e2e @ layer @ workloads);
  let plain = run_case ~traced:false and traced = run_case ~traced:true in
  let names r = List.map (fun m -> m.R.m_name) r.R.metrics in
  Alcotest.(check (list string)) "end-to-end metrics as declared" e2e (names plain);
  Alcotest.(check (list string)) "per-layer metrics as declared" layer (names traced);
  List.iter
    (fun r ->
      Alcotest.(check int) "no failed checks" 0 r.R.failed;
      Alcotest.(check bool) "checks made" true (r.R.attempted > 0))
    [ plain; traced ]

let test_two_runs_identical () =
  let a = run_case ~traced:true and b = run_case ~traced:true in
  Alcotest.(check string) "energies, MTTC and d_bn" a.R.fingerprint b.R.fingerprint;
  let counts r =
    List.filter_map
      (fun m -> if m.R.unit_ = "count" || m.R.unit_ = "energy" then Some (m.R.m_name, m.R.value) else None)
      r.R.metrics
  in
  Alcotest.(check (list (pair string (float 0.0)))) "counts" (counts a) (counts b)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "generators deterministic in the seed" `Quick
            test_generators_deterministic;
          Alcotest.test_case "fixture covers every instance" `Quick test_fixture_complete;
          Alcotest.test_case "fixture parse errors" `Quick test_fixture_parse_errors;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "median and tail" `Quick test_stats;
          Alcotest.test_case "self times add up" `Quick test_self_times;
          Alcotest.test_case "reference computation" `Quick test_calib;
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "two runs at one seed agree" `Quick test_two_runs_identical;
        ] );
    ]
