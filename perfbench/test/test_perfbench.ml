(* Self-tests of the benchmark: its declared metrics, its output
   checking and its determinism.  No timing is asserted. *)

open Perfbench

let manifest () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let declared key =
  match Obs.Json.member key (manifest ()) with
  | Some (Obs.Json.List l) ->
    List.map
      (fun m ->
        match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
        | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> (n, u)
        | _ -> Alcotest.failf "%s entry without a name and unit" key)
      l
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let names_match () =
  let check key printed =
    Alcotest.(check (list (pair string string))) key (declared key) printed;
    List.iter
      (fun (n, u) -> Alcotest.(check bool) (n ^ " has a unit") true (u <> ""))
      printed
  in
  check "end_to_end" Runner.end_to_end;
  check "per_layer" Runner.per_layer;
  let workloads =
    match Obs.Json.member "workloads" (manifest ()) with
    | Some (Obs.Json.List l) ->
      List.filter_map
        (fun w ->
          match Obs.Json.member "name" w with
          | Some (Obs.Json.Str n) -> Some n
          | _ -> None)
        l
    | _ -> []
  in
  Alcotest.(check (list string))
    "workloads" workloads
    (List.map (fun w -> w.Rep.name) Runner.workloads)

(* The result line carries exactly the declared metrics. *)
let result_line_is_exact () =
  let ck = Checks.create [] in
  Checks.verdict ck "ok" true;
  let values = List.map (fun (n, _) -> (n, 1.5)) Runner.end_to_end in
  let json = Runner.result_json ck Runner.end_to_end values in
  (match Obs.Json.member "metrics" json with
  | Some (Obs.Json.Obj ms) ->
    List.iter
      (fun (n, u) ->
        match List.assoc_opt n ms with
        | Some m ->
          Alcotest.(check (option string))
            (n ^ " unit") (Some u)
            (match Obs.Json.member "unit" m with
            | Some (Obs.Json.Str s) -> Some s
            | _ -> None)
        | None -> Alcotest.failf "%s missing" n)
      Runner.end_to_end
  | _ -> Alcotest.fail "no metrics object");
  let raises values =
    match Runner.result_json ck Runner.end_to_end values with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "a missing metric is refused" true (raises (List.tl values));
  Alcotest.(check bool)
    "an undeclared metric is refused" true
    (raises (("extra", 1.) :: values));
  Alcotest.(check bool)
    "a non-finite value is refused" true
    (raises ((fst (List.hd values), nan) :: List.tl values))

let one_rep ?(expected = Expected.table) w ~variant =
  let ck = Checks.create expected in
  ignore ((w.Rep.setup ~variant).Rep.rep ck);
  ck

(* Corrupt one pinned value: the run must count a failed check and its
   result line must say it is incorrect, not just carry numbers. *)
let wrong_expected_fails () =
  let variant = 1 in
  let prefix = Printf.sprintf "sweep/v%d/" variant in
  let corrupted = ref false in
  let expected =
    List.map
      (fun (k, stat) ->
        if (not !corrupted) && String.starts_with ~prefix k then begin
          corrupted := true;
          (k, List.map (fun (f, v) -> if f = "cp" then (f, v + 1) else (f, v)) stat)
        end
        else (k, stat))
      Expected.table
  in
  Alcotest.(check bool) "a value was corrupted" true !corrupted;
  let ck = one_rep ~expected Sweep.workload ~variant in
  Alcotest.(check int) "one failed check" 1 ck.Checks.failed;
  let json =
    Runner.result_json ck Runner.end_to_end
      (List.map (fun (n, _) -> (n, 1.)) Runner.end_to_end)
  in
  Alcotest.(check bool)
    "result is incorrect" true
    (Obs.Json.member "correct" json = Some (Obs.Json.Bool false))

(* The same seed gives the same simulated statistics twice, and they
   are the pinned ones. *)
let same_seed_same_stats () =
  List.iter
    (fun w ->
      let stats () =
        let ck = one_rep w ~variant:(Runner.variant_of_seed 7) in
        Alcotest.(check int) (w.Rep.name ^ " matches Expected") 0 ck.Checks.failed;
        Checks.observed ck
      in
      let a = stats () in
      Alcotest.(check bool) (w.Rep.name ^ " observes statistics") true (a <> []);
      Alcotest.(check bool) (w.Rep.name ^ " repeats exactly") true (a = stats ()))
    [ Sweep.workload; Crash_check.workload ]

let () =
  Alcotest.run "perfbench"
    [ ( "metrics",
        [ Alcotest.test_case "names match BENCHMARK.json" `Quick names_match;
          Alcotest.test_case "result line is exact" `Quick result_line_is_exact ] );
      ( "checks",
        [ Alcotest.test_case "wrong expected value fails" `Slow wrong_expected_fails;
          Alcotest.test_case "same seed, same statistics" `Slow same_seed_same_stats ] ) ]
