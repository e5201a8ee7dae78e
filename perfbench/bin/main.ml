(* Benchmark entry point:

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --record-expected > perfbench/lib/expected.ml

   Normally reached through perfbench/run.py, which builds it first. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (sweep|crash-check|explore) --seed N \
     --seconds S --trace 0|1\n\
    \       main.exe --record-expected";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--record-expected" ] then
    print_string (Perfbench.Runner.record_expected ())
  else begin
    let rec parse acc = function
      | [] -> acc
      | flag :: value :: rest
        when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
        parse ((flag, value) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get flag = match List.assoc_opt flag opts with Some v -> v | None -> usage () in
    let num conv flag = match conv (get flag) with Some v -> v | None -> usage () in
    let workload = get "--workload" in
    let seed = num int_of_string_opt "--seed" in
    let seconds = num float_of_string_opt "--seconds" in
    let trace =
      match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    if Perfbench.Runner.find_workload workload = None || seconds <= 0. then usage ();
    match Perfbench.Runner.run ~workload ~seed ~seconds ~trace with
    | json, ck ->
      print_endline (Obs.Json.to_string json);
      exit (if ck.Perfbench.Checks.failed = 0 then 0 else 1)
    | exception Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 3
  end
