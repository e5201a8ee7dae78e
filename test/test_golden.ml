(* Golden and determinism tests: the exact event stream of a minimal
   queue run is pinned, so any unintended change to the machine's
   serialization, the lock protocol, or the queue's access pattern
   shows up as a readable diff. *)

module Q = Workloads.Queue
module M = Memsim.Machine

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let tiny_params =
  { Q.design = Q.Cwl;
    annotation = Q.Epoch;
    threads = 1;
    inserts_per_thread = 1;
    entry_size = 16;
    capacity_entries = 2;
    seed = 1;
    policy = M.Round_robin;
    machine = M.Sc;
        persistence = M.Psync;
        barrier = M.Pbarrier }

let trace_string params =
  let trace = Memsim.Trace.create () in
  let _ = Q.run params ~sink:(Memsim.Trace.sink trace) in
  String.concat "\n"
    (List.map Memsim.Event.to_string (Memsim.Trace.to_list trace))

(* One CWL insert of a 16-byte entry under the epoch annotation:
   label, barrier, lock RMW, barrier, head load, three record words,
   barrier, head store, barrier, unlock store, barrier.  Addresses:
   head at 8, data at 16, lock word at volatile base + 8. *)
let golden =
  "lb 0 insert\n\
   pb 0\n\
   rmw 0 1073741832 8 1\n\
   pb 0\n\
   ld 0 8 8 0\n\
   st 0 16 8 16\n\
   st 0 24 8 0\n\
   st 0 32 8 0\n\
   pb 0\n\
   st 0 8 8 24\n\
   pb 0\n\
   st 0 1073741832 8 0\n\
   pb 0"

let test_golden_trace () =
  Alcotest.(check string) "exact event stream" golden (trace_string tiny_params)

let test_trace_deterministic () =
  let a = trace_string tiny_params in
  let b = trace_string tiny_params in
  Alcotest.(check string) "identical reruns" a b;
  let multi =
    { tiny_params with
      Q.threads = 3;
      inserts_per_thread = 5;
      capacity_entries = 15;
      policy = M.Random 7 }
  in
  Alcotest.(check string) "seeded random is deterministic"
    (trace_string multi) (trace_string multi)

let test_trace_matches_engine_counts () =
  let params =
    { tiny_params with
      Q.threads = 2;
      inserts_per_thread = 6;
      capacity_entries = 12;
      entry_size = 100;
      policy = M.Random 3 }
  in
  let trace = Memsim.Trace.create () in
  let result = Q.run params ~sink:(Memsim.Trace.sink trace) in
  List.iter
    (fun mode ->
      let e = Persistency.Engine.create (Persistency.Config.make mode) in
      Persistency.Engine.observe_trace e trace;
      checki "engine sees every event" (Memsim.Trace.length trace)
        (Persistency.Engine.events e);
      checki "persist events agree" (Memsim.Trace.persists trace)
        (Persistency.Engine.persist_events e);
      checki "labels agree" result.Q.inserts
        (Persistency.Engine.label_count e "insert"))
    Persistency.Config.all_modes

let test_different_seeds_differ () =
  let params seed =
    { tiny_params with
      Q.threads = 3;
      inserts_per_thread = 5;
      capacity_entries = 15;
      policy = M.Random seed }
  in
  checkb "seeds change interleaving" true
    (trace_string (params 1) <> trace_string (params 2))

(* CLI stdout golden: [cli.golden] holds, per command, a "$ persistsim
   ARGS" line, the command's full standard output and an "[exit N]"
   line.  Each command is re-run here and must reproduce both exactly,
   so refactors of the subcommands keep tables, verdicts, reproducer
   lines and exit codes byte-identical (stderr, where the sweep
   profiles go, is not compared).  Both files are resolved against the
   test executable's directory, where [dune runtest] puts them. *)
let persistsim =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/persistsim.exe"

let golden_file =
  Filename.concat (Filename.dirname Sys.executable_name) "cli.golden"

let golden_blocks () =
  let rec blocks acc = function
    | [] -> List.rev acc
    | line :: rest when String.starts_with ~prefix:"$ persistsim " line ->
      let args = String.sub line 13 (String.length line - 13) in
      let rec body out = function
        | l :: rest when String.starts_with ~prefix:"[exit " l ->
          let code = Scanf.sscanf l "[exit %d]" Fun.id in
          blocks ((args, String.concat "" (List.rev out), code) :: acc) rest
        | l :: rest -> body ((l ^ "\n") :: out) rest
        | [] -> Alcotest.failf "%s: no [exit N] line after %S" golden_file line
      in
      body [] rest
    | _ :: rest -> blocks acc rest
  in
  blocks [] (In_channel.with_open_text golden_file In_channel.input_lines)

let run_cli args =
  let ic = Unix.open_process_in (persistsim ^ " " ^ args ^ " 2>/dev/null") in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (out, n)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.failf "%s killed" args

let test_cli (args, expected, code) () =
  let out, n = run_cli args in
  Alcotest.(check string) "stdout" expected out;
  checki "exit code" code n

let () =
  Alcotest.run "golden"
    [ ( "cli",
        List.map
          (fun ((args, _, _) as block) ->
            Alcotest.test_case args `Quick (test_cli block))
          (golden_blocks ()) );
      ( "traces",
        [ Alcotest.test_case "golden event stream" `Quick test_golden_trace;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "engine counts" `Quick
            test_trace_matches_engine_counts;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ
        ] ) ]
