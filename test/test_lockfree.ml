(* The lock-free durable CAS-set family: structural recovery of final
   images, the NVTraverse flush-elision win over the flush-everything
   baseline, and systematic failure injection — both correct
   disciplines survive every durable prefix of every DPOR-explored
   interleaving, while Buggy_traverse is caught with a replayable
   counter-example. *)

module C = Lockfree.Cas_set
module R = Lockfree.Set_recovery
module P = Persistency
module M = Memsim.Machine
module Dr = Check.Driver
module S = Check.Schedule

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let params ?(discipline = C.Nvtraverse) ?(threads = 2) ?(inserts = 16)
    ?(seed = 7) ?(machine = M.sc_config) () =
  { C.discipline;
    threads;
    inserts_per_thread = inserts;
    key_space = 2 * threads * inserts;
    seed;
    policy = M.Random seed;
    machine = machine.M.model;
    persistence = machine.M.persistence }

let analyze p mode =
  let cfg = P.Config.make ~record_graph:true mode in
  let engine = P.Engine.create cfg in
  let result = C.run p ~sink:(P.Engine.observe engine) in
  (engine, Option.get (P.Engine.graph engine), result)

(* Every discipline, machine configuration and thread count: the final
   (everything durable) image must decode to exactly the inserted key
   set, in sorted order — the tso-buffered rows confirm that end-of-run
   draining empties the persistence buffer too. *)
let test_final_image_complete () =
  List.iter
    (fun discipline ->
      List.iter
        (fun (threads, machine) ->
          let p = params ~discipline ~threads ~machine () in
          let _, graph, result = analyze p P.Config.Epoch in
          let layout = result.C.layout in
          let image =
            P.Observer.final_image graph ~capacity:(C.image_capacity layout)
          in
          match R.recover ~params:p ~layout image with
          | Error msg -> Alcotest.failf "%s: %s" (C.discipline_name discipline) msg
          | Ok r ->
            let expected = List.sort compare (Array.to_list result.C.keys) in
            Alcotest.(check (list int))
              (C.discipline_name discipline)
              expected r.R.keys)
        [ (1, M.sc_config);
          (2, M.sc_config);
          (3, M.sc_config);
          (2, M.tso_sync_config);
          (2, M.tso_buffered_config) ])
    [ C.Flush_all; C.Nvtraverse; C.Buggy_traverse ]

(* The key schedule is a pure function of params: distinct keys in
   range, stable across calls. *)
let test_key_schedule () =
  let p = params ~threads:3 ~inserts:10 () in
  let k1 = C.keys_for p and k2 = C.keys_for p in
  checkb "stable" true (k1 = k2);
  checki "count" 30 (Array.length k1);
  let sorted = List.sort_uniq compare (Array.to_list k1) in
  checki "distinct" 30 (List.length sorted);
  List.iter (fun k -> checkb "in range" true (k >= 1 && k <= p.C.key_space)) sorted

(* NVTraverse's claim, measured: at >= 2 threads the optimized
   discipline's persist critical path per insert is strictly below the
   flush-everything baseline (the traversal flushes pull every walked
   link's publisher into the CAS's dependence frontier).  The win is a
   statement about persist dependence chains, not about drain timing,
   so it must survive every machine configuration — including
   tso-buffered, where flushes drain asynchronously from the
   persistence buffer. *)
let test_nvtraverse_beats_flush_all () =
  List.iter
    (fun (machine : M.config) ->
      List.iter
        (fun threads ->
          let cp_of discipline =
            let p = params ~discipline ~threads ~inserts:64 ~machine () in
            let engine, _, _ = analyze p P.Config.Epoch in
            P.Engine.cp_per_label engine "insert"
          in
          let base = cp_of C.Flush_all and opt = cp_of C.Nvtraverse in
          if not (opt < base) then
            Alcotest.failf
              "%s threads=%d: nvtraverse %.3f not below flush-all %.3f"
              machine.name threads opt base)
        [ 2; 3 ])
    M.all_configs

let strategy g = Recovery.auto ~samples:64 ~seed:1 g

(* Both correct disciplines survive failure injection at every
   DPOR-explored interleaving — structural decode and the
   durable-linearizability oracle both hold on every durable prefix.
   The budget is bounded: fence commits race with other threads'
   persistent stores (the frontier race litmus-exact DPOR needs), which
   grows the depth-2 space past exhaustive reach, so this samples the
   first 4096 DPOR schedules — still ~10x the schedule count the
   pre-frontier exhaustive run covered. *)
let test_correct_disciplines_safe () =
  List.iter
    (fun discipline ->
      let p = C.explore_params ~threads:2 ~depth:2 discipline in
      let cfg = P.Config.make P.Config.Epoch in
      let report =
        Dr.check ~max_schedules:4096 ~strategy (fun policy ->
            Dr.lockfree_instance p cfg policy)
      in
      checkb
        (Printf.sprintf "%s explores" (C.discipline_name discipline))
        true
        (report.Dr.stats.Check.Dpor.schedules > 0);
      match report.Dr.failure with
      | None -> ()
      | Some (sched, f) ->
        Alcotest.failf "%s flagged: %s on %s"
          (C.discipline_name discipline)
          (Recovery.render_failure f) (S.to_string sched))
    [ C.Flush_all; C.Nvtraverse ]

(* Buggy_traverse skips the pre-CAS destination flush: exhaustive
   injection must find a durable prefix where the published CAS is
   durable but the node or chain behind it is not — and the
   counter-example must replay byte-for-byte from its schedule
   string. *)
let test_buggy_traverse_caught () =
  let p = C.explore_params ~threads:2 ~depth:2 C.Buggy_traverse in
  let cfg = P.Config.make P.Config.Epoch in
  let run policy = Dr.lockfree_instance p cfg policy in
  let report = Dr.check ~max_schedules:512 ~strategy run in
  match report.Dr.failure with
  | None -> Alcotest.fail "Buggy_traverse survived exhaustive injection"
  | Some (sched, f) -> (
    let roundtrip = S.of_string (S.to_string sched) in
    match Dr.check_schedule ~strategy roundtrip run with
    | Ok _ -> Alcotest.fail "counter-example schedule replayed clean"
    | Error f' ->
      checki "durable persists match" f.Recovery.durable f'.Recovery.durable;
      checki "total persists match" f.Recovery.total f'.Recovery.total;
      Alcotest.(check string)
        "failure message matches" f.Recovery.message f'.Recovery.message)

(* Both correct disciplines survive failure injection on the buffered
   machine too: crash states now additionally cut the persistence
   buffer (every flush's drain is its own pseudo-thread decision), and
   still every durable prefix decodes and linearizes.  Depth 1 keeps
   the enlarged schedule space (store-buffer drains x persist drains)
   tractable. *)
let test_correct_disciplines_safe_buffered () =
  List.iter
    (fun discipline ->
      let p =
        C.explore_params ~threads:2 ~depth:1 ~machine:M.Tso
          ~persistence:M.Pbuffered discipline
      in
      let cfg = P.Config.make P.Config.Epoch in
      let report =
        Dr.check ~max_schedules:8192 ~strategy (fun policy ->
            Dr.lockfree_instance p cfg policy)
      in
      checkb
        (Printf.sprintf "%s explores under tso-buffered"
           (C.discipline_name discipline))
        true
        (report.Dr.stats.Check.Dpor.schedules > 0);
      match report.Dr.failure with
      | None -> ()
      | Some (sched, f) ->
        Alcotest.failf "%s flagged under tso-buffered: %s on %s"
          (C.discipline_name discipline)
          (Recovery.render_failure f) (S.to_string sched))
    [ C.Flush_all; C.Nvtraverse ]

(* ... and buggy-traverse is still caught when persists drain
   asynchronously, with the counter-example schedule — persist-drain
   pseudo-tid decisions included — replaying byte-for-byte through the
   string round-trip. *)
let test_buggy_traverse_caught_buffered () =
  let p =
    C.explore_params ~threads:2 ~depth:1 ~machine:M.Tso
      ~persistence:M.Pbuffered C.Buggy_traverse
  in
  let cfg = P.Config.make P.Config.Epoch in
  let run policy = Dr.lockfree_instance p cfg policy in
  let report = Dr.check ~max_schedules:8192 ~strategy run in
  match report.Dr.failure with
  | None ->
    Alcotest.fail "Buggy_traverse survived buffered exhaustive injection"
  | Some (sched, f) -> (
    let roundtrip = S.of_string (S.to_string sched) in
    match Dr.check_schedule ~strategy roundtrip run with
    | Ok _ -> Alcotest.fail "counter-example schedule replayed clean"
    | Error f' ->
      checki "durable persists match" f.Recovery.durable f'.Recovery.durable;
      checki "total persists match" f.Recovery.total f'.Recovery.total;
      Alcotest.(check string)
        "failure message matches" f.Recovery.message f'.Recovery.message)

(* The sweep surface: cp/op for both correct disciplines over thread
   counts and the full machine matrix, the shape the persistsim
   lockfree subcommand renders.  The tso-buffered rows pin that the
   NVTraverse win survives asynchronous persists. *)
let test_exp_sweep () =
  let t = Experiments.Lockfree_exp.run ~inserts:48 ~seed:5 ~jobs:1 () in
  let cells = Experiments.Lockfree_exp.cells t in
  checkb "has cells" true (List.length cells > 0);
  List.iter
    (fun mlabel ->
      checkb
        (Printf.sprintf "has %s rows" mlabel)
        true
        (List.exists
           (fun (c : Experiments.Lockfree_exp.cell) ->
             c.Experiments.Lockfree_exp.machine = mlabel)
           cells))
    [ "sc"; "tso-sync"; "tso-buffered" ];
  List.iter
    (fun (c : Experiments.Lockfree_exp.cell) ->
      if c.Experiments.Lockfree_exp.threads >= 2 then
        checkb
          (Printf.sprintf "nvtraverse below baseline under %s"
             c.Experiments.Lockfree_exp.machine)
          true
          (c.Experiments.Lockfree_exp.cp_nvtraverse
         < c.Experiments.Lockfree_exp.cp_flush_all))
    cells

let () =
  Alcotest.run "lockfree"
    [ ( "cas-set",
        [ Alcotest.test_case "final image decodes" `Quick
            test_final_image_complete;
          Alcotest.test_case "key schedule pure" `Quick test_key_schedule;
          Alcotest.test_case "nvtraverse beats flush-all" `Quick
            test_nvtraverse_beats_flush_all ] );
      ( "injection",
        [ Alcotest.test_case "correct disciplines safe" `Quick
            test_correct_disciplines_safe;
          Alcotest.test_case "buggy-traverse caught" `Quick
            test_buggy_traverse_caught;
          Alcotest.test_case "correct disciplines safe (tso-buffered)" `Quick
            test_correct_disciplines_safe_buffered;
          Alcotest.test_case "buggy-traverse caught (tso-buffered)" `Quick
            test_buggy_traverse_caught_buffered ] );
      ( "experiment",
        [ Alcotest.test_case "sweep shape" `Quick test_exp_sweep ] )
    ]
