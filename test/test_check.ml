(* Tests for lib/check — the DPOR explorer and the cross-interleaving
   recovery driver.

   Soundness is checked against the exact equivalence-class invariant:
   two interleavings are Mazurkiewicz-equivalent iff they orient every
   pair of conflicting events the same way (events named by (tid,
   per-thread index), conflict = overlapping tracked blocks with at
   least one write).  On hand-written racy/locked/multi-writer programs
   the explorer must cover exactly the classes the brute-force
   [Memsim.Explore.run_all] oracle covers.

   On the real workloads the checked invariant is the one the driver
   relies on: trace-equivalent runs produce fingerprint-equal persist
   graphs, so fingerprint sets and per-fingerprint recovery verdicts
   must match brute force — with strictly fewer executed schedules
   (the PR's acceptance criterion, exact counts pinned below). *)

module M = Memsim.Machine
module E = Memsim.Event
module D = Check.Dpor
module S = Check.Schedule
module Dr = Check.Driver
module Ps = Persistency
module Q = Workloads.Queue

(* ------------------------------------------------------------------ *)
(* Schedule round-trip *)

let test_schedule_roundtrip () =
  let s = { S.tids = [| 0; 1; 1; 0 |]; indices = [| 0; 1; 0; 0 |] } in
  Alcotest.(check string) "to_string" "0,1,0,0" (S.to_string s);
  let s' = S.of_string "0,1,0,0" in
  Alcotest.(check (list int)) "forced" [ 0; 1; 0; 0 ] (S.forced s');
  Alcotest.(check int) "length" 4 (S.length s');
  Alcotest.(check string) "round-trip" (S.to_string s) (S.to_string s');
  Alcotest.(check int) "empty" 0 (S.length (S.of_string ""));
  Alcotest.(check string) "empty round-trip" ""
    (S.to_string (S.of_string ""));
  Alcotest.(check (list int)) "blanks ignored" [ 2; 0 ]
    (match S.parse " 2 , 0" with
    | Ok s -> S.forced s
    | Error msg -> Alcotest.fail msg);
  let rejects str =
    (match S.parse str with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S should have failed" str);
    match S.of_string str with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "of_string %S should have raised" str
  in
  rejects "1,x";
  rejects "0,-2";
  rejects ","

(* ------------------------------------------------------------------ *)
(* Hand-written programs: schedule counts and exact class coverage *)

(* Exact trace-class key: the orientation of every conflicting event
   pair.  Equal keys <=> same Mazurkiewicz class, so comparing key sets
   between DPOR and brute force is a sound coverage check (distinct
   event *traces* would not be: independent events commute). *)
let class_key trace =
  let seq = Hashtbl.create 8 in
  let evs =
    List.filter_map
      (fun ev ->
        match ev with
        | E.Access (k, a) ->
          let t = a.E.tid in
          let n = try Hashtbl.find seq t with Not_found -> 0 in
          Hashtbl.replace seq t (n + 1);
          Some (t, n, k <> E.Load, a.E.addr, a.E.size)
        | _ -> None)
      (Memsim.Trace.to_list trace)
  in
  let arr = Array.of_list evs in
  let pairs = ref [] in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let t1, n1, w1, a1, s1 = arr.(i) and t2, n2, w2, a2, s2 = arr.(j) in
      if
        t1 <> t2
        && (w1 || w2)
        && a1 / 8 <= (a2 + s2 - 1) / 8
        && a2 / 8 <= (a1 + s1 - 1) / 8
      then pairs := Printf.sprintf "%d.%d<%d.%d" t1 n1 t2 n2 :: !pairs
    done
  done;
  String.concat ";" (List.sort compare !pairs)

(* Run [body machine memory] under [policy] and return the class key. *)
let traced_run body policy =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  body machine memory;
  M.run machine;
  class_key trace

(* Two threads over fully disjoint addresses: one trace class. *)
let disjoint machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (32 * t)) 1L;
           M.store (a + (32 * t) + 8) 2L))
  done

(* Two threads, two stores each, all to one word: every cross-thread
   pair conflicts, so classes = interleavings of 4 events = C(4,2). *)
let hot machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store a (Int64.of_int (2 * t));
           M.store a (Int64.of_int ((2 * t) + 1))))
  done

(* Private stores around a shared-word race plus a read-write race. *)
let racy machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (8 * (2 + t))) 1L;
           M.store a (Int64.of_int t);
           ignore (M.load (a + 8));
           M.store (a + 8) (Int64.of_int (10 + t))))
  done

(* Lock-protected increment between private stores: the lock word is
   itself a conflict source (acquire/release are RMWs). *)
let mixed machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  let l = M.mutex machine in
  for t = 0 to 1 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (8 * (t + 2))) 7L;
           M.lock l;
           let v = M.load a in
           M.store a (Int64.add v 1L);
           M.unlock l;
           M.store (a + (8 * (t + 4))) 9L))
  done

(* Three threads: a private store then a shared-word store each. *)
let three machine memory =
  let a = Memsim.Memory.alloc memory Memsim.Addr.Persistent 64 in
  for t = 0 to 2 do
    ignore
      (M.spawn machine (fun () ->
           M.store (a + (8 * t)) 1L;
           M.store a (Int64.of_int t)))
  done

let dpor_classes body =
  let classes = Hashtbl.create 64 in
  let stats =
    D.explore
      ~on_exec:(fun _ key ->
        Hashtbl.replace classes key ();
        D.Continue)
      (traced_run body)
  in
  (stats, classes)

let brute_classes ?(limit = 100_000) body =
  let classes = Hashtbl.create 64 in
  let o =
    Memsim.Explore.run_all ~limit (fun policy ->
        Hashtbl.replace classes (traced_run body policy) ())
  in
  (o, classes)

let sorted_keys tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let check_coverage name body =
  let stats, dpor = dpor_classes body in
  let o, brute = brute_classes body in
  Alcotest.(check bool) (name ^ ": dpor complete") true stats.D.complete;
  Alcotest.(check bool) (name ^ ": brute complete") true o.Memsim.Explore.complete;
  Alcotest.(check (list string))
    (name ^ ": same class set")
    (sorted_keys brute) (sorted_keys dpor);
  Alcotest.(check bool)
    (name ^ ": fewer schedules than brute traces")
    true
    (stats.D.schedules < o.Memsim.Explore.traces);
  (stats, Hashtbl.length dpor, o)

let test_disjoint_single_schedule () =
  let stats, classes, o = check_coverage "disjoint" disjoint in
  Alcotest.(check int) "one class" 1 classes;
  Alcotest.(check int) "one schedule" 1 stats.D.schedules;
  Alcotest.(check bool) "brute needs more" true (o.Memsim.Explore.traces > 1)

let test_hot_counts () =
  let stats, classes, _ = check_coverage "hot" hot in
  (* C(4,2) orderings of two conflicting 2-store threads *)
  Alcotest.(check int) "six classes" 6 classes;
  Alcotest.(check int) "per-class optimal" 6 stats.D.schedules

let test_racy_coverage () =
  let stats, classes, _ = check_coverage "racy" racy in
  Alcotest.(check int) "per-class optimal" classes stats.D.schedules

let test_mixed_coverage () =
  (* Lock-step grant resumptions make some redundant runs unavoidable;
     coverage (checked above) is the requirement, optimality is not. *)
  ignore (check_coverage "mixed-lock" mixed)

let test_three_coverage () =
  let stats, classes, _ = check_coverage "three-writers" three in
  Alcotest.(check int) "per-class optimal" classes stats.D.schedules

(* ------------------------------------------------------------------ *)
(* Workload equivalence: fingerprints + recovery verdicts vs brute *)

let strategy = Recovery.auto ~samples:64 ~seed:1

let queue_run ?(depth = 2) annotation mode =
  let params = Q.explore_params ~threads:2 ~depth annotation in
  Dr.queue_instance params (Ps.Config.make mode)

let kv_run discipline mode =
  let params = Kv.explore_params ~threads:2 ~depth:2 discipline in
  Dr.kv_instance params (Ps.Config.make mode)

(* Collect one representative instance per distinct graph fingerprint. *)
let dpor_census instance_of =
  let reps = Hashtbl.create 64 in
  let stats =
    D.explore
      ~on_exec:(fun _ inst ->
        let fp = Ps.Graph_export.fingerprint inst.Dr.graph in
        if not (Hashtbl.mem reps fp) then Hashtbl.add reps fp inst;
        D.Continue)
      instance_of
  in
  (stats, reps)

let brute_census ~limit instance_of =
  let reps = Hashtbl.create 64 in
  let o =
    Memsim.Explore.run_all ~limit (fun policy ->
        let inst = instance_of policy in
        let fp = Ps.Graph_export.fingerprint inst.Dr.graph in
        if not (Hashtbl.mem reps fp) then Hashtbl.add reps fp inst)
  in
  (o, reps)

(* safe/unsafe per fingerprint.  The verdict is isomorphism-invariant
   (exhaustive failure injection on these graph sizes); the failing
   prefix's identity is not, so only the verdict is compared. *)
let verdict inst =
  let g = inst.Dr.graph in
  match
    Recovery.check_cuts ~graph:g ~capacity:inst.Dr.capacity
      ~strategy:(strategy g) inst.Dr.observer
  with
  | Ok _ -> "safe"
  | Error _ -> "unsafe"

let verdict_map reps =
  List.sort compare
    (Hashtbl.fold (fun fp inst acc -> (fp, verdict inst) :: acc) reps [])

let check_equivalence name ~limit instance_of =
  let stats, dpor = dpor_census instance_of in
  let o, brute = brute_census ~limit instance_of in
  Alcotest.(check bool) (name ^ ": dpor complete") true stats.D.complete;
  Alcotest.(check bool)
    (name ^ ": brute complete")
    true o.Memsim.Explore.complete;
  Alcotest.(check (list string))
    (name ^ ": same fingerprint set")
    (sorted_keys brute) (sorted_keys dpor);
  Alcotest.(check (list (pair string string)))
    (name ^ ": same recovery verdicts")
    (verdict_map brute) (verdict_map dpor);
  Alcotest.(check bool)
    (name ^ ": strictly fewer schedules")
    true
    (stats.D.schedules < o.Memsim.Explore.traces);
  (stats, o, dpor)

let test_queue_equivalence_depth2 () =
  let stats, o, dpor =
    check_equivalence "cwl/epoch d2" ~limit:100_000
      (queue_run Q.Epoch Ps.Config.Epoch)
  in
  Alcotest.(check int) "distinct graphs" 6 (Hashtbl.length dpor);
  Alcotest.(check int) "dpor schedules" 28 stats.D.schedules;
  Alcotest.(check int) "brute traces" 5_918 o.Memsim.Explore.traces

let test_queue_equivalence_buggy () =
  let _, _, dpor =
    check_equivalence "cwl/buggy d2" ~limit:100_000
      (queue_run Q.Buggy_epoch Ps.Config.Epoch)
  in
  let unsafe = List.filter (fun (_, v) -> v = "unsafe") (verdict_map dpor) in
  Alcotest.(check bool) "some graph is unsafe" true (unsafe <> [])

(* The acceptance-criterion topology: 2 threads x 3 inserts.  DPOR must
   reach the same distinct-graph/verdict census as brute force with
   strictly fewer executed traces; both counts are pinned. *)
let test_queue_equivalence_depth3 () =
  let stats, o, dpor =
    check_equivalence "cwl/epoch d3" ~limit:500_000
      (queue_run ~depth:3 Q.Epoch Ps.Config.Epoch)
  in
  Alcotest.(check int) "distinct graphs" 20 (Hashtbl.length dpor);
  Alcotest.(check int) "dpor schedules" 212 stats.D.schedules;
  Alcotest.(check int) "brute traces" 423_556 o.Memsim.Explore.traces;
  List.iter
    (fun (fp, v) -> Alcotest.(check string) ("verdict " ^ fp) "safe" v)
    (verdict_map dpor)

(* ------------------------------------------------------------------ *)
(* Adversarial KV sweep *)

let test_kv_buggy_flagged () =
  let report =
    Dr.check ~max_schedules:512 ~strategy (kv_run Kv.Buggy_undo Ps.Config.Epoch)
  in
  match report.Dr.failure with
  | None -> Alcotest.fail "Buggy_undo not flagged within 512 schedules"
  | Some (sched, f) ->
    Alcotest.(check bool) "non-empty schedule" true (S.length sched > 0);
    (* persist the counter-example as its string form and replay the
       parsed schedule: the violation must reproduce byte-for-byte *)
    let persisted = S.of_string (S.to_string sched) in
    (match
       Dr.check_schedule ~strategy persisted (kv_run Kv.Buggy_undo Ps.Config.Epoch)
     with
    | Ok _ -> Alcotest.fail "replayed counter-example did not reproduce"
    | Error f' ->
      Alcotest.(check int) "durable persists" f.Recovery.durable f'.Recovery.durable;
      Alcotest.(check int) "total persists" f.Recovery.total f'.Recovery.total;
      Alcotest.(check string) "diagnosis" f.Recovery.message f'.Recovery.message)

let test_kv_correct_disciplines () =
  List.iter
    (fun (d, mode) ->
      let name = Kv.discipline_name d in
      let report = Dr.check ~strategy (kv_run d mode) in
      Alcotest.(check bool) (name ^ ": complete") true report.Dr.stats.D.complete;
      Alcotest.(check bool) (name ^ ": safe") true (report.Dr.failure = None);
      Alcotest.(check bool)
        (name ^ ": graphs checked")
        true (report.Dr.checked >= 1);
      Alcotest.(check bool)
        (name ^ ": prefixes walked")
        true
        (report.Dr.prefixes > report.Dr.checked))
    [ (Kv.Strict_stores, Ps.Config.Strict);
      (Kv.Epoch_undo, Ps.Config.Epoch);
      (Kv.Strand_ops, Ps.Config.Strand) ]

(* ------------------------------------------------------------------ *)
(* Parallel exploration *)

let test_explore_par () =
  let instance_of = queue_run Q.Epoch Ps.Config.Epoch in
  let _, seq_reps = dpor_census instance_of in
  let mu = Mutex.create () in
  let par = Hashtbl.create 64 in
  let stats =
    D.explore_par ~jobs:2
      ~on_exec:(fun _ inst ->
        let fp = Ps.Graph_export.fingerprint inst.Dr.graph in
        Mutex.protect mu (fun () -> Hashtbl.replace par fp ());
        D.Continue)
      instance_of
  in
  Alcotest.(check bool) "complete" true stats.D.complete;
  Alcotest.(check (list string))
    "same fingerprint set as sequential"
    (sorted_keys seq_reps) (sorted_keys par);
  (* root-level sleep pruning is lost, never gained *)
  Alcotest.(check bool)
    "at least as many schedules as classes"
    true
    (stats.D.schedules >= Hashtbl.length par)

(* ------------------------------------------------------------------ *)
(* TSO counter-example capture and deterministic replay *)

(* Store buffering on a TSO machine, the canonical weak behavior: DPOR
   must find a schedule where both loads miss both stores (impossible
   under SC), the captured [Schedule.t] must name a drain pseudo-thread
   explicitly, and replaying it — scripted, from the string form — must
   reproduce the outcome exactly. *)
let sb_tso policy =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~policy ~model:M.Tso ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let x = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let y = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let r = [| 42L; 42L |] in
  ignore
    (M.spawn machine (fun () ->
         M.store x 1L;
         r.(0) <- M.load y));
  ignore
    (M.spawn machine (fun () ->
         M.store y 1L;
         r.(1) <- M.load x));
  M.run machine;
  let key =
    String.concat ";"
      (List.map E.to_string (Memsim.Trace.to_list trace))
  in
  (key, r.(0), r.(1))

let test_tso_counterexample_replay () =
  let found = ref None in
  let stats =
    D.explore
      ~on_exec:(fun sched (key, r0, r1) ->
        if r0 = 0L && r1 = 0L then begin
          found := Some (sched, key);
          D.Stop
        end
        else D.Continue)
      sb_tso
  in
  match !found with
  | None ->
    Alcotest.failf "weak SB outcome not found in %d schedules"
      stats.D.schedules
  | Some (sched, key) ->
    Alcotest.(check bool)
      "schedule names a drain pseudo-thread" true
      (Array.exists M.is_drain_tid sched.S.tids);
    (* replay through the script interface, and through the persisted
       string form, several times: bit-identical trace and registers *)
    let replay policy =
      let key', r0, r1 = sb_tso policy in
      Alcotest.(check string) "replayed trace" key key';
      Alcotest.(check bool) "replayed registers" true (r0 = 0L && r1 = 0L)
    in
    replay (M.Scripted (S.to_script sched));
    replay (M.Scripted (S.to_script (S.of_string (S.to_string sched))));
    replay (M.Scripted (S.to_script sched))

(* ------------------------------------------------------------------ *)
(* Buffered-persistency counter-example capture and deterministic
   replay *)

(* The cross-thread buffered-only weak behavior as a raw machine
   program: t0 flushes x and fences before publishing z; t1 sees z=1
   and persists y.  Under synchronous Px86 x is durable before z is
   even visible, so y can never be durable without x.  Under the
   buffered machine the drain of x's captured line is a scheduler
   decision, so DPOR must find a schedule where x's Pdrain lands only
   after y's store has entered the global order even though the reader
   observed the fence-ordered publish — exactly then y's persist node
   carries no order edge to x and a crash can leave y durable with x
   lost.  (Relative order of the two Pdrains themselves is not the
   criterion: drains commute, so DPOR deliberately prunes those
   permutations.)  The schedule must name a persist pseudo-thread,
   survive the string round-trip, and replay bit-identically. *)
let flush_async_buffered policy =
  let memory = Memsim.Memory.create () in
  let machine =
    M.create ~policy ~model:M.Tso ~persistence:M.Pbuffered ~memory ()
  in
  let trace = Memsim.Trace.create () in
  M.set_sink machine (Memsim.Trace.sink trace);
  let x = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let y = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let z = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
  let r = [| 42L |] in
  ignore
    (M.spawn machine (fun () ->
         M.store x 1L;
         M.clflushopt x;
         M.sfence ();
         M.store z 1L));
  ignore
    (M.spawn machine (fun () ->
         r.(0) <- M.load z;
         M.store y 1L;
         M.clflushopt y;
         M.sfence ()));
  M.run machine;
  let events = Memsim.Trace.to_list trace in
  let key = String.concat ";" (List.map E.to_string events) in
  let drain_pos addr =
    let rec find i = function
      | [] -> max_int
      | E.Pdrain { addr = a; _ } :: _ when a = addr -> i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 events
  in
  let store_pos addr =
    let rec find i = function
      | [] -> max_int
      | E.Access (E.Store, a) :: _ when a.E.addr = addr -> i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 events
  in
  (key, r.(0), drain_pos x, store_pos y)

let test_buffered_counterexample_replay () =
  let found = ref None in
  let stats =
    D.explore
      ~on_exec:(fun sched (key, r0, dx, sy) ->
        if r0 = 1L && sy < dx then begin
          found := Some (sched, key);
          D.Stop
        end
        else D.Continue)
      flush_async_buffered
  in
  match !found with
  | None ->
    Alcotest.failf "buffered-only weak outcome not found in %d schedules"
      stats.D.schedules
  | Some (sched, key) ->
    Alcotest.(check bool)
      "schedule names a persist pseudo-thread" true
      (Array.exists M.is_persist_tid sched.S.tids);
    let replay policy =
      let key', r0, dx, sy = flush_async_buffered policy in
      Alcotest.(check string) "replayed trace" key key';
      Alcotest.(check bool)
        "replayed weak outcome" true
        (r0 = 1L && sy < dx)
    in
    replay (M.Scripted (S.to_script sched));
    replay (M.Scripted (S.to_script (S.of_string (S.to_string sched))));
    replay (M.Scripted (S.to_script sched))

let () =
  Alcotest.run "check"
    [ ( "schedule",
        [ Alcotest.test_case "round-trip" `Quick test_schedule_roundtrip ] );
      ( "dpor-units",
        [ Alcotest.test_case "disjoint: one schedule" `Quick
            test_disjoint_single_schedule;
          Alcotest.test_case "hot word: C(4,2) classes" `Quick test_hot_counts;
          Alcotest.test_case "racy coverage" `Quick test_racy_coverage;
          Alcotest.test_case "mixed-lock coverage" `Quick test_mixed_coverage;
          Alcotest.test_case "three-writers coverage" `Quick
            test_three_coverage ] );
      ( "equivalence",
        [ Alcotest.test_case "cwl depth 2 vs brute" `Quick
            test_queue_equivalence_depth2;
          Alcotest.test_case "cwl buggy depth 2 vs brute" `Quick
            test_queue_equivalence_buggy;
          Alcotest.test_case "cwl depth 3 vs brute (acceptance)" `Slow
            test_queue_equivalence_depth3 ] );
      ( "kv-adversarial",
        [ Alcotest.test_case "buggy-undo flagged and replayed" `Quick
            test_kv_buggy_flagged;
          Alcotest.test_case "correct disciplines pass" `Quick
            test_kv_correct_disciplines ] );
      ( "tso",
        [ Alcotest.test_case "counter-example replay" `Quick
            test_tso_counterexample_replay ] );
      ( "tso-buffered",
        [ Alcotest.test_case "counter-example replay" `Quick
            test_buffered_counterexample_replay ] );
      ( "parallel",
        [ Alcotest.test_case "jobs=2 same census" `Quick test_explore_par ] )
    ]
