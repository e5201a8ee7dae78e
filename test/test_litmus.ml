(* Litmus-suite checks: every program's declared allowed/forbidden
   outcome sets must match exhaustive exploration exactly, under the
   full machine matrix — SC, TSO with synchronous Px86 (store-buffer
   drain interleavings), and TSO with the buffered-persistence machine
   (persistence-buffer drain interleavings on top) — with the
   persist-order shapes judged through the epoch engine and the
   recovery observer.

   Beyond per-test pass/fail this pins the PR's acceptance criteria:
   at least three programs whose TSO outcome set strictly contains the
   SC one (the machine really weakens the model); at least three
   programs whose TSO-buffered outcome set strictly contains the
   TSO-sync one (the persistence buffer really weakens persistency,
   and only across threads); brute force and DPOR observing identical
   censuses on every shape under every configuration; and DPOR
   exploring strictly fewer schedules than brute force on a
   buffered-store litmus. *)

module L = Litmus
module M = Memsim.Machine

let show_result (r : L.result) =
  Printf.sprintf "%s[%s/%s]: observed={%s} missing={%s} unexpected={%s} forbidden={%s}"
    r.L.test.L.name (L.config_name r.L.config) (L.method_name r.L.how)
    (String.concat ", " r.L.observed)
    (String.concat ", " r.L.missing)
    (String.concat ", " r.L.unexpected)
    (String.concat ", " r.L.forbidden_hit)

let assert_pass r =
  if not (L.pass r) then Alcotest.fail (show_result r)

(* --- every program, all three machine configurations --------------- *)

let test_suite_size () =
  Alcotest.(check bool) "at least 15 programs" true (List.length L.suite >= 15);
  Alcotest.(check bool) "at least 6 buffered-persistency shapes" true
    (List.length (List.filter (fun t -> t.L.tso_buf <> None) L.suite) >= 6);
  List.iter L.validate L.suite

let test_brute config () =
  List.iter (fun t -> assert_pass (L.check ~verify:true ~config t)) L.suite

(* --- DPOR agrees with the declarations too ------------------------- *)

let test_dpor config () =
  List.iter (fun t -> assert_pass (L.check ~how:L.Dpor ~config t)) L.suite

(* --- brute and DPOR observe the identical census everywhere -------- *)

let test_census_agreement config () =
  List.iter
    (fun t ->
      let brute = L.check ~config t in
      let dpor = L.check ~how:L.Dpor ~config t in
      Alcotest.(check (list string))
        (t.L.name ^ " brute census == dpor census under "
       ^ L.config_name config)
        brute.L.observed dpor.L.observed)
    L.suite

(* --- TSO strictly weaker than SC on >= 3 shapes -------------------- *)

let test_tso_weaker () =
  let weaker = List.filter L.tso_weaker L.suite in
  let names = List.map (fun t -> t.L.name) weaker in
  Alcotest.(check bool)
    (Printf.sprintf "`>=3 TSO-weaker shapes (got %s)" (String.concat "," names))
    true
    (List.length weaker >= 3);
  (* and the weakness is real, not just declared: each TSO-only outcome
     is observed under TSO and absent under SC *)
  List.iter
    (fun t ->
      let tso_only =
        List.filter (fun o -> not (List.mem o t.L.sc.L.allowed)) t.L.tso.L.allowed
      in
      let sc = L.check ~config:M.sc_config t
      and tso = L.check ~config:M.tso_sync_config t in
      assert_pass sc;
      assert_pass tso;
      List.iter
        (fun o ->
          Alcotest.(check bool)
            (t.L.name ^ ": " ^ o ^ " observed under TSO")
            true
            (List.mem o tso.L.observed);
          Alcotest.(check bool)
            (t.L.name ^ ": " ^ o ^ " absent under SC")
            false
            (List.mem o sc.L.observed))
        tso_only)
    weaker

(* --- buffered persistency strictly weaker on >= 3 shapes ----------- *)

let test_buffered_weaker () =
  let weaker = List.filter L.buffered_weaker L.suite in
  let names = List.map (fun t -> t.L.name) weaker in
  Alcotest.(check bool)
    (Printf.sprintf ">=3 buffered-weaker shapes (got %s)"
       (String.concat "," names))
    true
    (List.length weaker >= 3);
  (* the asynchrony is real, not just declared: each buffered-only
     outcome is observed under the buffered machine and absent under
     the synchronous one *)
  List.iter
    (fun t ->
      let buf = Option.get t.L.tso_buf in
      let buf_only =
        List.filter (fun o -> not (List.mem o t.L.tso.L.allowed)) buf.L.allowed
      in
      let sync = L.check ~config:M.tso_sync_config t
      and buffered = L.check ~verify:true ~config:M.tso_buffered_config t in
      assert_pass sync;
      assert_pass buffered;
      List.iter
        (fun o ->
          Alcotest.(check bool)
            (t.L.name ^ ": " ^ o ^ " observed under tso-buffered")
            true
            (List.mem o buffered.L.observed);
          Alcotest.(check bool)
            (t.L.name ^ ": " ^ o ^ " absent under tso-sync")
            false
            (List.mem o sync.L.observed))
        buf_only)
    weaker

(* --- epoch barrier == clflushopt;sfence on the persist shapes ------ *)

let test_pbarrier_sfence_equivalence () =
  (* flush_pbarrier is flush_sfence with the explicit flush+fence pair
     replaced by the paper's persist barrier; the two must declare and
     observe identical outcome sets under every machine configuration *)
  let a = Option.get (L.find "flush+sfence")
  and b = Option.get (L.find "flush+pbarrier") in
  Alcotest.(check (list string))
    "identical declared sc sets" a.L.sc.L.allowed b.L.sc.L.allowed;
  Alcotest.(check (list string))
    "identical declared tso sets" a.L.tso.L.allowed b.L.tso.L.allowed;
  List.iter
    (fun config ->
      let ra = L.check ~config a and rb = L.check ~config b in
      assert_pass ra;
      assert_pass rb;
      Alcotest.(check (list string))
        ("identical censuses under " ^ L.config_name config)
        ra.L.observed rb.L.observed)
    L.all_configs

(* --- DPOR reduction on a buffered-store litmus --------------------- *)

let test_dpor_reduction () =
  (* SB under TSO: two buffered stores, two drain pseudo-threads, racy
     loads — brute force enumerates every drain interleaving while DPOR
     collapses commuting ones. *)
  let t = Option.get (L.find "SB") in
  let brute = L.check ~config:M.tso_sync_config t in
  let dpor = L.check ~how:L.Dpor ~config:M.tso_sync_config t in
  assert_pass brute;
  assert_pass dpor;
  Alcotest.(check (list string))
    "identical outcome census" brute.L.observed dpor.L.observed;
  Alcotest.(check bool)
    (Printf.sprintf "dpor %d < brute %d schedules" dpor.L.schedules
       brute.L.schedules)
    true
    (dpor.L.schedules < brute.L.schedules)

let test_dpor_reduction_buffered () =
  (* same on a buffered-persistency shape: the persistence-buffer
     drain pseudo-threads multiply brute-force interleavings; DPOR
     collapses the commuting ones without losing outcomes *)
  let t = Option.get (L.find "cross-thread-flush-async") in
  let brute = L.check ~config:M.tso_buffered_config t in
  let dpor = L.check ~how:L.Dpor ~config:M.tso_buffered_config t in
  assert_pass brute;
  assert_pass dpor;
  Alcotest.(check (list string))
    "identical outcome census" brute.L.observed dpor.L.observed;
  Alcotest.(check bool)
    (Printf.sprintf "dpor %d < brute %d schedules" dpor.L.schedules
       brute.L.schedules)
    true
    (dpor.L.schedules < brute.L.schedules)

let () =
  let config_cases config =
    let name = L.config_name config in
    [ Alcotest.test_case (name ^ " brute+oracle") `Quick (test_brute config);
      Alcotest.test_case (name ^ " dpor") `Quick (test_dpor config);
      Alcotest.test_case (name ^ " census agreement") `Quick
        (test_census_agreement config) ]
  in
  Alcotest.run "litmus"
    [ ("suite", [ Alcotest.test_case "size+validate" `Quick test_suite_size ]);
      ("sc", config_cases M.sc_config);
      ("tso-sync", config_cases M.tso_sync_config);
      ("tso-buffered", config_cases M.tso_buffered_config);
      ( "acceptance",
        [ Alcotest.test_case "tso weaker on >=3 shapes" `Quick test_tso_weaker;
          Alcotest.test_case "buffered weaker on >=3 shapes" `Quick
            test_buffered_weaker;
          Alcotest.test_case "pbarrier == flush;sfence" `Quick
            test_pbarrier_sfence_equivalence;
          Alcotest.test_case "dpor reduction under tso" `Quick
            test_dpor_reduction;
          Alcotest.test_case "dpor reduction under tso-buffered" `Quick
            test_dpor_reduction_buffered ] ) ]
