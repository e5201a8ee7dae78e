(* Tests for the queue workloads: entries, the 2LC insert list, and the
   queue programs themselves. *)

module Q = Workloads.Queue
module M = Memsim.Machine

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Entry *)

let test_entry_roundtrip () =
  let e = Workloads.Entry.make ~seed:7 ~tid:3 ~seq:19 ~size:100 in
  checki "size" 100 (Bytes.length e);
  checki "tid" 3 (Workloads.Entry.tid_of e);
  checki "seq" 19 (Workloads.Entry.seq_of e);
  checkb "self-check" true (Workloads.Entry.check ~seed:7 ~size:100 e = Ok ())

let test_entry_deterministic () =
  let a = Workloads.Entry.make ~seed:7 ~tid:1 ~seq:2 ~size:64 in
  let b = Workloads.Entry.make ~seed:7 ~tid:1 ~seq:2 ~size:64 in
  checkb "same inputs same bytes" true (Bytes.equal a b);
  let c = Workloads.Entry.make ~seed:8 ~tid:1 ~seq:2 ~size:64 in
  checkb "seed changes filler" false (Bytes.equal a c)

let test_entry_detects_corruption () =
  let e = Workloads.Entry.make ~seed:7 ~tid:1 ~seq:2 ~size:64 in
  Bytes.set_uint8 e 40 (Bytes.get_uint8 e 40 lxor 0xff);
  checkb "flipped byte detected" true
    (Workloads.Entry.check ~seed:7 ~size:64 e <> Ok ());
  let short = Bytes.sub e 0 32 in
  checkb "short entry detected" true
    (Workloads.Entry.check ~seed:7 ~size:64 short <> Ok ())

let test_entry_size_validation () =
  Alcotest.match_raises "too small"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Workloads.Entry.make ~seed:1 ~tid:0 ~seq:0 ~size:8))

let test_slot_size () =
  checki "100B entry" 112 (Workloads.Entry.slot_size ~entry_size:100);
  checki "16B entry" 24 (Workloads.Entry.slot_size ~entry_size:16);
  checki "24B entry" 32 (Workloads.Entry.slot_size ~entry_size:24)

(* Insert list: drive it inside a machine *)

let with_machine f =
  let memory = Memsim.Memory.create () in
  let machine = M.create ~memory () in
  M.set_sink machine ignore;
  f memory machine;
  M.run machine

let test_insert_list_in_order () =
  with_machine (fun _ machine ->
      let il = Workloads.Insert_list.create machine ~slots:4 in
      ignore
        (M.spawn machine (fun () ->
             let t1 = Workloads.Insert_list.append il ~end_offset:100 in
             let t2 = Workloads.Insert_list.append il ~end_offset:200 in
             let oldest, head = Workloads.Insert_list.remove il t1 in
             checkb "t1 oldest" true oldest;
             checki "head after t1" 100 head;
             let oldest, head = Workloads.Insert_list.remove il t2 in
             checkb "t2 oldest" true oldest;
             checki "head after t2" 200 head)))

let test_insert_list_out_of_order () =
  with_machine (fun _ machine ->
      let il = Workloads.Insert_list.create machine ~slots:4 in
      ignore
        (M.spawn machine (fun () ->
             let t1 = Workloads.Insert_list.append il ~end_offset:100 in
             let t2 = Workloads.Insert_list.append il ~end_offset:200 in
             let t3 = Workloads.Insert_list.append il ~end_offset:300 in
             (* completing a younger insert publishes nothing *)
             let oldest, _ = Workloads.Insert_list.remove il t2 in
             checkb "t2 not oldest" false oldest;
             (* completing the oldest publishes the done prefix *)
             let oldest, head = Workloads.Insert_list.remove il t1 in
             checkb "t1 oldest" true oldest;
             checki "prefix covers t2" 200 head;
             let oldest, head = Workloads.Insert_list.remove il t3 in
             checkb "t3 now oldest" true oldest;
             checki "head after t3" 300 head)))

let test_insert_list_overflow () =
  with_machine (fun _ machine ->
      let il = Workloads.Insert_list.create machine ~slots:2 in
      ignore
        (M.spawn machine (fun () ->
             ignore (Workloads.Insert_list.append il ~end_offset:1);
             ignore (Workloads.Insert_list.append il ~end_offset:2);
             Alcotest.match_raises "slots exhausted"
               (function Invalid_argument _ -> true | _ -> false)
               (fun () ->
                 ignore (Workloads.Insert_list.append il ~end_offset:3)))))

(* Queue programs *)

let run_queue ?(design = Q.Cwl) ?(annotation = Q.Unannotated) ?(threads = 1)
    ?(inserts = 8) ?(capacity = 64) ?(policy = M.Round_robin)
    ?(machine = M.Sc) () =
  let params =
    { Q.design;
      annotation;
      threads;
      inserts_per_thread = inserts;
      entry_size = 100;
      capacity_entries = capacity;
      seed = 11;
      policy;
      machine;
      persistence = M.Psync;
      barrier = M.Pbarrier }
  in
  let trace = Memsim.Trace.create () in
  let result = Q.run params ~sink:(Memsim.Trace.sink trace) in
  (params, result, trace)

let test_queue_validation () =
  let bad f =
    Alcotest.match_raises "invalid params"
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> ignore (f ()))
  in
  bad (fun () -> run_queue ~threads:0 ());
  bad (fun () -> run_queue ~inserts:0 ());
  bad (fun () -> run_queue ~threads:4 ~capacity:2 ())

let test_queue_counts () =
  let _, result, trace = run_queue ~inserts:10 () in
  checki "inserts" 10 result.Q.inserts;
  (* per insert: lock rmw + head load + 14 copy stores (13 words plus a
     4-byte tail for the 108-byte record) + head store + unlock store =
     18 memory events, 15 of them persists *)
  checki "events" (18 * 10) result.Q.events;
  checki "persists" (15 * 10) (Memsim.Trace.persists trace);
  checki "insert order length" 10 (List.length result.Q.insert_order)

let test_queue_final_image_complete () =
  (* after a full run the persistent memory holds every entry *)
  let params, result, trace = run_queue ~threads:2 ~inserts:5 () in
  let cfg =
    Persistency.Config.make ~record_graph:true Persistency.Config.Epoch
  in
  let engine = Persistency.Engine.create cfg in
  Memsim.Trace.iter (Persistency.Engine.observe engine) trace;
  let graph = Option.get (Persistency.Engine.graph engine) in
  let layout = result.Q.layout in
  let image =
    Persistency.Observer.final_image graph
      ~capacity:(layout.Q.data_addr + layout.Q.data_bytes)
  in
  (* [recover] also checks per-thread FIFO order *)
  match Workloads.Queue_recovery.recover ~params ~layout image with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    checki "all entries recovered" 10
      (List.length r.Workloads.Queue_recovery.entries);
    checki "head covers all" (10 * layout.Q.slot)
      r.Workloads.Queue_recovery.head

let test_queue_annotations_emit_barriers () =
  let count_meta annotation =
    let _, _, trace = run_queue ~annotation ~inserts:4 () in
    let pbs = ref 0 and nss = ref 0 in
    Memsim.Trace.iter
      (function
        | Memsim.Event.Persist_barrier _ -> incr pbs
        | Memsim.Event.New_strand _ -> incr nss
        | Memsim.Event.Access _ | Memsim.Event.Label _ | Memsim.Event.Flush _
        | Memsim.Event.Fence _ | Memsim.Event.Pdrain _ ->
          ())
      trace;
    (!pbs, !nss)
  in
  Alcotest.(check (pair int int)) "unannotated" (0, 0) (count_meta Q.Unannotated);
  Alcotest.(check (pair int int)) "epoch: 5 barriers/insert" (20, 0)
    (count_meta Q.Epoch);
  Alcotest.(check (pair int int)) "racing: 3 barriers/insert" (12, 0)
    (count_meta Q.Racing);
  Alcotest.(check (pair int int)) "strand: +NewStrand" (20, 4)
    (count_meta Q.Strand);
  Alcotest.(check (pair int int)) "buggy drops line 8" (16, 0)
    (count_meta Q.Buggy_epoch)

let test_queue_wraps () =
  (* more inserts than capacity: offsets wrap, run completes *)
  let _, result, trace = run_queue ~inserts:32 ~capacity:8 () in
  checki "inserts" 32 result.Q.inserts;
  let layout = result.Q.layout in
  (* every persist lands inside the head word or the data segment *)
  Memsim.Trace.iter
    (fun ev ->
      match ev with
      | Memsim.Event.Access ((Memsim.Event.Store | Memsim.Event.Rmw), a)
        when Memsim.Addr.equal_space a.space Memsim.Addr.Persistent ->
        checkb "persist in bounds" true
          (a.addr = layout.Q.head_addr
          || (a.addr >= layout.Q.data_addr
             && a.addr + a.size <= layout.Q.data_addr + layout.Q.data_bytes))
      | _ -> ())
    trace

let test_queue_tlc_no_holes () =
  (* 2LC with adversarial scheduling: the head pointer only ever
     advances over completed entries (checked via the final image) *)
  List.iter
    (fun seed ->
      let params, result, trace =
        run_queue ~design:Q.Tlc ~threads:4 ~inserts:6 ~capacity:64
          ~policy:(M.Random seed) ()
      in
      let cfg =
        Persistency.Config.make ~record_graph:true Persistency.Config.Epoch
      in
      let engine = Persistency.Engine.create cfg in
      Memsim.Trace.iter (Persistency.Engine.observe engine) trace;
      let graph = Option.get (Persistency.Engine.graph engine) in
      let layout = result.Q.layout in
      let image =
        Persistency.Observer.final_image graph
          ~capacity:(layout.Q.data_addr + layout.Q.data_bytes)
      in
      checkb "complete and hole-free" true
        (Result.is_ok (Workloads.Queue_recovery.recover ~params ~layout image)))
    [ 1; 2; 3; 4; 5 ]

let test_queue_insert_order_matches_threads () =
  let _, result, _ = run_queue ~threads:3 ~inserts:4 ~policy:(M.Random 2) () in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun tid ->
      Hashtbl.replace counts tid
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts tid)))
    result.Q.insert_order;
  List.iter
    (fun tid -> checki "inserts per thread" 4 (Hashtbl.find counts tid))
    [ 0; 1; 2 ]

let test_queue_recovery_rejects_wrapped_runs () =
  let params, result, _ = run_queue ~inserts:32 ~capacity:8 () in
  let image = Bytes.make 4096 '\000' in
  checkb "wrap refused" true
    (Result.is_error
       (Workloads.Queue_recovery.recover ~params ~layout:result.Q.layout
          image))

let test_queue_recovery_detects_bad_head () =
  let params, result, _ = run_queue ~inserts:4 () in
  let layout = result.Q.layout in
  let image = Bytes.make (layout.Q.data_addr + layout.Q.data_bytes) '\000' in
  Bytes.set_int64_le image layout.Q.head_addr 13L (* not slot aligned *);
  checkb "misaligned head" true
    (Result.is_error (Workloads.Queue_recovery.recover ~params ~layout image));
  Bytes.set_int64_le image layout.Q.head_addr
    (Int64.of_int (100 * layout.Q.slot));
  checkb "head beyond inserts" true
    (Result.is_error (Workloads.Queue_recovery.recover ~params ~layout image))

let test_queue_recovery_detects_hole () =
  let params, result, _ = run_queue ~inserts:4 () in
  let layout = result.Q.layout in
  let image = Bytes.make (layout.Q.data_addr + layout.Q.data_bytes) '\000' in
  (* head claims one entry but the data segment is all zeros *)
  Bytes.set_int64_le image layout.Q.head_addr (Int64.of_int layout.Q.slot);
  checkb "hole detected" true
    (Result.is_error (Workloads.Queue_recovery.recover ~params ~layout image))

(* Keygen: seeded key-popularity distributions *)

module Kg = Workloads.Keygen

let freqs kg ~key_space ~draws =
  let counts = Array.make key_space 0 in
  for i = 0 to draws - 1 do
    let k = Kg.key_at kg i in
    checkb "key in range" true (k >= 1 && k <= key_space);
    counts.(k - 1) <- counts.(k - 1) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int draws) counts

let test_keygen_uniform_flat () =
  let key_space = 16 in
  let kg = Kg.create Kg.Uniform ~key_space ~seed:3 in
  let f = freqs kg ~key_space ~draws:16_000 in
  Array.iter
    (fun p -> checkb "within 40% of uniform" true (p > 0.0375 && p < 0.105))
    f

let test_keygen_zipf_head_heavy () =
  let key_space = 100 in
  let kg = Kg.create (Kg.Zipf 1.0) ~key_space ~seed:3 in
  let f = freqs kg ~key_space ~draws:20_000 in
  let pmf = Kg.pmf kg in
  (* key 1 carries ~1/H_100 = 19% of the mass; empirical within 2pp *)
  checkb "model head mass" true (abs_float (pmf.(0) -. 0.1928) < 0.005);
  checkb "empirical tracks model head" true (abs_float (f.(0) -. pmf.(0)) < 0.02);
  checkb "head dominates mid-rank" true (f.(0) > 10. *. f.(49));
  checkb "monotone-ish: top-10 over bottom-50" true
    (Array.fold_left ( +. ) 0. (Array.sub f 0 10)
    > 2. *. Array.fold_left ( +. ) 0. (Array.sub f 50 50))

let test_keygen_hotset_mass () =
  let key_space = 64 in
  let kg = Kg.create (Kg.Hotset { hot_keys = 4; hot_pct = 90 }) ~key_space ~seed:3 in
  let f = freqs kg ~key_space ~draws:20_000 in
  let hot = Array.fold_left ( +. ) 0. (Array.sub f 0 4) in
  checkb "90% of draws in the 4 hot keys" true (hot > 0.87 && hot < 0.93)

let test_keygen_pure_and_stateful () =
  let kg = Kg.create (Kg.Zipf 0.99) ~key_space:32 ~seed:9 in
  let kg' = Kg.create (Kg.Zipf 0.99) ~key_space:32 ~seed:9 in
  for i = 0 to 199 do
    checki "pure replay" (Kg.key_at kg i) (Kg.key_at kg' i)
  done;
  (* the cursor walks the same sequence *)
  let kg'' = Kg.create (Kg.Zipf 0.99) ~key_space:32 ~seed:9 in
  for i = 0 to 49 do
    checki "next = key_at" (Kg.key_at kg i) (Kg.next kg'')
  done

let test_keygen_pmf_sums () =
  List.iter
    (fun d ->
      let kg = Kg.create d ~key_space:50 ~seed:1 in
      let s = Array.fold_left ( +. ) 0. (Kg.pmf kg) in
      checkb (Kg.dist_name d ^ " pmf sums to 1") true (abs_float (s -. 1.) < 1e-9))
    [ Kg.Uniform; Kg.Zipf 0.5; Kg.Zipf 1.2; Kg.Hotset { hot_keys = 5; hot_pct = 80 } ]

let test_keygen_validate_rejects () =
  let expect_invalid f =
    Alcotest.match_raises "rejected"
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> ignore (f ()))
  in
  expect_invalid (fun () -> Kg.create (Kg.Zipf 0.) ~key_space:8 ~seed:1);
  expect_invalid (fun () -> Kg.create (Kg.Zipf Float.nan) ~key_space:8 ~seed:1);
  expect_invalid (fun () ->
      Kg.create (Kg.Hotset { hot_keys = 8; hot_pct = 50 }) ~key_space:8 ~seed:1);
  expect_invalid (fun () ->
      Kg.create (Kg.Hotset { hot_keys = 2; hot_pct = 101 }) ~key_space:8 ~seed:1);
  expect_invalid (fun () -> Kg.create Kg.Uniform ~key_space:0 ~seed:1)

(* The degenerate corners: every (dist, key_space) pair must either be
   rejected by validate or produce a pmf summing to 1 within 1e-9 and
   draws inside [1, key_space]. *)
let test_keygen_edge_cases () =
  let sums_and_draws d ~key_space =
    let kg = Kg.create d ~key_space ~seed:11 in
    let s = Array.fold_left ( +. ) 0. (Kg.pmf kg) in
    checkb (Kg.dist_name d ^ " pmf sums to 1") true (abs_float (s -. 1.) < 1e-9);
    ignore (freqs kg ~key_space ~draws:2_000)
  in
  (* a single key: every distribution that validates must always draw
     it; a hot set can't be a proper subset, so Hotset is rejected *)
  sums_and_draws Kg.Uniform ~key_space:1;
  sums_and_draws (Kg.Zipf 1.0) ~key_space:1;
  let kg1 = Kg.create (Kg.Zipf 1.0) ~key_space:1 ~seed:11 in
  for i = 0 to 99 do
    checki "only key" 1 (Kg.key_at kg1 i)
  done;
  Alcotest.match_raises "hotset needs a cold key"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore (Kg.create (Kg.Hotset { hot_keys = 1; hot_pct = 50 }) ~key_space:1 ~seed:1));
  (* theta edges: 0 is rejected (uniform spelled as zipf), 1.0 is the
     classic harmonic case, huge theta underflows the tail to zero
     weight but the head still normalizes *)
  sums_and_draws (Kg.Zipf 1.0) ~key_space:50;
  sums_and_draws (Kg.Zipf 200.) ~key_space:50;
  let sharp = Kg.create (Kg.Zipf 200.) ~key_space:50 ~seed:11 in
  for i = 0 to 99 do
    checki "theta=200 collapses to key 1" 1 (Kg.key_at sharp i)
  done;
  (* hot_pct rounding corners: 0% means the hot set is never drawn,
     100% means the cold set never is — both still sum to 1 *)
  sums_and_draws (Kg.Hotset { hot_keys = 4; hot_pct = 0 }) ~key_space:16;
  sums_and_draws (Kg.Hotset { hot_keys = 4; hot_pct = 100 }) ~key_space:16;
  sums_and_draws (Kg.Hotset { hot_keys = 15; hot_pct = 50 }) ~key_space:16;
  let cold_only =
    Kg.create (Kg.Hotset { hot_keys = 4; hot_pct = 0 }) ~key_space:16 ~seed:11
  in
  let hot_only =
    Kg.create (Kg.Hotset { hot_keys = 4; hot_pct = 100 }) ~key_space:16 ~seed:11
  in
  for i = 0 to 1_999 do
    checkb "0% never draws hot" true (Kg.key_at cold_only i > 4);
    checkb "100% never draws cold" true (Kg.key_at hot_only i <= 4)
  done

let test_keygen_dist_strings () =
  List.iter
    (fun d -> checkb (Kg.dist_name d) true (Kg.dist_of_string (Kg.dist_name d) = Ok d))
    [ Kg.Uniform; Kg.Zipf 0.99; Kg.Hotset { hot_keys = 16; hot_pct = 90 } ];
  List.iter
    (fun s ->
      checkb s true (match Kg.dist_of_string s with Error _ -> true | Ok _ -> false))
    [ "zipf"; "zipf:0"; "zipf:-1"; "hotset:0:50"; "hotset:4:101"; "what"; "" ]

let () =
  Alcotest.run "workloads"
    [ ( "entry",
        [ Alcotest.test_case "roundtrip" `Quick test_entry_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_entry_deterministic;
          Alcotest.test_case "corruption" `Quick test_entry_detects_corruption;
          Alcotest.test_case "size validation" `Quick
            test_entry_size_validation;
          Alcotest.test_case "slot size" `Quick test_slot_size ] );
      ( "insert-list",
        [ Alcotest.test_case "in order" `Quick test_insert_list_in_order;
          Alcotest.test_case "out of order" `Quick
            test_insert_list_out_of_order;
          Alcotest.test_case "overflow" `Quick test_insert_list_overflow ] );
      ( "queue",
        [ Alcotest.test_case "validation" `Quick test_queue_validation;
          Alcotest.test_case "counts" `Quick test_queue_counts;
          Alcotest.test_case "final image complete" `Quick
            test_queue_final_image_complete;
          Alcotest.test_case "annotations" `Quick
            test_queue_annotations_emit_barriers;
          Alcotest.test_case "wraps" `Quick test_queue_wraps;
          Alcotest.test_case "2LC no holes" `Quick test_queue_tlc_no_holes;
          Alcotest.test_case "insert order" `Quick
            test_queue_insert_order_matches_threads ] );
      ( "keygen",
        [ Alcotest.test_case "uniform flat" `Quick test_keygen_uniform_flat;
          Alcotest.test_case "zipf head-heavy" `Quick
            test_keygen_zipf_head_heavy;
          Alcotest.test_case "hotset mass" `Quick test_keygen_hotset_mass;
          Alcotest.test_case "pure + stateful cursor" `Quick
            test_keygen_pure_and_stateful;
          Alcotest.test_case "pmf sums to 1" `Quick test_keygen_pmf_sums;
          Alcotest.test_case "validation" `Quick test_keygen_validate_rejects;
          Alcotest.test_case "edge cases" `Quick test_keygen_edge_cases;
          Alcotest.test_case "dist strings" `Quick test_keygen_dist_strings ] );
      ( "recovery-checker",
        [ Alcotest.test_case "rejects wrapped runs" `Quick
            test_queue_recovery_rejects_wrapped_runs;
          Alcotest.test_case "bad head" `Quick
            test_queue_recovery_detects_bad_head;
          Alcotest.test_case "hole" `Quick test_queue_recovery_detects_hole ] )
    ]
