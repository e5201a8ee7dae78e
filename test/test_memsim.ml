(* Tests for the memsim substrate: addresses, growable vectors, events,
   simulated memory with allocators, the SC machine, and traces. *)

module A = Memsim.Addr
module M = Memsim.Machine

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Addr *)

let test_spaces () =
  checkb "0 is persistent" true (A.equal_space (A.space_of 0) A.Persistent);
  checkb "below base is persistent" true
    (A.equal_space (A.space_of (A.volatile_base - 1)) A.Persistent);
  checkb "base is volatile" true
    (A.equal_space (A.space_of A.volatile_base) A.Volatile);
  checkb "spaces differ" false (A.equal_space A.Volatile A.Persistent)

let test_alignment () =
  checkb "8 aligned to 8" true (A.is_aligned ~size:8 8);
  checkb "12 not aligned to 8" false (A.is_aligned ~size:8 12);
  checkb "12 aligned to 4" true (A.is_aligned ~size:4 12);
  checki "align_up 13 to 8" 16 (A.align_up 13 ~quantum:8);
  checki "align_up 16 to 8" 16 (A.align_up 16 ~quantum:8);
  checki "align_up 0" 0 (A.align_up 0 ~quantum:8)

let test_blocks () =
  checki "block of 0" 0 (A.block ~gran:8 0);
  checki "block of 15" 1 (A.block ~gran:8 15);
  checki "block coarse" 0 (A.block ~gran:64 63);
  checkb "pow2 8" true (A.is_power_of_two 8);
  checkb "pow2 1" true (A.is_power_of_two 1);
  checkb "pow2 12" false (A.is_power_of_two 12);
  checkb "pow2 0" false (A.is_power_of_two 0)

(* Vec *)

let test_vec_basic () =
  let v = Memsim.Vec.create () in
  checkb "empty" true (Memsim.Vec.is_empty v);
  for i = 0 to 99 do
    Memsim.Vec.push v i
  done;
  checki "length" 100 (Memsim.Vec.length v);
  checki "get 42" 42 (Memsim.Vec.get v 42);
  Memsim.Vec.set v 42 1000;
  checki "set" 1000 (Memsim.Vec.get v 42);
  check (Alcotest.list Alcotest.int) "to_list head"
    [ 0; 1; 2 ]
    (List.filteri (fun i _ -> i < 3) (Memsim.Vec.to_list v))

let test_vec_swap_remove () =
  let v = Memsim.Vec.of_list [ 1; 2; 3; 4 ] in
  checki "swap_remove returns" 2 (Memsim.Vec.swap_remove v 1);
  checki "length after" 3 (Memsim.Vec.length v);
  checki "last moved in" 4 (Memsim.Vec.get v 1);
  check (Alcotest.option Alcotest.int) "pop" (Some 3) (Memsim.Vec.pop v);
  Memsim.Vec.clear v;
  checkb "cleared" true (Memsim.Vec.is_empty v);
  check (Alcotest.option Alcotest.int) "pop empty" None (Memsim.Vec.pop v)

let test_vec_bounds () =
  let v = Memsim.Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Memsim.Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> Memsim.Vec.set v (-1) 0)

let test_vec_fold () =
  let v = Memsim.Vec.of_list [ 1; 2; 3 ] in
  checki "fold sum" 6 (Memsim.Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Memsim.Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  checki "iteri count" 3 (List.length !acc)

(* Event *)

let sample_events =
  [ Memsim.Event.Access
      ( Memsim.Event.Load,
        { tid = 0; addr = 8; size = 8; value = 77L; space = A.Persistent } );
    Memsim.Event.Access
      ( Memsim.Event.Store,
        { tid = 1;
          addr = A.volatile_base + 16;
          size = 4;
          value = -1L;
          space = A.Volatile } );
    Memsim.Event.Access
      ( Memsim.Event.Rmw,
        { tid = 2; addr = 64; size = 8; value = 1L; space = A.Persistent } );
    Memsim.Event.Persist_barrier 3;
    Memsim.Event.New_strand 4;
    Memsim.Event.Label (5, "insert with spaces");
    Memsim.Event.Flush { tid = 6; kind = Memsim.Event.Clflushopt; addr = 24 };
    Memsim.Event.Flush { tid = 7; kind = Memsim.Event.Clwb; addr = 32 };
    Memsim.Event.Fence { tid = 8; kind = Memsim.Event.Sfence };
    Memsim.Event.Fence { tid = 9; kind = Memsim.Event.Mfence } ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let ev' = Memsim.Event.of_string (Memsim.Event.to_string ev) in
      checkb "roundtrip equal" true (Memsim.Event.equal ev ev'))
    sample_events

let test_event_is_persist () =
  let persist = function
    | true -> "persist"
    | false -> "no"
  in
  let expect =
    [ false (* load *); false (* volatile store *); true (* persistent rmw *);
      false; false; false; false; false; false; false ]
  in
  List.iter2
    (fun ev e ->
      check Alcotest.string "is_persist" (persist e)
        (persist (Memsim.Event.is_persist ev)))
    sample_events expect

let test_event_tid () =
  check (Alcotest.list Alcotest.int) "tids" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map Memsim.Event.tid sample_events)

let test_event_bad_parse () =
  Alcotest.check_raises "garbage"
    (Failure "Event.of_string: malformed line: nonsense") (fun () ->
      ignore (Memsim.Event.of_string "nonsense"))

(* Memory *)

let test_memory_rw () =
  let m = Memsim.Memory.create () in
  Memsim.Memory.store m ~addr:8 ~size:8 0x1122334455667788L;
  check Alcotest.int64 "read back" 0x1122334455667788L
    (Memsim.Memory.load m ~addr:8 ~size:8);
  check Alcotest.int64 "low word" 0x55667788L
    (Memsim.Memory.load m ~addr:8 ~size:4);
  check Alcotest.int64 "byte" 0x88L (Memsim.Memory.load m ~addr:8 ~size:1);
  Memsim.Memory.store m ~addr:16 ~size:2 0xBEEFL;
  check Alcotest.int64 "u16" 0xBEEFL (Memsim.Memory.load m ~addr:16 ~size:2)

let test_memory_volatile_isolated () =
  let m = Memsim.Memory.create () in
  Memsim.Memory.store m ~addr:8 ~size:8 1L;
  Memsim.Memory.store m ~addr:(A.volatile_base + 8) ~size:8 2L;
  check Alcotest.int64 "persistent unchanged" 1L
    (Memsim.Memory.load m ~addr:8 ~size:8);
  check Alcotest.int64 "volatile value" 2L
    (Memsim.Memory.load m ~addr:(A.volatile_base + 8) ~size:8)

let test_memory_errors () =
  let m = Memsim.Memory.create ~persistent_capacity:1024 () in
  let raises name f = Alcotest.match_raises name (function
    | Invalid_argument _ -> true
    | _ -> false) f
  in
  raises "bad size" (fun () -> ignore (Memsim.Memory.load m ~addr:8 ~size:3));
  raises "misaligned" (fun () -> ignore (Memsim.Memory.load m ~addr:12 ~size:8));
  raises "oob" (fun () -> ignore (Memsim.Memory.load m ~addr:1024 ~size:8));
  raises "create zero" (fun () ->
      ignore (Memsim.Memory.create ~persistent_capacity:0 ()))

let test_alloc_basic () =
  let m = Memsim.Memory.create () in
  let a = Memsim.Memory.alloc m A.Persistent 100 in
  let b = Memsim.Memory.alloc m A.Persistent 8 in
  checkb "aligned a" true (A.is_aligned ~size:8 a);
  checkb "aligned b" true (A.is_aligned ~size:8 b);
  checkb "disjoint" true (b >= a + 100);
  checkb "never null" true (a > 0);
  let v = Memsim.Memory.alloc m A.Volatile 16 in
  checkb "volatile space" true (A.equal_space (A.space_of v) A.Volatile);
  checki "live bytes persistent" (104 + 8)
    (Memsim.Memory.allocated_bytes m A.Persistent)

let test_alloc_reuse () =
  let m = Memsim.Memory.create ~persistent_capacity:1024 () in
  let a = Memsim.Memory.alloc m A.Persistent 64 in
  Memsim.Memory.store m ~addr:a ~size:8 99L;
  Memsim.Memory.free m a;
  checki "live after free" 0 (Memsim.Memory.allocated_bytes m A.Persistent);
  let b = Memsim.Memory.alloc m A.Persistent 64 in
  checki "first fit reuses" a b;
  check Alcotest.int64 "zeroed on alloc" 0L (Memsim.Memory.load m ~addr:b ~size:8)

let test_alloc_split () =
  let m = Memsim.Memory.create ~persistent_capacity:1024 () in
  let a = Memsim.Memory.alloc m A.Persistent 64 in
  Memsim.Memory.free m a;
  let b = Memsim.Memory.alloc m A.Persistent 16 in
  let c = Memsim.Memory.alloc m A.Persistent 16 in
  checki "split head" a b;
  checki "split remainder" (a + 16) c

let test_alloc_errors () =
  let m = Memsim.Memory.create ~persistent_capacity:256 () in
  Alcotest.match_raises "double free"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      let a = Memsim.Memory.alloc m A.Persistent 8 in
      Memsim.Memory.free m a;
      Memsim.Memory.free m a);
  Alcotest.check_raises "out of memory" Out_of_memory (fun () ->
      ignore (Memsim.Memory.alloc m A.Persistent 4096))

(* Machine *)

let machine_with_trace ?policy () =
  let memory = Memsim.Memory.create () in
  let m = M.create ?policy ~memory () in
  let trace = Memsim.Trace.create () in
  M.set_sink m (Memsim.Trace.sink trace);
  (m, memory, trace)

let test_machine_single_thread () =
  let m, memory, trace = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 16 in
  ignore
    (M.spawn m (fun () ->
         M.store a 7L;
         let v = M.load a in
         M.store (a + 8) (Int64.add v 1L)));
  M.run m;
  check Alcotest.int64 "result" 8L (Memsim.Memory.load memory ~addr:(a + 8) ~size:8);
  checki "events" 3 (Memsim.Trace.length trace);
  checki "persists" 2 (Memsim.Trace.persists trace)

let test_machine_program_order () =
  (* a thread's events appear in program order in the trace *)
  let m, memory, trace = machine_with_trace ~policy:(M.Random 99) () in
  let a = Memsim.Memory.alloc memory A.Persistent 64 in
  for t = 0 to 3 do
    ignore
      (M.spawn m (fun () ->
           for i = 0 to 7 do
             M.store (a + (8 * t)) (Int64.of_int i)
           done))
  done;
  M.run m;
  let last = Hashtbl.create 4 in
  Memsim.Trace.iter
    (fun ev ->
      match ev with
      | Memsim.Event.Access (_, acc) ->
        let prev =
          Option.value ~default:(-1L) (Hashtbl.find_opt last acc.tid)
        in
        checkb "program order" true (acc.value > prev);
        Hashtbl.replace last acc.tid acc.value
      | _ -> ())
    trace;
  checki "threads" 4 (Memsim.Trace.threads trace)

let test_machine_rmw_atomic () =
  let m, memory, _ = machine_with_trace ~policy:(M.Random 3) () in
  let counter = Memsim.Memory.alloc memory A.Volatile 8 in
  for _ = 1 to 4 do
    ignore
      (M.spawn m (fun () ->
           for _ = 1 to 100 do
             ignore (M.fetch_add counter 1L)
           done))
  done;
  M.run m;
  check Alcotest.int64 "atomic increments" 400L
    (Memsim.Memory.load memory ~addr:counter ~size:8)

let test_machine_lock_mutual_exclusion () =
  let m, memory, _ = machine_with_trace ~policy:(M.Random 17) () in
  let shared = Memsim.Memory.alloc memory A.Volatile 8 in
  let l = M.mutex m in
  for _ = 1 to 4 do
    ignore
      (M.spawn m (fun () ->
           for _ = 1 to 50 do
             M.lock l;
             (* non-atomic read-modify-write, safe only under the lock *)
             let v = M.load shared in
             M.yield ();
             M.store shared (Int64.add v 1L);
             M.unlock l
           done))
  done;
  M.run m;
  check Alcotest.int64 "lock protects" 200L
    (Memsim.Memory.load memory ~addr:shared ~size:8)

let test_machine_lock_fifo () =
  (* FIFO hand-off: waiters acquire in arrival order *)
  let m, memory, _ = machine_with_trace () in
  let order = Memsim.Memory.alloc memory A.Volatile 64 in
  let idx = Memsim.Memory.alloc memory A.Volatile 8 in
  let l = M.mutex m in
  for t = 0 to 2 do
    ignore
      (M.spawn m (fun () ->
           M.lock l;
           let i = M.fetch_add idx 1L in
           M.store (order + (8 * Int64.to_int i)) (Int64.of_int t);
           M.unlock l))
  done;
  M.run m;
  (* round-robin spawn order: thread 0 acquires first, then 1, 2 *)
  List.iter
    (fun i ->
      check Alcotest.int64 "fifo order" (Int64.of_int i)
        (Memsim.Memory.load memory ~addr:(order + (8 * i)) ~size:8))
    [ 0; 1; 2 ]

let test_machine_unlock_not_owner () =
  let m, _, _ = machine_with_trace () in
  let l = M.mutex m in
  ignore (M.spawn m (fun () -> M.unlock l));
  Alcotest.match_raises "unlock without lock"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> M.run m)

let test_machine_deadlock () =
  let m, _, _ = machine_with_trace () in
  let l1 = M.mutex m in
  let l2 = M.mutex m in
  ignore
    (M.spawn m (fun () ->
         M.lock l1;
         M.yield ();
         M.lock l2;
         M.unlock l2;
         M.unlock l1));
  ignore
    (M.spawn m (fun () ->
         M.lock l2;
         M.yield ();
         M.lock l1;
         M.unlock l1;
         M.unlock l2));
  Alcotest.match_raises "deadlock detected"
    (function M.Deadlock _ -> true | _ -> false)
    (fun () -> M.run m)

let test_machine_bytes_roundtrip () =
  let m, memory, trace = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 128 in
  let payload = Bytes.init 100 (fun i -> Char.chr (i mod 256)) in
  let out = ref Bytes.empty in
  ignore
    (M.spawn m (fun () ->
         M.store_bytes a payload;
         out := M.load_bytes a 100));
  M.run m;
  checkb "bytes roundtrip" true (Bytes.equal payload !out);
  (* 100 bytes = 12 word stores + 4-byte tail: 13 stores, same loads *)
  checki "events" 26 (Memsim.Trace.length trace);
  checki "persists" 13 (Memsim.Trace.persists trace)

let test_machine_barrier_events () =
  let m, memory, trace = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 8 in
  ignore
    (M.spawn m (fun () ->
         M.label "op";
         M.store a 1L;
         M.persist_barrier ();
         M.new_strand ();
         M.store a 2L));
  M.run m;
  let kinds =
    List.map
      (function
        | Memsim.Event.Label _ -> "label"
        | Memsim.Event.Access (Memsim.Event.Store, _) -> "store"
        | Memsim.Event.Persist_barrier _ -> "pb"
        | Memsim.Event.New_strand _ -> "ns"
        | Memsim.Event.Flush _ -> "flush"
        | Memsim.Event.Fence _ -> "fence"
        | Memsim.Event.Pdrain _ -> "pdrain"
        | Memsim.Event.Access (_, _) -> "other")
      (Memsim.Trace.to_list trace)
  in
  check (Alcotest.list Alcotest.string) "event kinds"
    [ "label"; "store"; "pb"; "ns"; "store" ]
    kinds;
  (* labels and barriers are not memory events *)
  checki "memory event count" 2 (M.event_count m)

let test_machine_malloc_op () =
  let m, memory, _ = machine_with_trace () in
  let result = ref 0 in
  ignore
    (M.spawn m (fun () ->
         let a = M.malloc A.Persistent 32 in
         M.store a 5L;
         M.mfree a;
         result := a));
  M.run m;
  checkb "allocated in persistent space" true
    (A.equal_space (A.space_of !result) A.Persistent);
  checki "freed" 0 (Memsim.Memory.allocated_bytes memory A.Persistent)

let test_machine_interleaving_differs () =
  (* different seeds produce different interleavings (almost surely) *)
  let run seed =
    let m, memory, trace = machine_with_trace ~policy:(M.Random seed) () in
    let a = Memsim.Memory.alloc memory A.Persistent 8 in
    for t = 0 to 1 do
      ignore
        (M.spawn m (fun () ->
             for _ = 1 to 20 do
               M.store a (Int64.of_int t)
             done))
    done;
    M.run m;
    List.map Memsim.Event.tid (Memsim.Trace.to_list trace)
  in
  checkb "seeds differ" true (run 1 <> run 2)

let test_machine_self () =
  let m, _, _ = machine_with_trace () in
  let ids = ref [] in
  for _ = 0 to 2 do
    ignore
      (M.spawn m (fun () ->
           let me = M.self () in
           ids := me :: !ids))
  done;
  M.run m;
  check (Alcotest.list Alcotest.int) "self ids" [ 2; 1; 0 ] !ids

let test_machine_two_phases () =
  let m, memory, _ = machine_with_trace () in
  let a = Memsim.Memory.alloc memory A.Persistent 8 in
  ignore (M.spawn m (fun () -> M.store a 1L));
  M.run m;
  ignore (M.spawn m (fun () -> M.store a (Int64.add (M.load a) 1L)));
  M.run m;
  check Alcotest.int64 "phased runs" 2L (Memsim.Memory.load memory ~addr:a ~size:8)

(* Every configuration is found under its own name, tso is the
   tso-sync alias, and unknown names are rejected. *)
let test_machine_config_names () =
  List.iter
    (fun (c : M.config) ->
      checkb c.name true (M.config_of_name c.name = Some c))
    M.all_configs;
  Alcotest.(check (list string))
    "matrix" [ "sc"; "tso-sync"; "tso-buffered" ]
    (List.map (fun (c : M.config) -> c.name) M.all_configs);
  checkb "tso alias" true (M.config_of_name "tso" = Some M.tso_sync_config);
  checkb "unknown" true (M.config_of_name "all" = None)

(* Trace *)

let test_trace_serialization () =
  let t = Memsim.Trace.of_list sample_events in
  let file = Filename.temp_file "trace" ".txt" in
  let oc = open_out file in
  Memsim.Trace.to_channel oc t;
  close_out oc;
  let ic = open_in file in
  let t' = Memsim.Trace.of_channel ic in
  close_in ic;
  Sys.remove file;
  checki "length preserved" (Memsim.Trace.length t) (Memsim.Trace.length t');
  List.iter2
    (fun a b -> checkb "event preserved" true (Memsim.Event.equal a b))
    (Memsim.Trace.to_list t) (Memsim.Trace.to_list t')

let () =
  Alcotest.run "memsim"
    [ ( "addr",
        [ Alcotest.test_case "spaces" `Quick test_spaces;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "blocks" `Quick test_blocks ] );
      ( "vec",
        [ Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "fold" `Quick test_vec_fold ] );
      ( "event",
        [ Alcotest.test_case "roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "is_persist" `Quick test_event_is_persist;
          Alcotest.test_case "tid" `Quick test_event_tid;
          Alcotest.test_case "bad parse" `Quick test_event_bad_parse ] );
      ( "memory",
        [ Alcotest.test_case "read write" `Quick test_memory_rw;
          Alcotest.test_case "space isolation" `Quick test_memory_volatile_isolated;
          Alcotest.test_case "errors" `Quick test_memory_errors;
          Alcotest.test_case "alloc basic" `Quick test_alloc_basic;
          Alcotest.test_case "alloc reuse" `Quick test_alloc_reuse;
          Alcotest.test_case "alloc split" `Quick test_alloc_split;
          Alcotest.test_case "alloc errors" `Quick test_alloc_errors ] );
      ( "machine",
        [ Alcotest.test_case "single thread" `Quick test_machine_single_thread;
          Alcotest.test_case "program order" `Quick test_machine_program_order;
          Alcotest.test_case "rmw atomic" `Quick test_machine_rmw_atomic;
          Alcotest.test_case "lock mutual exclusion" `Quick
            test_machine_lock_mutual_exclusion;
          Alcotest.test_case "lock fifo" `Quick test_machine_lock_fifo;
          Alcotest.test_case "unlock not owner" `Quick
            test_machine_unlock_not_owner;
          Alcotest.test_case "deadlock" `Quick test_machine_deadlock;
          Alcotest.test_case "bytes roundtrip" `Quick
            test_machine_bytes_roundtrip;
          Alcotest.test_case "barrier events" `Quick test_machine_barrier_events;
          Alcotest.test_case "malloc op" `Quick test_machine_malloc_op;
          Alcotest.test_case "interleavings differ" `Quick
            test_machine_interleaving_differs;
          Alcotest.test_case "self" `Quick test_machine_self;
          Alcotest.test_case "two phases" `Quick test_machine_two_phases;
          Alcotest.test_case "config names" `Quick test_machine_config_names
        ] );
      ( "trace",
        [ Alcotest.test_case "serialization" `Quick test_trace_serialization ] )
    ]
