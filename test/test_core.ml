(* Tests for the persistency core: levels, configs, DAGs, the timing
   engine (hand-computed expectations per model), the persist graph,
   the recovery observer, and oracle-verified random traces. *)

module P = Persistency
module E = Memsim.Event

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Tiny trace DSL.  Persistent addresses are small; volatile addresses
   live above the volatile base. *)
let vb = Memsim.Addr.volatile_base

let access kind ?(tid = 0) ?(value = 1L) ?(size = 8) addr =
  E.Access
    (kind, { tid; addr; size; value; space = Memsim.Addr.space_of addr })

let st ?tid ?value ?size addr = access E.Store ?tid ?value ?size addr
let ld ?tid ?value addr = access E.Load ?tid ?value addr
let rmw ?tid ?value addr = access E.Rmw ?tid ?value addr
let pb tid = E.Persist_barrier tid
let ns tid = E.New_strand tid

let engine_of ?(cfg = P.Config.default P.Config.Epoch) events =
  let e = P.Engine.create cfg in
  List.iter (P.Engine.observe e) events;
  e

let cp ?cfg events = P.Engine.critical_path (engine_of ?cfg events)
let ops ?cfg events = P.Engine.persist_ops (engine_of ?cfg events)

let cfg mode = P.Config.default mode
let strict = cfg P.Config.Strict
let epoch = cfg P.Config.Epoch
let strand = cfg P.Config.Strand

(* Level *)

let test_level_merge () =
  let a = P.Level.of_node ~level:3 ~node:7 in
  let b = P.Level.of_node ~level:5 ~node:9 in
  checki "higher wins" 5 (P.Level.level (P.Level.merge a b));
  Alcotest.(check (list int)) "provenance of winner" [ 9 ]
    (P.Level.provenance (P.Level.merge a b));
  let c = P.Level.of_node ~level:5 ~node:11 in
  Alcotest.(check (list int)) "equal levels union" [ 9; 11 ]
    (P.Level.provenance (P.Level.merge b c));
  checki "bottom is identity" 3
    (P.Level.level (P.Level.merge a P.Level.bottom))

let test_level_excluding () =
  let open P.Level in
  let s1 = of_node ~level:4 ~node:1 in
  let s2 = of_node ~level:2 ~node:2 in
  checki "excludes own node" 2 (excluding ~node:1 [ s1; s2 ]);
  checki "keeps other nodes" 4 (excluding ~node:2 [ s1; s2 ]);
  checki "empty sources" 0 (excluding ~node:1 []);
  (* mixed provenance at the same level is never attributable *)
  let mixed = merge (of_node ~level:4 ~node:1) (of_node ~level:4 ~node:3) in
  checki "mixed counts" 4 (excluding ~node:1 [ mixed ])

let test_level_provenance_cap () =
  let big =
    List.fold_left
      (fun acc i -> P.Level.merge acc (P.Level.of_node ~level:1 ~node:i))
      P.Level.bottom
      (List.init (P.Level.max_provenance + 5) (fun i -> i))
  in
  Alcotest.(check (list int)) "cap degrades to unknown" []
    (P.Level.provenance big);
  checki "level kept" 1 (P.Level.level big)

(* Config *)

let test_config_validation () =
  Alcotest.match_raises "tracking gran too small"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (P.Config.make ~track_gran:4 P.Config.Epoch));
  Alcotest.match_raises "non power of two"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (P.Config.make ~persist_gran:24 P.Config.Epoch))

let test_config_names () =
  List.iter
    (fun mode ->
      checkb "name roundtrip" true
        (P.Config.mode_of_name (P.Config.mode_name mode) = Some mode))
    P.Config.all_modes;
  checkb "unknown name" true (P.Config.mode_of_name "bogus" = None)

(* Dag *)

let diamond () =
  let g = P.Dag.create ~n:4 in
  P.Dag.add_edge g 0 1;
  P.Dag.add_edge g 0 2;
  P.Dag.add_edge g 1 3;
  P.Dag.add_edge g 2 3;
  g

let test_dag_topo () =
  let g = diamond () in
  checkb "acyclic" false (P.Dag.has_cycle g);
  (match P.Dag.topo_sort g with
  | None -> Alcotest.fail "expected topo order"
  | Some order ->
    let pos = Array.make 4 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    checkb "0 before 1" true (pos.(0) < pos.(1));
    checkb "1 before 3" true (pos.(1) < pos.(3));
    checkb "2 before 3" true (pos.(2) < pos.(3)));
  let c = P.Dag.create ~n:2 in
  P.Dag.add_edge c 0 1;
  P.Dag.add_edge c 1 0;
  checkb "cycle" true (P.Dag.has_cycle c);
  checkb "no topo for cycle" true (P.Dag.topo_sort c = None)

let test_dag_reach_ancestors () =
  let g = diamond () in
  let r = P.Dag.reachable_from g 1 in
  checkb "1 reaches 3" true r.(3);
  checkb "1 not 2" false r.(2);
  checkb "reflexive" true r.(1);
  checkb "ancestors of 3" true
    (P.Iset.equal (P.Dag.ancestors g 3) (P.Iset.of_list [ 0; 1; 2 ]));
  checkb "ancestors of 0 empty" true (P.Iset.is_empty (P.Dag.ancestors g 0))

let test_dag_down_closed () =
  let g = diamond () in
  checkb "closed set" true (P.Dag.is_down_closed g (P.Iset.of_list [ 0; 1 ]));
  checkb "not closed" false (P.Dag.is_down_closed g (P.Iset.of_list [ 1 ]));
  checkb "closure" true
    (P.Iset.equal
       (P.Dag.down_closure g (P.Iset.singleton 3))
       (P.Iset.of_list [ 0; 1; 2; 3 ]));
  checki "all cuts of diamond" 6 (List.length (P.Dag.all_down_closed g))

let test_dag_random_down_closed () =
  let g = diamond () in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let s = P.Dag.random_down_closed g rng in
    checkb "random cut is legal" true (P.Dag.is_down_closed g s)
  done;
  let s = P.Dag.random_down_closed ~size:2 g rng in
  checki "size honored" 2 (P.Iset.cardinal s)

let test_dag_too_big () =
  Alcotest.match_raises "all_down_closed bound"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (P.Dag.all_down_closed (P.Dag.create ~n:25)))

(* Engine: strict persistency *)

let test_strict_serializes () =
  checki "two addresses chain" 2 (cp ~cfg:strict [ st 8; st 16 ]);
  checki "three chain" 3 (cp ~cfg:strict [ st 8; st 16; st 24 ]);
  checki "loads order too" 3 (cp ~cfg:strict [ st 8; ld 8; st 16; st 24 ])

let test_strict_same_address_coalesces () =
  checki "repeated store coalesces" 1 (cp ~cfg:strict [ st 8; st 8; st 8 ]);
  checki "one atomic persist" 1 (ops ~cfg:strict [ st 8; st 8; st 8 ]);
  (* an intervening persist to another address breaks coalescing *)
  checki "interleaved" 3 (cp ~cfg:strict [ st 8; st 16; st 8 ])

let test_strict_threads_concurrent () =
  (* independent threads persist concurrently even under strict *)
  checki "two threads" 1 (cp ~cfg:strict [ st ~tid:0 8; st ~tid:1 16 ]);
  checki "per thread chains" 2
    (cp ~cfg:strict [ st ~tid:0 8; st ~tid:1 16; st ~tid:0 24; st ~tid:1 32 ])

let test_strict_conflict_orders_threads () =
  (* a load of another thread's persisted data orders later persists *)
  checki "load-store ordering" 2
    (cp ~cfg:strict [ st ~tid:0 8; ld ~tid:1 8; st ~tid:1 16 ]);
  (* without the observing load the persists are concurrent *)
  checki "no conflict no order" 1 (cp ~cfg:strict [ st ~tid:0 8; st ~tid:1 16 ])

let test_strict_ignores_barriers () =
  checki "barrier is redundant" 2 (cp ~cfg:strict [ st 8; pb 0; st 16 ]);
  checki "new strand ignored" 2 (cp ~cfg:strict [ st 8; ns 0; st 16 ])

(* Engine: epoch persistency *)

let test_epoch_intra_epoch_concurrent () =
  checki "same epoch concurrent" 1 (cp ~cfg:epoch [ st 8; st 16; st 24 ]);
  checki "three atomic persists" 3 (ops ~cfg:epoch [ st 8; st 16; st 24 ])

let test_epoch_barrier_orders () =
  checki "barrier orders" 2 (cp ~cfg:epoch [ st 8; pb 0; st 16 ]);
  checki "epochs chain" 3 (cp ~cfg:epoch [ st 8; pb 0; st 16; pb 0; st 24 ]);
  checki "barrier also orders via loads" 2
    (cp ~cfg:epoch [ st ~tid:0 8; ld ~tid:1 8; pb 1; st ~tid:1 16 ])

let test_epoch_load_without_barrier () =
  (* rule 2 orders the load after the persist, but without a barrier
     the loading thread's next persist is unordered *)
  checki "no barrier no order" 1
    (cp ~cfg:epoch [ st ~tid:0 8; ld ~tid:1 8; st ~tid:1 16 ])

let test_epoch_strong_persist_atomicity () =
  (* same-address persists are always ordered, even across racing
     epochs; coalescing keeps the critical path at 1 *)
  checki "same address coalesces" 1 (cp ~cfg:epoch [ st ~tid:0 8; st ~tid:1 8 ]);
  checki "single node" 1 (ops ~cfg:epoch [ st ~tid:0 8; st ~tid:1 8 ]);
  (* when the second writer has observed more, it cannot coalesce *)
  checki "ordered chain" 2
    (cp ~cfg:epoch [ st ~tid:0 8; st ~tid:1 16; pb 1; st ~tid:1 8 ])

let test_epoch_volatile_conflicts_order () =
  (* lock-style publication through a volatile word orders persists
     across threads: the paper's conservative epoch placement *)
  checki "volatile handoff orders" 2
    (cp ~cfg:epoch
       [ st ~tid:0 8; pb 0; st ~tid:0 (vb + 8); ld ~tid:1 (vb + 8); pb 1;
         st ~tid:1 16 ])

let test_epoch_rmw_conflicts () =
  (* RMW acts as both load and store for conflict propagation *)
  checki "rmw observes" 2
    (cp ~cfg:epoch
       [ st ~tid:0 8; pb 0; rmw ~tid:0 (vb + 8); rmw ~tid:1 (vb + 8); pb 1;
         st ~tid:1 16 ])

let test_epoch_closed_node_no_coalesce () =
  (* once a persist depends on node A, A accepts no more writes *)
  checki "open coalesces" 1 (cp ~cfg:epoch [ st ~tid:0 8; st ~tid:1 8 ]);
  checki "closed after dependent" 2
    (cp ~cfg:epoch [ st ~tid:0 8; pb 0; st ~tid:0 16; st ~tid:1 8 ]);
  checki "two nodes on the address" 3
    (ops ~cfg:epoch [ st ~tid:0 8; pb 0; st ~tid:0 16; st ~tid:1 8 ])

(* Engine: strand persistency *)

let test_strand_new_strand_clears () =
  checki "barrier orders within strand" 2 (cp ~cfg:strand [ st 8; pb 0; st 16 ]);
  checki "new strand clears" 1 (cp ~cfg:strand [ st 8; ns 0; pb 0; st 16 ]);
  checki "strands are like threads" 1
    (cp ~cfg:strand [ st 8; pb 0; ns 0; st 16 ])

let test_strand_atomicity_still_orders () =
  (* reading a persisted location then barriering orders the strand
     after it: the paper's minimal-ordering idiom *)
  checki "read-barrier idiom" 2
    (cp ~cfg:strand [ st 8; ns 0; ld 8; pb 0; st 16 ]);
  checki "read without barrier does not order" 1
    (cp ~cfg:strand [ st 8; ns 0; ld 8; st 16 ])

let test_strand_epoch_equivalence_without_ns () =
  (* with no NewStrand events, strand persistency equals epoch *)
  let events = [ st 8; pb 0; st 16; st 24; pb 0; st 8 ] in
  checki "same critical path" (cp ~cfg:epoch events) (cp ~cfg:strand events);
  checki "same ops" (ops ~cfg:epoch events) (ops ~cfg:strand events)

(* Engine: strict persistency under relaxed consistency *)

let strict_tso = P.Config.make ~consistency:P.Config.Tso P.Config.Strict
let strict_rmo = P.Config.make ~consistency:P.Config.Rmo P.Config.Strict

let test_strict_tso_stores_serialize () =
  (* TSO does not relax store→store order: persists still chain *)
  checki "stores chain" 3 (cp ~cfg:strict_tso [ st 8; st 16; st 24 ]);
  checki "same as SC" (cp ~cfg:strict [ st 8; st 16; st 24 ])
    (cp ~cfg:strict_tso [ st 8; st 16; st 24 ])

let test_strict_tso_loads_drift () =
  (* a load may be reordered before an earlier store: it does not carry
     the store's persist level into a conflicting write *)
  let events = [ st ~tid:0 8; ld ~tid:0 16; st ~tid:1 16 ] in
  checki "sc orders via the load" 2 (cp ~cfg:strict events);
  checki "tso lets the load drift" 1 (cp ~cfg:strict_tso events);
  (* a fence restores the ordering *)
  let fenced = [ st ~tid:0 8; pb 0; ld ~tid:0 16; st ~tid:1 16 ] in
  checki "fence orders" 2 (cp ~cfg:strict_tso fenced);
  (* loads stay ordered with loads: ld -> ld -> conflicting store *)
  let ld_chain = [ st ~tid:0 8; ld ~tid:1 8; ld ~tid:1 16; st ~tid:2 16 ] in
  checki "ld-ld preserved" 2 (cp ~cfg:strict_tso ld_chain)

let test_strict_tso_rmw_ordered () =
  (* atomic RMWs do not drift *)
  let events = [ st ~tid:0 8; rmw ~tid:0 16; st ~tid:1 16 ] in
  checki "rmw carries order" 2 (cp ~cfg:strict_tso events)

let test_strict_rmo_reorders_persists () =
  (* under RMO, same-thread persists are concurrent up to fences — the
     paper's "many persists from the same thread in parallel" *)
  checki "concurrent" 1 (cp ~cfg:strict_rmo [ st 8; st 16; st 24 ]);
  checki "fence orders" 2 (cp ~cfg:strict_rmo [ st 8; pb 0; st 16 ]);
  (* same-address persists still serialize (coalesce) *)
  checki "atomicity" 1 (ops ~cfg:strict_rmo [ st 8; st 8 ])

let test_strict_rmo_equals_epoch_without_strands () =
  (* with fences at the same points as persist barriers, strict/RMO and
     epoch persistency impose the same persist order *)
  let events =
    [ st ~tid:0 8; st ~tid:0 16; pb 0; st ~tid:0 24; ld ~tid:1 24; pb 1;
      st ~tid:1 32 ]
  in
  checki "same critical path" (cp ~cfg:epoch events) (cp ~cfg:strict_rmo events);
  checki "same ops" (ops ~cfg:epoch events) (ops ~cfg:strict_rmo events)

(* Engine: ablation flags *)

let test_tso_misses_load_before_store () =
  let events = [ st ~tid:0 8; pb 0; ld ~tid:0 16; st ~tid:1 16 ] in
  (* SC: the load of 16 carries thread 0's persist level into the
     conflicting store *)
  checki "sc orders" 2 (cp ~cfg:epoch events);
  let tso = P.Config.make ~tso_conflicts:true P.Config.Epoch in
  checki "tso misses it" 1 (cp ~cfg:tso events)

let test_persistent_only_conflicts () =
  let events =
    [ st ~tid:0 8; pb 0; st ~tid:0 (vb + 8); ld ~tid:1 (vb + 8); pb 1;
      st ~tid:1 16 ]
  in
  checki "volatile conflict orders" 2 (cp ~cfg:epoch events);
  let ponly = P.Config.make ~persistent_only_conflicts:true P.Config.Epoch in
  checki "persistent-only misses it" 1 (cp ~cfg:ponly events)

let test_tracking_granularity_false_sharing () =
  let events = [ st ~tid:0 16; st ~tid:1 24 ] in
  checki "fine tracking: concurrent" 1 (cp events);
  let coarse = P.Config.make ~track_gran:16 P.Config.Epoch in
  (* 16 and 24 share a 16-byte tracked block but distinct atomic
     blocks: false sharing orders the second persist after the first *)
  checki "coarse tracking: ordered" 2 (cp ~cfg:coarse events)

let test_persist_granularity_coalescing () =
  let events = [ st 16; st 24 ] in
  checki "8B atomic: two persists" 2 (ops events);
  let coarse = P.Config.make ~persist_gran:16 P.Config.Epoch in
  checki "16B atomic: one persist" 1 (ops ~cfg:coarse events);
  checki "critical path 1 either way" 1 (cp ~cfg:coarse events)

let test_coalescing_disabled () =
  let nc = P.Config.make ~coalescing:false P.Config.Epoch in
  checki "chained same-address persists" 3 (cp ~cfg:nc [ st 8; st 8; st 8 ]);
  checki "three nodes" 3 (ops ~cfg:nc [ st 8; st 8; st 8 ]);
  checki "with coalescing: one" 1 (ops [ st 8; st 8; st 8 ])

let test_subword_persists_coalesce () =
  (* two 4-byte persists to halves of one 8-byte word form one atomic
     persist — the COPY tail pattern of the queue *)
  let events = [ st ~size:4 8; st ~size:4 12 ] in
  checki "coalesce within the word" 1 (ops events);
  checki "critical path" 1 (cp events);
  (* a 1-byte overwrite of a persisted byte also coalesces *)
  checki "byte overwrite" 1 (ops [ st 8; st ~size:1 8 ])

let test_subword_within_block_atomic () =
  (* graph: the coalesced word persist carries both writes and applies
     them in store order *)
  let c = P.Config.make ~record_graph:true P.Config.Epoch in
  let e = engine_of ~cfg:c [ st ~value:0x1111111122222222L 8; st ~size:4 ~value:0xAAAABBBBL 8 ] in
  let g = Option.get (P.Engine.graph e) in
  checki "one node" 1 (P.Persist_graph.node_count g);
  let image = P.Observer.final_image g ~capacity:16 in
  Alcotest.(check int64) "low half overwritten" 0x11111111AAAABBBBL
    (Bytes.get_int64_le image 8)

let test_cross_thread_strand_concurrency () =
  (* strands on different threads with disjoint data are all level 1 *)
  let events =
    [ st ~tid:0 8; ns 0; st ~tid:0 16; ns 0; st ~tid:0 24;
      st ~tid:1 32; ns 1; st ~tid:1 64 ]
  in
  checki "everything level 1" 1 (cp ~cfg:strand events)

let test_deep_epoch_chain () =
  (* k barrier-separated persists form a k-level chain *)
  let k = 50 in
  let events =
    List.concat (List.init k (fun i -> [ st (8 * (i + 1)); pb 0 ]))
  in
  checki "chain of k" k (cp ~cfg:epoch events)

(* Engine: counters and labels *)

let test_engine_counters () =
  let e =
    engine_of
      [ E.Label (0, "insert"); st 8; st 8; ld 8; E.Label (0, "insert"); st 16 ]
  in
  checki "events" 6 (P.Engine.events e);
  checki "persist events" 3 (P.Engine.persist_events e);
  checki "persist ops" 2 (P.Engine.persist_ops e);
  checki "coalesced" 1 (P.Engine.coalesced e);
  checki "labels" 2 (P.Engine.label_count e "insert");
  checki "missing label" 0 (P.Engine.label_count e "none");
  Alcotest.(check (float 0.001)) "cp per label" 0.5
    (P.Engine.cp_per_label e "insert");
  checkb "nan for missing" true (Float.is_nan (P.Engine.cp_per_label e "none"))

let test_engine_volatile_stores_not_persists () =
  let e = engine_of [ st (vb + 8); ld (vb + 8); rmw (vb + 16) ] in
  checki "no persists" 0 (P.Engine.persist_events e);
  checki "no critical path" 0 (P.Engine.critical_path e)

(* Persist graph *)

let graph_of gcfg events =
  let gcfg = { gcfg with P.Config.record_graph = true } in
  let e = engine_of ~cfg:gcfg events in
  (e, Option.get (P.Engine.graph e))

let test_graph_structure () =
  let _, g = graph_of epoch [ st 8; pb 0; st 16; st 8 ] in
  checki "nodes" 3 (P.Persist_graph.node_count g);
  let n1 = P.Persist_graph.get g 1 in
  checkb "16 depends on 8" true (P.Iset.mem 0 n1.P.Persist_graph.deps);
  let n2 = P.Persist_graph.get g 2 in
  checkb "second store to 8 is ordered" true (n2.P.Persist_graph.level >= 2)

let test_graph_coalesced_writes_merge () =
  let _, g = graph_of epoch [ st ~value:1L 8; st ~value:2L 8 ] in
  checki "one node" 1 (P.Persist_graph.node_count g);
  checki "two writes" 2
    (Memsim.Vec.length (P.Persist_graph.get g 0).P.Persist_graph.writes)

let test_graph_node_mapping () =
  let e, _ = graph_of epoch [ st 8; st 8; st 16 ] in
  checki "event 0 node" 0 (P.Engine.node_of_persist_event e 0);
  checki "event 1 coalesced into 0" 0 (P.Engine.node_of_persist_event e 1);
  checki "event 2 fresh" 1 (P.Engine.node_of_persist_event e 2)

(* Observer *)

let test_observer_cut_count () =
  let _, g = graph_of epoch [ st 8; st 16; pb 0; st 24 ] in
  (* nodes a,b concurrent; c after both: cuts {} {a} {b} {ab} {abc} *)
  checki "cut count" 5 (List.length (P.Observer.all_cuts g))

let test_observer_image () =
  (* the persist to 16 closes node 0, so the second store to 8 starts a
     fresh node ordered after it *)
  let _, g =
    graph_of epoch [ st ~value:1L 8; pb 0; st 16; st ~value:2L 8 ]
  in
  checki "three nodes" 3 (P.Persist_graph.node_count g);
  let full = P.Observer.final_image g ~capacity:32 in
  Alcotest.(check int64) "last writer wins" 2L (Bytes.get_int64_le full 8);
  let partial = P.Observer.image_of_cut g (P.Iset.singleton 0) ~capacity:32 in
  Alcotest.(check int64) "prefix value" 1L (Bytes.get_int64_le partial 8);
  (* a barriered same-address store may coalesce into its own
     antecedent: merging into the persist you depend on violates no
     happens-before constraint *)
  let _, g2 = graph_of epoch [ st ~value:1L 8; pb 0; st ~value:2L 8 ] in
  checki "coalesces across barrier" 1 (P.Persist_graph.node_count g2)

let test_observer_illegal_cut () =
  let _, g = graph_of epoch [ st 8; pb 0; st 16 ] in
  Alcotest.match_raises "illegal cut"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore (P.Observer.image_of_cut g (P.Iset.singleton 1) ~capacity:32))

let test_observer_out_of_range_cut () =
  let _, g = graph_of epoch [ st 8; pb 0; st 16 ] in
  let raises name cut msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (P.Observer.image_of_cut g cut ~capacity:32))
  in
  raises "negative id"
    (P.Iset.of_list [ -1; 0 ])
    "Observer.image_of_cut: node -1 is not in the graph (2 nodes)";
  raises "id past the end"
    (P.Iset.of_list [ 0; 1; 2 ])
    "Observer.image_of_cut: node 2 is not in the graph (2 nodes)";
  checkb "not legal" false (P.Observer.is_legal g (P.Iset.singleton 2))

let test_observer_invariant_checker () =
  let _, g = graph_of epoch [ st ~value:7L 8; pb 0; st ~value:1L 16 ] in
  (* invariant: flag at 16 implies payload at 8 *)
  let check_inv image =
    if
      Int64.equal (Bytes.get_int64_le image 16) 1L
      && not (Int64.equal (Bytes.get_int64_le image 8) 7L)
    then Error "flag without payload"
    else Ok ()
  in
  checkb "barrier protects" true
    (P.Observer.check_cut_invariant g check_inv ~capacity:32 ~samples:100
       ~seed:3
    = Ok ());
  let _, g2 = graph_of epoch [ st ~value:7L 8; st ~value:1L 16 ] in
  checkb "no barrier violates" true
    (P.Observer.check_cut_invariant g2 check_inv ~capacity:32 ~samples:200
       ~seed:3
    <> Ok ())

(* Oracle on hand traces *)

let test_oracle_verifies_hand_traces () =
  let traces =
    [ [ st 8; st 16; pb 0; st 24; st 8 ];
      [ st ~tid:0 8; ld ~tid:1 8; pb 1; st ~tid:1 16; st ~tid:0 24 ];
      [ st 8; ns 0; st 16; pb 0; st 8; rmw 32 ];
      [ rmw ~tid:0 (vb + 8); st ~tid:0 8; st ~tid:0 (vb + 8);
        rmw ~tid:1 (vb + 8); st ~tid:1 8; pb 1; st ~tid:1 16 ] ]
  in
  List.iter
    (fun events ->
      let trace = Memsim.Trace.of_list events in
      List.iter
        (fun mode ->
          match P.Oracle.verify_engine (cfg mode) trace with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "oracle rejects %s: %s" (P.Config.mode_name mode)
              msg)
        P.Config.all_modes)
    traces

(* Oracle on random traces (property-based) *)

let gen_trace =
  let open QCheck.Gen in
  let addr = oneofl [ 8; 16; 24; 32; 64; vb + 8; vb + 16 ] in
  let event =
    frequency
      [ ( 4,
          map2
            (fun tid a -> st ~tid ~value:(Int64.of_int a) a)
            (int_bound 2) addr );
        (3, map2 (fun tid a -> ld ~tid a) (int_bound 2) addr);
        (1, map2 (fun tid a -> rmw ~tid a) (int_bound 2) addr);
        (2, map (fun tid -> pb tid) (int_bound 2));
        (1, map (fun tid -> ns tid) (int_bound 2)) ]
  in
  list_size (int_range 5 60) event

let arbitrary_trace =
  QCheck.make gen_trace ~print:(fun evs ->
      String.concat "; " (List.map E.to_string evs))

let oracle_property mode flags =
  QCheck.Test.make ~count:120
    ~name:(Printf.sprintf "oracle verifies %s%s" (P.Config.mode_name mode) flags)
    arbitrary_trace
    (fun events ->
      let trace = Memsim.Trace.of_list events in
      let c =
        match flags with
        | " tso" -> P.Config.make ~tso_conflicts:true mode
        | " persistent-only" ->
          P.Config.make ~persistent_only_conflicts:true mode
        | " coarse" -> P.Config.make ~track_gran:16 ~persist_gran:32 mode
        | " no-coalesce" -> P.Config.make ~coalescing:false mode
        | " strict-tso" -> P.Config.make ~consistency:P.Config.Tso mode
        | " strict-rmo" -> P.Config.make ~consistency:P.Config.Rmo mode
        | _ -> P.Config.make mode
      in
      match P.Oracle.verify_engine c trace with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let qcheck_oracle_tests =
  List.concat_map
    (fun mode ->
      List.map
        (fun flags -> QCheck_alcotest.to_alcotest (oracle_property mode flags))
        [ ""; " tso"; " persistent-only"; " coarse"; " no-coalesce";
          " strict-tso"; " strict-rmo" ])
    P.Config.all_modes

let observer_cut_property =
  QCheck.Test.make ~count:80 ~name:"random cuts are down-closed"
    arbitrary_trace
    (fun events ->
      let c = P.Config.make ~record_graph:true P.Config.Epoch in
      let e = engine_of ~cfg:c events in
      match P.Engine.graph e with
      | None -> true
      | Some g ->
        let rng = Random.State.make [| 42 |] in
        let dag = P.Persist_graph.to_dag g in
        List.for_all
          (fun _ -> P.Dag.is_down_closed dag (P.Observer.random_cut g rng))
          (List.init 10 Fun.id))

(* Crash states against reference copies of the code they replaced:
   the 2^n mask scan, in-degrees recounted per sample, legality through
   the whole-graph DAG, and the image as a filtered walk over every
   node.  Cuts, their order, rng streams and images must all match. *)
module Ref = struct
  let down_closed g set =
    P.Iset.for_all
      (fun v -> List.for_all (fun u -> P.Iset.mem u set) (P.Dag.preds g v))
      set

  let all_down_closed g =
    let n = P.Dag.node_count g in
    let result = ref [] in
    for mask = 0 to (1 lsl n) - 1 do
      let set = ref P.Iset.empty in
      for v = 0 to n - 1 do
        if mask land (1 lsl v) <> 0 then set := P.Iset.add v !set
      done;
      if down_closed g !set then result := !set :: !result
    done;
    !result

  let random_down_closed ?size g rng =
    let n = P.Dag.node_count g in
    let target =
      match size with
      | Some k -> min k n
      | None -> Random.State.int rng (n + 1)
    in
    let indeg = Array.init n (fun v -> List.length (P.Dag.preds g v)) in
    let ready = Memsim.Vec.create () in
    Array.iteri (fun v d -> if d = 0 then Memsim.Vec.push ready v) indeg;
    let taken = ref P.Iset.empty in
    let count = ref 0 in
    while !count < target && not (Memsim.Vec.is_empty ready) do
      let i = Random.State.int rng (Memsim.Vec.length ready) in
      let v = Memsim.Vec.swap_remove ready i in
      taken := P.Iset.add v !taken;
      incr count;
      List.iter
        (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then Memsim.Vec.push ready w)
        (P.Dag.succs g v)
    done;
    !taken

  let is_legal g cut = P.Dag.is_down_closed (P.Persist_graph.to_dag g) cut

  let apply_write image (w : P.Persist_graph.write) =
    if w.addr + w.size <= Bytes.length image then
      match w.size with
      | 8 -> Bytes.set_int64_le image w.addr w.value
      | 4 -> Bytes.set_int32_le image w.addr (Int64.to_int32 w.value)
      | 2 -> Bytes.set_uint16_le image w.addr (Int64.to_int w.value land 0xffff)
      | 1 -> Bytes.set_uint8 image w.addr (Int64.to_int w.value land 0xff)
      | _ -> invalid_arg "bad write size"

  let image_of_cut g cut ~capacity =
    let image = Bytes.make capacity '\000' in
    P.Persist_graph.iter
      (fun n ->
        if P.Iset.mem n.P.Persist_graph.id cut then
          Memsim.Vec.iter (apply_write image) n.P.Persist_graph.writes)
      g;
    image
end

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A random DAG whose ids are a random permutation of a topological
   order, with some edges added twice; [cyclic] adds back edges too. *)
let random_dag ?(cyclic = false) rng ~n =
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let density = Random.State.float rng 0.6 in
  let g = P.Dag.create ~n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if (i < j || (cyclic && i <> j && Random.State.int rng 8 = 0))
         && Random.State.float rng 1.0 < density
      then begin
        P.Dag.add_edge g perm.(i) perm.(j);
        if Random.State.bool rng then P.Dag.add_edge g perm.(i) perm.(j)
      end
    done
  done;
  g

let random_set rng n =
  let s = ref P.Iset.empty in
  for v = 0 to n - 1 do
    if Random.State.bool rng then s := P.Iset.add v !s
  done;
  !s

let check_cut_lists name expected got =
  checki (name ^ ": count") (List.length expected) (List.length got);
  checkb (name ^ ": same cuts, same order") true
    (List.equal P.Iset.equal expected got)

let test_all_down_closed_matches_scan () =
  let rng = Random.State.make [| 13 |] in
  for i = 1 to 600 do
    let n = Random.State.int rng 13 in
    let g = random_dag ~cyclic:(i mod 5 = 0) rng ~n in
    check_cut_lists
      (Printf.sprintf "graph %d (%d nodes)" i n)
      (Ref.all_down_closed g) (P.Dag.all_down_closed g)
  done;
  let chain = P.Dag.create ~n:20 in
  for v = 1 to 19 do
    P.Dag.add_edge chain (v - 1) v
  done;
  checki "20-node chain" 21 (List.length (P.Dag.all_down_closed chain))

(* The persist graph of one run of a litmus program, recorded with the
   engine configuration [Litmus.check] uses for that machine. *)
let litmus_graph (t : Litmus.test) (config : Litmus.mconfig) policy =
  let module M = Memsim.Machine in
  let memory = Memsim.Memory.create ~persistent_capacity:1024 () in
  let machine =
    M.create ~policy ~model:config.M.model ~persistence:config.M.persistence
      ~memory ()
  in
  let engine =
    P.Engine.create
      (match config.M.persistence with
      | M.Psync -> Litmus.default_cfg
      | M.Pbuffered -> Litmus.buffered_cfg)
  in
  M.set_sink machine (P.Engine.observe engine);
  let addrs =
    List.map
      (fun v -> (v, Memsim.Memory.alloc memory Memsim.Addr.Persistent 8))
      t.Litmus.vars
  in
  let vaddr v = List.assoc v addrs in
  let regs = Hashtbl.create 8 in
  List.iteri
    (fun tid instrs ->
      ignore (M.spawn machine (Litmus.exec_thread regs vaddr tid instrs)))
    t.Litmus.threads;
  M.run machine;
  Option.get (P.Engine.graph engine)

let litmus_graphs () =
  List.concat_map
    (fun (t : Litmus.test) ->
      List.concat_map
        (fun config ->
          List.map
            (fun policy -> (t.Litmus.name, litmus_graph t config policy))
            Memsim.Machine.[ Round_robin; Random 1; Random 2; Random 3 ])
        Litmus.all_configs)
    Litmus.suite

let test_litmus_cuts_match_scan () =
  List.iter
    (fun (name, g) ->
      check_cut_lists name
        (Ref.all_down_closed (P.Persist_graph.to_dag g))
        (P.Observer.all_cuts g);
      List.iter
        (fun cut ->
          checkb (name ^ ": image") true
            (Bytes.equal
               (Ref.image_of_cut g cut ~capacity:64)
               (P.Observer.image_of_cut g cut ~capacity:64)))
        (P.Observer.all_cuts g))
    (litmus_graphs ())

let test_random_down_closed_same_stream () =
  let rng = Random.State.make [| 17 |] in
  for i = 1 to 300 do
    let g = random_dag ~cyclic:(i mod 7 = 0) rng ~n:(Random.State.int rng 40) in
    let seed = Random.State.bits rng in
    let a = Random.State.make [| seed |] and b = Random.State.make [| seed |] in
    for k = 1 to 20 do
      let size = if k mod 4 = 0 then Some (Random.State.int rng 45) else None in
      checkb
        (Printf.sprintf "graph %d sample %d" i k)
        true
        (P.Iset.equal
           (Ref.random_down_closed ?size g a)
           (P.Dag.random_down_closed ?size g b))
    done;
    checki "streams in step" (Random.State.bits a) (Random.State.bits b)
  done

(* A persist graph built directly: fresh nodes depend on earlier ones,
   then coalescing merges later dependences into earlier nodes, so ids
   stop being a topological order (and may form cycles). *)
let random_persist_graph rng ~n =
  let g = P.Persist_graph.create () in
  let subset bound p =
    let s = ref P.Iset.empty in
    for v = 0 to bound - 1 do
      if Random.State.float rng 1.0 < p then s := P.Iset.add v !s
    done;
    !s
  in
  let write () =
    { P.Persist_graph.addr = 4 * Random.State.int rng 16;
      size = List.nth [ 1; 2; 4; 8 ] (Random.State.int rng 4);
      value = Random.State.int64 rng Int64.max_int }
  in
  for id = 0 to n - 1 do
    ignore
      (P.Persist_graph.add_node g ~tid:0 ~level:0 ~deps:(subset id 0.2)
         ~order:(subset id 0.05) (write ()))
  done;
  if n > 0 then
    for _ = 1 to Random.State.int rng 4 do
      P.Persist_graph.coalesce_into g (Random.State.int rng n)
        ~deps:(subset n 0.05) ~order:(subset n 0.02) (write ())
    done;
  g

let test_observer_matches_reference () =
  let rng = Random.State.make [| 19 |] in
  for i = 1 to 400 do
    let n = Random.State.int rng 30 in
    let g = random_persist_graph rng ~n in
    let dag = P.Persist_graph.to_dag g in
    for k = 1 to 10 do
      let closed = P.Dag.down_closure dag (random_set rng n) in
      let arbitrary = random_set rng n in
      let name = Printf.sprintf "graph %d set %d" i k in
      checkb (name ^ ": closed set legal") (Ref.is_legal g closed)
        (P.Observer.is_legal g closed);
      checkb (name ^ ": arbitrary set") (Ref.is_legal g arbitrary)
        (P.Observer.is_legal g arbitrary);
      let capacity = 48 + Random.State.int rng 24 in
      checkb (name ^ ": image") true
        (Bytes.equal
           (Ref.image_of_cut g closed ~capacity)
           (P.Observer.image_of_cut g closed ~capacity))
    done
  done

let engine_determinism_property =
  QCheck.Test.make ~count:60 ~name:"engine is deterministic" arbitrary_trace
    (fun events ->
      let run () =
        let e = engine_of ~cfg:(P.Config.make P.Config.Strand) events in
        (P.Engine.critical_path e, P.Engine.persist_ops e)
      in
      run () = run ())

let counters_property =
  QCheck.Test.make ~count:60 ~name:"persist counters are consistent"
    arbitrary_trace
    (fun events ->
      List.for_all
        (fun mode ->
          let e = engine_of ~cfg:(cfg mode) events in
          let persists = P.Engine.persist_events e in
          let op_count = P.Engine.persist_ops e in
          op_count + P.Engine.coalesced e = persists
          && op_count <= persists
          && (persists = 0) = (P.Engine.critical_path e = 0)
          && P.Engine.critical_path e <= persists)
        P.Config.all_modes)

let () =
  Alcotest.run "persistency-core"
    [ ( "level",
        [ Alcotest.test_case "merge" `Quick test_level_merge;
          Alcotest.test_case "excluding" `Quick test_level_excluding;
          Alcotest.test_case "provenance cap" `Quick test_level_provenance_cap
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "names" `Quick test_config_names ] );
      ( "dag",
        [ Alcotest.test_case "topo" `Quick test_dag_topo;
          Alcotest.test_case "reach/ancestors" `Quick test_dag_reach_ancestors;
          Alcotest.test_case "down closed" `Quick test_dag_down_closed;
          Alcotest.test_case "random down closed" `Quick
            test_dag_random_down_closed;
          Alcotest.test_case "size bound" `Quick test_dag_too_big ] );
      ( "engine-strict",
        [ Alcotest.test_case "serializes" `Quick test_strict_serializes;
          Alcotest.test_case "same-address coalescing" `Quick
            test_strict_same_address_coalesces;
          Alcotest.test_case "thread concurrency" `Quick
            test_strict_threads_concurrent;
          Alcotest.test_case "conflicts order threads" `Quick
            test_strict_conflict_orders_threads;
          Alcotest.test_case "ignores barriers" `Quick
            test_strict_ignores_barriers ] );
      ( "engine-epoch",
        [ Alcotest.test_case "intra-epoch concurrency" `Quick
            test_epoch_intra_epoch_concurrent;
          Alcotest.test_case "barrier orders" `Quick test_epoch_barrier_orders;
          Alcotest.test_case "load without barrier" `Quick
            test_epoch_load_without_barrier;
          Alcotest.test_case "strong persist atomicity" `Quick
            test_epoch_strong_persist_atomicity;
          Alcotest.test_case "volatile conflicts" `Quick
            test_epoch_volatile_conflicts_order;
          Alcotest.test_case "rmw conflicts" `Quick test_epoch_rmw_conflicts;
          Alcotest.test_case "closed nodes" `Quick
            test_epoch_closed_node_no_coalesce ] );
      ( "engine-strict-relaxed",
        [ Alcotest.test_case "tso stores serialize" `Quick
            test_strict_tso_stores_serialize;
          Alcotest.test_case "tso loads drift" `Quick
            test_strict_tso_loads_drift;
          Alcotest.test_case "tso rmw ordered" `Quick
            test_strict_tso_rmw_ordered;
          Alcotest.test_case "rmo reorders persists" `Quick
            test_strict_rmo_reorders_persists;
          Alcotest.test_case "rmo equals epoch" `Quick
            test_strict_rmo_equals_epoch_without_strands ] );
      ( "engine-strand",
        [ Alcotest.test_case "new strand clears" `Quick
            test_strand_new_strand_clears;
          Alcotest.test_case "atomicity orders strands" `Quick
            test_strand_atomicity_still_orders;
          Alcotest.test_case "equals epoch without NS" `Quick
            test_strand_epoch_equivalence_without_ns ] );
      ( "engine-ablation",
        [ Alcotest.test_case "tso misses load-store" `Quick
            test_tso_misses_load_before_store;
          Alcotest.test_case "persistent-only conflicts" `Quick
            test_persistent_only_conflicts;
          Alcotest.test_case "tracking granularity" `Quick
            test_tracking_granularity_false_sharing;
          Alcotest.test_case "persist granularity" `Quick
            test_persist_granularity_coalescing;
          Alcotest.test_case "coalescing disabled" `Quick
            test_coalescing_disabled ] );
      ( "engine-misc",
        [ Alcotest.test_case "sub-word coalescing" `Quick
            test_subword_persists_coalesce;
          Alcotest.test_case "sub-word atomicity" `Quick
            test_subword_within_block_atomic;
          Alcotest.test_case "cross-thread strands" `Quick
            test_cross_thread_strand_concurrency;
          Alcotest.test_case "deep epoch chain" `Quick test_deep_epoch_chain;
          Alcotest.test_case "counters" `Quick test_engine_counters;
          Alcotest.test_case "volatile not persists" `Quick
            test_engine_volatile_stores_not_persists ] );
      ( "graph",
        [ Alcotest.test_case "structure" `Quick test_graph_structure;
          Alcotest.test_case "coalesced writes" `Quick
            test_graph_coalesced_writes_merge;
          Alcotest.test_case "node mapping" `Quick test_graph_node_mapping ] );
      ( "observer",
        [ Alcotest.test_case "cut count" `Quick test_observer_cut_count;
          Alcotest.test_case "images" `Quick test_observer_image;
          Alcotest.test_case "illegal cut" `Quick test_observer_illegal_cut;
          Alcotest.test_case "out-of-range cut" `Quick
            test_observer_out_of_range_cut;
          Alcotest.test_case "invariant checker" `Quick
            test_observer_invariant_checker ] );
      ( "crash-state-reference",
        [ Alcotest.test_case "all_down_closed = mask scan" `Quick
            test_all_down_closed_matches_scan;
          Alcotest.test_case "litmus cuts = mask scan" `Quick
            test_litmus_cuts_match_scan;
          Alcotest.test_case "random_down_closed stream" `Quick
            test_random_down_closed_same_stream;
          Alcotest.test_case "is_legal and images" `Quick
            test_observer_matches_reference ] );
      ( "oracle",
        Alcotest.test_case "hand traces" `Quick test_oracle_verifies_hand_traces
        :: qcheck_oracle_tests
        @ [ QCheck_alcotest.to_alcotest observer_cut_property;
            QCheck_alcotest.to_alcotest engine_determinism_property;
            QCheck_alcotest.to_alcotest counters_property ] ) ]
