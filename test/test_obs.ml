(* The observability layer: JSON round-trips, the metrics registry
   (bucketing, disabled-mode no-ops, engine counters vs the registry
   dump), the span tracer (balanced, well-formed Chrome trace JSON) and
   the persist-graph inspectors (critical chain vs engine critical
   path, DOT/JSONL shape, the --explain walk). *)

module J = Obs.Json
module M = Obs.Metrics
module P = Persistency

let parse s =
  match J.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "JSON parse error: %s\nin: %s" msg s

let member name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON field %S in %s" name (J.to_string j)

(* Json *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.Int 42); ("b", J.Float 1.5); ("s", J.Str "x\"y\n");
        ("l", J.List [ J.Null; J.Bool true; J.Bool false ]);
        ("neg", J.Int (-7)) ]
  in
  Alcotest.(check bool) "round-trips" true (parse (J.to_string v) = v);
  (match J.of_string "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match J.of_string "[1, 2.0, -3e2]" with
  | Ok (J.List [ J.Int 1; J.Float 2.0; J.Float -300. ]) -> ()
  | other ->
    Alcotest.failf "number parsing: %s"
      (match other with Ok v -> J.to_string v | Error e -> e)

(* Metrics *)

let test_counter_and_gauge () =
  let r = M.create () in
  M.set_enabled r true;
  let c = M.counter r "c" in
  let g = M.gauge_max r "g" in
  M.incr c;
  M.add c 4;
  M.observe_max g 2.5;
  M.observe_max g 1.0;
  Alcotest.(check int) "counter" 5 (M.counter_value c);
  Alcotest.(check (float 0.)) "gauge keeps max" 2.5 (M.gauge_value g);
  Alcotest.(check bool) "same name, same instrument" true
    (M.counter_value (M.counter r "c") = 5);
  (match M.gauge_max r "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "type clash accepted");
  M.reset r;
  Alcotest.(check int) "reset zeroes counters" 0 (M.counter_value c);
  Alcotest.(check (float 0.)) "reset zeroes gauges" 0. (M.gauge_value g)

let test_histogram_bucketing () =
  let r = M.create () in
  M.set_enabled r true;
  let h = M.histogram r "h" ~buckets:[| 1.; 2.; 4. |] in
  List.iter (M.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 100.0 ];
  Alcotest.(check int) "count" 7 (M.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 112.0 (M.histogram_sum h);
  Alcotest.(check (list (pair (float 0.) int)))
    "inclusive upper bounds, overflow last"
    [ (1., 2); (2., 2); (4., 2); (infinity, 1) ]
    (M.histogram_buckets h);
  (match M.histogram r "bad" ~buckets:[| 2.; 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-ascending buckets accepted");
  match M.histogram r "h" ~buckets:[| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bucket mismatch accepted"

let test_disabled_is_noop () =
  let r = M.create () in
  let c = M.counter r "c" in
  let g = M.gauge_max r "g" in
  let h = M.histogram r "h" ~buckets:[| 1. |] in
  M.incr c;
  M.add c 10;
  M.observe_max g 5.;
  M.observe h 0.5;
  Alcotest.(check int) "counter untouched" 0 (M.counter_value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (M.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (M.histogram_count h);
  (* enabling later starts counting *)
  M.set_enabled r true;
  M.incr c;
  Alcotest.(check int) "counts once enabled" 1 (M.counter_value c)

let test_pow2_buckets () =
  Alcotest.(check (list (float 0.)))
    "1, 2, 4, 8" [ 1.; 2.; 4.; 8. ]
    (Array.to_list (M.pow2_buckets 4))

(* Engine counters vs the registry dump.  The default registry is
   process-wide state shared with every other test in this executable,
   so reset it around the check. *)

let find_metric dump name =
  let metrics =
    match member "metrics" dump with
    | J.List l -> l
    | _ -> Alcotest.fail "\"metrics\" is not a list"
  in
  match
    List.find_opt
      (fun m -> match J.member "name" m with
        | Some (J.Str n) -> n = name
        | _ -> false)
      metrics
  with
  | Some m -> m
  | None -> Alcotest.failf "metric %S not in dump" name

let metric_value dump name =
  match J.to_float (member "value" (find_metric dump name)) with
  | Some v -> v
  | None -> Alcotest.failf "metric %S has no numeric value" name

let test_metrics_dump_matches_engine () =
  M.reset M.default;
  M.set_enabled M.default true;
  let engine, inserts =
    Fun.protect
      ~finally:(fun () -> M.set_enabled M.default false)
      (fun () ->
        let params =
          Experiments.Run.queue_params ~threads:2 ~total_inserts:200
            Experiments.Run.epoch_point
        in
        let trace = Memsim.Trace.create () in
        let result =
          Workloads.Queue.run params ~sink:(Memsim.Trace.sink trace)
        in
        let engine = P.Engine.create (P.Config.make P.Config.Epoch) in
        P.Engine.observe_trace engine trace;
        (engine, result.Workloads.Queue.inserts))
  in
  let dump = parse (J.to_string (M.to_json M.default)) in
  let check name expected =
    Alcotest.(check (float 0.)) name (float_of_int expected)
      (metric_value dump name)
  in
  check "engine.events" (P.Engine.events engine);
  check "engine.persist_events" (P.Engine.persist_events engine);
  check "engine.persist_ops" (P.Engine.persist_ops engine);
  check "engine.coalesced" (P.Engine.coalesced engine);
  check "engine.critical_path_max" (P.Engine.critical_path engine);
  (* histograms are present and populated *)
  let level = find_metric dump "engine.persist_level" in
  (match J.to_float (member "count" level) with
  | Some c when c > 0. -> ()
  | _ -> Alcotest.fail "engine.persist_level has no observations");
  (* the workload layer registered too *)
  check "workload.queue.inserts" inserts

let test_kv_and_recovery_metrics () =
  M.reset M.default;
  let params =
    Experiments.Kv_exp.kv_params ~threads:2 ~total_ops:16 P.Config.Epoch
  in
  (* disabled: the instrumented run must leave the registry untouched *)
  let disabled_run = Kv.run params ~sink:ignore in
  let counter name = M.counter_value (M.counter M.default name) in
  Alcotest.(check int) "disabled: puts untouched" 0 (counter "workload.kv.puts");
  Alcotest.(check int) "disabled: probes untouched" 0
    (counter "workload.kv.probes");
  (* enabled: one analyzed run plus one sampled recovery check *)
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default false)
    (fun () ->
      let _, graph, layout =
        Experiments.Kv_exp.analyze_with_graph params
          (P.Config.make P.Config.Epoch)
      in
      (match
         Kv_recovery.verify ~params ~layout ~graph
           ~strategy:(Recovery.Sampled { samples = 20; seed = 1 })
       with
      | Ok _ -> ()
      | Error f -> Alcotest.fail (Recovery.render_failure f));
      Alcotest.(check int) "puts counted" disabled_run.Kv.puts
        (counter "workload.kv.puts");
      Alcotest.(check int) "gets counted" disabled_run.Kv.gets
        (counter "workload.kv.gets");
      Alcotest.(check int) "probes counted" disabled_run.Kv.probes
        (counter "workload.kv.probes");
      Alcotest.(check int) "one log append per put" disabled_run.Kv.puts
        (counter "workload.kv.log_appends");
      Alcotest.(check int) "one recovery check" 1 (counter "recovery.checks");
      Alcotest.(check int) "every sampled prefix counted" 20
        (counter "recovery.prefixes");
      Alcotest.(check int) "no violations" 0 (counter "recovery.violations");
      let dump = parse (J.to_string (M.to_json M.default)) in
      match J.to_float (member "count" (find_metric dump "workload.kv.probe_len")) with
      | Some c when c > 0. -> ()
      | _ -> Alcotest.fail "workload.kv.probe_len has no observations")

(* The TSO machine's store-buffer instruments: drains, flushes, fences
   and the occupancy histogram must register under the expected names,
   count a real run's activity, and stay untouched (zero-cost path)
   while the registry is disabled. *)
let test_machine_tso_metrics () =
  M.reset M.default;
  let sb_run () =
    let memory = Memsim.Memory.create () in
    let machine =
      Memsim.Machine.create ~model:Memsim.Machine.Tso ~memory ()
    in
    Memsim.Machine.set_sink machine ignore;
    let x = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
    let y = Memsim.Memory.alloc memory Memsim.Addr.Persistent 8 in
    ignore
      (Memsim.Machine.spawn machine (fun () ->
           Memsim.Machine.store x 1L;
           Memsim.Machine.store x 2L;
           Memsim.Machine.clflushopt x;
           Memsim.Machine.sfence ();
           Memsim.Machine.store y 1L;
           Memsim.Machine.mfence ()));
    Memsim.Machine.run machine
  in
  let counter name = M.counter_value (M.counter M.default name) in
  (* disabled: the instrumented machine must leave the registry alone *)
  sb_run ();
  Alcotest.(check int) "disabled: drains untouched" 0
    (counter "machine.store_buffer_drains");
  Alcotest.(check int) "disabled: occupancy untouched" 0
    (M.histogram_count
       (M.histogram M.default ~buckets:(M.pow2_buckets 7)
          "machine.store_buffer_occupancy"));
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default false)
    (fun () ->
      sb_run ();
      (* 3 stores + 1 flush pass through the buffer *)
      Alcotest.(check int) "drains" 4 (counter "machine.store_buffer_drains");
      Alcotest.(check int) "flushes" 1 (counter "machine.flushes");
      Alcotest.(check int) "fences" 2 (counter "machine.fences");
      let h =
        M.histogram M.default ~buckets:(M.pow2_buckets 7)
          "machine.store_buffer_occupancy"
      in
      Alcotest.(check int) "occupancy observed per push" 4
        (M.histogram_count h);
      Alcotest.(check bool) "occupancy sum positive" true
        (M.histogram_sum h > 0.))

(* Tracer *)

let test_trace_json_balanced () =
  Obs.Tracer.clear ();
  Obs.Tracer.enable ();
  Obs.Tracer.with_span ~cat:"phase" "outer" (fun () ->
      Obs.Tracer.with_span ~cat:"cell" ~args:[ ("index", "0") ] "inner"
        (fun () -> ());
      Obs.Tracer.instant "marker");
  (* a raising thunk still closes its span *)
  (try
     Obs.Tracer.with_span "raiser" (fun () -> raise Exit)
   with Exit -> ());
  let j = parse (J.to_string (Obs.Tracer.to_json ())) in
  Obs.Tracer.clear ();
  let events =
    match member "traceEvents" j with
    | J.List l -> l
    | _ -> Alcotest.fail "traceEvents is not a list"
  in
  Alcotest.(check int) "3 B + 3 E + 1 i" 7 (List.length events);
  let depth = ref 0 in
  List.iter
    (fun ev ->
      let str name =
        match member name ev with
        | J.Str s -> s
        | _ -> Alcotest.failf "event field %S missing/not a string" name
      in
      (* every event is well-formed: name, ph, numeric ts/pid/tid *)
      ignore (str "name");
      List.iter
        (fun f ->
          match J.to_float (member f ev) with
          | Some _ -> ()
          | None -> Alcotest.failf "event field %S not numeric" f)
        [ "ts"; "pid"; "tid" ];
      match str "ph" with
      | "B" -> incr depth
      | "E" ->
        decr depth;
        if !depth < 0 then Alcotest.fail "E before matching B"
      | "i" -> ()
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    events;
  Alcotest.(check int) "spans balanced" 0 !depth

(* Span tracing observes a run without changing it: a traced analyze
   streams the same events into the engine as an untraced one, and the
   whole fused run is one "drive" phase span closed with its event
   count, with no separate generation or analysis phase. *)
let test_traced_drive_is_the_run () =
  let traced analyze =
    Obs.Tracer.clear ();
    Obs.Tracer.enable ();
    Fun.protect ~finally:Obs.Tracer.clear (fun () ->
        let m = analyze () in
        match member "traceEvents" (parse (J.to_string (Obs.Tracer.to_json ())))
        with
        | J.List evs -> (m, evs)
        | _ -> Alcotest.fail "traceEvents is not a list")
  in
  let check_spans what evs ~events =
    let str name ev =
      match member name ev with
      | J.Str s -> s
      | _ -> Alcotest.failf "event field %S not a string" name
    in
    Alcotest.(check (list (pair string string)))
      (what ^ ": one drive span")
      [ ("B", "drive"); ("E", "drive") ]
      (List.map (fun ev -> (str "ph" ev, str "name" ev)) evs);
    match List.rev evs with
    | closing :: _ ->
      Alcotest.(check string)
        (what ^ ": span carries the event count")
        (string_of_int events)
        (str "events" (member "args" closing))
    | [] -> Alcotest.fail "no trace events"
  in
  (* the machine's event count, from a materialized trace *)
  let trace_length run =
    let t = Memsim.Trace.create () in
    ignore (run ~sink:(Memsim.Trace.sink t));
    Memsim.Trace.length t
  in
  let cfg = P.Config.make P.Config.Epoch in
  let queue =
    Experiments.Run.queue_params ~threads:2 ~total_inserts:64
      Experiments.Run.epoch_point
  in
  let plain = Experiments.Run.analyze queue cfg in
  let m, evs = traced (fun () -> Experiments.Run.analyze queue cfg) in
  Alcotest.(check bool) "queue: traced metrics equal" true (m = plain);
  check_spans "queue" evs ~events:(trace_length (Workloads.Queue.run queue));
  let kv =
    Experiments.Kv_exp.kv_params ~threads:2 ~total_ops:64 P.Config.Epoch
  in
  let plain = Experiments.Kv_exp.analyze kv cfg in
  let m, evs = traced (fun () -> Experiments.Kv_exp.analyze kv cfg) in
  Alcotest.(check bool) "kv: traced metrics equal" true (m = plain);
  check_spans "kv" evs ~events:(trace_length (Kv.run kv))

let test_trace_disabled_records_nothing () =
  Obs.Tracer.clear ();
  Obs.Tracer.with_span "ignored" (fun () -> ());
  Obs.Tracer.instant "ignored";
  Alcotest.(check int) "no events" 0 (Obs.Tracer.event_count ())

(* Graph inspectors *)

let recorded_engine () =
  let params =
    Experiments.Run.queue_params ~threads:2 ~total_inserts:16
      ~capacity_entries:16 Experiments.Run.epoch_point
  in
  let m, graph, _ =
    Experiments.Run.analyze_with_graph params
      (P.Config.make P.Config.Epoch)
  in
  (m, graph)

let test_critical_chain_length () =
  let m, graph = recorded_engine () in
  let chain = P.Graph_export.critical_chain graph in
  Alcotest.(check int) "chain length = engine critical path"
    m.Experiments.Run.critical_path (List.length chain);
  (* the chain really is a dependence chain, in order *)
  List.iteri
    (fun i id ->
      if i > 0 then
        let n = P.Persist_graph.get graph id in
        let prev = List.nth chain (i - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "n%d persists after n%d" id prev)
          true
          (P.Iset.mem prev n.P.Persist_graph.deps))
    chain

let test_dot_export () =
  let _, graph = recorded_engine () in
  let chain = P.Graph_export.critical_chain graph in
  let dot = Format.asprintf "%a" P.Graph_export.to_dot graph in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 8 && String.sub dot 0 8 = "digraph ");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* every chain node is highlighted *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "n%d highlighted" id)
        true
        (contains (Printf.sprintf "n%d [label=" id) dot))
    chain;
  Alcotest.(check bool) "critical color present" true
    (contains "color=red" dot);
  (* level and thread annotations appear in node labels *)
  Alcotest.(check bool) "level annotation" true (contains "level " dot);
  Alcotest.(check bool) "tid annotation" true (contains "tid " dot)

let test_jsonl_export () =
  let m, graph = recorded_engine () in
  let jsonl = Format.asprintf "%a" P.Graph_export.to_jsonl graph in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per node"
    (P.Persist_graph.node_count graph)
    (List.length lines);
  let criticals = ref 0 in
  List.iter
    (fun line ->
      let j = parse line in
      List.iter
        (fun f -> ignore (member f j))
        [ "id"; "tid"; "level"; "critical"; "writes"; "deps" ];
      match member "critical" j with
      | J.Bool true -> incr criticals
      | J.Bool false -> ()
      | _ -> Alcotest.fail "critical is not a bool")
    lines;
  Alcotest.(check int) "critical nodes = critical path"
    m.Experiments.Run.critical_path !criticals

let test_explain_walk () =
  let m, graph = recorded_engine () in
  let out = Format.asprintf "%a" P.Graph_export.explain graph in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  (* one header plus one line per level of the critical path *)
  Alcotest.(check int) "header + one line per level"
    (m.Experiments.Run.critical_path + 1)
    (List.length lines)

(* Pool percentile helper *)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p95 of 1..100" 95.
    (Pstats.Summary.percentile 0.95 xs);
  Alcotest.(check (float 0.)) "p0 is min" 1.
    (Pstats.Summary.percentile 0. xs);
  Alcotest.(check (float 0.)) "p100 is max" 100.
    (Pstats.Summary.percentile 1. xs);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Pstats.Summary.percentile 0.5 []));
  match Pstats.Summary.percentile 1.5 xs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range p accepted"

let test_render_profile_na () =
  let p =
    { Parallel.Pool.domains = 1;
      wall_seconds = 0.;
      cells = [ ("only", 0.) ] }
  in
  let s = Parallel.Pool.render_profile p in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "zero wall clock says n/a" true
    (contains "speedup n/a" s);
  Alcotest.(check bool) "p95 present" true (contains "p95" s)

(* Perfscope: measurement layer *)

let test_measure_gc_delta () =
  let v, d =
    (* enough allocation to cross several minor collections: OCaml 5's
       [quick_stat] only folds a domain's minor words in at collection
       boundaries *)
    Obs.Perfscope.measure (fun () ->
        let acc = ref [] in
        for i = 1 to 500_000 do
          acc := (i, i) :: !acc
        done;
        List.length !acc)
  in
  Alcotest.(check int) "thunk result" 500_000 v;
  Alcotest.(check bool) "wall non-negative" true (d.Obs.Perfscope.wall_s >= 0.);
  Alcotest.(check bool) "minor words non-negative" true
    (d.Obs.Perfscope.minor_words >= 0.);
  Alcotest.(check bool) "major words non-negative" true
    (d.Obs.Perfscope.major_words >= 0.);
  Alcotest.(check bool) "promoted words non-negative" true
    (d.Obs.Perfscope.promoted_words >= 0.);
  Alcotest.(check bool) "collections non-negative" true
    (d.Obs.Perfscope.minor_collections >= 0
    && d.Obs.Perfscope.major_collections >= 0);
  (* 10k two-field tuples in a list cannot allocate zero words *)
  Alcotest.(check bool) "allocating thunk shows allocation" true
    (Obs.Perfscope.alloc_words d > 0.);
  (* a raising thunk still propagates its exception *)
  match Obs.Perfscope.measure (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "exception swallowed"

let test_span_disabled_touches_nothing () =
  M.reset M.default;
  Obs.Tracer.clear ();
  let counter name = M.counter_value (M.counter M.default name) in
  Obs.Perfscope.with_span "quiet" (fun () ->
      ignore (Sys.opaque_identity (List.init 10_000 (fun i -> (i, i)))));
  Alcotest.(check int) "gc.minor_words untouched" 0 (counter "gc.minor_words");
  Alcotest.(check int) "gc.minor_collections untouched" 0
    (counter "gc.minor_collections");
  Alcotest.(check (float 0.)) "rss gauge untouched" 0.
    (M.gauge_value (M.gauge_max M.default "proc.peak_rss_kb"));
  Alcotest.(check int) "no trace events" 0 (Obs.Tracer.event_count ())

let test_span_accounts_gc () =
  M.reset M.default;
  M.set_enabled M.default true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled M.default false)
    (fun () ->
      Obs.Perfscope.with_span "loud" (fun () ->
          ignore (Sys.opaque_identity (List.init 100_000 (fun i -> (i, i)))));
      let counter name = M.counter_value (M.counter M.default name) in
      Alcotest.(check bool) "gc.minor_words counted" true
        (counter "gc.minor_words" > 0);
      Alcotest.(check bool) "rss gauge sampled" true
        (M.gauge_value (M.gauge_max M.default "proc.peak_rss_kb") > 0.))

let test_rate_and_rss () =
  Alcotest.(check (float 0.)) "items per second" 50.
    (Obs.Perfscope.rate 100 2.0);
  Alcotest.(check (float 0.)) "zero wall clock yields no rate" 0.
    (Obs.Perfscope.rate 5 0.);
  (* Linux: /proc/self/status is present and VmHWM is positive *)
  Alcotest.(check bool) "peak rss positive" true
    (Obs.Perfscope.peak_rss_kb () > 0)

let test_render_progress () =
  let r = Obs.Perfscope.render_progress in
  Alcotest.(check string) "no rate yet" "x: 0/10 (0.0%) ?/s eta ?"
    (r ~label:"x" ~completed:0 ~total:10 ~elapsed_s:0. ());
  Alcotest.(check string) "midway" "x: 5/10 (50.0%) 2.5/s eta 2.0s"
    (r ~label:"x" ~completed:5 ~total:10 ~elapsed_s:2. ());
  Alcotest.(check string) "complete" "x: 10/10 (100.0%) 2.5/s eta 0.0s"
    (r ~label:"x" ~completed:10 ~total:10 ~elapsed_s:4. ());
  Alcotest.(check string) "long etas switch to minutes"
    "x: 1/241 (0.4%) 1.0/s eta 4.0min"
    (r ~label:"x" ~completed:1 ~total:241 ~elapsed_s:1. ());
  Alcotest.(check string) "no total: count and rate" "y: 300 done, 150.0/s"
    (r ~label:"y" ~completed:300 ~elapsed_s:2. ())

let test_progress_scope () =
  Alcotest.(check bool) "off by default" false
    (Obs.Perfscope.progress_enabled ());
  (* disabled: the scope is inert *)
  let p = Obs.Perfscope.progress_start ~total:2 "inert" in
  Obs.Perfscope.progress_step p;
  Obs.Perfscope.progress_finish p;
  (* enabled: stepping and finishing emit to stderr without error *)
  Obs.Perfscope.set_progress ~interval_s:0. true;
  Fun.protect
    ~finally:(fun () -> Obs.Perfscope.set_progress false)
    (fun () ->
      Alcotest.(check bool) "enabled" true (Obs.Perfscope.progress_enabled ());
      let p = Obs.Perfscope.progress_start ~total:3 "test progress" in
      for _ = 1 to 3 do
        Obs.Perfscope.progress_step p
      done;
      Obs.Perfscope.progress_finish p)

(* Histogram raw-sample percentiles *)

let test_histogram_percentiles () =
  let r = M.create () in
  M.set_enabled r true;
  let h = M.histogram r "h" ~buckets:(M.pow2_buckets 8) in
  let empty = M.histogram r "empty" ~buckets:(M.pow2_buckets 8) in
  for i = 1 to 100 do
    M.observe h (float_of_int i)
  done;
  let samples = M.histogram_samples h in
  Alcotest.(check int) "all observations sampled" 100 (List.length samples);
  Alcotest.(check (option (float 0.))) "p95 matches Pstats"
    (Some (Pstats.Summary.percentile 0.95 samples))
    (M.histogram_percentile h 0.95);
  Alcotest.(check (option (float 0.))) "p95 of 1..100" (Some 95.)
    (M.histogram_percentile h 0.95);
  Alcotest.(check (option (float 0.))) "p99 of 1..100" (Some 99.)
    (M.histogram_percentile h 0.99);
  Alcotest.(check (option (float 0.))) "empty percentile is none" None
    (M.histogram_percentile empty 0.95);
  (* the JSON dump carries p95/p99 for populated histograms *)
  let dump = parse (J.to_string (M.to_json r)) in
  let hj = find_metric dump "h" in
  (match (J.to_float (member "p95" hj), J.to_float (member "p99" hj)) with
  | Some p95, Some p99 ->
    Alcotest.(check (float 0.)) "dump p95" 95. p95;
    Alcotest.(check (float 0.)) "dump p99" 99. p99
  | _ -> Alcotest.fail "p95/p99 not numeric in dump");
  (match member "p95" (find_metric dump "empty") with
  | J.Null -> ()
  | j -> Alcotest.failf "empty histogram p95 should be null, got %s"
           (J.to_string j));
  M.reset r;
  Alcotest.(check int) "reset drops samples" 0
    (List.length (M.histogram_samples h))

(* Runinfo: manifests, bench files, the regression gate *)

module R = Obs.Runinfo

let test_manifest_roundtrip () =
  let m = R.capture ~tool:"test" ~jobs:2 ~knobs:[ ("quick", "1") ] () in
  Alcotest.(check bool) "summary mentions the tool" true
    (String.length (R.summary m) > 4);
  Alcotest.(check string) "ocaml version captured" Sys.ocaml_version
    m.R.ocaml;
  Alcotest.(check bool) "cores positive" true (m.R.cores > 0);
  match R.of_json (parse (J.to_string (R.to_json m))) with
  | Ok m' -> Alcotest.(check bool) "manifest round-trips" true (m = m')
  | Error e -> Alcotest.failf "manifest decode: %s" e

let mk_entry ?(kind = "micro") ?(rate_unit = "runs/s") name wall_s rate =
  { R.name; kind; wall_s; rate; rate_unit;
    alloc_words = 1234.5; peak_rss_kb = 4096 }

let test_bench_roundtrip () =
  let b =
    { R.run = R.capture ~tool:"bench" ();
      entries =
        [ mk_entry "repro:table1" 1.25 1.0e6 ~kind:"reproduction"
            ~rate_unit:"events/s";
          mk_entry "micro:engine \"quoted\"" 0.001 980.7 ] }
  in
  match R.bench_of_json (parse (J.to_string (R.bench_to_json b))) with
  | Ok b' -> Alcotest.(check bool) "bench round-trips" true (b = b')
  | Error e -> Alcotest.failf "bench decode: %s" e

let test_bench_schema_guard () =
  match R.bench_of_json (parse "{\"schema\": \"something-else/9\"}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema accepted"

(* The regression gate on synthetic manifests: within threshold, wall
   regression, rate regression, improvement, dropped/new entries and a
   zero baseline. *)
let test_compare_benches () =
  let run = R.capture ~tool:"bench" () in
  let base =
    { R.run;
      entries =
        [ mk_entry "ok" 1.0 100.; mk_entry "slow-wall" 1.0 100.;
          mk_entry "slow-rate" 1.0 100.; mk_entry "improved" 1.0 100.;
          mk_entry "dropped" 1.0 100.; mk_entry "zero-base" 0. 0. ] }
  in
  let cand =
    { R.run;
      entries =
        [ mk_entry "ok" 1.05 99.; mk_entry "slow-wall" 1.5 100.;
          mk_entry "slow-rate" 1.0 80.; mk_entry "improved" 0.5 200.;
          mk_entry "added" 1.0 100.; mk_entry "zero-base" 5.0 50. ] }
  in
  let c = R.compare_benches ~threshold_pct:10. base cand in
  Alcotest.(check int) "shared entries compared" 5 (List.length c.R.deltas);
  Alcotest.(check (list string)) "dropped entry noticed" [ "dropped" ]
    c.R.only_base;
  Alcotest.(check (list string)) "new entry noticed" [ "added" ] c.R.only_cand;
  Alcotest.(check (list string)) "exactly the regressions flagged"
    [ "slow-wall"; "slow-rate" ]
    (List.map (fun d -> d.R.d_name) c.R.regressions);
  let delta name = List.find (fun d -> d.R.d_name = name) c.R.deltas in
  Alcotest.(check (float 1e-9)) "wall delta" 50. (delta "slow-wall").R.wall_pct;
  Alcotest.(check (float 1e-9)) "rate delta" (-20.)
    (delta "slow-rate").R.rate_pct;
  Alcotest.(check bool) "within threshold passes" false (delta "ok").R.regressed;
  Alcotest.(check bool) "improvement passes" false
    (delta "improved").R.regressed;
  (* a zero baseline yields 0% deltas — nothing meaningful to gate on *)
  Alcotest.(check (float 0.)) "zero baseline wall" 0.
    (delta "zero-base").R.wall_pct;
  Alcotest.(check bool) "zero baseline never regresses" false
    (delta "zero-base").R.regressed;
  (* a -20% doctored candidate trips the default 10% gate everywhere *)
  let doctored =
    { R.run;
      entries =
        List.map
          (fun (e : R.entry) ->
            { e with R.wall_s = e.R.wall_s *. 1.25; rate = e.R.rate *. 0.8 })
          base.R.entries }
  in
  let c2 = R.compare_benches ~threshold_pct:10. base doctored in
  Alcotest.(check int) "doctored copy regresses every gated entry" 5
    (List.length c2.R.regressions)

let test_load_bench_errors () =
  (match R.load_bench "/nonexistent/bench.json" with
  | Error msg ->
    Alcotest.(check bool) "error mentions path" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "missing file loaded");
  let tmp = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "not json";
      close_out oc;
      match R.load_bench tmp with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage loaded")

(* CLI surface: every persistsim subcommand must expose the
   observability flags.  Enumerate the subcommands from the main help
   so a newly added command cannot dodge the audit. *)

(* Resolved against the test binary so the audit works from both
   [dune runtest] (cwd = test dir) and [dune exec] (cwd = root). *)
let persistsim =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/persistsim.exe"

let run_lines cmd =
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.rev !lines
  | _ -> Alcotest.failf "command failed: %s" cmd

let subcommands () =
  let lines = run_lines (persistsim ^ " --help=plain 2>/dev/null") in
  let rec section = function
    | [] -> []
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> section rest
  in
  let rec collect acc = function
    | [] -> List.rev acc
    | line :: rest ->
      if line <> "" && line.[0] <> ' ' then List.rev acc (* next section *)
      else
        let t = String.trim line in
        (* command lines are the least-indented entries: "name [OPTION]…" *)
        if
          t <> ""
          && String.length line > 7
          && line.[6] = ' '
          && line.[7] <> ' '
        then
          match String.split_on_char ' ' t with
          | name :: _ -> collect (name :: acc) rest
          | [] -> collect acc rest
        else collect acc rest
  in
  collect [] (section lines)

let test_subcommands_expose_obs_flags () =
  let cmds = subcommands () in
  Alcotest.(check bool) "subcommands enumerated" true (List.length cmds >= 18);
  Alcotest.(check bool) "perf is registered" true (List.mem "perf" cmds);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun cmd ->
      let help =
        String.concat "\n"
          (run_lines (Printf.sprintf "%s %s --help=plain 2>/dev/null"
                        persistsim cmd))
      in
      List.iter
        (fun flag ->
          Alcotest.(check bool)
            (Printf.sprintf "%s lists %s" cmd flag)
            true (contains flag help))
        [ "--metrics-out"; "--trace-out"; "--manifest-out"; "--progress" ])
    cmds

(* Exit-code contract: a subcommand that detects a violation (or fails
   to demonstrate one it was asked to demonstrate with --buggy) must
   exit non-zero; clean runs and successful demonstrations exit 0. *)
let exit_code cmd =
  let ic = Unix.open_process_in (cmd ^ " >/dev/null 2>&1") in
  (try
     while true do
       ignore (input_line ic)
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.failf "%s killed" cmd

let test_exit_codes () =
  let checke name expected cmd =
    Alcotest.(check int) name expected (exit_code (persistsim ^ " " ^ cmd))
  in
  (* clean runs *)
  checke "explore safe" 0 "explore --workload kv --depth 2";
  (* depth 1 keeps the audit fast: depth 2 is no longer exhaustively
     explorable now that fence commits race with persistent stores, and
     the default --model all would pay that three times over *)
  checke "lockfree safe" 0
    "lockfree --recovery --discipline nvtraverse --depth 1 --model sc";
  (* a caught bug is a successful demonstration *)
  checke "explore buggy caught" 0 "explore --workload kv --buggy --depth 2";
  checke "lockfree buggy caught" 0 "lockfree --buggy --depth 1 --model sc";
  (* a missed bug must not exit clean: Buggy_undo's dropped seal->slot
     barrier is masked by strict persistency, so the demonstration
     deterministically fails to fire there *)
  checke "explore buggy missed" 1
    "explore --workload kv --model strict --buggy --depth 2";
  (* unknown litmus test is a usage error *)
  checke "litmus unknown" 2 "litmus --test no-such-test";
  (* malformed flag values are rejected by the option parser (cmdliner's
     exit 124) ... *)
  checke "replay garbage" 124 "explore --replay garbage";
  checke "replay bad index" 124
    "lockfree --recovery --depth 1 --model sc --replay 5,x";
  checke "zero threads" 124 "recovery --threads 0";
  (* ... and parameters the library rejects are usage errors, never an
     uncaught exception (exit 125) *)
  checke "replay out of range" 2
    "explore --workload kv --depth 1 --replay 99,99,99";
  checke "kv threads do not divide ops" 2 "kv --recovery --threads 3";
  checke "zero depth" 2 "explore --depth 0";
  checke "threads do not divide inserts" 2 "analyze --threads 3 --inserts 10";
  Alcotest.(check (list string))
    "usage error is one stderr line"
    [ "persistsim: Kv_exp.kv_params: total_ops must divide by threads" ]
    (run_lines
       (persistsim ^ " kv --recovery --threads 3 2>&1 >/dev/null || true"))

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "round-trip and rejection" `Quick
            test_json_roundtrip ] );
      ( "metrics",
        [ Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "pow2 buckets" `Quick test_pow2_buckets;
          Alcotest.test_case "kv and recovery instruments" `Quick
            test_kv_and_recovery_metrics;
          Alcotest.test_case "dump matches engine accessors" `Quick
            test_metrics_dump_matches_engine;
          Alcotest.test_case "tso machine instruments" `Quick
            test_machine_tso_metrics ] );
      ( "tracer",
        [ Alcotest.test_case "balanced well-formed events" `Quick
            test_trace_json_balanced;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "traced drive is the run" `Quick
            test_traced_drive_is_the_run ] );
      ( "graph export",
        [ Alcotest.test_case "critical chain length" `Quick
            test_critical_chain_length;
          Alcotest.test_case "dot" `Quick test_dot_export;
          Alcotest.test_case "jsonl" `Quick test_jsonl_export;
          Alcotest.test_case "explain walk" `Quick test_explain_walk ] );
      ( "pool",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "render_profile n/a and p95" `Quick
            test_render_profile_na ] );
      ( "perfscope",
        [ Alcotest.test_case "measure reports a gc delta" `Quick
            test_measure_gc_delta;
          Alcotest.test_case "disabled span touches nothing" `Quick
            test_span_disabled_touches_nothing;
          Alcotest.test_case "enabled span accounts gc" `Quick
            test_span_accounts_gc;
          Alcotest.test_case "rate and peak rss" `Quick test_rate_and_rss;
          Alcotest.test_case "render_progress" `Quick test_render_progress;
          Alcotest.test_case "progress scope" `Quick test_progress_scope ] );
      ( "histogram percentiles",
        [ Alcotest.test_case "p95/p99 via raw samples" `Quick
            test_histogram_percentiles ] );
      ( "runinfo",
        [ Alcotest.test_case "manifest round-trip" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "bench round-trip" `Quick test_bench_roundtrip;
          Alcotest.test_case "schema guard" `Quick test_bench_schema_guard;
          Alcotest.test_case "regression gate on synthetic manifests" `Quick
            test_compare_benches;
          Alcotest.test_case "load errors mention the path" `Quick
            test_load_bench_errors ] );
      ( "cli",
        [ Alcotest.test_case "subcommands expose obs flags" `Quick
            test_subcommands_expose_obs_flags;
          Alcotest.test_case "violation exit codes" `Quick test_exit_codes ] ) ]
