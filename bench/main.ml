(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and measures the simulator itself with Bechamel.

   Layout:
   - the REPRODUCTION section prints Table 1, Figures 3, 4 and 5 and the
     Section 7 validation, exactly as `persistsim <cmd>` would;
   - the MICROBENCHMARK section has one Bechamel [Test.make] per
     table/figure (timing the pipeline that regenerates it, at reduced
     size) plus component benchmarks of the machine and the analyzers.

   Scale knobs: BENCH_INSERTS (default 20000 for the reproduction,
   tables use the experiment defaults), BENCH_QUICK=1 to shrink
   everything for smoke runs, and BENCH_JOBS to run the reproduction
   sweeps on that many domains (default: cores - 1; output is
   byte-identical for any value, sweep profiles go to stderr).

   BENCH_OUT=<path> additionally writes a machine-readable manifest of
   the whole run (Obs.Runinfo bench schema): one entry per reproduction
   phase (wall clock, engine events/sec, allocated words, peak RSS) and
   one per Bechamel microbench (time/run, runs/sec, allocated
   words/run, peak RSS).  `persistsim perf` compares two such files and
   gates on regressions — BENCH_PR7.json at the repo root is the
   committed trajectory. *)

open Bechamel
open Toolkit

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string v with Failure _ -> default)
  | None -> default

let quick = Sys.getenv_opt "BENCH_QUICK" = Some "1"
let repro_inserts = getenv_int "BENCH_INSERTS" (if quick then 2400 else 20_000)
let micro_inserts = if quick then 400 else 1200
let jobs = getenv_int "BENCH_JOBS" (Parallel.Pool.default_domains ())
let on_profile p = prerr_string (Parallel.Pool.render_profile p)

(* ------------------------------------------------------------------ *)
(* BENCH_OUT: machine-readable run manifest *)

let bench_out = Sys.getenv_opt "BENCH_OUT"

(* Events/sec needs the engine's event counter, so the registry must be
   live for the whole run (this is independent of METRICS_OUT, which
   additionally dumps the registry at exit). *)
let () =
  if bench_out <> None then Obs.Metrics.set_enabled Obs.Metrics.default true

let engine_events = Obs.Metrics.counter Obs.Metrics.default "engine.events"
let entries : Obs.Runinfo.entry list ref = ref []
let record_entry e = entries := e :: !entries

(* Measure one reproduction phase: wall clock and allocation around the
   thunk, throughput from the engine's event-counter delta (falling
   back to the configured item count for phases that bypass the
   engine), RSS high-water after the phase. *)
let repro_phase name ~items f =
  match bench_out with
  | None -> f ()
  | Some _ ->
    let ev0 = Obs.Metrics.counter_value engine_events in
    let v, d = Obs.Perfscope.measure f in
    let events = Obs.Metrics.counter_value engine_events - ev0 in
    let items, rate_unit =
      if events > 0 then (events, "events/s") else (items, "items/s")
    in
    record_entry
      { Obs.Runinfo.name = "repro:" ^ name;
        kind = "reproduction";
        wall_s = d.Obs.Perfscope.wall_s;
        rate = Obs.Perfscope.rate items d.Obs.Perfscope.wall_s;
        rate_unit;
        alloc_words = Obs.Perfscope.alloc_words d;
        peak_rss_kb = Obs.Perfscope.peak_rss_kb () };
    v

let write_bench_out () =
  match bench_out with
  | None -> ()
  | Some path ->
    let run =
      Obs.Runinfo.capture ~tool:"bench" ~jobs
        ~knobs:
          [ ("quick", if quick then "1" else "0");
            ("repro_inserts", string_of_int repro_inserts);
            ("micro_inserts", string_of_int micro_inserts) ]
        ()
    in
    let entries = List.rev !entries in
    Obs.Runinfo.write_bench { Obs.Runinfo.run; entries } path;
    Printf.eprintf "bench: wrote %d entries to %s\n" (List.length entries)
      path

(* ------------------------------------------------------------------ *)
(* Reproduction *)

let banner title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let reproduce () =
  banner "REPRODUCTION: Memory Persistency (ISCA 2014) evaluation";
  Printf.printf
    "scale: %d inserts per configuration, %d-entry data segment, \
     %d sweep domain(s)\n"
    repro_inserts Experiments.Run.default_capacity jobs;
  repro_phase "table1" ~items:repro_inserts (fun () ->
      banner "Table 1";
      let t1 = Experiments.Table1.run ~jobs ~total_inserts:repro_inserts () in
      on_profile t1.Experiments.Table1.profile;
      print_string (Experiments.Table1.render t1));
  repro_phase "fig3" ~items:repro_inserts (fun () ->
      banner "Figure 3";
      let f3 = Experiments.Fig3.run ~jobs ~total_inserts:repro_inserts () in
      on_profile f3.Experiments.Fig3.profile;
      print_string (Experiments.Fig3.render f3));
  repro_phase "fig4" ~items:repro_inserts (fun () ->
      banner "Figure 4";
      let f4 =
        Experiments.Granularity.run ~jobs ~total_inserts:repro_inserts
          Experiments.Granularity.Atomic_persist
      in
      on_profile f4.Experiments.Granularity.profile;
      print_string (Experiments.Granularity.render f4));
  repro_phase "fig5" ~items:repro_inserts (fun () ->
      banner "Figure 5";
      let f5 =
        Experiments.Granularity.run ~jobs ~total_inserts:repro_inserts
          Experiments.Granularity.Tracking
      in
      on_profile f5.Experiments.Granularity.profile;
      print_string (Experiments.Granularity.render f5));
  repro_phase "validation" ~items:(min repro_inserts 8000) (fun () ->
      banner "Section 7 validation (insert distance)";
      let v =
        Experiments.Validation.run ~jobs
          ~total_inserts:(min repro_inserts 8000) ()
      in
      on_profile v.Experiments.Validation.profile;
      print_string (Experiments.Validation.render v));
  repro_phase "ablations" ~items:micro_inserts (fun () ->
      banner "Ablations (A1-A5)";
      print_string
        (Experiments.Ablation.render_comparisons
           ~title:"A1: SC vs TSO (BPFS) conflict detection, cp/insert"
           (Experiments.Ablation.tso_conflicts ~jobs ~on_profile
              ~total_inserts:micro_inserts ()));
      print_string
        (Experiments.Ablation.render_comparisons
           ~title:"\nA2: both spaces vs persistent-only conflicts, cp/insert"
           (Experiments.Ablation.conflict_spaces ~jobs ~on_profile
              ~total_inserts:micro_inserts ()));
      print_string
        (Experiments.Ablation.render_comparisons
           ~title:"\nA4: coalescing on vs off, cp/insert"
           (Experiments.Ablation.coalescing ~jobs ~on_profile
              ~total_inserts:micro_inserts ()));
      print_string
        (Experiments.Ablation.render_buffer
           (Experiments.Ablation.buffer_depth ~jobs ~on_profile
              ~total_inserts:micro_inserts ()));
      print_string
        (Experiments.Ablation.render_capacity
           (Experiments.Ablation.capacity ~jobs ~on_profile
              ~total_inserts:(4 * micro_inserts) ()));
      print_string
        (Experiments.Ablation.render_sync
           (Experiments.Ablation.persist_sync ~jobs ~on_profile
              ~total_inserts:micro_inserts ())));
  repro_phase "consistency" ~items:repro_inserts (fun () ->
      banner "Relaxing consistency vs relaxing persistency (Section 5.1)";
      let cx =
        Experiments.Consistency_exp.run ~jobs ~total_inserts:repro_inserts ()
      in
      on_profile cx.Experiments.Consistency_exp.profile;
      print_string (Experiments.Consistency_exp.render cx));
  repro_phase "kv" ~items:(min repro_inserts 4096) (fun () ->
      banner "KV store (persist critical path per operation)";
      let kv =
        Experiments.Kv_exp.run ~jobs ~total_ops:(min repro_inserts 4096) ()
      in
      on_profile kv.Experiments.Kv_exp.profile;
      print_string (Experiments.Kv_exp.render kv));
  repro_phase "serve" ~items:(min repro_inserts 4096) (fun () ->
      banner "Served KV (group-commit amortization under open-loop load)";
      let sv =
        Experiments.Serve_exp.run ~jobs ~requests:(min repro_inserts 4096)
          ~shards_list:[ 1; 2 ] ()
      in
      on_profile sv.Experiments.Serve_exp.profile;
      print_string (Experiments.Serve_exp.render sv));
  repro_phase "lockfree" ~items:(min repro_inserts 4096) (fun () ->
      banner "Lock-free CAS set (flush-all vs NVTraverse destination window)";
      let lf =
        Experiments.Lockfree_exp.run ~jobs
          ~inserts:(min repro_inserts 4096 / 4)
          ()
      in
      on_profile lf.Experiments.Lockfree_exp.profile;
      print_string (Experiments.Lockfree_exp.render lf));
  repro_phase "cache-impl" ~items:(4 * micro_inserts) (fun () ->
      banner "Model vs cache implementation";
      print_string
        (Experiments.Cache_impl.render
           (Experiments.Cache_impl.run ~total_inserts:(4 * micro_inserts) ())));
  repro_phase "wear" ~items:(2 * micro_inserts) (fun () ->
      banner "NVRAM wear";
      let w =
        Experiments.Wear_exp.run ~jobs ~total_inserts:(2 * micro_inserts) ()
      in
      on_profile w.Experiments.Wear_exp.profile;
      print_string (Experiments.Wear_exp.render w));
  repro_phase "machine" ~items:(2 * micro_inserts) (fun () ->
      banner "Queue under SC vs TSO machine";
      let m =
        Experiments.Machine_exp.run ~jobs ~total_inserts:(2 * micro_inserts) ()
      in
      print_string (Experiments.Machine_exp.render m))

(* ------------------------------------------------------------------ *)
(* Microbenchmarks *)

let queue_trace point =
  let params = Experiments.Run.queue_params ~total_inserts:micro_inserts point in
  let trace = Memsim.Trace.create () in
  let _ = Workloads.Queue.run params ~sink:(Memsim.Trace.sink trace) in
  trace

let bench_trace_generation =
  Test.make ~name:"machine:queue-trace"
    (Staged.stage (fun () -> ignore (queue_trace Experiments.Run.epoch_point)))

let bench_engine mode =
  let trace = queue_trace Experiments.Run.epoch_point in
  Test.make ~name:(Printf.sprintf "engine:%s" (Persistency.Config.mode_name mode))
    (Staged.stage (fun () ->
         let e = Persistency.Engine.create (Persistency.Config.make mode) in
         Persistency.Engine.observe_trace e trace;
         ignore (Persistency.Engine.critical_path e)))

let bench_recovery_sampling =
  let params =
    Experiments.Run.queue_params ~total_inserts:64
      ~capacity_entries:64 Experiments.Run.epoch_point
  in
  let _, graph, layout =
    Experiments.Run.analyze_with_graph params
      (Persistency.Config.make Persistency.Config.Epoch)
  in
  let capacity =
    layout.Workloads.Queue.data_addr + layout.Workloads.Queue.data_bytes
  in
  Test.make ~name:"observer:recovery-sampling"
    (Staged.stage (fun () ->
         match
           Persistency.Observer.check_cut_invariant graph
             (Workloads.Queue_recovery.checker ~params ~layout)
             ~capacity ~samples:20 ~seed:1
         with
         | Ok () -> ()
         | Error msg -> failwith msg))

let bench_kv_store =
  Test.make ~name:"workload:kv-store"
    (Staged.stage (fun () ->
         let params =
           Experiments.Kv_exp.kv_params ~threads:2
             ~total_ops:micro_inserts Persistency.Config.Strand
         in
         ignore
           (Experiments.Kv_exp.analyze params
              (Persistency.Config.make Persistency.Config.Strand))))

let bench_kv_recovery =
  let params =
    Experiments.Kv_exp.kv_params ~threads:2 ~total_ops:32
      Persistency.Config.Epoch
  in
  let _, graph, layout =
    Experiments.Kv_exp.analyze_with_graph params
      (Persistency.Config.make Persistency.Config.Epoch)
  in
  Test.make ~name:"recovery:kv-sampling"
    (Staged.stage (fun () ->
         match
           Kv_recovery.verify ~params ~layout ~graph
             ~strategy:(Recovery.Sampled { samples = 20; seed = 1 })
         with
         | Ok _ -> ()
         | Error f -> failwith (Recovery.render_failure f)))

let bench_lockfree =
  Test.make ~name:"workload:lockfree-cas-set"
    (Staged.stage (fun () ->
         let params =
           Experiments.Lockfree_exp.set_params ~threads:2
             ~inserts:(micro_inserts / 2) Lockfree.Cas_set.Nvtraverse
         in
         ignore
           (Experiments.Lockfree_exp.analyze params
              (Persistency.Config.make Persistency.Config.Epoch))))

let bench_serve =
  Test.make ~name:"workload:serve-group-commit"
    (Staged.stage (fun () ->
         ignore
           (Serve.Sim.run
              (Experiments.Serve_exp.serve_params
                 ~requests:micro_inserts ~rate:64. ~key_space:96 ~shards:1
                 ~batch:8 Serve.Sim.epoch_model))))

(* one Test.make per table/figure: time the full regeneration pipeline
   at reduced size *)
let bench_table1 =
  Test.make ~name:"table1"
    (Staged.stage (fun () ->
         ignore (Experiments.Table1.run ~total_inserts:micro_inserts ())))

let bench_fig3 =
  Test.make ~name:"fig3"
    (Staged.stage (fun () ->
         ignore (Experiments.Fig3.run ~total_inserts:micro_inserts ())))

let bench_fig4 =
  Test.make ~name:"fig4"
    (Staged.stage (fun () ->
         ignore
           (Experiments.Granularity.run ~total_inserts:micro_inserts
              Experiments.Granularity.Atomic_persist)))

let bench_fig5 =
  Test.make ~name:"fig5"
    (Staged.stage (fun () ->
         ignore
           (Experiments.Granularity.run ~total_inserts:micro_inserts
              Experiments.Granularity.Tracking)))

let bench_drain =
  let params =
    Experiments.Run.queue_params ~total_inserts:micro_inserts
      Experiments.Run.epoch_point
  in
  let _, graph, _ =
    Experiments.Run.analyze_with_graph params
      (Persistency.Config.make Persistency.Config.Epoch)
  in
  Test.make ~name:"nvram:drain-simulation"
    (Staged.stage (fun () ->
         ignore
           (Nvram.Drain.simulate graph ~ops:micro_inserts ~insn_ns_per_op:250.
              ~latency_ns:500. ~depth:16)))

let bench_epoch_hw =
  let trace = queue_trace Experiments.Run.epoch_point in
  Test.make ~name:"cachesim:epoch-hw"
    (Staged.stage (fun () -> ignore (Cachesim.Epoch_hw.run_trace trace)))

let bench_txn_commit =
  Test.make ~name:"txn:commit"
    (Staged.stage (fun () ->
         let memory = Memsim.Memory.create () in
         let machine = Memsim.Machine.create ~memory () in
         Memsim.Machine.set_sink machine ignore;
         let table =
           Memsim.Memory.alloc memory Memsim.Addr.Persistent 64
         in
         let mgr = Txn.create machine ~log_capacity_bytes:(1 lsl 16) () in
         ignore
           (Memsim.Machine.spawn machine (fun () ->
                for i = 1 to 500 do
                  Txn.atomically mgr (fun t ->
                      Txn.write t table (Int64.of_int i);
                      Txn.write t (table + 8) (Int64.of_int (-i)))
                done));
         Memsim.Machine.run machine))

(* The same 2-thread x 2-insert queue explored by DPOR and by
   brute-force DFS — the schedule-count gap (28 vs 5,918 executions)
   is the whole point of lib/check. *)
let explore_run policy =
  let params =
    Workloads.Queue.explore_params ~threads:2 ~depth:2 Workloads.Queue.Epoch
  in
  ignore
    (Workloads.Queue.run
       { params with Workloads.Queue.policy }
       ~sink:ignore)

let bench_explore_dpor =
  Test.make ~name:"explore:dpor-cwl-d2"
    (Staged.stage (fun () ->
         ignore
           (Check.Dpor.explore
              ~on_exec:(fun _ () -> Check.Dpor.Continue)
              explore_run)))

let bench_explore_brute =
  Test.make ~name:"explore:brute-cwl-d2"
    (Staged.stage (fun () ->
         ignore (Memsim.Explore.run_all ~limit:100_000 explore_run)))

(* The whole litmus suite, exhaustively checked under TSO (every
   store-buffer drain interleaving) — brute force vs DPOR, and under
   the buffered-persistence machine (persistence-buffer drain
   interleavings on top). *)
let bench_litmus how config name =
  Test.make ~name
    (Staged.stage (fun () ->
         List.iter
           (fun t ->
             let r = Litmus.check ~how ~config t in
             if not (Litmus.pass r) then
               failwith ("litmus failed: " ^ t.Litmus.name))
           Litmus.suite))

let bench_litmus_brute =
  bench_litmus Litmus.Brute Memsim.Machine.tso_sync_config
    "litmus:suite-tso-brute"

let bench_litmus_dpor =
  bench_litmus Litmus.Dpor Memsim.Machine.tso_sync_config
    "litmus:suite-tso-dpor"

let bench_litmus_buffered =
  bench_litmus Litmus.Dpor Memsim.Machine.tso_buffered_config
    "litmus:suite-tso-buffered-dpor"

(* Persistence-buffer micro: a single thread streaming
   store+clflushopt pairs through the buffered machine with a trailing
   sfence; round-robin scheduling retires the buffer oldest-first.
   Measures the enqueue/eligibility/drain path in isolation. *)
let bench_persist_buffer =
  Test.make ~name:"machine:persist-buffer-stream"
    (Staged.stage (fun () ->
         let memory = Memsim.Memory.create () in
         let m =
           Memsim.Machine.create ~model:Memsim.Machine.Tso
             ~persistence:Memsim.Machine.Pbuffered ~memory ()
         in
         Memsim.Machine.set_sink m ignore;
         ignore
           (Memsim.Machine.spawn m (fun () ->
                for i = 0 to 63 do
                  let a = (i mod 16) * 8 in
                  Memsim.Machine.store a (Int64.of_int i);
                  Memsim.Machine.clflushopt a
                done;
                Memsim.Machine.sfence ()));
         Memsim.Machine.run m))

let tests =
  [ bench_table1; bench_fig3; bench_fig4; bench_fig5; bench_trace_generation;
    bench_engine Persistency.Config.Strict;
    bench_engine Persistency.Config.Epoch;
    bench_engine Persistency.Config.Strand;
    bench_recovery_sampling; bench_kv_store; bench_kv_recovery;
    bench_lockfree; bench_serve;
    bench_drain;
    bench_epoch_hw; bench_txn_commit; bench_explore_dpor;
    bench_explore_brute; bench_litmus_brute; bench_litmus_dpor;
    bench_litmus_buffered; bench_persist_buffer ]

let run_benchmarks () =
  banner "MICROBENCHMARKS (Bechamel, monotonic clock)";
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~kde:None ()
  in
  let table =
    Report.Table.create
      ~columns:
        [ ("benchmark", Report.Table.Left);
          ("time/run", Report.Table.Right);
          ("r^2", Report.Table.Right) ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw =
            Benchmark.run cfg
              [ Instance.monotonic_clock; Instance.minor_allocated ]
              elt
          in
          let estimate responder =
            let ols =
              Analyze.OLS.ols ~bootstrap:0 ~r_square:true
                ~responder:(Measure.label responder)
                ~predictors:[| Measure.run |]
                raw.Benchmark.lr
            in
            let v =
              match Analyze.OLS.estimates ols with
              | Some (t :: _) -> t
              | Some [] | None -> Float.nan
            in
            (v, Analyze.OLS.r_square ols)
          in
          let time_ns, time_r2 = estimate Instance.monotonic_clock in
          let alloc_w, _ = estimate Instance.minor_allocated in
          let r2 =
            match time_r2 with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          let human =
            if Float.is_nan time_ns then "-"
            else if time_ns >= 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
            else if time_ns >= 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
            else if time_ns >= 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
            else Printf.sprintf "%.0f ns" time_ns
          in
          if bench_out <> None && not (Float.is_nan time_ns) then begin
            let wall_s = time_ns *. 1e-9 in
            record_entry
              { Obs.Runinfo.name = "micro:" ^ Test.Elt.name elt;
                kind = "micro";
                wall_s;
                rate = (if wall_s > 0. then 1. /. wall_s else 0.);
                rate_unit = "runs/s";
                alloc_words = (if Float.is_nan alloc_w then 0. else alloc_w);
                peak_rss_kb = Obs.Perfscope.peak_rss_kb () }
          end;
          Report.Table.add_row table [ Test.Elt.name elt; human; r2 ])
        (Test.elements test))
    tests;
  Report.Table.print table

let () =
  (* METRICS_OUT / TRACE_OUT dump the instrumentation registry and the
     span timeline at exit, as in persistsim. *)
  Obs.Setup.from_env ();
  reproduce ();
  run_benchmarks ();
  write_bench_out ();
  print_endline "\nbench: done"
