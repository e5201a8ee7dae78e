(* persistsim: reproduce the evaluation of "Memory Persistency"
   (Pelley, Chen, Wenisch — ISCA 2014) from the command line. *)

open Cmdliner

(* Shared options *)

(* Observability: every subcommand accepts --metrics-out/--trace-out
   (or METRICS_OUT/TRACE_OUT in the environment).  The files are
   written at exit so a crashing run still dumps what it gathered.
   Evaluating the term activates the registry/tracer as a side effect
   before the subcommand body runs; the extra [()] argument threads
   that ordering through cmdliner. *)
let obs_t =
  let metrics_t =
    let doc =
      "Write the metrics registry (counters, gauges, histograms from the \
       engine, pool, drain, cachesim and workloads) as JSON to $(docv) at \
       exit."
    in
    let env = Cmd.Env.info "METRICS_OUT" in
    Arg.(value
         & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE" ~env ~doc)
  in
  let trace_t =
    let doc =
      "Write a Chrome trace-event JSON timeline (sweep cells, experiment \
       phases) to $(docv) at exit; load it in Perfetto or \
       chrome://tracing."
    in
    let env = Cmd.Env.info "TRACE_OUT" in
    Arg.(value
         & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE" ~env ~doc)
  in
  let manifest_t =
    let doc =
      "Write a self-describing run manifest (tool, argv, git describe, \
       OCaml version, cores) as JSON to $(docv) at exit."
    in
    let env = Cmd.Env.info "MANIFEST_OUT" in
    Arg.(value
         & opt (some string) None
         & info [ "manifest-out" ] ~docv:"FILE" ~env ~doc)
  in
  let progress_t =
    let doc =
      "Heartbeat long-running work (sweeps, DPOR exploration) on standard \
       error: an interval-throttled line with completed/total cells, rate \
       and ETA."
    in
    let env = Cmd.Env.info "PROGRESS" in
    Arg.(value & flag & info [ "progress" ] ~env ~doc)
  in
  let setup metrics_out trace_out manifest_out progress =
    Obs.Setup.activate ?metrics_out ?trace_out ?manifest_out ~progress ()
  in
  Term.(const setup $ metrics_t $ trace_t $ manifest_t $ progress_t)

(* Table/chart rendering as its own trace phase (a no-op when tracing
   is off). *)
let rendering f = Obs.Tracer.with_span ~cat:"phase" "rendering" f

let inserts_t =
  let doc = "Total inserts per configuration." in
  Arg.(value & opt int Experiments.Run.default_total_inserts
       & info [ "inserts" ] ~docv:"N" ~doc)

let capacity_t =
  let doc = "Data segment capacity in entries." in
  Arg.(value & opt int Experiments.Run.default_capacity
       & info [ "capacity" ] ~docv:"N" ~doc)

let csv_t =
  let doc = "Emit CSV instead of a formatted table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let jobs_t =
  let doc =
    "Worker domains for the configuration sweep (default: cores - 1). \
     Table output is byte-identical for any value; only wall clock \
     changes."
  in
  Arg.(value & opt int (Parallel.Pool.default_domains ())
       & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* The sweep-profile footer goes to stderr so that table output on
   stdout stays byte-identical across --jobs values. *)
let print_profile p = prerr_string (Parallel.Pool.render_profile p)

(* A sweep's output: [text ()] on stdout as the rendering phase, then
   the profile footer. *)
let print_sweep profile text =
  rendering (fun () -> print_string (text ()));
  print_profile profile

let threads_t default =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None ->
        Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc = "Worker thread count." in
  Arg.(value & opt positive default & info [ "threads" ] ~docv:"N" ~doc)

let design_t =
  let conv_design =
    Arg.enum
      [ ("cwl", Workloads.Queue.Cwl); ("2lc", Workloads.Queue.Tlc);
        ("fang", Workloads.Queue.Fang) ]
  in
  let doc = "Queue design: $(b,cwl), $(b,2lc) or $(b,fang)." in
  Arg.(value & opt conv_design Workloads.Queue.Cwl
       & info [ "design" ] ~docv:"DESIGN" ~doc)

let model_t =
  let conv_model =
    Arg.enum
      (List.map
         (fun (p : Experiments.Run.model_point) -> (p.label, p))
         Experiments.Run.table1_models)
  in
  let doc = "Model point: strict, epoch, racing-epochs or strand." in
  Arg.(value & opt conv_model Experiments.Run.epoch_point
       & info [ "model" ] ~docv:"MODEL" ~doc)

let dist_conv =
  let parse s =
    match Workloads.Keygen.dist_of_string s with
    | Ok d -> Ok d
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf d -> Format.pp_print_string ppf (Workloads.Keygen.dist_name d) )

(* table1 *)

let table1_cmd =
  let run () inserts capacity latency csv calibrate jobs =
    let insn_ns =
      if calibrate then (fun design threads ->
        Calibrate.measure_native_ns ~design ~threads ())
      else (fun design threads -> Calibrate.default_insn_ns ~design ~threads)
    in
    let t =
      Experiments.Table1.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ~latency_ns:latency ~insn_ns ()
    in
    print_sweep t.Experiments.Table1.profile (fun () ->
        if csv then Experiments.Table1.to_csv t
        else Experiments.Table1.render t)
  in
  let latency_t =
    Arg.(value & opt float 500. & info [ "latency" ] ~docv:"NS"
           ~doc:"Persist latency in nanoseconds.")
  in
  let calibrate_t =
    Arg.(value & flag & info [ "calibrate" ]
           ~doc:"Measure this machine's native queue rate instead of using \
                 the paper-derived defaults.")
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (normalized insert rates).")
    Term.(const run $ obs_t $ inserts_t $ capacity_t $ latency_t $ csv_t
          $ calibrate_t $ jobs_t)

(* fig3 *)

let fig3_chart (t : Experiments.Fig3.t) =
  (* Glyphs cycle, so any number of series renders; the old List.map2
     raised Invalid_argument as soon as there were more than three. *)
  let glyphs = [| 's'; 'e'; '*'; '+'; 'o'; 'x' |] in
  let series =
    List.mapi
      (fun i (s : Experiments.Fig3.series) ->
        { Report.Chart.label = s.model;
          glyph = glyphs.(i mod Array.length glyphs);
          points = s.rates })
      t.series
  in
  Report.Chart.render
    ~axes:{ Report.Chart.log_x = true; log_y = true; width = 64; height = 16 }
    ~title:"Figure 3: inserts/s vs persist latency (ns), log-log" series

let fig3_cmd =
  let run () inserts capacity csv chart jobs =
    let t =
      Experiments.Fig3.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ()
    in
    print_sweep t.Experiments.Fig3.profile (fun () ->
        (if csv then Experiments.Fig3.to_csv t else Experiments.Fig3.render t)
        ^ if chart then fig3_chart t else "")
  in
  let chart_t =
    Arg.(value & flag & info [ "chart" ]
           ~doc:"Also render an ASCII log-log chart of the series.")
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Figure 3 (throughput vs persist latency).")
    Term.(const run $ obs_t $ inserts_t $ capacity_t $ csv_t $ chart_t
          $ jobs_t)

(* cache: model vs BPFS-style implementation *)

let cache_cmd =
  let run () inserts threads =
    print_string
      (Experiments.Cache_impl.render
         (Experiments.Cache_impl.run ~total_inserts:inserts ~threads ()))
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Compare the persistency model against the BPFS-style epoch \
             cache hardware (writebacks, flushes, wear).")
    Term.(const run $ obs_t $ inserts_t $ threads_t 4)

(* consistency *)

let consistency_cmd =
  let run () inserts capacity jobs =
    let t =
      Experiments.Consistency_exp.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ()
    in
    print_sweep t.Experiments.Consistency_exp.profile (fun () ->
        Experiments.Consistency_exp.render t)
  in
  Cmd.v
    (Cmd.info "consistency"
       ~doc:"Strict persistency under SC / TSO / RMO vs relaxed persistency \
             under SC (paper Section 5.1).")
    Term.(const run $ obs_t $ inserts_t $ capacity_t $ jobs_t)

(* wear *)

let wear_cmd =
  let run () inserts jobs =
    let t = Experiments.Wear_exp.run ~jobs ~total_inserts:inserts () in
    print_sweep t.Experiments.Wear_exp.profile (fun () ->
        Experiments.Wear_exp.render t)
  in
  let inserts_small_t =
    Arg.(value & opt int 2000 & info [ "inserts" ] ~docv:"N"
           ~doc:"Total inserts (graph-recording run; keep moderate).")
  in
  Cmd.v
    (Cmd.info "wear"
       ~doc:"NVRAM write counts per model, with and without coalescing.")
    Term.(const run $ obs_t $ inserts_small_t $ jobs_t)

(* fig4 / fig5 *)

let gran_cmd which name doc =
  let run () inserts capacity csv jobs =
    let t =
      Experiments.Granularity.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity which
    in
    print_sweep t.Experiments.Granularity.profile (fun () ->
        if csv then Experiments.Granularity.to_csv t
        else Experiments.Granularity.render t)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ obs_t $ inserts_t $ capacity_t $ csv_t $ jobs_t)

let fig4_cmd =
  gran_cmd Experiments.Granularity.Atomic_persist "fig4"
    "Reproduce Figure 4 (atomic persist granularity)."

let fig5_cmd =
  gran_cmd Experiments.Granularity.Tracking "fig5"
    "Reproduce Figure 5 (tracking granularity / persistent false sharing)."

(* validate *)

let validate_cmd =
  let run () inserts threads jobs =
    let t =
      Experiments.Validation.run ~jobs ~threads ~total_inserts:inserts ()
    in
    print_sweep t.Experiments.Validation.profile (fun () ->
        Experiments.Validation.render t)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Insert-distance distribution stability across schedules \
             (Section 7 validation).")
    Term.(const run $ obs_t $ inserts_t $ threads_t 4 $ jobs_t)

(* Failure injection *)

(* The verdict contract every failure-injection flow shares.  A
   violation under a correct discipline exits 1.  Under --buggy a
   caught violation is the demonstration (exit 0), and a clean verdict
   is a bug not caught: the ERROR line says what [survived], exit 1. *)
let conclude ~buggy ~survived ~holds ~violation = function
  | Ok r ->
    holds r;
    if buggy then begin
      Printf.printf "ERROR: %s (bug not caught)\n" survived;
      exit 1
    end
  | Error f ->
    violation f;
    if not buggy then exit 1

(* The sampled crash check of one recorded run (recovery, kv):
   [verify] failure-injects [samples] seeded crash states of [graph]. *)
let sampled_check ~buggy ~survivor ~title ~graph ~samples ~seed verify =
  Printf.printf "%s, %d atomic persists, %d crash states sampled\n" title
    (Persistency.Persist_graph.node_count graph)
    samples;
  conclude ~buggy
    ~survived:(survivor ^ " survived failure injection")
    ~holds:(fun _ ->
      print_endline "recovery invariant holds in every sampled crash state")
    ~violation:(fun f ->
      Printf.printf "RECOVERY VIOLATION: %s\n" (Recovery.render_failure f))
    (verify ~strategy:(Recovery.Sampled { samples; seed }))

(* recovery *)

let recovery_cmd =
  let run () design model threads inserts samples buggy =
    let annotation =
      if buggy then Workloads.Queue.Buggy_epoch else model.Experiments.Run.annotation
    in
    let params =
      { (Experiments.Run.queue_params ~design ~threads
           ~total_inserts:(threads * inserts)
           ~capacity_entries:(threads * inserts) model)
        with Workloads.Queue.annotation }
    in
    let cfg = Persistency.Config.make model.Experiments.Run.mode in
    let _, graph, layout = Experiments.Run.analyze_with_graph params cfg in
    sampled_check ~buggy ~survivor:"the buggy annotation"
      ~title:
        (Printf.sprintf "%s / %s%s: %d threads x %d inserts"
           (Workloads.Queue.design_name design)
           model.Experiments.Run.label
           (if buggy then " (buggy: data->head barrier removed)" else "")
           threads inserts)
      ~graph ~samples ~seed:params.Workloads.Queue.seed
      (Workloads.Queue_recovery.verify ~params ~layout ~graph)
  in
  let samples_t =
    Arg.(value & opt int 500 & info [ "samples" ] ~docv:"N"
           ~doc:"Number of random crash states to test.")
  in
  let buggy_t =
    Arg.(value & flag & info [ "buggy" ]
           ~doc:"Use the deliberately broken annotation (no data->head \
                 barrier) to demonstrate a detectable recovery bug.")
  in
  let inserts_small_t =
    Arg.(value & opt int 16 & info [ "inserts" ] ~docv:"N"
           ~doc:"Inserts per thread (kept small: crash-state checking is \
                 exhaustive in spirit).")
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:"Failure injection: sample legal crash states via the recovery \
             observer and check queue recovery.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 2
          $ inserts_small_t $ samples_t $ buggy_t)

(* kv *)

let kv_cmd =
  let sweep total_ops dist csv jobs =
    let total_ops =
      Option.value ~default:Experiments.Kv_exp.default_total_ops total_ops
    in
    let t = Experiments.Kv_exp.run ~jobs ~total_ops ~dist () in
    print_sweep t.Experiments.Kv_exp.profile (fun () ->
        if csv then Experiments.Kv_exp.to_csv t
        else Experiments.Kv_exp.render t)
  in
  let failure_inject total_ops (model : Experiments.Run.model_point) threads
      samples buggy =
    let total_ops = Option.value ~default:32 total_ops in
    let params =
      Experiments.Kv_exp.kv_params ~threads ~total_ops model.mode
    in
    let params =
      if buggy then { params with Kv.discipline = Kv.Buggy_undo } else params
    in
    let cfg = Persistency.Config.make model.mode in
    let _, graph, layout = Experiments.Kv_exp.analyze_with_graph params cfg in
    sampled_check ~buggy ~survivor:"the buggy discipline"
      ~title:
        (Printf.sprintf "kv / %s%s: %d threads x %d ops"
           (Kv.discipline_name params.Kv.discipline)
           (if buggy then " (buggy: seal->slot barrier removed)" else "")
           threads params.Kv.ops_per_thread)
      ~graph ~samples ~seed:params.Kv.seed
      (Kv_recovery.verify ~params ~layout ~graph)
  in
  let run () total_ops dist csv jobs recovery model threads samples buggy =
    if recovery || buggy then failure_inject total_ops model threads samples buggy
    else sweep total_ops dist csv jobs
  in
  let dist_t =
    Arg.(value
         & opt dist_conv Workloads.Keygen.Uniform
         & info [ "dist" ] ~docv:"DIST"
             ~doc:"Key popularity for the sweep: $(b,uniform), \
                   $(b,zipf:THETA) or $(b,hotset:KEYS:PCT).")
  in
  let ops_t =
    Arg.(value & opt (some int) None & info [ "inserts"; "ops" ] ~docv:"N"
           ~doc:"Total operations per configuration (default: 4096 for the \
                 sweep, 32 for --recovery).")
  in
  let recovery_t =
    Arg.(value & flag & info [ "recovery" ]
           ~doc:"Failure injection instead of the sweep: sample legal crash \
                 states of one configuration and check KV recovery.")
  in
  let samples_t =
    Arg.(value & opt int 500 & info [ "samples" ] ~docv:"N"
           ~doc:"Number of random crash states to test (with --recovery).")
  in
  let buggy_t =
    Arg.(value & flag & info [ "buggy" ]
           ~doc:"With --recovery: drop the seal->slot persist barrier to \
                 demonstrate a detectable crash-consistency bug.")
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:"KV store workload: sweep persist critical path per operation \
             over models x threads x load, or failure-inject one \
             configuration (--recovery).")
    Term.(const run $ obs_t $ ops_t $ dist_t $ csv_t $ jobs_t $ recovery_t
          $ model_t $ threads_t 2 $ samples_t $ buggy_t)

(* serve *)

let serve_cmd =
  let model_conv =
    Arg.enum
      (List.map
         (fun (m : Serve.Sim.model) -> (m.Serve.Sim.label, m))
         (Serve.Sim.buggy_model :: Serve.Sim.models))
  in
  let sweep requests clients rate mix dist key_space shards batches csv jobs =
    let requests = Option.value ~default:4096 requests in
    let t =
      Experiments.Serve_exp.run ~jobs ~requests ~clients ~rate ~read_pct:mix
        ~dist ~key_space ~shards_list:shards ~batches ()
    in
    print_sweep t.Experiments.Serve_exp.profile (fun () ->
        if csv then Experiments.Serve_exp.to_csv t
        else Experiments.Serve_exp.render t)
  in
  let failure_inject requests clients rate mix dist key_space shards batches
      samples (model : Serve.Sim.model) buggy =
    let requests = Option.value ~default:48 requests in
    let model = if buggy then Serve.Sim.buggy_model else model in
    let shards = List.hd shards and batch = List.hd batches in
    let p =
      Experiments.Serve_exp.serve_params ~requests ~clients ~rate
        ~read_pct:mix ~dist ~key_space ~shards ~batch model
    in
    Printf.printf "serve / %s: %d shards, batch %d, %d requests\n"
      model.Serve.Sim.label shards batch requests;
    let strategy g = Recovery.auto ~samples ~seed:p.Serve.Sim.load.Serve.Loadgen.seed g in
    let report, verdict = Serve.Sim.verify ~strategy p in
    Printf.printf
      "served %d (%d shed), %d group commits, mean fill %.2f, cp/put %.3f\n"
      report.Serve.Sim.served report.Serve.Sim.shed report.Serve.Sim.batches
      report.Serve.Sim.mean_fill report.Serve.Sim.cp_per_put;
    conclude
      ~buggy:(String.equal model.Serve.Sim.label "epoch-buggy")
      ~survived:"the buggy batcher survived failure injection"
      ~holds:(fun (v : Serve.Sim.verify_result) ->
        Printf.printf
          "group-commit recovery holds: %d crash states over %d persists \
           across %d shards land on a batch boundary\n"
          v.Serve.Sim.v_prefixes v.Serve.Sim.v_nodes v.Serve.Sim.v_shards)
      ~violation:(fun (shard, f) ->
        Printf.printf "RECOVERY VIOLATION (shard %d): %s\n" shard
          (Recovery.render_failure f))
      verdict
  in
  let run () requests clients rate mix dist key_space shards batches csv jobs
      recovery samples model buggy =
    if recovery || buggy then
      failure_inject requests clients rate mix dist key_space shards batches
        samples model buggy
    else sweep requests clients rate mix dist key_space shards batches csv jobs
  in
  let requests_t =
    Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N"
           ~doc:"Requests in the open-loop stream (default: 4096 for the \
                 sweep, 48 for --recovery, where every shard's persist \
                 graph is recorded and failure-injected).")
  in
  let clients_t =
    Arg.(value & opt int 2048 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client sessions.")
  in
  let rate_t =
    Arg.(value & opt float 96. & info [ "rate" ] ~docv:"R"
           ~doc:"Mean arrivals per persist-critical-path unit.")
  in
  let mix_t =
    Arg.(value & opt int 25 & info [ "mix" ] ~docv:"PCT"
           ~doc:"Read percentage of the request mix.")
  in
  let zipf_t =
    Arg.(value
         & opt dist_conv (Workloads.Keygen.Zipf 0.99)
         & info [ "zipf"; "dist" ] ~docv:"DIST"
             ~doc:"Key popularity: $(b,uniform), $(b,zipf:THETA) or \
                   $(b,hotset:KEYS:PCT).")
  in
  let key_space_t =
    Arg.(value & opt int 512 & info [ "keys" ] ~docv:"N"
           ~doc:"Key space size.")
  in
  let shards_t =
    Arg.(value & opt (list int) [ 1; 2; 4 ]
         & info [ "shards" ] ~docv:"LIST"
             ~doc:"Shard counts to sweep (comma-separated); --recovery uses \
                   the first.")
  in
  let batches_t =
    Arg.(value & opt (list int) [ 1; 8; 32 ]
         & info [ "batch" ] ~docv:"LIST"
             ~doc:"Group-commit batch sizes to sweep (comma-separated); \
                   --recovery uses the first.")
  in
  let recovery_t =
    Arg.(value & flag & info [ "recovery" ]
           ~doc:"Failure injection instead of the sweep: record every \
                 shard's persist graph and check that each legal crash \
                 state recovers to a group-commit batch boundary.")
  in
  let samples_t =
    Arg.(value & opt int 2000 & info [ "samples" ] ~docv:"N"
           ~doc:"Crash states sampled per shard graph with --recovery \
                 (small graphs are checked exhaustively).")
  in
  let smodel_t =
    Arg.(value & opt model_conv Serve.Sim.epoch_model
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Model for --recovery: strict, epoch, strand or \
                   epoch-buggy.")
  in
  let buggy_t =
    Arg.(value & flag & info [ "buggy" ]
           ~doc:"With --recovery: use the batcher that seals the commit \
                 marker without the slots->marker barrier, to demonstrate a \
                 detectable group-commit bug.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Served KV: open-loop load over sharded group-commit stores. \
             Sweep persist-barrier cost and latency percentiles over models \
             x shards x batch sizes, or failure-inject one configuration \
             (--recovery).")
    Term.(const run $ obs_t $ requests_t $ clients_t $ rate_t $ mix_t
          $ zipf_t $ key_space_t $ shards_t $ batches_t $ csv_t $ jobs_t
          $ recovery_t $ samples_t $ smodel_t $ buggy_t)

(* trace *)

let trace_cmd =
  let run () design model threads inserts =
    let params =
      Experiments.Run.queue_params ~design ~threads
        ~total_inserts:(threads * inserts) model
    in
    let trace = Memsim.Trace.create () in
    let _ = Workloads.Queue.run params ~sink:(Memsim.Trace.sink trace) in
    Memsim.Trace.to_channel stdout trace
  in
  let inserts_small_t =
    Arg.(value & opt int 4 & info [ "inserts" ] ~docv:"N"
           ~doc:"Inserts per thread.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the SC memory event trace of a queue run.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 1
          $ inserts_small_t)

(* analyze *)

let analyze_cmd =
  let run () design model threads inserts capacity track persist latency
      explain =
    let params =
      Experiments.Run.queue_params ~design ~threads ~total_inserts:inserts
        ~capacity_entries:capacity model
    in
    let cfg =
      Persistency.Config.make ~track_gran:track ~persist_gran:persist
        model.Experiments.Run.mode
    in
    let m, graph =
      if explain then
        let m, g, _ = Experiments.Run.analyze_with_graph params cfg in
        (m, Some g)
      else (Experiments.Run.analyze params cfg, None)
    in
    let timing =
      { Nvram.Timing.ops = m.Experiments.Run.inserts;
        critical_path = m.Experiments.Run.critical_path;
        insn_ns_per_op = Calibrate.default_insn_ns ~design ~threads;
        persist_latency_ns = latency }
    in
    Printf.printf "workload:        %s, %d threads, %d inserts\n"
      (Workloads.Queue.design_name design) threads m.Experiments.Run.inserts;
    Printf.printf "model:           %s\n" model.Experiments.Run.label;
    Printf.printf "events:          %d\n" m.Experiments.Run.events;
    Printf.printf "persists:        %d (%d atomic after coalescing)\n"
      m.Experiments.Run.persist_events m.Experiments.Run.persist_ops;
    Printf.printf "critical path:   %d (%.4f per insert)\n"
      m.Experiments.Run.critical_path m.Experiments.Run.cp_per_insert;
    Printf.printf "persist-bound:   %s\n"
      (Report.Table.fmt_rate (Nvram.Timing.persist_bound_rate timing));
    Printf.printf "instruction:     %s\n"
      (Report.Table.fmt_rate (Nvram.Timing.instruction_rate timing));
    Printf.printf "achievable:      %s (normalized %.3f)\n"
      (Report.Table.fmt_rate (Nvram.Timing.achievable_rate timing))
      (Nvram.Timing.normalized timing);
    match graph with
    | None -> ()
    | Some g ->
      print_newline ();
      Persistency.Graph_export.explain Format.std_formatter g;
      Format.pp_print_flush Format.std_formatter ()
  in
  let explain_t =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Record the persist dependence graph and print the \
                   longest dependence chain as a persist-by-persist walk \
                   (its length is the reported critical path).")
  in
  let track_t =
    Arg.(value & opt int 8 & info [ "track-gran" ] ~docv:"BYTES"
           ~doc:"Conflict tracking granularity.")
  in
  let persist_t =
    Arg.(value & opt int 8 & info [ "persist-gran" ] ~docv:"BYTES"
           ~doc:"Atomic persist granularity.")
  in
  let latency_t =
    Arg.(value & opt float 500. & info [ "latency" ] ~docv:"NS"
           ~doc:"Persist latency in nanoseconds.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze one configuration in detail.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 1 $ inserts_t
          $ capacity_t $ track_t $ persist_t $ latency_t $ explain_t)

(* graph *)

let graph_cmd =
  let run () design model threads inserts format out =
    let params =
      Experiments.Run.queue_params ~design ~threads
        ~total_inserts:(threads * inserts)
        ~capacity_entries:(threads * inserts)
        model
    in
    let cfg = Persistency.Config.make model.Experiments.Run.mode in
    let _, graph, _ = Experiments.Run.analyze_with_graph params cfg in
    let emit ppf =
      (match format with
      | `Dot -> Persistency.Graph_export.to_dot ppf graph
      | `Jsonl -> Persistency.Graph_export.to_jsonl ppf graph);
      Format.pp_print_flush ppf ()
    in
    match out with
    | None -> emit Format.std_formatter
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          emit (Format.formatter_of_out_channel oc))
  in
  let format_t =
    let doc =
      "Output format: $(b,dot) (Graphviz, critical path highlighted) or \
       $(b,jsonl) (one node per line)."
    in
    Arg.(value
         & opt (Arg.enum [ ("dot", `Dot); ("jsonl", `Jsonl) ]) `Dot
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let out_t =
    Arg.(value
         & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write to $(docv) instead of standard output.")
  in
  let inserts_small_t =
    Arg.(value & opt int 4
         & info [ "inserts" ] ~docv:"N"
             ~doc:"Inserts per thread (kept small so the graph stays \
                   viewable).")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Export the persist dependence graph of a queue run, with the \
             critical-path nodes marked and per-level/per-thread \
             annotations.")
    Term.(const run $ obs_t $ design_t $ model_t $ threads_t 1
          $ inserts_small_t $ format_t $ out_t)

(* ablation *)

let ablation_cmd =
  let run () which inserts jobs =
    let all = which = "all" in
    let on_profile = print_profile in
    if all || which = "tso" then
      print_string
        (Experiments.Ablation.render_comparisons
           ~title:
             "Ablation A1: SC conflict ordering (baseline) vs BPFS/TSO \
              conflict detection (variant), cp/insert"
           (Experiments.Ablation.tso_conflicts ~jobs ~on_profile
              ~total_inserts:inserts ()));
    if all || which = "spaces" then
      print_string
        (Experiments.Ablation.render_comparisons
           ~title:
             "\nAblation A2: conflicts in both spaces (baseline) vs \
              persistent-only (variant), cp/insert"
           (Experiments.Ablation.conflict_spaces ~jobs ~on_profile
              ~total_inserts:inserts ()));
    if all || which = "coalesce" then
      print_string
        (Experiments.Ablation.render_comparisons
           ~title:
             "\nAblation A4: coalescing on (baseline) vs off (variant), \
              cp/insert, CWL 1 thread"
           (Experiments.Ablation.coalescing ~jobs ~on_profile
              ~total_inserts:inserts ()));
    if all || which = "buffer" then
      print_string
        (Experiments.Ablation.render_buffer
           (Experiments.Ablation.buffer_depth ~jobs ~on_profile ()));
    if all || which = "sync" then
      print_string
        (Experiments.Ablation.render_sync
           (Experiments.Ablation.persist_sync ~jobs ~on_profile ()));
    if all || which = "capacity" then
      print_string
        (Experiments.Ablation.render_capacity
           (Experiments.Ablation.capacity ~jobs ~on_profile
              ~total_inserts:inserts ()))
  in
  let which_t =
    Arg.(value & opt string "all" & info [ "which" ] ~docv:"NAME"
           ~doc:"One of: tso, spaces, coalesce, buffer, sync, capacity, all.")
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the DESIGN.md ablations (A1-A5).")
    Term.(const run $ obs_t $ which_t $ inserts_t $ jobs_t)

(* calibrate *)

let calibrate_cmd =
  let run () () =
    List.iter
      (fun design ->
        List.iter
          (fun threads ->
            let measured =
              Calibrate.measure_native_ns ~design ~threads ()
            in
            Printf.printf
              "%-20s %d threads: measured %7.1f ns/insert (default %6.1f)\n"
              (Workloads.Queue.design_name design)
              threads measured
              (Calibrate.default_insn_ns ~design ~threads))
          [ 1; 8 ])
      [ Workloads.Queue.Cwl; Workloads.Queue.Tlc ]
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Measure this machine's native volatile-queue insert rate.")
    Term.(const run $ obs_t $ const ())

(* Machine-configuration flags (explore --machine, lockfree and litmus
   --model): one configuration by name, with tso for tso-sync
   (Memsim.Machine.config_of_name), or one of the named [groups] the
   command also accepts. *)
let machines_conv groups =
  let parse s =
    match (List.assoc_opt s groups, Memsim.Machine.config_of_name s) with
    | Some ms, _ -> Ok ms
    | None, Some m -> Ok [ m ]
    | None, None ->
      Error (`Msg (Printf.sprintf "unknown machine configuration %S" s))
  in
  let print ppf ms =
    Format.pp_print_string ppf
      (match List.find_opt (fun (_, g) -> g = ms) groups with
      | Some (name, _) -> name
      | None ->
        String.concat ","
          (List.map (fun (m : Memsim.Machine.config) -> m.name) ms))
  in
  Arg.conv (parse, print)

(* DPOR crash checks: explore and lockfree --recovery *)

let exhaustive_limit = 20

type dpor_opts = {
  threads : int;
  depth : int;
  jobs : int;
  max_schedules : int;
  samples : int;
  seed : int;
  replay : Check.Schedule.t option;
}

let dpor_opts_t =
  let depth_t =
    Arg.(value & opt int 2
         & info [ "depth" ] ~docv:"N"
             ~doc:"Operations (lockfree: inserts) per thread to explore.")
  in
  let max_schedules_t =
    Arg.(value & opt int 100_000
         & info [ "max-schedules" ] ~docv:"N"
             ~doc:"Schedule budget; exceeding it reports an incomplete \
                   exploration.")
  in
  let samples_t =
    Arg.(value & opt int 64
         & info [ "samples" ] ~docv:"N"
             ~doc:(Printf.sprintf
                     "Crash states sampled per distinct persist graph larger \
                      than %d nodes (smaller graphs are checked \
                      exhaustively)."
                     exhaustive_limit))
  in
  let seed_t =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Workload (lockfree: key-schedule) and crash-state \
                   sampling seed; stamped into reproducer lines.")
  in
  let replay_t =
    let schedule_conv =
      let parse s =
        Result.map_error (fun m -> `Msg m) (Check.Schedule.parse s)
      in
      Arg.conv
        ( parse,
          fun ppf s -> Format.pp_print_string ppf (Check.Schedule.to_string s)
        )
    in
    Arg.(value & opt (some schedule_conv) None
         & info [ "replay" ] ~docv:"SCHEDULE"
             ~doc:"Re-execute one schedule (comma-separated decision \
                   indices, as printed in a reproducer line) instead of \
                   exploring, and failure-inject just that run.")
  in
  let make threads depth jobs max_schedules samples seed replay =
    { threads; depth; jobs; max_schedules; samples; seed; replay }
  in
  Term.(const make $ threads_t 2 $ depth_t $ jobs_t $ max_schedules_t
        $ samples_t $ seed_t $ replay_t)

(* Explore the interleavings of [instance machine] under each machine
   configuration, failure-injecting every distinct persist graph:
   [report] prints the family's summary, and a violation prints the
   reproducer line that replays it ([command machine] plus the shared
   flags).  With --replay, re-run that one schedule instead, under the
   first configuration — a reproducer line stamps exactly one.
   [survivor] names the buggy discipline in the ERROR line when it is
   not caught [during] the exploration. *)
let dpor_check o ~buggy ~survivor ~during ~command ~replayed ~report instance
    machines =
  let strategy =
    Recovery.auto ~exhaustive_limit ~samples:o.samples ~seed:o.seed
  in
  match o.replay with
  | Some sched ->
    let machine = List.hd machines in
    conclude ~buggy
      ~survived:(survivor ^ " survived the replayed schedule")
      ~holds:(replayed machine sched)
      ~violation:(fun f ->
        Printf.printf "RECOVERY VIOLATION on replayed schedule: %s\n"
          (Recovery.render_failure f))
      (Check.Driver.check_schedule ~strategy sched (instance machine))
  | None ->
    List.iter
      (fun machine ->
        let r =
          Check.Driver.check ~max_schedules:o.max_schedules ~jobs:o.jobs
            ~strategy (instance machine)
        in
        report machine r;
        conclude ~buggy
          ~survived:(survivor ^ " survived " ^ during)
          ~holds:ignore
          ~violation:(fun (sched, f) ->
            Printf.printf
              "RECOVERY VIOLATION: %s\n\
               reproduce with:\n\
              \  %s --threads %d --depth %d --samples %d --seed %d --replay \
               %s\n"
              (Recovery.render_failure f) (command machine) o.threads o.depth
              o.samples o.seed
              (Check.Schedule.to_string sched))
          (match r.Check.Driver.failure with
          | None -> Ok ()
          | Some failure -> Error failure))
      machines

(* explore *)

let explore_cmd =
  let run () workload (model : Experiments.Run.model_point) machines buggy o
      oracle csv =
    (* on the TSO machine the paper's atomic persist barrier is not an
       instruction x86 offers — realize it as the Px86 flush+sfence
       annotation instead *)
    let barrier (m : Memsim.Machine.config) =
      match m.model with
      | Memsim.Machine.Sc -> Memsim.Machine.Pbarrier
      | Memsim.Machine.Tso -> Memsim.Machine.Flush_sfence
    in
    let cfg = Persistency.Config.make model.mode in
    let workload_name, label, instance =
      match workload with
      | `Queue ->
        let annotation =
          if buggy then Workloads.Queue.Buggy_epoch else model.annotation
        in
        ( "queue",
          Workloads.Queue.annotation_name annotation,
          fun (m : Memsim.Machine.config) ->
            let params =
              Workloads.Queue.explore_params ~threads:o.threads ~depth:o.depth
                ~machine:m.model ~persistence:m.persistence ~barrier:(barrier m)
                annotation
            in
            Check.Driver.queue_instance
              { params with Workloads.Queue.seed = o.seed }
              cfg )
      | `Kv ->
        let discipline =
          if buggy then Kv.Buggy_undo else Kv.discipline_for model.mode
        in
        ( "kv",
          Kv.discipline_name discipline,
          fun (m : Memsim.Machine.config) ->
            let params =
              Kv.explore_params ~threads:o.threads ~depth:o.depth
                ~machine:m.model ~persistence:m.persistence ~barrier:(barrier m)
                discipline
            in
            Check.Driver.kv_instance { params with Kv.seed = o.seed } cfg )
    in
    let report (m : Memsim.Machine.config) (report : Check.Driver.report) =
      let brute =
        if not oracle then None
        else begin
          (* brute-force DFS as the oracle: every interleaving, same
             distinct-graph census *)
          let fps = Hashtbl.create 64 in
          let outcome =
            Memsim.Explore.run_all ~limit:o.max_schedules (fun policy ->
                let inst = instance m policy in
                Hashtbl.replace fps
                  (Persistency.Graph_export.fingerprint
                     inst.Check.Driver.graph)
                  ())
          in
          Some (outcome, Hashtbl.length fps)
        end
      in
      let verdict =
        match report.failure with Some _ -> "violated" | None -> "safe"
      in
      if csv then begin
        print_string
          "workload,discipline,model,machine,threads,depth,schedules,\
           sleep_skips,sleep_aborts,steps,complete,distinct_graphs,\
           recovery_checks,prefixes,verdict,brute_traces,brute_graphs\n";
        Printf.printf "%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%b,%d,%d,%d,%s,%s,%s\n"
          workload_name label model.label m.name o.threads o.depth
          report.stats.schedules
          report.stats.sleep_skips report.stats.sleep_aborts
          report.stats.steps report.stats.complete report.distinct
          report.checked report.prefixes verdict
          (match brute with
          | Some (b, _) -> string_of_int b.Memsim.Explore.traces
          | None -> "")
          (match brute with Some (_, g) -> string_of_int g | None -> "")
      end
      else begin
        Printf.printf
          "explore %s / %s / %s / %s: %d threads x %d ops\n\
          \  schedules executed    %d%s\n\
          \  redundant runs pruned %d aborted, %d skipped before starting\n\
          \  scheduling decisions  %d\n\
          \  distinct persist graphs %d (%d recovery-checked, %d durable \
           prefixes)\n"
          workload_name label model.label m.name o.threads o.depth
          report.stats.schedules
          (if report.stats.complete then " (complete)" else " (budget hit)")
          report.stats.sleep_aborts report.stats.sleep_skips
          report.stats.steps report.distinct report.checked report.prefixes;
        match brute with
        | Some (b, g) ->
          Printf.printf
            "  brute-force oracle    %d traces%s, %d distinct graphs\n"
            b.Memsim.Explore.traces
            (if b.Memsim.Explore.complete then "" else " (limit hit)")
            g
        | None -> ()
      end
    in
    dpor_check o ~buggy ~survivor:"the buggy discipline" ~during:"exploration"
      ~command:(fun (m : Memsim.Machine.config) ->
        Printf.sprintf
          "persistsim explore --workload %s --model %s --machine %s%s"
          workload_name model.label m.name
          (if buggy then " --buggy" else ""))
      ~replayed:(fun _ sched (r : Recovery.report) ->
        Printf.printf
          "replayed schedule (%d decisions): recovery holds in all %d \
           durable prefixes of %d persists\n"
          (Check.Schedule.length sched) r.prefixes r.nodes)
      ~report instance machines
  in
  let workload_t =
    let doc = "Workload to explore: $(b,queue) (CWL) or $(b,kv)." in
    Arg.(value
         & opt (enum [ ("queue", `Queue); ("kv", `Kv) ]) `Queue
         & info [ "workload" ] ~docv:"W" ~doc)
  in
  let machine_t =
    Arg.(value
         & opt (machines_conv []) [ Memsim.Machine.sc_config ]
         & info [ "machine" ] ~docv:"MACHINE"
             ~doc:"Machine configuration to explore under: $(b,sc) \
                   (default), $(b,tso-sync) (alias $(b,tso)) or \
                   $(b,tso-buffered).  On TSO machines persist barriers \
                   are realized as the Px86 flush+sfence annotation.")
  in
  let buggy_t =
    Arg.(value & flag
         & info [ "buggy" ]
             ~doc:"Drop the recovery-critical barrier (queue: data->head; \
                   kv: seal->slot) so the explorer can demonstrate the \
                   resulting violation.")
  in
  let oracle_t =
    Arg.(value & flag
         & info [ "oracle" ]
             ~doc:"Also run the brute-force interleaving enumeration \
                   (Memsim.Explore) and print its trace and distinct-graph \
                   counts next to DPOR's.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Systematically explore scheduler interleavings with dynamic \
             partial-order reduction, failure-injecting recovery on every \
             distinct persist graph.")
    Term.(const run $ obs_t $ workload_t $ model_t $ machine_t $ buggy_t
          $ dpor_opts_t $ oracle_t $ csv_t)

(* lockfree *)

let lockfree_cmd =
  let module E = Experiments.Lockfree_exp in
  let module C = Lockfree.Cas_set in
  let sweep inserts seed csv jobs machines =
    let t = E.run ~jobs ~inserts ~seed ~machines () in
    print_sweep t.E.profile (fun () -> if csv then E.to_csv t else E.render t)
  in
  let failure_inject o discipline machines =
    let cfg = Persistency.Config.make Persistency.Config.Epoch in
    let dname = C.discipline_name discipline in
    let buggy = discipline = C.Buggy_traverse in
    dpor_check o ~buggy ~survivor:"buggy-traverse" ~during:"failure injection"
      ~command:(fun (m : Memsim.Machine.config) ->
        Printf.sprintf
          "persistsim lockfree --recovery --discipline %s --model %s" dname
          m.name)
      ~replayed:(fun m sched (r : Recovery.report) ->
        Printf.printf
          "replayed schedule (%d decisions, %s): recovery and durable \
           linearizability hold in all %d durable prefixes of %d persists\n"
          (Check.Schedule.length sched) m.name r.prefixes r.nodes)
      ~report:(fun m (r : Check.Driver.report) ->
        Printf.printf
          "lockfree / %s / %s: %d threads x %d inserts\n\
          \  schedules executed    %d%s\n\
          \  distinct persist graphs %d (%d recovery-checked, %d durable \
           prefixes)\n"
          dname m.name o.threads o.depth r.stats.Check.Dpor.schedules
          (if r.stats.Check.Dpor.complete then " (complete)"
           else " (budget hit)")
          r.distinct r.checked r.prefixes;
        if r.failure = None && not buggy then
          print_endline
            "recovery and durable linearizability hold in every durable \
             prefix of every explored interleaving")
      (fun m ->
        Check.Driver.lockfree_instance
          { (C.explore_params ~threads:o.threads ~depth:o.depth
               ~machine:m.model ~persistence:m.persistence discipline)
            with C.seed = o.seed }
          cfg)
      machines
  in
  let run () recovery buggy discipline o inserts sweep_seed csv machines =
    let discipline = if buggy then C.Buggy_traverse else discipline in
    if recovery || buggy || o.replay <> None then
      failure_inject o discipline machines
    else sweep inserts sweep_seed csv o.jobs machines
  in
  let machines_t =
    Arg.(value
         & opt
             (machines_conv [ ("all", Memsim.Machine.all_configs) ])
             Memsim.Machine.all_configs
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Machine configuration: $(b,sc), $(b,tso-sync) (alias \
                   $(b,tso)), $(b,tso-buffered) or $(b,all) (default).  \
                   Selects the sweep's table rows, or the machines \
                   failure-injected under --recovery.")
  in
  let discipline_t =
    let doc =
      "Persistence discipline: $(b,flush-all), $(b,nvtraverse) or \
       $(b,buggy-traverse)."
    in
    Arg.(value
         & opt
             (enum
                [ ("flush-all", C.Flush_all);
                  ("nvtraverse", C.Nvtraverse);
                  ("buggy-traverse", C.Buggy_traverse) ])
             C.Nvtraverse
         & info [ "discipline" ] ~docv:"D" ~doc)
  in
  let recovery_t =
    Arg.(value & flag
         & info [ "recovery" ]
             ~doc:"Exhaustive failure injection instead of the sweep: DPOR \
                   over interleavings, every distinct persist graph \
                   recovery-checked and held to durable linearizability.")
  in
  let buggy_t =
    Arg.(value & flag
         & info [ "buggy" ]
             ~doc:"With --recovery: use the buggy-traverse discipline (no \
                   pre-CAS destination flush) to demonstrate a detectable \
                   violation.")
  in
  let inserts_t =
    Arg.(value & opt int 128
         & info [ "inserts" ] ~docv:"N"
             ~doc:"Inserts per thread for the sweep.")
  in
  let sweep_seed_t =
    Arg.(value & opt int 42
         & info [ "sweep-seed" ] ~docv:"N"
             ~doc:"Key-schedule seed for the sweep.")
  in
  Cmd.v
    (Cmd.info "lockfree"
       ~doc:"Lock-free durable CAS-set: sweep the NVTraverse flush-elision \
             win (persist critical path per insert, flush-all vs \
             nvtraverse) over thread counts and the machine matrix (sc, \
             tso-sync, tso-buffered), or exhaustively failure-inject one \
             discipline (--recovery) under the durable-linearizability \
             oracle.")
    Term.(const run $ obs_t $ recovery_t $ buggy_t $ discipline_t
          $ dpor_opts_t $ inserts_t $ sweep_seed_t $ csv_t $ machines_t)

(* machine (SC vs TSO) *)

let machine_cmd =
  let run () inserts capacity jobs =
    let t =
      Experiments.Machine_exp.run ~jobs ~total_inserts:inserts
        ~capacity_entries:capacity ()
    in
    print_sweep t.Experiments.Machine_exp.profile (fun () ->
        Experiments.Machine_exp.render t)
  in
  Cmd.v
    (Cmd.info "machine"
       ~doc:"Run the epoch-annotated CWL queue on an SC vs an x86-TSO \
             machine (per-thread store buffers, persists at drain time) \
             and compare persist counts and critical path.")
    Term.(const run $ obs_t $ inserts_t $ capacity_t $ jobs_t)

(* litmus *)

let litmus_cmd =
  let run () configs dpor name verbose csv =
    let tests =
      match name with
      | None -> Litmus.suite
      | Some n -> (
        match Litmus.find n with
        | Some t -> [ t ]
        | None ->
          Printf.eprintf "unknown litmus test %S; known: %s\n" n
            (String.concat ", " (List.map (fun t -> t.Litmus.name) Litmus.suite));
          exit 2)
    in
    let how = if dpor then Litmus.Dpor else Litmus.Brute in
    let results =
      List.concat_map
        (fun t ->
          List.map (fun config -> Litmus.check ~verify:true ~how ~config t)
            configs)
        tests
    in
    rendering (fun () ->
        if csv then begin
          print_string "test,model,method,schedules,outcomes,status\n";
          List.iter
            (fun (r : Litmus.result) ->
              Printf.printf "%s,%s,%s,%d,%d,%s\n" r.Litmus.test.Litmus.name
                (Litmus.config_name r.Litmus.config)
                (Litmus.method_name r.Litmus.how)
                r.Litmus.schedules
                (List.length r.Litmus.observed)
                (if Litmus.pass r then "pass" else "FAIL"))
            results
        end
        else begin
          Printf.printf "%-24s %-12s %-6s %10s %9s  %s\n" "test" "machine"
            "method" "schedules" "outcomes" "status";
          List.iter
            (fun (r : Litmus.result) ->
              Printf.printf "%-24s %-12s %-6s %10d %9d  %s\n"
                r.Litmus.test.Litmus.name
                (Litmus.config_name r.Litmus.config)
                (Litmus.method_name r.Litmus.how)
                r.Litmus.schedules
                (List.length r.Litmus.observed)
                (if Litmus.pass r then "pass" else "FAIL");
              if verbose || not (Litmus.pass r) then begin
                Printf.printf "    %s\n" r.Litmus.test.Litmus.doc;
                Printf.printf "    observed: %s\n"
                  (String.concat " | " r.Litmus.observed);
                let part what = function
                  | [] -> ()
                  | l ->
                    Printf.printf "    %s: %s\n" what (String.concat " | " l)
                in
                part "MISSING" r.Litmus.missing;
                part "UNEXPECTED" r.Litmus.unexpected;
                part "FORBIDDEN OBSERVED" r.Litmus.forbidden_hit
              end)
            results
        end);
    if List.exists (fun r -> not (Litmus.pass r)) results then exit 1
  in
  let models_t =
    let groups =
      Memsim.Machine.
        [ ("both", [ sc_config; tso_sync_config ]); ("all", all_configs) ]
    in
    Arg.(value & opt (machines_conv groups) Litmus.all_configs
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Machine configuration: $(b,sc), $(b,tso-sync) (alias \
                   $(b,tso)), $(b,tso-buffered), $(b,both) (sc + \
                   tso-sync) or $(b,all) (default).")
  in
  let dpor_t =
    Arg.(value & flag
         & info [ "dpor" ]
             ~doc:"Explore with dynamic partial-order reduction instead of \
                   brute-force interleaving enumeration.")
  in
  let test_t =
    Arg.(value & opt (some string) None
         & info [ "test" ] ~docv:"NAME" ~doc:"Run a single named test.")
  in
  let verbose_t =
    Arg.(value & flag
         & info [ "verbose"; "v" ]
             ~doc:"Print each test's observed outcome set.")
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Exhaustively check the litmus-test suite (classic x86 shapes, \
             Px86 persist-order shapes and buffered-persistency shapes) \
             against declared outcome sets under SC, TSO-sync and \
             TSO-buffered, cross-checking the engine against the ordering \
             oracle.")
    Term.(const run $ obs_t $ models_t $ dpor_t $ test_t $ verbose_t $ csv_t)

(* perf: the regression gate over BENCH_*.json files *)

let perf_cmd =
  let fmt_secs s =
    if s >= 1. then Printf.sprintf "%.3f s" s
    else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
    else if s >= 1e-6 then Printf.sprintf "%.3f us" (s *. 1e6)
    else Printf.sprintf "%.0f ns" (s *. 1e9)
  in
  let fmt_words w =
    if w >= 1e9 then Printf.sprintf "%.2fG" (w /. 1e9)
    else if w >= 1e6 then Printf.sprintf "%.2fM" (w /. 1e6)
    else if w >= 1e3 then Printf.sprintf "%.1fk" (w /. 1e3)
    else Printf.sprintf "%.0f" w
  in
  let load path =
    match Obs.Runinfo.load_bench path with
    | Ok b -> b
    | Error msg ->
      Printf.eprintf "perf: %s\n" msg;
      exit 2
  in
  let render_entries (b : Obs.Runinfo.bench) =
    let t =
      Report.Table.create
        ~columns:
          [ ("entry", Report.Table.Left); ("kind", Report.Table.Left);
            ("wall", Report.Table.Right); ("rate", Report.Table.Right);
            ("alloc words", Report.Table.Right);
            ("peak rss", Report.Table.Right) ]
    in
    List.iter
      (fun (e : Obs.Runinfo.entry) ->
        Report.Table.add_row t
          [ e.name; e.kind; fmt_secs e.wall_s;
            Printf.sprintf "%s %s" (fmt_words e.rate) e.rate_unit;
            fmt_words e.alloc_words;
            Printf.sprintf "%d kB" e.peak_rss_kb ])
      b.entries;
    Report.Table.print t
  in
  let render_comparison (c : Obs.Runinfo.comparison) =
    let t =
      Report.Table.create
        ~columns:
          [ ("entry", Report.Table.Left); ("wall base", Report.Table.Right);
            ("wall cand", Report.Table.Right); ("d wall", Report.Table.Right);
            ("rate base", Report.Table.Right);
            ("rate cand", Report.Table.Right); ("d rate", Report.Table.Right);
            ("status", Report.Table.Left) ]
    in
    List.iter
      (fun (d : Obs.Runinfo.delta) ->
        Report.Table.add_row t
          [ d.d_name; fmt_secs d.base.wall_s; fmt_secs d.cand.wall_s;
            Printf.sprintf "%+.1f%%" d.wall_pct;
            fmt_words d.base.rate; fmt_words d.cand.rate;
            Printf.sprintf "%+.1f%%" d.rate_pct;
            (if d.regressed then "REGRESSED" else "ok") ])
      c.deltas;
    Report.Table.print t
  in
  let run () files threshold report_only =
    match files with
    | [] -> assert false (* non_empty *)
    | [ path ] ->
      let b = load path in
      Printf.printf "%s: %s\n" path (Obs.Runinfo.summary b.Obs.Runinfo.run);
      render_entries b
    | base_path :: cand_paths ->
      let base = load base_path in
      Printf.printf "base %s: %s\n" base_path
        (Obs.Runinfo.summary base.Obs.Runinfo.run);
      let regressed = ref false in
      List.iter
        (fun cand_path ->
          let cand = load cand_path in
          Printf.printf "cand %s: %s\n" cand_path
            (Obs.Runinfo.summary cand.Obs.Runinfo.run);
          let c =
            Obs.Runinfo.compare_benches ~threshold_pct:threshold base cand
          in
          render_comparison c;
          (match c.Obs.Runinfo.only_base with
          | [] -> ()
          | l ->
            Printf.printf "entries only in base: %s\n" (String.concat ", " l));
          (match c.Obs.Runinfo.only_cand with
          | [] -> ()
          | l ->
            Printf.printf "entries only in cand: %s\n" (String.concat ", " l));
          Printf.printf
            "%s: %d/%d entries regressed beyond +-%.0f%% (wall-clock up or \
             throughput down)\n"
            cand_path
            (List.length c.Obs.Runinfo.regressions)
            (List.length c.Obs.Runinfo.deltas)
            threshold;
          if c.Obs.Runinfo.regressions <> [] then regressed := true)
        cand_paths;
      if !regressed && not report_only then exit 1
  in
  let files_t =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"BENCH_JSON"
             ~doc:"Bench manifests (BENCH_*.json, from BENCH_OUT=<path> \
                   bench runs).  One file: print its entries.  Two or more: \
                   compare each later file against the first.")
  in
  let threshold_t =
    Arg.(value & opt float 10.
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Regression threshold in percent: an entry regresses when \
                   its wall clock grows or its throughput drops by more than \
                   $(docv)%.")
  in
  let report_only_t =
    Arg.(value & flag
         & info [ "report-only" ]
             ~doc:"Render the comparison but always exit 0 (for CI runs \
                   whose hardware differs from the committed baseline).")
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Compare machine-readable bench manifests (BENCH_*.json) and \
             gate on wall-clock/throughput regressions: exit 1 when any \
             entry regressed beyond the threshold.")
    Term.(const run $ obs_t $ files_t $ threshold_t $ report_only_t)

let main =
  let doc =
    "reproduction of 'Memory Persistency' (ISCA 2014): persistency models, \
     persist critical-path simulation, persistent queues"
  in
  Cmd.group
    (Cmd.info "persistsim" ~version:"1.0.0" ~doc)
    [ table1_cmd; fig3_cmd; fig4_cmd; fig5_cmd; validate_cmd; recovery_cmd;
      kv_cmd; trace_cmd; analyze_cmd; graph_cmd; ablation_cmd; calibrate_cmd;
      cache_cmd; wear_cmd; consistency_cmd; explore_cmd; lockfree_cmd;
      litmus_cmd; machine_cmd; perf_cmd; serve_cmd ]

(* Library parameter checks raise Invalid_argument (a thread count
   that does not divide the total, a replayed schedule that does not fit
   the run, ...): report the reason as a usage error, exit 2 as for an
   unknown litmus test, instead of an uncaught exception. *)
let () =
  exit
    (try Cmd.eval ~catch:false main with
    | Invalid_argument reason ->
      Printf.eprintf "persistsim: %s\n" reason;
      2
    | e ->
      Printf.eprintf "persistsim: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      Cmd.Exit.internal_error)
