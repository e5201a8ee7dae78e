(* One benchmark run: set up a workload for the seed's variant, repeat
   its fixed amount of work, check every output, and print the metrics
   named in BENCHMARK.json as the last line of standard output. *)

let workloads = [ Sweep.workload; Crash_check.workload; Explore.workload ]

(* Seeds select one of [variants] input variants; each variant's
   simulated statistics are pinned in [Expected]. *)
let variants = 4
let variant_of_seed seed = ((seed mod variants) + variants) mod variants

let end_to_end =
  [ ("setup_s", "s");
    ("wall_s", "s");
    ("items_per_s", "1/s");
    ("item_p50_ms", "ms");
    ("item_tail_ms", "ms");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("machine.ns_per_event", "ns");
    ("machine.ns_per_event.kv", "ns");
    ("machine.ns_per_event.tso", "ns");
    ("machine.words_per_event", "words");
    ("engine.ns_per_event", "ns");
    ("engine.ns_per_event.kv", "ns");
    ("engine.ns_per_event.wide", "ns");
    ("engine.words_per_event", "words");
    ("experiments.render_ms", "ms");
    ("graph.ns_per_event.small", "ns");
    ("graph.ns_per_event.large", "ns");
    ("graph.growth", "ratio");
    ("graph.words_per_event", "words");
    ("graph.edges_per_node", "ratio");
    ("recovery.sample_ns_per_cut", "ns");
    ("recovery.image_ns_per_cut", "ns");
    ("recovery.distinct_cut_ratio", "ratio");
    ("observer.ns_per_cut", "ns");
    ("exec.ns_per_schedule", "ns");
    ("dpor.self_ns_per_schedule", "ns");
    ("dpor.steps_per_schedule", "steps");
    ("dpor.sleep_abort_ratio", "ratio");
    ("driver.distinct_ratio", "ratio");
    ("litmus.ms_per_check", "ms");
    ("trace.overhead_pct", "%") ]

(* Set-up is repeated and its median reported, so that one slow start
   does not read as a regression. *)
let setup_repeats = 7

(* At least this many repetitions, so that a median is taken over
   several. *)
let min_reps = 3

let find_workload name = List.find_opt (fun w -> w.Rep.name = name) workloads

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* Runs [f] until [seconds] have passed, and at least [min] times.  The
   calibration kernels run before the first run and after every run;
   each result comes with the scale factor of the samples on either
   side of it (see Calib). *)
let repeat ~seconds ~min f =
  let deadline = Rep.now () +. seconds in
  let rec go acc before n =
    if n >= min && Rep.now () >= deadline then List.rev acc
    else begin
      Gc.compact ();
      let r = f () in
      let after = Calib.sample () in
      go ((r, Calib.scale ~before ~after) :: acc) after (n + 1)
    end
  in
  go [] (Calib.sample ()) 0

(* The median of a scaled quantity over the runs of [repeat]. *)
let scaled_median f runs = Stats.median (List.map (fun (r, scale) -> f r *. scale) runs)

let setup w ~variant =
  let runs =
    repeat ~seconds:0. ~min:setup_repeats (fun () ->
        Rep.timed (fun () -> w.Rep.setup ~variant))
  in
  let inst = fst (fst (List.hd runs)) in
  (inst, scaled_median snd runs, Stats.median (List.map (fun ((_, t), _) -> t) runs))

let rep_wall r = List.fold_left (fun acc (_, t) -> acc +. t) 0. r.Rep.segments

(* The untraced repetitions of a run, until [seconds] have passed and
   at least [min_reps].  Also returns the process's peak memory after
   the first repetition: later ones redo the same work, and how far the
   heap drifts over them depends on how many fit in [seconds]. *)
let repetitions inst ck ~seconds =
  let rss_kb = ref 0 in
  let reps =
    repeat ~seconds ~min:min_reps (fun () ->
        let r = inst.Rep.rep ck in
        if !rss_kb = 0 then rss_kb := Obs.Perfscope.peak_rss_kb ();
        r)
  in
  (reps, !rss_kb)

(* End-to-end metrics from the repetitions of one run.  Each repetition
   gives every metric on its own, scaled by the calibration samples
   taken just before and after it (see Calib); the result is the median
   over the repetitions.  The unscaled medians are printed beside the
   result. *)
let end_to_end_metrics ~setup:(setup_s, raw_setup_s) (reps, rss_kb) =
  let phases r = List.map fst r.Rep.segments in
  let first = fst (List.hd reps) in
  if List.exists (fun (r, _) -> phases r <> phases first) reps then
    failwith "repetitions of one run did different work";
  let phase_s p r =
    List.fold_left (fun acc (q, t) -> if q = p then acc +. t else acc) 0. r.Rep.segments
  in
  let items r =
    List.filter_map (fun (p, t) -> if p = "item" then Some t else None) r.Rep.segments
  in
  let n_items = List.length (items first) in
  let tail_pct =
    match Stats.tail (items first) with
    | Some (pct, _) -> pct
    | None -> failwith "fewer than 100 items per repetition: no tail"
  in
  let tail r = 1e3 *. snd (Option.get (Stats.tail (items r))) in
  let p50 r = 1e3 *. Stats.median (items r) in
  let item_rate r = float_of_int n_items /. phase_s "item" r in
  let raw f = Stats.median (List.map (fun (r, _) -> f r) reps) in
  info "items: %d per repetition, %d repetitions; tail = p%g of %d samples per repetition"
    n_items (List.length reps) tail_pct n_items;
  info "calibration: times scaled by %.4f (median; %.4f to %.4f)"
    (Stats.median (List.map snd reps))
    (List.fold_left (fun m (_, s) -> Float.min m s) infinity reps)
    (List.fold_left (fun m (_, s) -> Float.max m s) 0. reps);
  info "raw: wall_s %.6g, item_p50_ms %.6g, item_tail_ms %.6g, setup_s %.6g"
    (raw rep_wall) (raw p50) (raw tail) raw_setup_s;
  List.iter
    (fun (name, count, phase) ->
      info "%s: %.6g 1/s (raw)" name
        (raw (fun r -> float_of_int count /. phase_s phase r)))
    first.Rep.counts;
  [ ("setup_s", setup_s);
    ("wall_s", scaled_median rep_wall reps);
    (* a rate divides by the scale *)
    ("items_per_s",
     Stats.median (List.map (fun (r, scale) -> item_rate r /. scale) reps));
    ("item_p50_ms", scaled_median p50 reps);
    ("item_tail_ms", scaled_median tail reps);
    ("peak_rss_mb", float_of_int rss_kb /. 1024.) ]

let write_spans ~workload ~seed recorders =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-seed%d.json" dir workload seed in
  let oc = open_out path in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.List (List.map (fun (name, sp) ->
            Obs.Json.Obj [ ("pass", Obs.Json.Str name); ("spans", Spans.to_json sp) ])
            recorders)));
  close_out oc;
  info "spans: %s" path

(* A traced run: the workload's own traced pass against as many
   untraced repetitions (the difference is the tracing overhead), then
   one traced pass of each other workload, so that every per-layer
   metric is printed; a metric is taken from the first workload that
   reports it, the run's own first.  Layer times are scaled like the
   end-to-end ones, pass by pass; counts, words and ratios are not
   times. *)
let per_layer_metrics w inst ~variant ~seed ~seconds ck =
  let untraced =
    repeat ~seconds:(seconds /. 3.) ~min:1 (fun () -> rep_wall (inst.Rep.rep ck))
  in
  let pass inst =
    let sp = Spans.create () in
    let metrics, wall = Rep.timed (fun () -> inst.Rep.traced ck sp) in
    (metrics, wall, sp)
  in
  let passes inst ~seconds = repeat ~seconds ~min:1 (fun () -> pass inst) in
  let scaled name v scale =
    match List.assoc_opt name per_layer with
    | Some ("ns" | "ms") -> v *. scale
    | _ -> v
  in
  let metrics runs =
    let (m, _, _), _ = List.hd runs in
    List.map
      (fun (name, _) ->
        let v ((m, _, _), s) = scaled name (List.assoc name m) s in
        (name, Stats.median (List.map v runs)))
      m
  in
  let own = passes inst ~seconds:(seconds /. 3.) in
  let overhead =
    100.
    *. ((scaled_median (fun (_, wall, _) -> wall) own /. scaled_median Fun.id untraced)
       -. 1.)
  in
  let foreign =
    List.filter_map
      (fun o ->
        if o.Rep.name = w.Rep.name then None
        else Some (o.Rep.name, passes (o.Rep.setup ~variant) ~seconds:0.))
      workloads
  in
  let spans runs = List.map (fun ((_, _, sp), _) -> sp) runs in
  write_spans ~workload:w.Rep.name ~seed
    (List.map (fun sp -> (w.Rep.name, sp)) (spans own)
    @ List.concat_map
        (fun (name, runs) -> List.map (fun sp -> (name, sp)) (spans runs))
        foreign);
  info "calibration: layer times scaled by %.4f (median over the run's own passes)"
    (Stats.median (List.map snd own));
  List.fold_left
    (fun acc (_, runs) ->
      acc @ List.filter (fun (name, _) -> not (List.mem_assoc name acc)) (metrics runs))
    (metrics own) foreign
  @ [ ("trace.overhead_pct", overhead) ]

(* The result line carries exactly the declared metrics, each with its
   one unit; anything else is a defect of the benchmark itself. *)
let result_json ck declared values =
  let undeclared = List.filter (fun (n, _) -> not (List.mem_assoc n declared)) values in
  if undeclared <> [] then
    failwith ("undeclared metric " ^ fst (List.hd undeclared));
  let metric (name, unit) =
    match List.assoc_opt name values with
    | Some v when Float.is_finite v ->
      (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str unit) ])
    | Some _ -> failwith ("metric " ^ name ^ " is not a finite number")
    | None -> failwith ("metric " ^ name ^ " was not measured")
  in
  Obs.Json.Obj
    [ ("correct", Obs.Json.Bool (ck.Checks.failed = 0 && ck.Checks.attempted > 0));
      ("attempted", Obs.Json.Int ck.Checks.attempted);
      ("failed", Obs.Json.Int ck.Checks.failed);
      ("metrics", Obs.Json.Obj (List.map metric declared)) ]

let env_info () =
  let getenv k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  info "env: commit=%s dirty=%s nproc=%d ocaml=%s"
    (getenv "PERFBENCH_COMMIT") (getenv "PERFBENCH_DIRTY")
    (Domain.recommended_domain_count ()) Sys.ocaml_version

(* Returns the result line and the checks behind it. *)
let run ~workload ~seed ~seconds ~trace =
  let w =
    match find_workload workload with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let variant = variant_of_seed seed in
  info "perfbench: workload=%s seed=%d variant=%d seconds=%g trace=%b" workload
    seed variant seconds trace;
  env_info ();
  let ck = Checks.create Expected.table in
  let inst, setup_s, raw_setup_s = setup w ~variant in
  let declared, values =
    if trace then (per_layer, per_layer_metrics w inst ~variant ~seed ~seconds ck)
    else
      ( end_to_end,
        end_to_end_metrics ~setup:(setup_s, raw_setup_s)
          (repetitions inst ck ~seconds) )
  in
  info "error_rate: %g (%d of %d checks failed)"
    (float_of_int ck.Checks.failed /. float_of_int (max 1 ck.Checks.attempted))
    ck.Checks.failed ck.Checks.attempted;
  (result_json ck declared values, ck)

(* The [Expected] module's source, from one repetition of every
   workload on every variant.  Verdict checks must still hold. *)
let record_expected () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "(* Simulated statistics pinned per seed variant.  Generated by\n\
    \   [main.exe --record-expected]; regenerate only when a change is\n\
    \   meant to alter simulated results. *)\n\n\
     let table : (string * (string * int) list) list =\n  [ ";
  let first = ref true in
  List.iter
    (fun w ->
      for variant = 0 to variants - 1 do
        let ck = Checks.recorder () in
        ignore ((w.Rep.setup ~variant).Rep.rep ck);
        if ck.Checks.failed > 0 then failwith "a verdict failed while recording";
        List.iter
          (fun (key, stat) ->
            if not !first then Buffer.add_string buf ";\n    ";
            first := false;
            Buffer.add_string buf
              (Printf.sprintf "(%S, [ %s ])" key
                 (String.concat "; "
                    (List.map (fun (k, v) -> Printf.sprintf "(%S, %d)" k v) stat))))
          (Checks.observed ck)
      done)
    workloads;
  Buffer.add_string buf " ]\n";
  Buffer.contents buf
