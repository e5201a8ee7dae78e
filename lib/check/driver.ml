module M = Memsim.Machine
module Ps = Persistency
module Om = Obs.Metrics

let m_distinct = Om.counter Om.default "check.distinct_graphs"
let m_duplicates = Om.counter Om.default "check.duplicate_graphs"
let m_sched_rate = Om.gauge_max Om.default "check.schedules_per_sec"

type instance = {
  graph : Ps.Persist_graph.t;
  capacity : int;
  observer : Recovery.cut_observer;
}

type report = {
  stats : Dpor.stats;
  distinct : int;
  checked : int;
  prefixes : int;
  failure : (Schedule.t * Recovery.failure) option;
}

let check ?gran ?max_schedules ?(jobs = 1) ?(stop_on_failure = true) ~strategy
    run =
  let mu = Mutex.create () in
  let seen = Hashtbl.create 64 in
  let checked = ref 0 in
  let prefixes = ref 0 in
  let failure = ref None in
  (* Called from worker domains under [explore_par]: the fingerprint
     set and accounting are mutex-protected; the recovery check itself
     runs outside the lock (each instance is worker-private). *)
  (* Total schedules are unknown up front, so the heartbeat shows a
     running count and rate rather than an ETA. *)
  let prog = Obs.Perfscope.progress_start "dpor schedules" in
  let on_exec sched inst =
    Obs.Perfscope.progress_step prog;
    let fp = Ps.Graph_export.fingerprint inst.graph in
    let fresh =
      Mutex.protect mu (fun () ->
          if Hashtbl.mem seen fp then false
          else begin
            Hashtbl.add seen fp ();
            true
          end)
    in
    if not fresh then begin
      Om.incr m_duplicates;
      Dpor.Continue
    end
    else begin
      Om.incr m_distinct;
      let verdict =
        Recovery.check_cuts ~graph:inst.graph ~capacity:inst.capacity
          ~strategy:(strategy inst.graph) inst.observer
      in
      Mutex.protect mu (fun () ->
          incr checked;
          match verdict with
          | Ok r ->
            prefixes := !prefixes + r.Recovery.prefixes;
            Dpor.Continue
          | Error f ->
            prefixes := !prefixes + f.Recovery.prefixes_ok + 1;
            if !failure = None then failure := Some (sched, f);
            if stop_on_failure then Dpor.Stop else Dpor.Continue)
    end
  in
  let stats, span =
    let span = Obs.Perfscope.start () in
    let stats =
      if jobs > 1 then Dpor.explore_par ?gran ?max_schedules ~jobs ~on_exec run
      else Dpor.explore ?gran ?max_schedules ~on_exec run
    in
    (stats, Obs.Perfscope.finish span)
  in
  Obs.Perfscope.progress_finish prog;
  Obs.Perfscope.throughput m_sched_rate ~items:stats.Dpor.schedules
    ~seconds:span.Obs.Perfscope.wall_s;
  { stats;
    distinct = Hashtbl.length seen;
    checked = !checked;
    prefixes = !prefixes;
    failure = !failure }

(* Every instance runs its workload with a history tee, so the
   observer can layer the durable-linearizability oracle ({!Dlin})
   over the family's structural invariant: the invariant runs first
   (its failure messages are the pinned, replayable ones), then the
   recovered abstract state is checked against the operations the cut
   classifies as fully / partially / not durable. *)
let instrumented_run run cfg =
  let hist = Dlin.History.create () in
  let engine, result =
    Ps.Engine.drive ~tee:(Dlin.History.sink hist)
      { cfg with Ps.Config.record_graph = true }
      run
  in
  let ops effect_of =
    Dlin.History.ops hist
      ~node_of_persist:(Ps.Engine.node_of_persist_event engine)
      ~effect_of
  in
  (result, Option.get (Ps.Engine.graph engine), ops)

let queue_instance params cfg policy =
  let params = { params with Workloads.Queue.policy } in
  let result, graph, history =
    instrumented_run (fun ~sink -> Workloads.Queue.run params ~sink) cfg
  in
  let layout = result.Workloads.Queue.layout in
  let ops =
    history (fun ~tid ~index ~label:_ -> Dlin.Enq { etid = tid; eseq = index })
  in
  let observer ~cut image =
    match Workloads.Queue_recovery.check ~params ~layout image with
    | Error _ as e -> e
    | Ok () -> (
      match Workloads.Queue_recovery.recover ~params ~layout image with
      | Error _ as e -> e
      | Ok r ->
        Dlin.check_fifo ~ops ~cut
          ~recovered:r.Workloads.Queue_recovery.entries)
  in
  { graph;
    capacity = Workloads.Queue_recovery.image_capacity layout;
    observer }

let kv_instance params cfg policy =
  let params = { params with Kv.policy } in
  let result, graph, history =
    instrumented_run (fun ~sink -> Kv.run params ~sink) cfg
  in
  let layout = result.Kv.layout in
  let ops =
    history (fun ~tid ~index ~label:_ ->
        match Kv.op_of params ~tid ~seq:index with
        | Kv.Put { key; value } -> Dlin.Put { key; value }
        | Kv.Get _ -> Dlin.Read)
  in
  let observer ~cut image =
    match Kv_recovery.check ~params ~layout image with
    | Error _ as e -> e
    | Ok () -> (
      match Kv_recovery.recover ~params ~layout image with
      | Error _ as e -> e
      | Ok r -> Dlin.check_map ~ops ~cut ~recovered:r.Kv_recovery.bindings)
  in
  { graph; capacity = Kv_recovery.image_capacity layout; observer }

let lockfree_instance params cfg policy =
  let params = { params with Lockfree.Cas_set.policy } in
  let result, graph, history =
    instrumented_run (fun ~sink -> Lockfree.Cas_set.run params ~sink) cfg
  in
  let layout = result.Lockfree.Cas_set.layout in
  let keys = result.Lockfree.Cas_set.keys in
  let ops =
    history (fun ~tid ~index ~label:_ ->
        Dlin.Add
          { key = keys.((tid * params.Lockfree.Cas_set.inserts_per_thread)
                        + index) })
  in
  let observer ~cut image =
    match Lockfree.Set_recovery.recover ~params ~layout image with
    | Error _ as e -> e
    | Ok r ->
      Dlin.check_set ~ops ~cut ~recovered:r.Lockfree.Set_recovery.keys
  in
  { graph; capacity = Lockfree.Set_recovery.image_capacity layout; observer }

let replay sched run = run (M.Scripted (Schedule.to_script sched))

let check_schedule ~strategy sched run =
  let inst = replay sched run in
  Recovery.check_cuts ~graph:inst.graph ~capacity:inst.capacity
    ~strategy:(strategy inst.graph) inst.observer
