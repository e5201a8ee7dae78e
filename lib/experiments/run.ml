type metrics = {
  inserts : int;
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_insert : float;
  insert_order : int list;
}

let metrics_of (engine : Persistency.Engine.t) (result : Workloads.Queue.result) =
  { inserts = result.Workloads.Queue.inserts;
    events = result.Workloads.Queue.events;
    persist_events = Persistency.Engine.persist_events engine;
    persist_ops = Persistency.Engine.persist_ops engine;
    coalesced = Persistency.Engine.coalesced engine;
    critical_path = Persistency.Engine.critical_path engine;
    cp_per_insert = Persistency.Engine.cp_per_label engine "insert";
    insert_order = result.Workloads.Queue.insert_order }

let analyze params cfg =
  let engine, result =
    Persistency.Engine.drive cfg (Workloads.Queue.run params)
  in
  metrics_of engine result

let analyze_with_graph params cfg =
  let engine, result =
    Persistency.Engine.drive
      { cfg with Persistency.Config.record_graph = true }
      (Workloads.Queue.run params)
  in
  ( metrics_of engine result,
    Option.get (Persistency.Engine.graph engine),
    result.Workloads.Queue.layout )

type model_point = {
  label : string;
  mode : Persistency.Config.mode;
  annotation : Workloads.Queue.annotation;
}

let strict_point =
  { label = "strict";
    mode = Persistency.Config.Strict;
    annotation = Workloads.Queue.Unannotated }

let epoch_point =
  { label = "epoch";
    mode = Persistency.Config.Epoch;
    annotation = Workloads.Queue.Epoch }

let racing_point =
  { label = "racing-epochs";
    mode = Persistency.Config.Epoch;
    annotation = Workloads.Queue.Racing }

let strand_point =
  { label = "strand";
    mode = Persistency.Config.Strand;
    annotation = Workloads.Queue.Strand }

let table1_models = [ strict_point; epoch_point; racing_point; strand_point ]
let fig3_models = [ strict_point; epoch_point; strand_point ]

let default_total_inserts = 20_000
let default_capacity = 24

let queue_params ?(design = Workloads.Queue.Cwl) ?(threads = 1)
    ?(total_inserts = default_total_inserts)
    ?(capacity_entries = default_capacity) ?(entry_size = 100) ?(seed = 42)
    ?(machine = Memsim.Machine.Sc) ?(persistence = Memsim.Machine.Psync)
    ?(barrier = Memsim.Machine.Pbarrier) point =
  if total_inserts mod threads <> 0 then
    invalid_arg "Run.queue_params: total_inserts must divide by threads";
  { Workloads.Queue.design;
    annotation = point.annotation;
    threads;
    inserts_per_thread = total_inserts / threads;
    entry_size;
    capacity_entries = max capacity_entries threads;
    seed;
    policy = Memsim.Machine.Random seed;
    machine;
    persistence;
    barrier }
