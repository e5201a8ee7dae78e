type metrics = {
  puts : int;
  gets : int;
  probes : int;
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_put : float;
  cp_per_op : float;
}

let metrics_of (engine : Persistency.Engine.t) (result : Kv.result) =
  { puts = result.Kv.puts;
    gets = result.Kv.gets;
    probes = result.Kv.probes;
    events = result.Kv.events;
    persist_events = Persistency.Engine.persist_events engine;
    persist_ops = Persistency.Engine.persist_ops engine;
    coalesced = Persistency.Engine.coalesced engine;
    critical_path = Persistency.Engine.critical_path engine;
    cp_per_put = Persistency.Engine.cp_per_label engine "put";
    cp_per_op =
      (let ops = result.Kv.puts + result.Kv.gets in
       float_of_int (Persistency.Engine.critical_path engine)
       /. float_of_int (max 1 ops)) }

let analyze params cfg =
  let engine, result = Persistency.Engine.drive cfg (Kv.run params) in
  metrics_of engine result

let analyze_with_graph params cfg =
  let engine, result =
    Persistency.Engine.drive
      { cfg with Persistency.Config.record_graph = true }
      (Kv.run params)
  in
  ( metrics_of engine result,
    Option.get (Persistency.Engine.graph engine),
    result.Kv.layout )

let default_groups = 16
let default_group_size = 8
let default_total_ops = 4096

let kv_params ?(threads = 1) ?(total_ops = default_total_ops) ?(get_every = 4)
    ?(groups = default_groups) ?(group_size = default_group_size)
    ?(load = 0.5) ?(seed = 42) ?(dist = Workloads.Keygen.Uniform) mode =
  if total_ops mod threads <> 0 then
    invalid_arg "Kv_exp.kv_params: total_ops must divide by threads";
  let slots = groups * group_size in
  let key_space = max 1 (min slots (int_of_float (load *. float_of_int slots))) in
  { Kv.discipline = Kv.discipline_for mode;
    threads;
    ops_per_thread = total_ops / threads;
    get_every;
    key_space;
    groups;
    group_size;
    seed;
    policy = Memsim.Machine.Random seed;
    dist;
    machine = Memsim.Machine.Sc;
    persistence = Memsim.Machine.Psync;
    barrier = Memsim.Machine.Pbarrier }

type cell = {
  model : string;
  threads : int;
  load : float;
  key_space : int;
  cp_per_put : float;
  cp_per_op : float;
  probes_per_op : float;
  critical_path : int;
}

type t = {
  total_ops : int;
  cells : cell list;
  profile : Parallel.Pool.profile;
}

let kv_models = [ Run.strict_point; Run.epoch_point; Run.strand_point ]

let run ?(jobs = 1) ?(total_ops = default_total_ops)
    ?(threads_list = [ 1; 2; 4 ]) ?(loads = [ 0.25; 0.5 ]) ?(seed = 42)
    ?(dist = Workloads.Keygen.Uniform) () =
  let sweep =
    List.concat_map
      (fun threads ->
        List.concat_map
          (fun load ->
            List.map
              (fun (point : Run.model_point) -> (threads, load, point))
              kv_models)
          loads)
      threads_list
  in
  let cells, profile =
    Parallel.Pool.map_cells_profiled ~domains:jobs
      ~label:(fun _ (threads, load, (point : Run.model_point)) ->
        Printf.sprintf "kv/%s/%dT/%.0f%%" point.Run.label threads (load *. 100.))
      (fun (threads, load, (point : Run.model_point)) ->
        let params =
          kv_params ~threads ~total_ops ~load ~seed ~dist point.Run.mode
        in
        let cfg = Persistency.Config.make point.Run.mode in
        let m = analyze params cfg in
        let ops = m.puts + m.gets in
        { model = point.Run.label;
          threads;
          load;
          key_space = params.Kv.key_space;
          cp_per_put = m.cp_per_put;
          cp_per_op = m.cp_per_op;
          probes_per_op = float_of_int m.probes /. float_of_int (max 1 ops);
          critical_path = m.critical_path })
      sweep
  in
  { total_ops; cells; profile }

let cell t model threads load =
  List.find_opt
    (fun c ->
      String.equal c.model model && c.threads = threads && c.load = load)
    t.cells

let loads_of t = List.sort_uniq compare (List.map (fun c -> c.load) t.cells)

let threads_of t =
  List.sort_uniq compare (List.map (fun c -> c.threads) t.cells)

let render t =
  let models = List.map (fun (p : Run.model_point) -> p.Run.label) kv_models in
  let columns =
    ("Threads", Report.Table.Right)
    :: ("Load", Report.Table.Right)
    :: ("Keys", Report.Table.Right)
    :: List.map (fun m -> (m ^ " cp/put", Report.Table.Right)) models
    @ List.map (fun m -> (m ^ " cp/op", Report.Table.Right)) models
  in
  let table = Report.Table.create ~columns in
  List.iter
    (fun threads ->
      List.iter
        (fun load ->
          let get f =
            List.map
              (fun m ->
                match cell t m threads load with
                | Some c -> Report.Table.fmt_float ~decimals:3 (f c)
                | None -> "-")
              models
          in
          let keys =
            match cell t (List.hd models) threads load with
            | Some c -> string_of_int c.key_space
            | None -> "-"
          in
          Report.Table.add_row table
            (string_of_int threads
             :: Printf.sprintf "%.0f%%" (load *. 100.)
             :: keys
             :: get (fun c -> c.cp_per_put)
            @ get (fun c -> c.cp_per_op)))
        (loads_of t))
    (threads_of t);
  Printf.sprintf
    "KV store: persist critical path per operation\n\
     (%d ops total; put = undo-logged in-place update, get = probe only)\n\n\
     %s"
    t.total_ops (Report.Table.render table)

let to_csv t =
  Report.Csv.to_string
    ~header:
      [ "model"; "threads"; "load"; "key_space"; "cp_per_put"; "cp_per_op";
        "probes_per_op"; "critical_path" ]
    (List.map
       (fun c ->
         [ c.model;
           string_of_int c.threads;
           Printf.sprintf "%.2f" c.load;
           string_of_int c.key_space;
           Printf.sprintf "%.6f" c.cp_per_put;
           Printf.sprintf "%.6f" c.cp_per_op;
           Printf.sprintf "%.6f" c.probes_per_op;
           string_of_int c.critical_path ])
       t.cells)
