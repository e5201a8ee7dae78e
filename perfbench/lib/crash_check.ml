(* [crash-check]: graph-mode recording plus sampled failure injection,
   with each workload's Check.Driver observer (structural decoder,
   then the Dlin durable-linearizability oracle).  Persist-graph
   recording and crash-state checking do the work here: graph edges
   grow with the square of the inserts, and every sampled cut is
   turned into a crash image and decoded.  A change to graph recording
   or to recovery shows here and cannot move [sweep].

   Cases: one 2-thread CWL epoch queue (100-byte entries, no wrap) and
   one 2-thread KV store with a get every second operation, each at a
   small and a large size.  The seed picks the scheduling seed of
   every run and the cut-sampling seed. *)

module C = Persistency.Config
module G = Persistency.Persist_graph
module D = Check.Driver

type case = {
  label : string;
  size : string;  (** "small" or "large" *)
  samples : int;  (** cuts drawn per check *)
  instance : unit -> D.instance;
      (** the Driver's recording run: machine, engine with graph, history *)
  trace : Memsim.Trace.t;  (** the same run, materialized in setup *)
  events : int;  (** memory events of the run *)
}

let cfg = C.make C.Epoch

let queue_case ~seed ~size ~inserts ~samples =
  let params =
    Experiments.Run.queue_params ~threads:2 ~total_inserts:inserts
      ~capacity_entries:inserts ~seed Experiments.Run.epoch_point
  in
  let trace = Memsim.Trace.create () in
  let r = Workloads.Queue.run params ~sink:(Memsim.Trace.sink trace) in
  { label = "queue/" ^ size;
    size;
    samples;
    instance = (fun () -> D.queue_instance params cfg params.Workloads.Queue.policy);
    trace;
    events = r.Workloads.Queue.events }

let kv_case ~seed ~size ~ops ~samples =
  let params =
    Experiments.Kv_exp.kv_params ~threads:2 ~total_ops:ops ~get_every:2 ~seed
      C.Epoch
  in
  let trace = Memsim.Trace.create () in
  let r = Kv.run params ~sink:(Memsim.Trace.sink trace) in
  { label = "kv/" ^ size;
    size;
    samples;
    instance = (fun () -> D.kv_instance params cfg params.Kv.policy);
    trace;
    events = r.Kv.events }

let cases ~seed =
  [ queue_case ~seed ~size:"small" ~inserts:50 ~samples:32;
    queue_case ~seed ~size:"large" ~inserts:100 ~samples:16;
    kv_case ~seed ~size:"small" ~ops:400 ~samples:32;
    kv_case ~seed ~size:"large" ~ops:800 ~samples:32 ]

let key ~variant c = Printf.sprintf "crash-check/v%d/%s" variant c.label

let graph_stat g =
  let cp = ref 0 in
  G.iter (fun n -> cp := max !cp n.G.level) g;
  [ ("nodes", G.node_count g); ("cp", !cp) ]

let judge ck c = function
  | Ok (_ : Recovery.report) -> Checks.verdict ck (c.label ^ " recovers") true
  | Error f ->
    Checks.verdict ck (c.label ^ ": " ^ Recovery.render_failure f) false

let rep cases ~variant ~seed ck =
  let laps = Rep.start () in
  let states = ref 0 in
  List.iter
    (fun c ->
      let inst = c.instance () in
      Rep.lap laps "record";
      Checks.stat ck (key ~variant c) (graph_stat inst.D.graph);
      (* An item is one checked crash state: from the previous observer
         return (or the end of recording) to this one, so it covers cut
         sampling, image construction and the observer. *)
      let observer ~cut image =
        let v = inst.D.observer ~cut image in
        Rep.lap laps "item";
        v
      in
      let verdict =
        Recovery.check_cuts ~graph:inst.D.graph ~capacity:inst.D.capacity
          ~strategy:(Recovery.Sampled { samples = c.samples; seed })
          observer
      in
      Rep.lap laps "check";
      (match verdict with Ok r -> states := !states + r.Recovery.prefixes | Error _ -> ());
      judge ck c verdict)
    cases;
  { Rep.segments = Rep.segments laps;
    counts =
      [ ("events_per_s", List.fold_left (fun acc c -> acc + c.events) 0 cases, "record");
        ("crash_states_per_s", !states, "item") ] }

(* Traced: graph recording timed as an engine replay of the
   materialized trace with [record_graph] on; failure injection as the
   sampled walk of [Recovery.check_cuts] (same seed, same dedupe),
   with cut sampling, image construction and the observer each in
   their own span. *)
let traced cases ~variant ~seed ck sp =
  let events = Hashtbl.create 2 in
  let edges = ref 0 and nodes = ref 0 in
  let drawn = ref 0 and distinct = ref 0 in
  List.iter
    (fun c ->
      let e = Persistency.Engine.create { cfg with C.record_graph = true } in
      let span = "graph." ^ c.size in
      Spans.with_ sp span (fun () -> Persistency.Engine.observe_trace e c.trace);
      Hashtbl.replace events span
        (c.events + Option.value ~default:0 (Hashtbl.find_opt events span));
      let g = Option.get (Persistency.Engine.graph e) in
      Checks.stat ck (key ~variant c) (graph_stat g);
      edges := !edges + G.edge_count g + G.order_edge_count g;
      nodes := !nodes + G.node_count g;
      let inst = c.instance () in
      let graph = inst.D.graph and capacity = inst.D.capacity in
      let rng = Random.State.make [| seed |] in
      let dag = Spans.with_ sp "recovery.sample" (fun () -> G.to_dag graph) in
      let seen = Hashtbl.create 64 in
      let failure = ref None in
      for _ = 1 to c.samples do
        if !failure = None then begin
          incr drawn;
          let cut =
            Spans.with_ sp "recovery.sample" (fun () ->
                Persistency.Dag.random_down_closed dag rng)
          in
          let k = Persistency.Iset.elements cut in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            incr distinct;
            let image =
              Spans.with_ sp "recovery.image" (fun () ->
                  Persistency.Observer.image_of_cut graph cut ~capacity)
            in
            match Spans.with_ sp "observer" (fun () -> inst.D.observer ~cut image) with
            | Ok () -> ()
            | Error m -> failure := Some m
          end
        end
      done;
      match !failure with
      | None -> Checks.verdict ck (c.label ^ " recovers") true
      | Some m -> Checks.verdict ck (c.label ^ ": " ^ m) false)
    cases;
  let ev size = Hashtbl.find events ("graph." ^ size) in
  let ns size = Rep.per_ns ~seconds:(Spans.total_s sp ("graph." ^ size)) (ev size) in
  let per_cut name n = Rep.per_ns ~seconds:(Spans.total_s sp name) n in
  [ ("graph.ns_per_event.small", ns "small");
    ("graph.ns_per_event.large", ns "large");
    ("graph.growth", ns "large" /. ns "small");
    ("graph.words_per_event",
     (Spans.words sp "graph.small" +. Spans.words sp "graph.large")
     /. float_of_int (ev "small" + ev "large"));
    ("graph.edges_per_node", float_of_int !edges /. float_of_int !nodes);
    ("recovery.sample_ns_per_cut", per_cut "recovery.sample" !drawn);
    ("recovery.image_ns_per_cut", per_cut "recovery.image" !distinct);
    ("recovery.distinct_cut_ratio", float_of_int !distinct /. float_of_int !drawn);
    ("observer.ns_per_cut", per_cut "observer" !distinct) ]

let setup ~variant =
  let seed = variant + 1 in
  let cases = cases ~seed in
  (* Warm-up: record the small queue and check a few of its cuts. *)
  let c = List.hd cases in
  let inst = c.instance () in
  ignore
    (Recovery.check_cuts ~graph:inst.D.graph ~capacity:inst.D.capacity
       ~strategy:(Recovery.Sampled { samples = 4; seed })
       inst.D.observer);
  { Rep.rep = rep cases ~variant ~seed; traced = traced cases ~variant ~seed }

let workload = { Rep.name = "crash-check"; setup }
