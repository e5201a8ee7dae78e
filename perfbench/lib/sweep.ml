(* [sweep]: paper-evaluation analysis cells, graph recording off, the
   machine's events streamed straight into the persistency engine
   through the Experiments drive path.  The machine and the engine do
   nearly all the work, so allocation or hot-path work in either shows
   here, while persist-graph recording cannot move it.

   Cells: the Table 1 queue grid (CWL and 2LC x strict, epoch, racing
   epochs, strand x 1 and 4 threads) at the paper's 24-entry wrapping
   capacity; KV cells with a get every second operation, so loads run
   beside stores; and one x86-TSO queue cell with the buffered
   persistence machine and the flush+sfence barrier -- each at
   [replicas] scheduling seeds, so a repetition has over a hundred
   cells; plus one 4-thread epoch queue with no wrap and a footprint of
   8,000 entries, which exposes how engine cost per event grows with
   footprint.  The seed variant picks the scheduling and key-draw
   seeds. *)

module Q = Workloads.Queue
module R = Experiments.Run
module C = Persistency.Config
module E = Persistency.Engine

let replicas = 5
let queue_inserts = 300
let wide_inserts = 8000
let kv_ops = 1000

type kind =
  | Queue  (** 24-entry queue cell on the SC machine *)
  | Wide  (** the no-wrap large-footprint queue cell *)
  | Kv
  | Tso  (** the x86-TSO buffered-persistence queue cell *)

type cell = {
  label : string;
  kind : kind;
  cfg : C.t;
  analyze : unit -> Checks.stat;
      (** the Experiments drive path: machine streamed into the engine *)
  run : sink:(Memsim.Event.t -> unit) -> int * int;
      (** the machine alone: (memory events, operations) *)
}

let stat ~cp ~persist_ops ~coalesced ~events ~ops =
  [ ("cp", cp); ("persist_ops", persist_ops); ("coalesced", coalesced);
    ("events", events); ("ops", ops) ]

let queue_cell label kind params cfg =
  { label;
    kind;
    cfg;
    analyze =
      (fun () ->
        let m = R.analyze params cfg in
        stat ~cp:m.R.critical_path ~persist_ops:m.R.persist_ops
          ~coalesced:m.R.coalesced ~events:m.R.events ~ops:m.R.inserts);
    run =
      (fun ~sink ->
        let r = Q.run params ~sink in
        (r.Q.events, r.Q.inserts)) }

let kv_cell label params cfg =
  { label;
    kind = Kv;
    cfg;
    analyze =
      (fun () ->
        let m = Experiments.Kv_exp.analyze params cfg in
        let open Experiments.Kv_exp in
        stat ~cp:m.critical_path ~persist_ops:m.persist_ops
          ~coalesced:m.coalesced ~events:m.events ~ops:(m.puts + m.gets));
    run =
      (fun ~sink ->
        let r = Kv.run params ~sink in
        (r.Kv.events, r.Kv.puts + r.Kv.gets)) }

let replica ~seed =
  let grid =
    List.concat_map
      (fun (design, dname) ->
        List.concat_map
          (fun (point : R.model_point) ->
            List.map
              (fun threads ->
                queue_cell
                  (Printf.sprintf "queue/%s/%s/%dt/s%d" dname point.R.label
                     threads seed)
                  Queue
                  (R.queue_params ~design ~threads ~total_inserts:queue_inserts
                     ~seed point)
                  (C.make point.R.mode))
              [ 1; 4 ])
          R.table1_models)
      [ (Q.Cwl, "cwl"); (Q.Tlc, "2lc") ]
  in
  let tso =
    queue_cell
      (Printf.sprintf "queue/cwl/epoch/4t/tso-buffered/s%d" seed)
      Tso
      (R.queue_params ~threads:4 ~total_inserts:queue_inserts ~seed
         ~machine:Memsim.Machine.Tso ~persistence:Memsim.Machine.Pbuffered
         ~barrier:Memsim.Machine.Flush_sfence R.epoch_point)
      (C.make ~px86:C.Px86_buffered C.Epoch)
  in
  let kv =
    List.concat_map
      (fun mode ->
        List.map
          (fun threads ->
            kv_cell
              (Printf.sprintf "kv/%s/%dt/s%d" (C.mode_name mode) threads seed)
              (Experiments.Kv_exp.kv_params ~threads ~total_ops:kv_ops
                 ~get_every:2 ~seed mode)
              (C.make mode))
          [ 1; 4 ])
      [ C.Strict; C.Epoch; C.Strand ]
  in
  grid @ (tso :: kv)

let cells ~variant =
  let seeds = List.init replicas (fun r -> (variant * replicas) + r + 1) in
  List.concat_map (fun seed -> replica ~seed) seeds
  @ [ queue_cell "queue/cwl/epoch/4t/nowrap" Wide
        (R.queue_params ~threads:4 ~total_inserts:wide_inserts
           ~capacity_entries:wide_inserts ~seed:(List.hd seeds) R.epoch_point)
        (C.make C.Epoch) ]

let key ~variant c = Printf.sprintf "sweep/v%d/%s" variant c.label

(* The sweep's result table, as a CLI sweep would print it. *)
let render results =
  let module T = Report.Table in
  let t =
    T.create
      ~columns:
        [ ("cell", T.Left); ("events", T.Right); ("persist ops", T.Right);
          ("coalesced", T.Right); ("cp", T.Right); ("cp/op", T.Right) ]
  in
  List.iter
    (fun (c, st) ->
      let v k = List.assoc k st in
      T.add_row t
        [ c.label;
          string_of_int (v "events");
          string_of_int (v "persist_ops");
          string_of_int (v "coalesced");
          string_of_int (v "cp");
          T.fmt_float ~decimals:3
            (float_of_int (v "cp") /. float_of_int (v "ops")) ])
    results;
  T.render t

let rep cells ~variant ck =
  let laps = Rep.start () in
  let results =
    List.map
      (fun c ->
        let st = c.analyze () in
        Checks.stat ck (key ~variant c) st;
        Rep.lap laps "item";
        (c, st))
      cells
  in
  ignore (Sys.opaque_identity (render results));
  Rep.lap laps "render";
  let events =
    List.fold_left (fun acc (_, st) -> acc + List.assoc "events" st) 0 results
  in
  { Rep.segments = Rep.segments laps;
    counts = [ ("events_per_s", events, "item") ] }

let machine_span = function
  | Kv -> "machine.kv"
  | Tso -> "machine.tso"
  | Queue | Wide -> "machine.queue"

let engine_span = function
  | Kv -> "engine.kv"
  | Wide -> "engine.wide"
  | Queue | Tso -> "engine.queue"

(* Traced: per cell, the machine alone with a discarding sink, then the
   engine replaying that cell's trace (materialized between the two
   spans, outside both). *)
let traced cells ~variant ck sp =
  let events = Hashtbl.create 8 in
  let count name n =
    Hashtbl.replace events name
      (n + Option.value ~default:0 (Hashtbl.find_opt events name))
  in
  let results =
    List.map
      (fun c ->
        let mspan = machine_span c.kind and espan = engine_span c.kind in
        let ev, ops = Spans.with_ sp mspan (fun () -> c.run ~sink:ignore) in
        count mspan ev;
        let trace = Memsim.Trace.create () in
        ignore (c.run ~sink:(Memsim.Trace.sink trace));
        let e = E.create c.cfg in
        Spans.with_ sp espan (fun () -> E.observe_trace e trace);
        count espan ev;
        let st =
          stat ~cp:(E.critical_path e) ~persist_ops:(E.persist_ops e)
            ~coalesced:(E.coalesced e) ~events:ev ~ops
        in
        Checks.stat ck (key ~variant c) st;
        (c, st))
      cells
  in
  Spans.with_ sp "experiments.render" (fun () ->
      ignore (Sys.opaque_identity (render results)));
  let ev name = Option.value ~default:0 (Hashtbl.find_opt events name) in
  let ns name = Rep.per_ns ~seconds:(Spans.total_s sp name) (ev name) in
  let words_per_event names =
    List.fold_left (fun acc n -> acc +. Spans.words sp n) 0. names
    /. float_of_int (List.fold_left (fun acc n -> acc + ev n) 0 names)
  in
  [ ("machine.ns_per_event", ns "machine.queue");
    ("machine.ns_per_event.kv", ns "machine.kv");
    ("machine.ns_per_event.tso", ns "machine.tso");
    ("machine.words_per_event",
     words_per_event [ "machine.queue"; "machine.kv"; "machine.tso" ]);
    ("engine.ns_per_event", ns "engine.queue");
    ("engine.ns_per_event.kv", ns "engine.kv");
    ("engine.ns_per_event.wide", ns "engine.wide");
    ("engine.words_per_event",
     words_per_event [ "engine.queue"; "engine.kv"; "engine.wide" ]);
    ("experiments.render_ms", Spans.total_s sp "experiments.render" *. 1e3) ]

let setup ~variant =
  let cells = cells ~variant in
  (* Warm-up: the first queue cells and the first KV cells through the
     timed path. *)
  List.iteri (fun i c -> if i < 4 then ignore (c.analyze ())) cells;
  List.iteri
    (fun i c -> if i < 6 then ignore (c.analyze ()))
    (List.filter (fun c -> c.kind = Kv) cells);
  { Rep.rep = rep cells ~variant; traced = traced cells ~variant }

let workload = { Rep.name = "sweep"; setup }
