module P = Persistency
module Om = Obs.Metrics

let m_checks = Om.counter Om.default "recovery.checks"
let m_prefixes = Om.counter Om.default "recovery.prefixes"
let m_dup_cuts = Om.counter Om.default "recovery.duplicate_cuts"
let m_violations = Om.counter Om.default "recovery.violations"
let m_inject_rate = Om.gauge_max Om.default "recovery.injections_per_sec"

(* Sampled-cut dedupe keyed on the set itself: a [Hashtbl] keyed on
   [Iset.elements] hashes only a list's first few elements, so cuts
   sharing their smallest ids would all collide. *)
module Cut_set = Set.Make (P.Iset)

let prefix_buckets = Om.pow2_buckets 13

let m_prefix_size =
  Om.histogram Om.default ~buckets:prefix_buckets "recovery.prefix_size"

type cut_observer = cut:P.Iset.t -> bytes -> (unit, string) result

type strategy =
  | Sampled of { samples : int; seed : int }
  | Exhaustive

type failure = {
  durable : int;
  total : int;
  prefixes_ok : int;
  message : string;
}

type report = {
  prefixes : int;
  nodes : int;
}

let render_failure f =
  Printf.sprintf "crash state with %d/%d persists durable: %s" f.durable
    f.total f.message

let strategy_name = function
  | Sampled _ -> "sampled"
  | Exhaustive -> "exhaustive"

(* Span argument strings are only built when tracing is on. *)
let traced ~strategy ~graph f =
  if Obs.Tracer.enabled () then
    Obs.Tracer.with_span ~cat:"recovery"
      ~args:
        [ ("strategy", strategy_name strategy);
          ("nodes", string_of_int (P.Persist_graph.node_count graph)) ]
      "recovery.check" f
  else f ()

(* Walk the prefixes the strategy yields, checking each one.  The two
   strategies share the per-prefix body so accounting and failure
   reporting cannot drift. *)
let check_cuts ~graph ~capacity ~strategy observer =
  traced ~strategy ~graph @@ fun () ->
  Om.incr m_checks;
  let span =
    if Om.enabled Om.default then Some (Obs.Perfscope.start ()) else None
  in
  let total = P.Persist_graph.node_count graph in
  let checked = ref 0 in
  let injected = ref 0 in
  let try_prefix cut =
    incr injected;
    let image = P.Observer.image_of_cut graph cut ~capacity in
    Om.incr m_prefixes;
    Om.observe m_prefix_size (float_of_int (P.Iset.cardinal cut));
    match observer ~cut image with
    | Ok () ->
      incr checked;
      Ok ()
    | Error message ->
      Om.incr m_violations;
      Error
        { durable = P.Iset.cardinal cut;
          total;
          prefixes_ok = !checked;
          message }
  in
  let rec first_error = function
    | [] -> Ok ()
    | cut :: rest -> (
      match try_prefix cut with
      | Ok () -> first_error rest
      | Error _ as e -> e)
  in
  let result =
    match strategy with
    | Exhaustive ->
      first_error (P.Observer.all_cuts graph)
    | Sampled { samples; seed } ->
      (* The rng draws exactly [samples] cuts in a seed-stable order,
         but a duplicate of an already-checked cut is only counted as
         a duplicate, not re-checked: the verdict cannot change (its
         first occurrence already passed) and re-checking would let
         [report.prefixes] overstate distinct crash-state coverage. *)
      let rng = Random.State.make [| seed |] in
      let dag = P.Persist_graph.to_dag graph in
      let rec loop i seen =
        if i >= samples then Ok ()
        else begin
          let cut = P.Dag.random_down_closed dag rng in
          if Cut_set.mem cut seen then begin
            Om.incr m_dup_cuts;
            loop (i + 1) seen
          end
          else
            match try_prefix cut with
            | Ok () -> loop (i + 1) (Cut_set.add cut seen)
            | Error _ as e -> e
        end
      in
      loop 0 Cut_set.empty
  in
  (match span with
  | Some s ->
    let d = Obs.Perfscope.finish s in
    Obs.Perfscope.throughput m_inject_rate ~items:!injected
      ~seconds:d.Obs.Perfscope.wall_s
  | None -> ());
  match result with
  | Ok () -> Ok { prefixes = !checked; nodes = total }
  | Error f -> Error f

(* 2^20 prefixes is the most an exhaustive walk should attempt; the
   [all_down_closed] hard ceiling is 24 nodes, but graphs that dense
   are already better sampled. *)
let auto ?(exhaustive_limit = 20) ~samples ~seed graph =
  if exhaustive_limit > 24 then
    invalid_arg "Recovery.auto: exhaustive_limit must be <= 24";
  if P.Persist_graph.node_count graph <= exhaustive_limit then Exhaustive
  else Sampled { samples; seed }
