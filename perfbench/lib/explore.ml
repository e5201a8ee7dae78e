(* [explore]: DPOR cross-interleaving checks.  Many short machine
   executions under a Guided policy, with store-buffer and
   persistence-buffer drains as scheduling decisions, DPOR bookkeeping,
   persist-graph fingerprinting and exhaustive recovery on small
   graphs.  The machine and recovery layers are used here quite
   differently from [sweep] and [crash-check]: per-execution set-up and
   the durable-frontier accesses dominate, not long traces.

   Checks: Driver.check on the CWL epoch queue at depth 3; the
   NVTraverse lock-free set at depth 2 on the x86-TSO machine with the
   buffered persistence machine, within a fixed schedule budget; three
   canaries whose deliberately buggy disciplines must still be caught;
   and the whole litmus corpus under sc, tso-sync and tso-buffered, by
   DPOR and by brute force.  DPOR enumerates the schedule space
   deterministically, so the seed only picks the cut-sampling seed for
   graphs too large for exhaustive enumeration. *)

module D = Check.Driver
module M = Memsim.Machine
module C = Persistency.Config
module Q = Workloads.Queue
module L = Lockfree.Cas_set

let lockfree_budget = 512
let canary_budget = 512

type check = {
  label : string;
  run : M.policy -> D.instance;
  max_schedules : int option;
  canary : bool;  (** a buggy discipline: the check must find a failure *)
}

let cfg = C.make C.Epoch
let buffered_cfg = C.make ~px86:C.Px86_buffered C.Epoch

let lockfree discipline =
  D.lockfree_instance
    (L.explore_params ~threads:2 ~depth:2 ~machine:M.Tso
       ~persistence:M.Pbuffered discipline)
    buffered_cfg

let checks =
  let canary label run =
    { label; run; max_schedules = Some canary_budget; canary = true }
  in
  [ { label = "queue/cwl/epoch/d3";
      run = D.queue_instance (Q.explore_params ~threads:2 ~depth:3 Q.Epoch) cfg;
      max_schedules = None;
      canary = false };
    { label = "lockfree/nvtraverse/d2/tso-buffered";
      run = lockfree L.Nvtraverse;
      max_schedules = Some lockfree_budget;
      canary = false };
    canary "queue/buggy-epoch/d2"
      (D.queue_instance (Q.explore_params ~threads:2 ~depth:2 Q.Buggy_epoch) cfg);
    canary "kv/buggy-undo" (D.kv_instance (Kv.explore_params Kv.Buggy_undo) cfg);
    canary "lockfree/buggy-traverse/d2/tso-buffered" (lockfree L.Buggy_traverse) ]

let litmus_checks =
  List.concat_map
    (fun config ->
      List.concat_map
        (fun how -> List.map (fun t -> (config, how, t)) Litmus.suite)
        [ Litmus.Dpor; Litmus.Brute ])
    Litmus.all_configs

let strategy ~seed g = Recovery.auto ~samples:64 ~seed g

let judge ck c (r : D.report) =
  match (c.canary, r.D.failure) with
  | false, None -> Checks.verdict ck (c.label ^ " passes") true
  | false, Some (sched, f) ->
    Checks.verdict ck
      (Printf.sprintf "%s: %s on %s" c.label (Recovery.render_failure f)
         (Check.Schedule.to_string sched))
      false
  | true, Some _ -> Checks.verdict ck (c.label ^ " caught") true
  | true, None -> Checks.verdict ck (c.label ^ ": buggy discipline not caught") false

let judge_litmus ck (config, how, t) r =
  Checks.verdict ck
    (Printf.sprintf "litmus %s %s %s passes" t.Litmus.name
       (Litmus.config_name config) (Litmus.method_name how))
    (Litmus.pass r)

let rep ~seed ck =
  let laps = Rep.start () in
  let schedules = ref 0 and prefixes = ref 0 in
  List.iter
    (fun c ->
      (* An item is one schedule: from one entry into the run callback
         to the next (the last closes when the check returns), so it
         covers the execution, DPOR bookkeeping and failure injection
         of that schedule's graph. *)
      let started = ref false in
      let run policy =
        if !started then Rep.lap laps "item" else Rep.lap laps "check";
        started := true;
        c.run policy
      in
      let r =
        D.check ?max_schedules:c.max_schedules ~strategy:(strategy ~seed) run
      in
      Rep.lap laps "item";
      schedules := !schedules + r.D.stats.Check.Dpor.schedules;
      prefixes := !prefixes + r.D.prefixes;
      judge ck c r)
    checks;
  List.iter
    (fun ((config, how, t) as l) ->
      judge_litmus ck l (Litmus.check ~how ~config t);
      Rep.lap laps "litmus")
    litmus_checks;
  { Rep.segments = Rep.segments laps;
    counts =
      [ ("schedules_per_s", !schedules, "item");
        ("crash_states_per_s", !prefixes, "item") ] }

(* Traced: each Driver.check in a span, the run callback it is handed
   in an [exec] span and the instance's observer in an [observer] span.
   Both are direct children of the check, so the check's self time is
   DPOR, fingerprinting, cut enumeration and image construction. *)
let traced ~seed ck sp =
  let schedules = ref 0 and aborts = ref 0 and steps = ref 0 in
  let distinct = ref 0 in
  List.iter
    (fun c ->
      let run policy =
        Spans.with_ sp "exec" (fun () ->
            let inst = c.run policy in
            { inst with
              D.observer =
                (fun ~cut image ->
                  Spans.with_ sp "observer" (fun () -> inst.D.observer ~cut image)) })
      in
      let r =
        Spans.with_ sp "driver.check" (fun () ->
            D.check ?max_schedules:c.max_schedules ~strategy:(strategy ~seed) run)
      in
      let s = r.D.stats in
      schedules := !schedules + s.Check.Dpor.schedules;
      aborts := !aborts + s.Check.Dpor.sleep_aborts;
      steps := !steps + s.Check.Dpor.steps;
      distinct := !distinct + r.D.distinct;
      judge ck c r)
    checks;
  List.iter
    (fun ((config, how, t) as l) ->
      judge_litmus ck l
        (Spans.with_ sp "litmus" (fun () -> Litmus.check ~how ~config t)))
    litmus_checks;
  let per_schedule x = x /. float_of_int !schedules in
  [ ("exec.ns_per_schedule", Rep.per_ns ~seconds:(Spans.total_s sp "exec") !schedules);
    ("dpor.self_ns_per_schedule",
     Rep.per_ns ~seconds:(Spans.self_s sp "driver.check") !schedules);
    ("dpor.steps_per_schedule", per_schedule (float_of_int !steps));
    ("dpor.sleep_abort_ratio",
     float_of_int !aborts /. float_of_int (!schedules + !aborts));
    ("driver.distinct_ratio", per_schedule (float_of_int !distinct));
    ("litmus.ms_per_check",
     Spans.total_s sp "litmus" *. 1e3 /. float_of_int (Spans.count sp "litmus"));
    ("observer.ns_per_cut",
     Rep.per_ns ~seconds:(Spans.total_s sp "observer") (Spans.count sp "observer")) ]

let setup ~variant =
  let seed = variant + 1 in
  List.iter Litmus.validate Litmus.suite;
  (* Warm-up: the first canary, which stops at its first failure. *)
  let c = List.nth checks 2 in
  ignore (D.check ?max_schedules:c.max_schedules ~strategy:(strategy ~seed) c.run);
  { Rep.rep = rep ~seed; traced = traced ~seed }

let workload = { Rep.name = "explore"; setup }
