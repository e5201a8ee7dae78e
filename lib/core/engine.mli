(** Persist-timing simulation (paper Section 7).

    The engine consumes an SC event trace and assigns every atomic
    persist a level — the length of the longest chain of persist
    ordering constraints ending at it — under one of the persistency
    models.  Assuming infinite NVRAM bandwidth and banks but a fixed
    persist latency, the maximum level is the {e persist ordering
    constraint critical path} that bounds persist throughput.

    Dependence propagation follows the paper's rules.  Every event [e]
    observes a dependence level [D(e)], the highest persist level
    ordered before [e] in persistent memory order:

    - per-thread: everything before the thread's last persist barrier
      (under strict persistency every event is implicitly followed by a
      barrier; under strand persistency [NewStrand] clears the thread's
      observed dependences);
    - per tracked block: a load observes the block's store level; a
      store or RMW observes both the store and the load level (the
      load-before-store conflicts that BPFS misses — disabled by
      {!Config.t.tso_conflicts});
    - conflicts are tracked in both address spaces unless
      {!Config.t.persistent_only_conflicts}.

    A persist is assigned [D + 1], or coalesces into the open persist
    of its atomic block when every dependence not attributable to that
    open persist is below the open persist's level (strong persist
    atomicity makes merging into one's own antecedent safe). *)

type t

val create : Config.t -> t

val observe : t -> Memsim.Event.t -> unit
(** Feed one event; also usable directly as a machine sink. *)

val observe_trace : t -> Memsim.Trace.t -> unit

val drive :
  ?tee:((Memsim.Event.t -> unit) -> Memsim.Event.t -> unit) ->
  Config.t ->
  (sink:(Memsim.Event.t -> unit) -> 'a) ->
  t * 'a
(** [drive cfg run] streams one workload run into a fresh engine: the
    machine's events go from [run]'s sink straight into {!observe}, with
    no materialized trace.  [tee] wraps the engine's sink (to record a
    history alongside, say) and must pass every event on.  Under span
    tracing the run is one ["drive"] phase span, closed with its event
    count; tracing does not change the run. *)

val critical_path : t -> int
(** Maximum persist level assigned so far (0 when no persists). *)

val persist_events : t -> int
(** Persist-generating store/RMW events seen. *)

val persist_ops : t -> int
(** Atomic persists after coalescing. *)

val coalesced : t -> int
(** [persist_events - persist_ops]. *)

val events : t -> int
(** Total events consumed. *)

val label_count : t -> string -> int
(** Occurrences of [Label (_, name)] — e.g. queue inserts. *)

val cp_per_label : t -> string -> float
(** [critical_path / label_count], the paper's "persist critical path
    per insert" (Figures 4 and 5).  [nan] when the label is absent. *)

val graph : t -> Persist_graph.t option
(** The dependence graph, when [record_graph] was set. *)

val node_of_persist_event : t -> int -> int
(** [node_of_persist_event t i] is the graph node id that the [i]-th
    persist event (0-based, in trace order) was assigned or coalesced
    into.  Only tracked when [record_graph] is set. *)

val config : t -> Config.t
