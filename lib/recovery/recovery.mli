(** Workload-agnostic recovery checking (failure injection).

    The persist dependence graph of a run defines exactly which crash
    states are possible: the durable prefixes — down-closed sets of
    atomic persists (see {!Persistency.Observer}).  This subsystem
    enumerates or samples those prefixes, materializes each one as a
    post-crash persistent memory image, runs a workload-supplied
    recovery {e observer} on it, and reports the first unrecoverable
    prefix.

    Workloads (the queues, the KV store, examples) supply only the
    observer — the image decoder plus invariant check — and get the
    whole failure-injection pipeline: prefix generation, legality,
    image construction, accounting, obs spans and counters. *)

type observer = bytes -> (unit, string) result
(** Recovery procedure + invariant check over one post-crash image.
    [Error] describes why the image is unrecoverable. *)

type cut_observer = cut:Persistency.Iset.t -> bytes -> (unit, string) result
(** An observer that also sees the durable prefix the image was built
    from — what a durable-linearizability oracle needs to classify
    each operation's persists as fully / partially / not durable
    (see {!Check.Dlin}).  Plain invariant checkers ignore [cut]. *)

(** How to walk the space of durable prefixes. *)
type strategy =
  | Sampled of { samples : int; seed : int }
      (** Random legal prefixes (every prefix has non-zero
          probability); the only option for large graphs. *)
  | Exhaustive
      (** Every durable prefix.  Small graphs only:
          @raise Invalid_argument above 24 nodes (see
          {!Persistency.Dag.all_down_closed}). *)

type failure = {
  durable : int;  (** persists durable in the failing prefix *)
  total : int;  (** atomic persists in the graph *)
  prefixes_ok : int;  (** prefixes that recovered before this one *)
  message : string;  (** the observer's diagnosis *)
}

type report = {
  prefixes : int;
      (** {e distinct} durable prefixes checked.  [Sampled] draws its
          full sample budget but dedupes repeated cuts, so this counts
          real crash-state coverage, not raw draws. *)
  nodes : int;  (** atomic persists in the graph *)
}

val check_cuts :
  graph:Persistency.Persist_graph.t ->
  capacity:int ->
  strategy:strategy ->
  cut_observer ->
  (report, failure) result
(** Run the observer against every durable prefix the strategy
    produces ([capacity] sizes the persistent image, as in
    {!Persistency.Observer.image_of_cut}).  Stops at the first
    unrecoverable prefix.  [Sampled] draws are seed-stable; duplicate
    cuts are skipped (counted under the [recovery.duplicate_cuts]
    metric) rather than re-checked. *)

val check :
  graph:Persistency.Persist_graph.t ->
  capacity:int ->
  strategy:strategy ->
  observer ->
  (report, failure) result
(** {!check_cuts} for observers that do not need the prefix itself. *)

val render_failure : failure -> string
(** ["crash state with N/M persists durable: ..."]. *)

val auto :
  ?exhaustive_limit:int ->
  samples:int ->
  seed:int ->
  Persistency.Persist_graph.t ->
  strategy
(** The strategy a graph's size admits: [Exhaustive] up to
    [exhaustive_limit] nodes (default 20, capped at the 24-node
    {!Persistency.Dag.all_down_closed} ceiling), [Sampled] beyond.
    Partially applied, this is the per-graph strategy chooser a
    cross-interleaving driver wants ({!Check.Driver.check}): graph
    sizes vary across interleavings of one workload. *)
