(** Multithreaded execution engine with a selectable memory
    consistency model ({!model}): sequentially consistent, or x86-TSO
    with per-thread FIFO store buffers.

    Workloads are ordinary OCaml functions that access simulated memory
    through the thread-context operations below ({!load}, {!store},
    {!lock}, {!persist_barrier}, ...).  Each operation is an effect:
    the machine serializes exactly one operation at a time and hands
    control to the scheduler between operations.  Under {!Sc} the
    emitted event trace is a legal SC interleaving of the thread
    programs — the same artifact the paper obtains by tracing a pthread
    program under PIN with a lock bank providing analysis atomicity
    (Section 7).

    Under {!Tso} each thread issues stores (and {!clflushopt}/{!clwb}
    flushes) into a private FIFO store buffer; its own loads forward
    from the buffer, other threads cannot see it.  Draining the oldest
    buffered entry into memory is a separate scheduling decision
    attributed to the pseudo-thread [drain_tid tid], so systematic
    exploration ranges over drain interleavings exactly as it does over
    thread steps.  Store events are emitted at drain time: trace order
    is the global memory (and persist) order, and a drained store may
    appear after program-order-later loads of its thread — the x86-TSO
    store→load reordering.  Locked instructions ({!rmw}, {!lock}),
    {!unlock}, {!sfence}, {!mfence} and {!persist_barrier} wait for the
    calling thread's buffer to drain first.

    Locks are abstract queue locks: acquisition is an atomic
    read-modify-write event on the lock word; contended threads park
    and are handed the lock in FIFO order on release (store event on
    the lock word).  This preserves both the conflict footprint and the
    fairness of the MCS locks used in the paper.

    Thread-context operations may only be called from inside a function
    passed to {!spawn}, during {!run}. *)

type t

type lock

type script
(** Recording of the scheduler's choice points, for systematic
    exploration of interleavings (see {!Explore}). *)

type access = {
  addr : int;
  size : int;
  write : bool;  (** stores and RMWs; lock words count as writes *)
}
(** A shared-memory access, as seen by conflict analyses: two accesses
    conflict when their byte ranges overlap (at the analyzer's tracking
    granularity) and at least one is a write. *)

type step_info = {
  tid : int;
      (** the runnable thread, or [drain_tid t] for the step that
          drains the oldest store-buffer entry of thread [t] (TSO) *)
  index : int;
      (** the step's position in the choice set — the index a
          [Scripted] policy would have to force to take this step,
          so a guided run can be persisted as a replayable script *)
  next : access option;
      (** static footprint of the step's pending operation (for a
          drain step: the buffered store's range, or the flushed line
          as a read); [None] when the step touches no shared location
          (thread start, lock-grant resumption, yield, fence) *)
}

type guide = {
  choose : step_info array -> int;
      (** called at every scheduling point with the enabled threads
          (sorted by [tid]); returns the tid to run next.  Raising
          aborts {!run}. *)
  on_step : int -> access list -> unit;
      (** called after the chosen step executed, with the accesses it
          actually performed (in order).  The dynamic footprint can
          exceed the static one: a lock release also performs the
          woken thread's acquire RMW. *)
}
(** The scheduler hook for systematic exploration (see [Check.Dpor]):
    the guide sees per-step enabled sets with conflict footprints and
    dictates every decision. *)

type model =
  | Sc  (** sequentially consistent: every access goes straight to memory *)
  | Tso
      (** x86-TSO: per-thread FIFO store buffers with load forwarding
          and nondeterministic drain *)

type persistence =
  | Psync
      (** synchronous Px86: a flushed line is durable as soon as its
          [Flush] event is ordered by a fence (the pre-PR-10 machine) *)
  | Pbuffered
      (** buffered Px86 ("Taming x86-TSO Persistency", Khyzha–Lahav):
          flushes capture the line into a persistence buffer between
          the cache and NVRAM.  Draining an entry is a scheduling
          decision under the pseudo-thread [persist_tid addr], emitting
          {!Event.Pdrain}; [sfence]/[mfence]/locked RMWs only mark a
          frontier (earlier flushes of the thread drain before later
          ones), they never force a drain.  Crash states therefore cut
          the persistence buffer as well as the store buffer. *)

(** A machine configuration: consistency model paired with persistence
    semantics, under the name the CLI, the sweeps and the litmus
    reports print. *)
type config = {
  name : string;
  model : model;
  persistence : persistence;
}

val sc_config : config
val tso_sync_config : config
val tso_buffered_config : config

val all_configs : config list
(** [sc], [tso-sync], [tso-buffered] — the machine matrix the sweeps
    and the litmus corpus run under. *)

val config_of_name : string -> config option
(** Accepts ["sc"], ["tso"] (alias for tso-sync), ["tso-sync"] and
    ["tso-buffered"]. *)

type barrier_impl =
  | Pbarrier  (** {!persist_barrier} emits [Persist_barrier] (default) *)
  | Flush_sfence
      (** {!persist_barrier} expands into [clflushopt] of every
          persistent line the calling thread dirtied since its previous
          barrier, followed by an [sfence] — the Px86 annotation the
          TSO workload families run under *)

val drain_tid : int -> int
(** The pseudo-thread id that drains thread [tid]'s store buffer, as it
    appears in {!step_info} enabled sets and guided schedules. *)

val is_drain_tid : int -> bool

val drain_parent : int -> int
(** Inverse of {!drain_tid}. *)

val persist_tid : int -> int
(** The pseudo-thread id that drains the persistence-buffer entry for
    the line holding [addr] ({!persistence.Pbuffered} machines).
    Per-line FIFO order makes at most one entry per line eligible at a
    time, so the id is unique within an enabled set. *)

val is_persist_tid : int -> bool

type policy =
  | Round_robin  (** rotate threads after every operation *)
  | Random of int  (** pick a runnable thread uniformly, seeded *)
  | Scripted of script
      (** follow a forced choice prefix, then first-runnable; every
          decision is recorded in the script *)
  | Guided of guide
      (** ask [choose] at every scheduling point; report each executed
          step to [on_step] *)

val script : forced:int list -> script
(** A script whose first decisions are the given runnable indices. *)

val script_choices : script -> (int * int) list
(** After a run: each scheduling decision as [(chosen index, number of
    runnable threads)], in execution order.  Decisions with a single
    runnable thread are recorded too. *)

exception Deadlock of int list
(** Raised by {!run} when unfinished threads remain but all are parked
    on locks; carries the blocked thread ids. *)

val create :
  ?policy:policy ->
  ?model:model ->
  ?persistence:persistence ->
  ?barrier:barrier_impl ->
  memory:Memory.t ->
  unit ->
  t
(** Default policy is [Round_robin]; default model is [Sc]; default
    persistence is [Psync] (byte-identical to the pre-buffer machine);
    default barrier is [Pbarrier]. *)

val model : t -> model

val persistence : t -> persistence

val memory : t -> Memory.t

val set_sink : t -> (Event.t -> unit) -> unit
(** Install the trace consumer.  Every memory event is passed to the
    sink in serialization order.  Default: drop events. *)

val spawn : t -> (unit -> unit) -> int
(** Register a thread; returns its thread id (dense, from 0).  Threads
    do not start executing until {!run}. *)

val run : t -> unit
(** Execute all spawned threads to completion, interleaving per the
    policy.  May be called repeatedly ([spawn] then [run] in phases,
    e.g. an initialization thread followed by worker threads).
    @raise Deadlock on a lock cycle or orphaned waiter. *)

val event_count : t -> int
(** Memory events emitted so far (excludes labels). *)

(** {1 Thread-context operations} *)

val self : unit -> int
(** Id of the calling thread. *)

val load : int -> int64
(** 8-byte load. *)

val store : int -> int64 -> unit
(** 8-byte store. *)

val load_sz : size:int -> int -> int64
val store_sz : size:int -> int -> int64 -> unit

val rmw : int -> (int64 -> int64) -> int64
(** Atomic read-modify-write; returns the {e old} value. *)

val fetch_add : int -> int64 -> int64

val persist_barrier : unit -> unit
(** Emit a [PersistBarrier] (epoch and strand persistency).  On a
    {!Tso} machine this is also a full fence: it waits for the calling
    thread's store buffer to drain. *)

val clflushopt : int -> unit
(** Request writeback of the cache line holding the address (Px86):
    the flush reaches persistence only once ordered by a later fence.
    On a {!Tso} machine the flush enters the store buffer. *)

val clwb : int -> unit
(** Like {!clflushopt} but may retain the line in cache; identical
    ordering semantics in this model. *)

val sfence : unit -> unit
(** Store fence: orders earlier flushes (and drains the store buffer
    on a {!Tso} machine) before later stores. *)

val mfence : unit -> unit
(** Full fence; in this model loads never wait, so it behaves like
    {!sfence} with stronger intent documented in the trace. *)

val new_strand : unit -> unit
(** Emit a [NewStrand] (strand persistency). *)

val label : string -> unit
(** Mark a logical operation boundary in the trace. *)

val malloc : Addr.space -> int -> int
val mfree : int -> unit

val yield : unit -> unit
(** Scheduling point with no memory event. *)

val mutex : t -> lock
(** Create a lock; allocates its lock word in volatile space.  Must be
    called outside thread context (during setup). *)

val lock : lock -> unit
val unlock : lock -> unit
(** @raise Invalid_argument when the caller does not hold the lock. *)

val store_bytes : int -> bytes -> unit
(** Store a byte string starting at an 8-byte aligned address,
    decomposed into maximal aligned word stores — this is the [COPY]
    primitive of the paper's queue pseudo-code; every constituent store
    to persistent space is a persist. *)

val load_bytes : int -> int -> bytes
(** [load_bytes addr n] reads [n] bytes via aligned word loads. *)
