open Effect
open Effect.Deep
module Om = Obs.Metrics

(* Store-buffer instrumentation (lib/obs): no-ops while the default
   registry is disabled. *)
let m_drains = Om.counter Om.default "machine.store_buffer_drains"
let m_flushes = Om.counter Om.default "machine.flushes"
let m_fences = Om.counter Om.default "machine.fences"

let m_occupancy =
  Om.histogram Om.default ~buckets:(Om.pow2_buckets 7)
    "machine.store_buffer_occupancy"

let m_pb_enqueues = Om.counter Om.default "machine.persist_buffer_enqueues"
let m_pb_drains = Om.counter Om.default "machine.persist_buffer_drains"

let m_pb_occupancy =
  Om.histogram Om.default ~buckets:(Om.pow2_buckets 7)
    "machine.persist_buffer_occupancy"

type script = {
  mutable forced : int list;
  mutable log : (int * int) list;  (* reversed (choice, runnable count) *)
}

let script ~forced = { forced; log = [] }
let script_choices s = List.rev s.log

type access = {
  addr : int;
  size : int;
  write : bool;
}

type step_info = {
  tid : int;
  index : int;
  next : access option;
}

type guide = {
  choose : step_info array -> int;
  on_step : int -> access list -> unit;
}

type policy =
  | Round_robin
  | Random of int
  | Scripted of script
  | Guided of guide

type model =
  | Sc
  | Tso

type persistence =
  | Psync
  | Pbuffered

type config = {
  name : string;
  model : model;
  persistence : persistence;
}

let sc_config = { name = "sc"; model = Sc; persistence = Psync }
let tso_sync_config = { name = "tso-sync"; model = Tso; persistence = Psync }

let tso_buffered_config =
  { name = "tso-buffered"; model = Tso; persistence = Pbuffered }

let all_configs = [ sc_config; tso_sync_config; tso_buffered_config ]

let config_of_name = function
  | "tso" -> Some tso_sync_config
  | name -> List.find_opt (fun c -> String.equal c.name name) all_configs

type barrier_impl =
  | Pbarrier
  | Flush_sfence

(* Buffer-drain steps are scheduling decisions attributed to a
   pseudo-thread derived from the buffering thread's id, so guides
   (DPOR) can distinguish "thread t runs its next operation" from
   "thread t's store buffer drains one entry".  Persistence-buffer
   drains get their own pseudo-tid range, derived from the drained
   line (per-line FIFO ordering means at most one entry per line is
   ever eligible, so the tid is unique within an enabled set and
   stable across exploration branches). *)
let drain_tid_base = 1 lsl 16
let persist_tid_base = 1 lsl 17
let drain_tid tid = drain_tid_base + tid
let is_drain_tid tid = tid >= drain_tid_base && tid < persist_tid_base
let drain_parent tid = tid - drain_tid_base
let persist_tid addr = persist_tid_base + (addr asr 3)
let is_persist_tid tid = tid >= persist_tid_base

exception Deadlock of int list

(* A parked continuation waiting for a lock hand-off. *)
type waiter = Waiter : int * (unit, unit) continuation -> waiter

type lock = {
  word : int;  (* volatile address of the lock word *)
  mutable owner : int option;
  waiters : waiter Queue.t;
}

type _ op =
  | Self : int op
  | Load : { addr : int; size : int } -> int64 op
  | Store : { addr : int; size : int; value : int64 } -> unit op
  | Rmw : { addr : int; f : int64 -> int64 } -> int64 op
  | Persist_barrier : unit op
  | New_strand : unit op
  | Label : string -> unit op
  | Malloc : { space : Addr.space; size : int } -> int op
  | Free : int -> unit op
  | Yield : unit op
  | Lock_op : lock -> unit op
  | Unlock_op : lock -> unit op
  | Flush_op : { kind : Event.flush_kind; addr : int } -> unit op
  | Fence_op : Event.fence_kind -> unit op

type _ Effect.t += E : 'a op -> 'a Effect.t

(* Runnable entry: thread id, the static footprint of its pending
   operation (None when the step touches no shared location — thread
   starts, lock-grant resumptions, yields), whether the operation
   requires the thread's store buffer to be empty first (TSO locked
   instructions and fences), and the thunk. *)
type entry = {
  tid : int;
  next : access option;
  drains : bool;
  thunk : unit -> unit;
}

(* One FIFO store buffer (TSO).  [bytes] indexes the buffered bytes for
   load forwarding: newest buffered value of each byte plus how many
   buffered stores cover it, so draining keeps the newest value visible
   until the last covering store leaves the buffer. *)
type sb_entry =
  | Sb_store of { addr : int; size : int; value : int64; space : Addr.space }
  | Sb_flush of { kind : Event.flush_kind; addr : int }

type buffer = {
  fifo : sb_entry Queue.t;
  bytes : (int, int * int) Hashtbl.t;  (* byte addr -> (value, count) *)
}

(* One pending entry of the (global) persistence buffer: a line whose
   contents were captured by a flush but have not yet reached NVRAM.
   [pb_epoch] is the flushing thread's fence epoch at capture time:
   entries of an earlier epoch of the same thread must drain first
   (sfence/mfence/locked RMWs only *order* the buffer, they never
   force a drain).  [pb_seq] is a global enqueue stamp giving same-line
   entries their FIFO order. *)
type pb_entry = {
  pb_tid : int;
  pb_kind : Event.flush_kind;
  pb_addr : int;
  pb_epoch : int;
  pb_seq : int;
}

type runq =
  | Fifo of entry Queue.t
  | Bag of entry Vec.t * Random.State.t
  | Script_bag of entry Vec.t * script
  | Guided_bag of entry Vec.t * guide

type t = {
  mem : Memory.t;
  runq : runq;
  model : model;
  persistence : persistence;
  barrier : barrier_impl;
  buffers : (int, buffer) Hashtbl.t;  (* tid -> store buffer (TSO) *)
  pbuf : pb_entry Vec.t;  (* persistence buffer (Pbuffered only) *)
  pepoch : (int, int) Hashtbl.t;  (* tid -> current fence epoch *)
  mutable pseq : int;
  dirty : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* tid -> dirty persistent lines since its last barrier
         (Flush_sfence only) *)
  unfenced : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* tid -> lines flushed since its last fence-like commit point
         (sfence/mfence/persist barrier/locked RMW).  Under synchronous
         Px86 that commit makes exactly these lines durable, so the
         committing step must look like a write to them to systematic
         exploration — line-precise, because widening to the whole
         persistent space makes every fence conflict with every
         persistent access and blows up DPOR on flush-heavy programs. *)
  mutable sink : Event.t -> unit;
  mutable next_tid : int;
  mutable events : int;
  blocked : (int, unit) Hashtbl.t;
  mutable step_log : access list;  (* dynamic footprint of the running
                                      step, newest first (Guided only) *)
}

let create ?(policy = Round_robin) ?(model = Sc) ?(persistence = Psync)
    ?(barrier = Pbarrier) ~memory () =
  let runq =
    match policy with
    | Round_robin -> Fifo (Queue.create ())
    | Random seed -> Bag (Vec.create (), Random.State.make [| seed |])
    | Scripted s -> Script_bag (Vec.create (), s)
    | Guided g -> Guided_bag (Vec.create (), g)
  in
  { mem = memory;
    runq;
    model;
    persistence;
    barrier;
    buffers = Hashtbl.create 8;
    pbuf = Vec.create ();
    pepoch = Hashtbl.create 8;
    pseq = 0;
    dirty = Hashtbl.create 8;
    unfenced = Hashtbl.create 8;
    sink = ignore;
    next_tid = 0;
    events = 0;
    blocked = Hashtbl.create 8;
    step_log = [] }

let memory t = t.mem
let model t = t.model
let persistence t = t.persistence
let set_sink t sink = t.sink <- sink
let event_count t = t.events

let guided t =
  match t.runq with
  | Guided_bag _ -> true
  | Fifo _ | Bag _ | Script_bag _ -> false

let note_access t acc = if guided t then t.step_log <- acc :: t.step_log

let schedule ?(drains = false) t tid next thunk =
  let e = { tid; next; drains; thunk } in
  match t.runq with
  | Fifo q -> Queue.push e q
  | Bag (v, _) | Script_bag (v, _) | Guided_bag (v, _) -> Vec.push v e

let emit t ev =
  t.events <- t.events + 1;
  (if guided t then
     match ev with
     | Event.Access (k, a) ->
       t.step_log <-
         { addr = a.addr; size = a.size; write = k <> Event.Load }
         :: t.step_log
     | Event.Flush { addr; _ } ->
       (* a flush reads the line's contents: it conflicts with stores to
          the line but not with loads or other flushes *)
       t.step_log <- { addr; size = 8; write = false } :: t.step_log
     | Event.Pdrain _ ->
       (* a persistence-buffer drain moves the durable frontier, which
          only later persist-node creations (persistent stores) observe
          through their order edges: a whole-persistent-space read
          conflicts with exactly those stores.  Drain-vs-drain and
          drain-vs-load orders are immaterial — the frontier union is
          commutative, same-line drains are FIFO by construction, and
          loads read cache contents, never durability — so marking the
          drain a whole-space *write* would only send DPOR chasing
          unreversible or unobservable races *)
       t.step_log <-
         { addr = 0; size = Addr.volatile_base; write = false } :: t.step_log
     | Event.Persist_barrier _ | Event.New_strand _ | Event.Label _
     | Event.Fence _ ->
       ());
  t.sink ev

let emit_meta t ev = t.sink ev

(* Store-buffer plumbing (TSO).  Stores and flushes issue into the
   calling thread's buffer without an event; the event is emitted when
   the entry drains, so trace order = drain order = the order in which
   stores become visible to other threads and to the persistency
   engine. *)

let buffer t tid =
  match Hashtbl.find_opt t.buffers tid with
  | Some b -> b
  | None ->
    let b = { fifo = Queue.create (); bytes = Hashtbl.create 16 } in
    Hashtbl.add t.buffers tid b;
    b

let buffer_nonempty t tid =
  match Hashtbl.find_opt t.buffers tid with
  | Some b -> not (Queue.is_empty b.fifo)
  | None -> false

(* Dirty persistent-line tracking for the Flush_sfence barrier
   expansion: every persistent store remembers its lines, and the
   thread's next persist_barrier flushes exactly those. *)

let note_dirty t tid ~addr ~size =
  if t.barrier = Flush_sfence && Addr.space_of addr = Addr.Persistent then begin
    let lines =
      match Hashtbl.find_opt t.dirty tid with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 16 in
        Hashtbl.add t.dirty tid h;
        h
    in
    for line = addr asr 3 to (addr + size - 1) asr 3 do
      Hashtbl.replace lines (line lsl 3) ()
    done
  end

let take_dirty t tid =
  match Hashtbl.find_opt t.dirty tid with
  | None -> []
  | Some h ->
    let lines = Hashtbl.fold (fun a () acc -> a :: acc) h [] in
    Hashtbl.reset h;
    List.sort compare lines

let push_store t tid ~addr ~size ~value =
  note_dirty t tid ~addr ~size;
  let buf = buffer t tid in
  Queue.push (Sb_store { addr; size; value; space = Addr.space_of addr })
    buf.fifo;
  for i = 0 to size - 1 do
    let byte =
      Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xFFL)
    in
    let count =
      match Hashtbl.find_opt buf.bytes (addr + i) with
      | Some (_, n) -> n
      | None -> 0
    in
    Hashtbl.replace buf.bytes (addr + i) (byte, count + 1)
  done;
  Om.observe m_occupancy (float_of_int (Queue.length buf.fifo))

let mark_unfenced t tid ~addr =
  let lines =
    match Hashtbl.find_opt t.unfenced tid with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add t.unfenced tid h;
      h
  in
  Hashtbl.replace lines (addr land lnot 7) ()

let push_flush t tid ~kind ~addr =
  mark_unfenced t tid ~addr;
  let buf = buffer t tid in
  Queue.push (Sb_flush { kind; addr }) buf.fifo;
  Om.observe m_occupancy (float_of_int (Queue.length buf.fifo))

(* Synchronous-Px86 flush commit (see [unfenced]).  The commit moves
   the durable frontier: every persist node created after it — i.e.
   every later persistent *store*, whose order edges are computed
   against the frontier — is ordered after the committed lines, so the
   committing step must race with other threads' persistent stores for
   DPOR to explore both orders (store-before-commit admits a crash
   with the store durable and the flushed line not; store-after-commit
   forbids it).  Loads and flush captures read cache contents and
   never observe durability, so a whole-persistent-space *read* is the
   exact footprint: it conflicts with writes and nothing else.
   (Widening the commit to a whole-space write makes every fence
   conflict with every traversal load and blows up DPOR on flush-heavy
   programs.) *)
let frontier_read = { addr = 0; size = Addr.volatile_base; write = false }

let pending_commit t tid =
  t.persistence = Psync
  &&
  match Hashtbl.find_opt t.unfenced tid with
  | Some lines -> Hashtbl.length lines > 0
  | None -> false

let note_commit t tid =
  if pending_commit t tid then begin
    Hashtbl.reset (Hashtbl.find t.unfenced tid);
    note_access t frontier_read
  end

let commit_footprint t tid fp =
  if not (pending_commit t tid) then fp
  else
    Some
      (match fp with
      | None -> frontier_read
      | Some f ->
        (* static over-approximation: union the op's own footprint with
           the frontier read (sleep-set filter only — may wake sleepers
           spuriously, never misses a race) *)
        let hi = max (f.addr + f.size) Addr.volatile_base in
        { addr = 0; size = hi; write = f.write })

(* Persistence buffer (Pbuffered).  A flush *captures* the line at the
   point its Flush event enters the trace (exec under SC, store-buffer
   drain under TSO) and enqueues it; the captured line reaches NVRAM
   only when a later Pdrain step — a scheduler decision — retires the
   entry.  Fences never wait on this buffer: they only stamp a frontier
   (the thread's fence epoch) that constrains drain order. *)

let cur_epoch t tid =
  match Hashtbl.find_opt t.pepoch tid with Some e -> e | None -> 0

let bump_epoch t tid =
  if t.persistence = Pbuffered then
    Hashtbl.replace t.pepoch tid (cur_epoch t tid + 1)

let note_flush t tid ~kind ~addr =
  Om.incr m_flushes;
  mark_unfenced t tid ~addr;
  emit t (Event.Flush { tid; kind; addr });
  if t.persistence = Pbuffered then begin
    t.pseq <- t.pseq + 1;
    Om.incr m_pb_enqueues;
    Vec.push t.pbuf
      { pb_tid = tid; pb_kind = kind; pb_addr = addr;
        pb_epoch = cur_epoch t tid; pb_seq = t.pseq };
    Om.observe m_pb_occupancy (float_of_int (Vec.length t.pbuf))
  end

let pb_line e = e.pb_addr asr 3

(* An entry may drain when no pending same-line entry precedes it
   (per-line FIFO) and no pending entry of its thread carries an
   earlier fence epoch (the frontier a fence marked). *)
let pb_eligible t i =
  let e = Vec.get t.pbuf i in
  let ok = ref true in
  for j = 0 to Vec.length t.pbuf - 1 do
    if j <> i then begin
      let f = Vec.get t.pbuf j in
      if
        (pb_line f = pb_line e && f.pb_seq < e.pb_seq)
        || (f.pb_tid = e.pb_tid && f.pb_epoch < e.pb_epoch)
      then ok := false
    end
  done;
  !ok

(* The entry with the globally smallest enqueue stamp is always
   eligible: any blocker would have to precede it. *)
let pb_oldest t =
  let best = ref (-1) in
  for i = 0 to Vec.length t.pbuf - 1 do
    if
      !best < 0 || (Vec.get t.pbuf i).pb_seq < (Vec.get t.pbuf !best).pb_seq
    then best := i
  done;
  !best

let pdrain t i =
  let e = Vec.swap_remove t.pbuf i in
  Om.incr m_pb_drains;
  emit t (Event.Pdrain { tid = e.pb_tid; kind = e.pb_kind; addr = e.pb_addr })

(* Static footprint of the oldest buffered entry: what the next drain
   step of this thread will touch. *)
let drain_footprint t tid =
  match Hashtbl.find_opt t.buffers tid with
  | None -> None
  | Some buf ->
    (match Queue.peek_opt buf.fifo with
    | None -> None
    | Some (Sb_store { addr; size; _ }) -> Some { addr; size; write = true }
    | Some (Sb_flush { addr; _ }) -> Some { addr; size = 8; write = false })

(* Drain the oldest entry of [tid]'s buffer: apply the store to memory
   (or emit the flush) and emit the event — this is the point where the
   write enters the global memory order. *)
let drain_one t tid =
  let buf = Hashtbl.find t.buffers tid in
  match Queue.take buf.fifo with
  | Sb_store { addr; size; value; space } ->
    for i = 0 to size - 1 do
      (match Hashtbl.find_opt buf.bytes (addr + i) with
      | Some (_, 1) -> Hashtbl.remove buf.bytes (addr + i)
      | Some (v, n) -> Hashtbl.replace buf.bytes (addr + i) (v, n - 1)
      | None -> assert false)
    done;
    Memory.store t.mem ~addr ~size value;
    Om.incr m_drains;
    emit t (Event.Access (Event.Store, { tid; addr; size; value; space }))
  | Sb_flush { kind; addr } ->
    Om.incr m_drains;
    note_flush t tid ~kind ~addr

let drain_all t tid =
  while buffer_nonempty t tid do
    drain_one t tid
  done

(* Load forwarding: a TSO load reads memory, then overlays any bytes
   the calling thread still has buffered (its own newest values). *)
let load_forwarded t tid ~addr ~size =
  let v = Memory.load t.mem ~addr ~size in
  match Hashtbl.find_opt t.buffers tid with
  | None -> v
  | Some buf ->
    if Hashtbl.length buf.bytes = 0 then v
    else begin
      let v = ref v in
      for i = 0 to size - 1 do
        match Hashtbl.find_opt buf.bytes (addr + i) with
        | Some (byte, _) ->
          let shift = 8 * i in
          let mask = Int64.shift_left 0xFFL shift in
          v :=
            Int64.logor
              (Int64.logand !v (Int64.lognot mask))
              (Int64.shift_left (Int64.of_int byte) shift)
        | None -> ()
      done;
      !v
    end

(* Grant [l] to [tid]: update the lock word and emit the acquire RMW
   event that makes the acquisition visible to conflict analyses. *)
let grant t tid l =
  l.owner <- Some tid;
  Memory.store t.mem ~addr:l.word ~size:8 1L;
  bump_epoch t tid;  (* lock acquires are locked RMWs: persist ordering *)
  note_commit t tid;
  emit t
    (Event.Access
       ( Event.Rmw,
         { tid; addr = l.word; size = 8; value = 1L; space = Addr.Volatile } ))

let exec : type a. t -> int -> a op -> a =
 fun t tid op ->
  match op with
  | Self -> tid
  | Load { addr; size } ->
    let value =
      match t.model with
      | Sc -> Memory.load t.mem ~addr ~size
      | Tso -> load_forwarded t tid ~addr ~size
    in
    emit t
      (Event.Access
         (Event.Load, { tid; addr; size; value; space = Addr.space_of addr }));
    value
  | Store { addr; size; value } ->
    note_dirty t tid ~addr ~size;
    Memory.store t.mem ~addr ~size value;
    emit t
      (Event.Access
         (Event.Store, { tid; addr; size; value; space = Addr.space_of addr }));
    ()
  | Rmw { addr; f } ->
    let old = Memory.load t.mem ~addr ~size:8 in
    let value = f old in
    note_dirty t tid ~addr ~size:8;
    Memory.store t.mem ~addr ~size:8 value;
    bump_epoch t tid;  (* locked instruction: orders the persist buffer *)
    note_commit t tid;
    emit t
      (Event.Access
         (Event.Rmw, { tid; addr; size = 8; value; space = Addr.space_of addr }));
    old
  | Persist_barrier ->
    bump_epoch t tid;
    note_commit t tid;
    emit_meta t (Event.Persist_barrier tid);
    ()
  | New_strand ->
    emit_meta t (Event.New_strand tid);
    ()
  | Label s ->
    emit_meta t (Event.Label (tid, s));
    ()
  | Malloc { space; size } -> Memory.alloc t.mem space size
  | Free addr -> Memory.free t.mem addr
  | Yield -> ()
  | Flush_op { kind; addr } ->
    note_flush t tid ~kind ~addr;
    ()
  | Fence_op kind ->
    Om.incr m_fences;
    bump_epoch t tid;
    note_commit t tid;
    emit_meta t (Event.Fence { tid; kind });
    ()
  | Lock_op _ -> assert false  (* handled in [dispatch] *)
  | Unlock_op l ->
    (match l.owner with
    | Some owner when owner = tid -> ()
    | Some _ | None ->
      invalid_arg "Machine.unlock: calling thread does not hold the lock");
    Memory.store t.mem ~addr:l.word ~size:8 0L;
    emit t
      (Event.Access
         ( Event.Store,
           { tid; addr = l.word; size = 8; value = 0L; space = Addr.Volatile }
         ));
    (match Queue.take_opt l.waiters with
    | Some (Waiter (tid', k')) ->
      Hashtbl.remove t.blocked tid';
      grant t tid' l;
      schedule t tid' None (fun () -> continue k' ())
    | None -> l.owner <- None);
    ()

(* Static footprint of a pending scheduling-point operation: the shared
   locations its step is known to touch before it runs.  A lock
   operation's footprint is the lock word (treated as a write: the
   acquire is an RMW, and a blocked attempt still orders against the
   release).  This is what a systematic explorer uses as the "next
   transition" of an enabled-but-not-chosen thread. *)
let static_footprint : type a. a op -> access option = function
  | Load { addr; size } -> Some { addr; size; write = false }
  | Store { addr; size; _ } -> Some { addr; size; write = true }
  | Rmw { addr; _ } -> Some { addr; size = 8; write = true }
  | Lock_op l -> Some { addr = l.word; size = 8; write = true }
  | Unlock_op l -> Some { addr = l.word; size = 8; write = true }
  | Flush_op { addr; _ } -> Some { addr; size = 8; write = false }
  | Self | Yield -> None
  | Fence_op _ -> None
  | Persist_barrier | New_strand | Label _ | Malloc _ | Free _ -> None

let dispatch : type a. t -> int -> a op -> (a, unit) continuation -> unit =
 fun t tid op k ->
  let tso = t.model = Tso in
  match op with
  | Lock_op l ->
    (* under TSO the acquire is a locked instruction: it waits for the
       thread's own buffer to drain first; granting commits pending
       flushes like a fence (RMW-as-fence) *)
    schedule ~drains:tso t tid (commit_footprint t tid (static_footprint op))
      (fun () ->
        match l.owner with
        | None ->
          grant t tid l;
          continue k ()
        | Some owner when owner = tid ->
          discontinue k
            (Invalid_argument "Machine.lock: lock is not reentrant")
        | Some _ ->
          (* The blocked attempt emits no event, but the step still
             read the lock word; record it for conflict analyses. *)
          note_access t { addr = l.word; size = 8; write = true };
          Hashtbl.replace t.blocked tid ();
          Queue.push (Waiter (tid, k)) l.waiters)
  (* Operations that touch no shared state are not scheduling points:
     reordering them against other threads' events is unobservable, so
     executing them inline is a sound partial-order reduction — it
     keeps systematic exploration (Explore, Check.Dpor) over memory
     accesses only. *)
  | New_strand | Label _ | Malloc _ | Free _ ->
    continue k (exec t tid op)
  | Store { addr; size; value } when tso ->
    (* a TSO store issues into the thread's private buffer: invisible
       to other threads until it drains, so issuing inline (no
       scheduling point, no event) is the same partial-order reduction
       — the drain step is where the interleaving choice lives *)
    push_store t tid ~addr ~size ~value;
    continue k ()
  | Flush_op { kind; addr } when tso ->
    (* clflushopt/clwb enter the store buffer like stores.  (FIFO
       draining makes them slightly stronger than real clflushopt,
       which may overtake earlier stores to other lines; the fence
       semantics the analyses rely on are unaffected.) *)
    push_flush t tid ~kind ~addr;
    continue k ()
  | Persist_barrier when t.barrier = Flush_sfence ->
    (* flush+sfence annotation (NVTraverse-style Px86): the barrier
       expands into clflushopt of every line this thread dirtied since
       its previous barrier, followed by an sfence.  Under TSO the
       flushes enter the store buffer in program order and the fence
       waits for it to drain, exactly as if the workload had issued
       them itself. *)
    let lines = take_dirty t tid in
    if tso then begin
      List.iter
        (fun addr -> push_flush t tid ~kind:Event.Clflushopt ~addr)
        lines;
      schedule ~drains:true t tid (commit_footprint t tid None) (fun () ->
          continue k (exec t tid (Fence_op Event.Sfence)))
    end
    else begin
      List.iter
        (fun addr -> note_flush t tid ~kind:Event.Clflushopt ~addr)
        lines;
      match commit_footprint t tid None with
      | Some _ as fp ->
        schedule t tid fp (fun () ->
            continue k (exec t tid (Fence_op Event.Sfence)))
      | None -> continue k (exec t tid (Fence_op Event.Sfence))
    end
  | Persist_barrier ->
    if tso then
      (* mfence-like: wait for the buffer, then mark the epoch *)
      schedule ~drains:true t tid (commit_footprint t tid None) (fun () ->
          continue k (exec t tid op))
    else begin
      (* committing pending flushes is visible to other threads' crash
         outcomes (synchronous Px86 makes the lines durable), so the
         barrier becomes a scheduling point exactly when it commits *)
      match commit_footprint t tid None with
      | Some _ as fp -> schedule t tid fp (fun () -> continue k (exec t tid op))
      | None -> continue k (exec t tid op)
    end
  | Fence_op _ ->
    if tso then
      schedule ~drains:true t tid (commit_footprint t tid None) (fun () ->
          continue k (exec t tid op))
    else begin
      match commit_footprint t tid None with
      | Some _ as fp -> schedule t tid fp (fun () -> continue k (exec t tid op))
      | None -> continue k (exec t tid op)
    end
  | Rmw _ ->
    (* locked instruction: drains first (TSO) and commits pending
       flushes like a fence (RMW-as-fence) *)
    schedule ~drains:tso t tid (commit_footprint t tid (static_footprint op))
      (fun () -> continue k (exec t tid op))
  | Unlock_op _ ->
    (* write-through release: drains first (TSO) *)
    schedule ~drains:tso t tid (static_footprint op) (fun () ->
        continue k (exec t tid op))
  | Self | Load _ | Store _ | Flush_op _ | Yield ->
    schedule t tid (static_footprint op) (fun () -> continue k (exec t tid op))

let spawn t body =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let start () =
    match_with body ()
      { retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | E op ->
              Some (fun (k : (a, unit) continuation) -> dispatch t tid op k)
            | _ -> None) }
  in
  schedule t tid None start;
  tid

(* A scheduling choice: run a thread's next operation, or drain the
   oldest store-buffer entry of a thread.  Thread entries whose
   operation needs an empty buffer ([drains]) are withheld from the
   choice set while their buffer is non-empty — their drain agent is
   offered instead, so every chosen step performs at most one shared
   access (what DPOR's footprints assume). *)
type pick =
  | Pick_entry of int  (* index into the bag *)
  | Pick_drain of int  (* tid whose buffer drains one entry *)
  | Pick_persist of int  (* index into the persistence buffer *)

type step = {
  eff_tid : int;  (* drain pseudo-tid for drain steps *)
  exec_step : unit -> unit;
}

let picks t v =
  let ps = Vec.create () in
  for i = 0 to Vec.length v - 1 do
    let e = Vec.get v i in
    if not (e.drains && buffer_nonempty t e.tid) then Vec.push ps (Pick_entry i)
  done;
  for tid = 0 to t.next_tid - 1 do
    if buffer_nonempty t tid then Vec.push ps (Pick_drain tid)
  done;
  for i = 0 to Vec.length t.pbuf - 1 do
    if pb_eligible t i then Vec.push ps (Pick_persist i)
  done;
  ps

let step_of_pick t v = function
  | Pick_entry i ->
    let e = Vec.get v i in
    { eff_tid = e.tid;
      exec_step =
        (fun () ->
          ignore (Vec.swap_remove v i);
          e.thunk ()) }
  | Pick_drain tid ->
    { eff_tid = drain_tid tid; exec_step = (fun () -> drain_one t tid) }
  | Pick_persist i ->
    { eff_tid = persist_tid (Vec.get t.pbuf i).pb_addr;
      exec_step = (fun () -> pdrain t i) }

(* Fifo (round-robin) keeps its deterministic shape under TSO: a
   drain-requiring operation first drains its own buffer in place, and
   leftover buffers drain in tid order once the run queue empties. *)
let take_runnable t =
  match t.runq with
  | Fifo q ->
    (match Queue.take_opt q with
    | Some e ->
      Some
        { eff_tid = e.tid;
          exec_step =
            (fun () ->
              if e.drains then drain_all t e.tid;
              e.thunk ()) }
    | None ->
      let rec first tid =
        if tid >= t.next_tid then None
        else if buffer_nonempty t tid then
          Some
            { eff_tid = drain_tid tid;
              exec_step = (fun () -> drain_one t tid) }
        else first (tid + 1)
      in
      (match first 0 with
      | Some s -> Some s
      | None ->
        (* persistence-buffer entries retire oldest-first once the run
           queue and every store buffer are empty, keeping round-robin
           deterministic *)
        if Vec.is_empty t.pbuf then None
        else
          let i = pb_oldest t in
          Some
            { eff_tid = persist_tid (Vec.get t.pbuf i).pb_addr;
              exec_step = (fun () -> pdrain t i) }))
  | Bag (v, rng) ->
    let ps = picks t v in
    if Vec.is_empty ps then None
    else
      Some
        (step_of_pick t v (Vec.get ps (Random.State.int rng (Vec.length ps))))
  | Script_bag (v, s) ->
    let ps = picks t v in
    if Vec.is_empty ps then None
    else begin
      let n = Vec.length ps in
      let idx =
        match s.forced with
        | i :: rest ->
          s.forced <- rest;
          if i < 0 || i >= n then
            invalid_arg "Machine: script choice out of range";
          i
        | [] -> 0
      in
      s.log <- (idx, n) :: s.log;
      Some (step_of_pick t v (Vec.get ps idx))
    end
  | Guided_bag (v, g) ->
    let ps = picks t v in
    if Vec.is_empty ps then None
    else begin
      let n = Vec.length ps in
      let infos =
        Array.init n (fun i ->
            match Vec.get ps i with
            | Pick_entry j ->
              let e = Vec.get v j in
              { tid = e.tid; index = i; next = e.next }
            | Pick_drain tid ->
              { tid = drain_tid tid; index = i; next = drain_footprint t tid }
            | Pick_persist j ->
              { tid = persist_tid (Vec.get t.pbuf j).pb_addr;
                index = i;
                next =
                  Some { addr = 0; size = Addr.volatile_base; write = false } })
      in
      Array.sort
        (fun (a : step_info) (b : step_info) -> compare a.tid b.tid)
        infos;
      let tid = g.choose infos in
      let idx = ref (-1) in
      for i = 0 to n - 1 do
        if !idx < 0 then
          match Vec.get ps i with
          | Pick_entry j -> if (Vec.get v j).tid = tid then idx := i
          | Pick_drain t' -> if drain_tid t' = tid then idx := i
          | Pick_persist j ->
            if persist_tid (Vec.get t.pbuf j).pb_addr = tid then idx := i
      done;
      if !idx < 0 then
        invalid_arg
          (Printf.sprintf "Machine: guide chose tid %d, which is not runnable"
             tid);
      Some (step_of_pick t v (Vec.get ps !idx))
    end

let run t =
  let rec loop () =
    match take_runnable t with
    | Some step ->
      (match t.runq with
      | Guided_bag (_, g) ->
        t.step_log <- [];
        step.exec_step ();
        g.on_step step.eff_tid (List.rev t.step_log)
      | Fifo _ | Bag _ | Script_bag _ -> step.exec_step ());
      loop ()
    | None ->
      if Hashtbl.length t.blocked > 0 then
        raise (Deadlock (Hashtbl.fold (fun tid () acc -> tid :: acc) t.blocked []))
  in
  loop ()

(* Thread-context wrappers. *)

let self () = perform (E Self)
let load addr = perform (E (Load { addr; size = 8 }))
let load_sz ~size addr = perform (E (Load { addr; size }))
let store addr value = perform (E (Store { addr; size = 8; value }))
let store_sz ~size addr value = perform (E (Store { addr; size; value }))
let rmw addr f = perform (E (Rmw { addr; f }))
let fetch_add addr n = rmw addr (fun v -> Int64.add v n)
let persist_barrier () = perform (E Persist_barrier)
let new_strand () = perform (E New_strand)
let label s = perform (E (Label s))
let malloc space size = perform (E (Malloc { space; size }))
let mfree addr = perform (E (Free addr))
let yield () = perform (E Yield)
let lock l = perform (E (Lock_op l))
let unlock l = perform (E (Unlock_op l))
let clflushopt addr = perform (E (Flush_op { kind = Event.Clflushopt; addr }))
let clwb addr = perform (E (Flush_op { kind = Event.Clwb; addr }))
let sfence () = perform (E (Fence_op Event.Sfence))
let mfence () = perform (E (Fence_op Event.Mfence))

let mutex t =
  let word = Memory.alloc t.mem Addr.Volatile 8 in
  { word; owner = None; waiters = Queue.create () }

(* [COPY]: maximal aligned word stores.  [addr] must be 8-byte
   aligned; the tail is stored with progressively smaller accesses. *)
let store_bytes addr data =
  if not (Addr.is_aligned ~size:8 addr) then
    invalid_arg "Machine.store_bytes: address must be 8-byte aligned";
  let n = Bytes.length data in
  let off = ref 0 in
  while n - !off >= 8 do
    store (addr + !off) (Bytes.get_int64_le data !off);
    off := !off + 8
  done;
  let store_tail size get =
    if n - !off >= size then begin
      store_sz ~size (addr + !off) (get data !off);
      off := !off + size
    end
  in
  store_tail 4 (fun b o -> Int64.of_int32 (Bytes.get_int32_le b o));
  store_tail 2 (fun b o -> Int64.of_int (Bytes.get_uint16_le b o));
  store_tail 1 (fun b o -> Int64.of_int (Bytes.get_uint8 b o))

let load_bytes addr n =
  if not (Addr.is_aligned ~size:8 addr) then
    invalid_arg "Machine.load_bytes: address must be 8-byte aligned";
  let out = Bytes.create n in
  let off = ref 0 in
  while n - !off >= 8 do
    Bytes.set_int64_le out !off (load (addr + !off));
    off := !off + 8
  done;
  let load_tail size set =
    if n - !off >= size then begin
      set out !off (load_sz ~size (addr + !off));
      off := !off + size
    end
  in
  load_tail 4 (fun b o v -> Bytes.set_int32_le b o (Int64.to_int32 v));
  load_tail 2 (fun b o v -> Bytes.set_uint16_le b o (Int64.to_int v land 0xffff));
  load_tail 1 (fun b o v -> Bytes.set_uint8 b o (Int64.to_int v land 0xff));
  out
